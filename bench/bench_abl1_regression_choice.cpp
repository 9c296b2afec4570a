// Ablation 1 (paper Sec 4, difference (1)): linear regression on fractional
// soft responses vs logistic regression on binarized hard responses for
// enrollment-model extraction.
//
// The paper argues soft responses carry delay-magnitude information that a
// hard-response logistic fit discards. This bench quantifies that: weight-
// vector fidelity against the (simulation-only) ground truth, hard-response
// prediction accuracy, and the usable-stable-CRP yield at matched safety.
#include <cmath>
#include <cstdio>
#include <span>

#include "bench_common.hpp"
#include "common/math.hpp"
#include "ml/linear_regression.hpp"
#include "ml/logistic_regression.hpp"
#include "puf/threshold_adjust.hpp"

int main(int argc, char** argv) {
  using namespace xpuf;
  benchutil::BenchHarness bench(argc, argv, "abl1_regression_choice",
                                "Ablation 1: linear-on-soft vs logistic-on-hard enrollment");
  const BenchScale& scale = bench.scale();

  sim::ChipPopulation pop(benchutil::population_config(scale));
  Rng rng = pop.measurement_rng();
  const auto& chip = pop.chip(0);
  const auto env = sim::Environment::nominal();

  const std::vector<std::size_t> train_sizes{500, 2'000, 5'000};
  Table t("Enrollment-model quality, PUF 0 (ground-truth access is simulation-only)");
  t.set_header({"train size", "method", "weight corr", "hard accuracy",
                "stable yield @0 violations"});
  CsvWriter csv(benchutil::out_dir() + "/abl1_regression_choice.csv",
                {"train_size", "method", "weight_corr", "hard_accuracy", "yield"});

  const linalg::Vector w_true = chip.device_for_analysis(0).reduced_weights(env);
  const std::size_t k = w_true.size() - 1;

  // Shared evaluation artifacts.
  const std::size_t test_n = std::min<std::size_t>(scale.challenges, 20'000);
  Rng test_rng(404);
  const auto test_challenges = puf::random_challenges(chip.stages(), test_n, test_rng);
  const auto eval_block =
      puf::measure_evaluation_block(chip, test_challenges, env, scale.trials, rng);

  for (std::size_t train_n : train_sizes) {
    sim::ChipTester tester(env, scale.trials, rng.fork());
    const auto challenges = tester.random_challenges(chip, train_n);
    const auto scan = tester.scan_individual(chip, challenges);
    const linalg::Matrix phi = puf::feature_matrix(challenges);

    struct Candidate {
      std::string name;
      linalg::Vector weights;   // prediction = phi . weights (+ center shift)
      std::vector<double> predictions;  // on the training set
    };
    std::vector<Candidate> candidates;

    {  // Linear regression on soft responses (the paper's choice).
      ml::Dataset data;
      data.x = phi;
      data.y = linalg::Vector(std::vector<double>(scan.soft[0].begin(), scan.soft[0].end()));
      ml::LinearRegression reg;
      reg.fit(data);
      Candidate c{"linear (soft)", reg.coefficients(), {}};
      const linalg::Vector preds = reg.predict(phi);
      c.predictions.assign(preds.begin(), preds.end());
      candidates.push_back(std::move(c));
    }
    {  // Logistic regression on hard responses (the conventional choice).
      ml::Dataset data;
      data.x = phi;
      data.y = linalg::Vector(train_n);
      for (std::size_t i = 0; i < train_n; ++i) data.y[i] = scan.soft[0][i] >= 0.5;
      ml::LogisticRegression reg;
      reg.fit(data);
      Candidate c{"logistic (hard)", reg.weights(), {}};
      const linalg::Vector probs = reg.predict_probability(phi);
      c.predictions.assign(probs.begin(), probs.end());
      candidates.push_back(std::move(c));
    }

    for (const auto& cand : candidates) {
      const double corr = pearson_correlation(
          std::span<const double>(w_true.data(), k),
          std::span<const double>(cand.weights.data(), k));

      // Hard-response accuracy against the noise-free device sign.
      const bool logistic = cand.name[0] == 'l' && cand.name[2] == 'g';
      std::size_t hits = 0;
      for (const auto& ch : test_challenges) {
        double pred = 0.0;
        const linalg::Vector f = puf::feature_vector(ch);
        for (std::size_t i = 0; i < f.size(); ++i) pred += cand.weights[i] * f[i];
        const bool bit = logistic ? pred > 0.0 : pred > 0.5;
        if (bit == (chip.device_for_analysis(0).delay_difference(ch, env) > 0.0)) ++hits;
      }
      const double accuracy = static_cast<double>(hits) / static_cast<double>(test_n);

      // Stable-CRP yield at zero violations: derive thresholds from the
      // training predictions, then tighten on the evaluation block until no
      // selected CRP is unstable, and report the surviving yield.
      const puf::ThresholdPair thr = puf::derive_thresholds(
          cand.predictions, std::span<const double>(scan.soft[0]));
      std::vector<double> eval_preds(test_n);
      for (std::size_t i = 0; i < test_n; ++i) {
        double pred = logistic ? 0.0 : 0.0;
        const linalg::Vector f = puf::feature_vector(test_challenges[i]);
        for (std::size_t j = 0; j < f.size(); ++j) pred += cand.weights[j] * f[j];
        if (logistic) pred = sigmoid(pred);
        eval_preds[i] = pred;
      }
      puf::BetaFactors betas{1.0, 1.0};
      auto violations = [&](const puf::BetaFactors& b) {
        const puf::ThresholdPair tt = puf::tighten(thr, b);
        std::size_t v = 0;
        for (std::size_t i = 0; i < test_n; ++i) {
          if (eval_preds[i] < tt.thr0 && eval_block.soft[0][i] != 0.0) ++v;
          else if (eval_preds[i] > tt.thr1 && eval_block.soft[0][i] != 1.0) ++v;
        }
        return v;
      };
      while (violations({betas.beta0, 1.0}) > 0 && betas.beta0 > 0.06) betas.beta0 -= 0.01;
      while (violations({1.0, betas.beta1}) - violations({1.0, 1e9}) > 0 &&
             betas.beta1 < 4.0)
        betas.beta1 += 0.01;
      const puf::ThresholdPair tt = puf::tighten(thr, betas);
      std::size_t yield = 0;
      for (std::size_t i = 0; i < test_n; ++i)
        if (tt.is_stable(eval_preds[i])) ++yield;

      t.add_row({std::to_string(train_n), cand.name, Table::num(corr, 4),
                 Table::pct(accuracy, 2),
                 Table::pct(static_cast<double>(yield) / static_cast<double>(test_n), 2)});
      csv.write_row(std::vector<std::string>{
          std::to_string(train_n), cand.name, Table::num(corr, 5),
          Table::num(accuracy, 5), Table::num(static_cast<double>(yield) / static_cast<double>(test_n), 5)});
    }
  }
  t.print();
  std::printf("\npaper rationale: soft responses are fractional, so a linear fit "
              "extracts magnitude information a hard-response logistic fit cannot; "
              "expect higher yield at equal safety for 'linear (soft)'.\n");
  return 0;
}
