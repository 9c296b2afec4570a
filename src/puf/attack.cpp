#include "puf/attack.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "ml/metrics.hpp"
#include "puf/transform.hpp"

namespace xpuf::puf {

namespace {
// Fixed shard sizes for the parallel CRP measurement loop and the XOR-LR
// gradient reduction (thread-count independent, see common/parallel.hpp).
constexpr std::size_t kCrpChunk = 64;
constexpr std::size_t kGradChunk = 512;
}  // namespace

AttackDataset build_stable_attack_dataset(const sim::XorPufChip& chip,
                                          const AttackDatasetConfig& config, Rng& rng) {
  XPUF_REQUIRE(config.n_pufs >= 1 && config.n_pufs <= chip.puf_count(),
               "attack n_pufs out of range");
  XPUF_REQUIRE(config.train_fraction > 0.0 && config.train_fraction < 1.0,
               "train_fraction must be in (0, 1)");
  XPUF_REQUIRE(config.trials > 0, "soft-response measurement needs at least one trial");

  const std::size_t k = chip.stages();

  // Each challenge draws its generation AND measurement randomness from a
  // private stream keyed by its index, so the corpus is bit-identical for
  // any thread count. Results land in per-index slots and are compacted in
  // index order below.
  //
  // The noise-free probabilities go through the batched evaluation core:
  // each chunk draws its challenges first, packed (keeping every item
  // stream alive; random_packed_challenge_into makes random_challenge's
  // draws), runs one parity tile for all (challenge, PUF) cells, then draws
  // the binomial counters per item — in PUF order with the historical
  // early exit at the first unstable tap, so each item stream consumes
  // draws exactly as the per-cell measurement loop did.
  const sim::ChipLinearView view =
      chip.linear_view(config.environment, config.n_pufs);
  const StreamFamily streams(rng.fork_base());
  const std::size_t n_words = sim::packed_words(k);
  std::vector<Challenge> drawn(config.challenges);
  std::vector<std::uint8_t> keep(config.challenges, 0);
  std::vector<std::uint8_t> bits(config.challenges, 0);
  parallel_for(config.challenges, kCrpChunk,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 const std::size_t m = end - begin;
                 std::vector<Rng> item_rngs;
                 item_rngs.reserve(m);
                 std::vector<std::uint64_t> words(m * n_words);
                 for (std::size_t i = begin; i < end; ++i) {
                   item_rngs.push_back(streams.stream(i));
                   sim::random_packed_challenge_into(
                       {words.data() + (i - begin) * n_words, n_words}, k, item_rngs.back());
                 }
                 std::vector<std::uint64_t> parity(words.size());
                 sim::suffix_parity_words(words, k, parity);
                 std::vector<double> probs(m * config.n_pufs);
                 view.one_probabilities_into(parity, 0, m, probs.data());
                 for (std::size_t r = 0; r < m; ++r) {
                   Rng& item_rng = item_rngs[r];
                   const double* row = probs.data() + r * config.n_pufs;
                   bool all_stable = true;
                   bool xorr = false;
                   for (std::size_t p = 0; p < config.n_pufs; ++p) {
                     const std::uint64_t ones = item_rng.binomial(config.trials, row[p]);
                     if (ones != 0 && ones != config.trials) {
                       all_stable = false;
                       break;
                     }
                     xorr ^= (ones == config.trials);
                   }
                   if (all_stable) {
                     sim::unpack_challenge_into({words.data() + r * n_words, n_words}, k,
                                                drawn[begin + r]);
                     keep[begin + r] = 1;
                     bits[begin + r] = xorr ? 1 : 0;
                   }
                 }
               });

  std::vector<Challenge> stable_challenges;
  std::vector<double> xor_bits;
  for (std::size_t i = 0; i < config.challenges; ++i) {
    if (!keep[i]) continue;
    stable_challenges.push_back(std::move(drawn[i]));
    xor_bits.push_back(bits[i] ? 1.0 : 0.0);
  }

  AttackDataset out;
  out.n_pufs = config.n_pufs;
  out.challenges_measured = config.challenges;
  out.stable_fraction = config.challenges == 0
                            ? 0.0
                            : static_cast<double>(stable_challenges.size()) /
                                  static_cast<double>(config.challenges);
  if (stable_challenges.empty()) return out;

  ml::Dataset all;
  all.x = feature_matrix(stable_challenges);
  all.y = linalg::Vector(std::move(xor_bits));
  // Challenges were drawn i.i.d., so a head split is already random.
  const auto n_train = static_cast<std::size_t>(
      config.train_fraction * static_cast<double>(all.size()));
  auto [train, test] = all.head_split(n_train);
  out.train = std::move(train);
  out.test = std::move(test);
  return out;
}

AttackResult run_mlp_attack(const AttackDataset& data, const MlpAttackConfig& config) {
  XPUF_REQUIRE(!data.train.empty(), "MLP attack needs a non-empty training set");
  XPUF_REQUIRE(config.restarts >= 1, "MLP attack needs at least one restart");

  AttackResult result;
  result.train_size = data.train.size();
  result.test_size = data.test.size();

  double best_loss = 0.0;
  ml::Mlp best_model(data.train.features(), config.mlp);
  Timer timer;
  for (std::size_t r = 0; r < config.restarts; ++r) {
    ml::MlpOptions opts = config.mlp;
    opts.seed = config.mlp.seed + r;
    ml::Mlp mlp(data.train.features(), opts);
    const ml::LbfgsResult fit = mlp.fit(data.train, config.lbfgs);
    result.optimizer_iterations += fit.iterations;
    if (r == 0 || fit.value < best_loss) {
      best_loss = fit.value;
      best_model = std::move(mlp);
    }
  }
  result.train_time_ms = timer.millis();

  const linalg::Vector train_pred = best_model.predict(data.train.x);
  result.train_accuracy = ml::accuracy(train_pred.span(), data.train.y.span());
  if (!data.test.empty()) {
    const linalg::Vector test_pred = best_model.predict(data.test.x);
    result.test_accuracy = ml::accuracy(test_pred.span(), data.test.y.span());
  }
  return result;
}

namespace {

/// Per-shard accumulator for the XOR-LR gradient reduction.
struct XorLossGrad {
  double loss = 0.0;
  linalg::Vector grad;
};

/// BCE loss and gradient of the product-of-linear-delays XOR model:
/// z = prod_i (w_i . phi), p = sigmoid(z), target = XOR bit. Rows are
/// sharded across the thread pool; shard partials combine in fixed order.
double xor_lr_objective(const ml::Dataset& data, std::size_t n_pufs,
                        const linalg::Vector& params, linalg::Vector& grad) {
  const std::size_t d = data.features();
  const std::size_t n = data.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  XorLossGrad zero;
  zero.grad = linalg::Vector(params.size());
  XorLossGrad total = parallel_reduce(
      n, kGradChunk, zero,
      [&](XorLossGrad& acc, std::size_t begin, std::size_t end) {
        std::vector<double> delta(n_pufs);
        for (std::size_t r = begin; r < end; ++r) {
          const double* row = data.x.row(r);
          double z = 1.0;
          for (std::size_t p = 0; p < n_pufs; ++p) {
            const double s = linalg::dot({params.data() + p * d, d}, {row, d});
            delta[p] = s;
            z *= s;
          }
          const double t = data.y[r] >= 0.5 ? 1.0 : 0.0;
          acc.loss += t > 0.5 ? softplus(-z) : softplus(z);
          const double dz = (sigmoid(z) - t) * inv_n;
          for (std::size_t p = 0; p < n_pufs; ++p) {
            // d z / d w_p = (prod_{q != p} delta_q) * phi. Guard the division:
            // recompute the leave-one-out product when delta_p is tiny.
            double loo;
            if (std::fabs(delta[p]) > 1e-12) {
              loo = z / delta[p];
            } else {
              loo = 1.0;
              for (std::size_t q = 0; q < n_pufs; ++q)
                if (q != p) loo *= delta[q];
            }
            const double coef = dz * loo;
            double* g = acc.grad.data() + p * d;
            for (std::size_t c = 0; c < d; ++c) g[c] += coef * row[c];
          }
        }
      },
      [](XorLossGrad& acc, XorLossGrad&& part) {
        acc.loss += part.loss;
        acc.grad += part.grad;
      });
  grad = std::move(total.grad);
  return total.loss * inv_n;
}

}  // namespace

AttackResult run_lr_xor_attack(const AttackDataset& data, const LrXorAttackConfig& config) {
  XPUF_REQUIRE(!data.train.empty(), "LR-XOR attack needs a non-empty training set");
  XPUF_REQUIRE(config.restarts >= 1, "LR-XOR attack needs at least one restart");
  const std::size_t d = data.train.features();
  const std::size_t n_pufs = data.n_pufs;

  AttackResult result;
  result.train_size = data.train.size();
  result.test_size = data.test.size();

  ml::Objective obj = [&](const linalg::Vector& w, linalg::Vector& g) {
    return xor_lr_objective(data.train, n_pufs, w, g);
  };

  linalg::Vector best(d * n_pufs);
  double best_loss = 0.0;
  Timer timer;
  for (std::size_t r = 0; r < config.restarts; ++r) {
    Rng rng(config.seed + r);
    linalg::Vector w0(d * n_pufs);
    for (auto& v : w0) v = rng.normal(0.0, config.init_scale);
    const ml::LbfgsResult fit = ml::minimize_lbfgs(obj, std::move(w0), config.lbfgs);
    result.optimizer_iterations += fit.iterations;
    if (r == 0 || fit.value < best_loss) {
      best_loss = fit.value;
      best = fit.x;
    }
  }
  result.train_time_ms = timer.millis();

  auto evaluate = [&](const ml::Dataset& set) {
    if (set.empty()) return 0.0;
    std::size_t hits = 0;
    for (std::size_t r = 0; r < set.size(); ++r) {
      const double* row = set.x.row(r);
      double z = 1.0;
      for (std::size_t p = 0; p < n_pufs; ++p)
        z *= linalg::dot({best.data() + p * d, d}, {row, d});
      if ((z > 0.0) == (set.y[r] >= 0.5)) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(set.size());
  };
  result.train_accuracy = evaluate(data.train);
  result.test_accuracy = evaluate(data.test);
  return result;
}

}  // namespace xpuf::puf
