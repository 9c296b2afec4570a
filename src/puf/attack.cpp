#include "puf/attack.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "ml/metrics.hpp"
#include "puf/transform.hpp"

namespace xpuf::puf {

namespace {
// Fixed shard size for the parallel CRP measurement loop (thread-count
// independent, see common/parallel.hpp).
constexpr std::size_t kCrpChunk = 64;
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

  AttackResult result;
  result.train_size = data.train.size();
  result.test_size = data.test.size();

  Timer timer;
  ml::Mlp model(data.train.features(), config.mlp);
  result.optimizer_iterations = model.fit(data.train, config.lbfgs).iterations;
  result.train_time_ms = timer.millis();

  const linalg::Vector train_pred = model.predict(data.train.x);
  result.train_accuracy = ml::accuracy(train_pred.span(), data.train.y.span());
  if (!data.test.empty()) {
    const linalg::Vector test_pred = model.predict(data.test.x);
    result.test_accuracy = ml::accuracy(test_pred.span(), data.test.y.span());
  }
  return result;
}

}  // namespace xpuf::puf
