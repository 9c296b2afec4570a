#include "puf/authentication.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "sim/linear.hpp"

namespace xpuf::puf {

std::span<const std::uint64_t> ChallengeBatch::row(std::size_t i) const {
  XPUF_REQUIRE(i < size(), "challenge batch row out of range");
  const std::size_t stride = sim::packed_words(stages);
  return {words.data() + i * stride, stride};
}

// xpuf-lint: guarded-by(row)
Challenge ChallengeBatch::challenge(std::size_t i) const {
  Challenge out;
  sim::unpack_challenge_into(row(i), stages, out);
  return out;
}

void ChallengeBatch::push_back(std::span<const std::uint64_t> row, bool bit) {
  XPUF_REQUIRE(stages > 0 && row.size() == sim::packed_words(stages),
               "challenge batch row needs packed_words(stages) words");
  words.insert(words.end(), row.begin(), row.end());
  expected.push_back(bit);
}

void ChallengeBatch::push_back(const Challenge& challenge, bool bit) {
  XPUF_REQUIRE(stages > 0 && challenge.size() == stages,
               "challenge length differs from the batch's stages");
  const std::size_t at = words.size();
  words.resize(at + sim::packed_words(stages));
  sim::pack_challenge_into(challenge, {words.data() + at, sim::packed_words(stages)});
  expected.push_back(bit);
}

AuthenticationServer::AuthenticationServer(ServerModel model, std::size_t n_pufs,
                                           AuthenticationPolicy policy)
    : model_(std::move(model)), n_pufs_(n_pufs), policy_(policy) {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= model_.puf_count(),
               "authentication n_pufs out of range");
  XPUF_REQUIRE(policy.challenge_count > 0, "authentication needs at least one challenge");
}

ChallengeBatch AuthenticationServer::issue(Rng& rng) const {
  XPUF_TRACE_SPAN("auth.issue");
  ModelBasedSelector selector(model_, n_pufs_);
  const SelectionResult sel =
      selector.select(policy_.challenge_count, rng, policy_.max_selection_attempts);
  if (!sel.filled)
    throw NumericalError(
        "challenge selection exhausted its attempt budget: only " +
        std::to_string(sel.challenges.size()) + " of " +
        std::to_string(policy_.challenge_count) + " stable challenges found");
  ChallengeBatch batch;
  batch.stages = model_.stages();
  for (std::size_t i = 0; i < sel.challenges.size(); ++i)
    batch.push_back(sel.challenges[i], sel.expected_responses[i]);
  batch.candidates_tried = sel.candidates_tried;
  static Counter& issued = MetricsRegistry::global().counter("auth.batches_issued");
  issued.add(1);
  return batch;
}

ChallengeBatch AuthenticationServer::issue_random(Rng& rng) const {
  XPUF_TRACE_SPAN("auth.issue_random");
  ChallengeBatch batch;
  batch.stages = model_.stages();
  for (std::size_t i = 0; i < policy_.challenge_count; ++i) {
    const Challenge c = random_challenge(model_.stages(), rng);
    // The unfiltered baseline is deliberately the historical per-challenge
    // walk: each prediction interleaves with a shared-RNG challenge draw, so
    // there is no block to batch.  xpuf-lint: allow(scalar-eval)
    batch.push_back(c, model_.predict_xor(c, n_pufs_));
  }
  // Unfiltered issuance tries exactly one candidate per issued challenge.
  batch.candidates_tried = policy_.challenge_count;
  return batch;
}

std::vector<bool> device_responses(const sim::XorPufChip& chip, const sim::Environment& env,
                                   const ChallengeBatch& batch, Rng& rng) {
  std::vector<std::uint8_t> bits;
  chip.xor_responses(batch.words, batch.stages, env, rng, bits);
  return {bits.begin(), bits.end()};
}

AuthenticationOutcome apply_auth_policy(const ChallengeBatch& batch,
                                        const std::vector<bool>& responses,
                                        const AuthenticationPolicy& policy) {
  XPUF_REQUIRE(responses.size() == batch.size(),
               "response count does not match issued challenge count");
  AuthenticationOutcome out;
  out.challenges_used = batch.size();
  out.candidates_tried = batch.candidates_tried;
  for (std::size_t i = 0; i < responses.size(); ++i)
    if (responses[i] != batch.expected[i]) ++out.mismatches;
  out.approved = out.mismatches <= policy.max_hamming_distance;
  static Counter& verifications = MetricsRegistry::global().counter("auth.verifications");
  static Counter& mismatches = MetricsRegistry::global().counter("auth.mismatches");
  static Counter& approved = MetricsRegistry::global().counter("auth.approved");
  static Counter& denied = MetricsRegistry::global().counter("auth.denied");
  verifications.add(1);
  mismatches.add(out.mismatches);
  (out.approved ? approved : denied).add(1);
  return out;
}

AuthenticationOutcome AuthenticationServer::verify(const ChallengeBatch& batch,
                                                   const std::vector<bool>& responses) const {
  return apply_auth_policy(batch, responses, policy_);
}

AuthenticationOutcome AuthenticationServer::authenticate(const sim::XorPufChip& chip,
                                                         const sim::Environment& env,
                                                         Rng& rng,
                                                         bool model_selected) const {
  XPUF_TRACE_SPAN("auth.authenticate");
  const ChallengeBatch batch = model_selected ? issue(rng) : issue_random(rng);
  // One-shot sampling: the selected CRPs are 100% stable, so a single
  // evaluation suffices (paper Sec 2.2). Note the XOR width of the physical
  // chip is fixed by its wiring; the server-side n_pufs must match it, which
  // is checked here.
  XPUF_REQUIRE(chip.puf_count() == n_pufs_,
               "chip XOR width differs from the server's enrolled width");
  return verify(batch, device_responses(chip, env, batch, rng));
}

}  // namespace xpuf::puf
