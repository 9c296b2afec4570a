// Authentication phase of the model-assisted XOR PUF (paper Fig 7).
//
// The server selects challenges predicted stable on every internal PUF,
// sends them to the deployed chip, samples the XOR output ONCE per challenge
// (stability makes repetition unnecessary), and approves only on a perfect
// match — the zero-Hamming-distance criterion the paper's selected CRPs make
// affordable. A relaxed Hamming-distance policy is provided as the
// traditional baseline for comparison benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "puf/selection.hpp"
#include "sim/chip.hpp"

namespace xpuf::puf {

/// Server-side approval policy.
struct AuthenticationPolicy {
  std::size_t challenge_count = 64;       ///< CRPs exchanged per attempt
  std::size_t max_hamming_distance = 0;   ///< 0 = the paper's strict criterion
  std::size_t max_selection_attempts = 10'000'000;
};

struct AuthenticationOutcome {
  bool approved = false;
  std::size_t challenges_used = 0;
  std::size_t mismatches = 0;
  std::size_t candidates_tried = 0;  ///< selection cost on the server
};

/// One issued challenge batch with the server's expected responses. The
/// challenges stay in the screener's canonical packed form — row i is the
/// sim::packed_words(stages) words at words[i * packed_words(stages)] — from
/// issuance through the ledger and the wire; challenge(i) unpacks one for a
/// device simulator. The server keeps `expected` and the accounting fields;
/// only the rows travel to the device.
struct ChallengeBatch {
  std::size_t stages = 0;
  std::vector<std::uint64_t> words;
  std::vector<bool> expected;
  /// Selector draws consumed to fill this batch (the paper's selection
  /// cost); carried here so verify()/authenticate() can report it.
  std::size_t candidates_tried = 0;
  /// Stable candidates dropped because a replay ledger had already issued
  /// them (only the ServerDatabase path populates this).
  std::size_t replay_rejected = 0;

  std::size_t size() const { return expected.size(); }
  std::span<const std::uint64_t> row(std::size_t i) const;
  /// Row i unpacked to one 0/1 byte per stage.
  Challenge challenge(std::size_t i) const;
  /// Appends a canonical packed row of `stages` bits with its expected
  /// response.
  void push_back(std::span<const std::uint64_t> row, bool bit);
  /// Packs and appends a `stages`-long challenge — how
  /// AuthenticationServer::issue and issue_random fill their batches from
  /// unpacked challenges.
  void push_back(const Challenge& challenge, bool bit);
};

/// The chip's one-shot XOR response to every row of `batch` — the device
/// boundary, where the chip races the packed rows as they are
/// (XorPufChip::xor_responses).
std::vector<bool> device_responses(const sim::XorPufChip& chip, const sim::Environment& env,
                                   const ChallengeBatch& batch, Rng& rng);

/// Applies the approval policy to a batch/response pair — the single
/// verification kernel behind AuthenticationServer::verify and
/// ServerDatabase::verify. Pure policy: no model access, no copies; bumps
/// the auth.verifications / auth.mismatches / auth.approved / auth.denied
/// counters.
AuthenticationOutcome apply_auth_policy(const ChallengeBatch& batch,
                                        const std::vector<bool>& responses,
                                        const AuthenticationPolicy& policy);

class AuthenticationServer {
 public:
  /// `n_pufs` = XOR width in use (the paper recommends >= 10).
  AuthenticationServer(ServerModel model, std::size_t n_pufs,
                       AuthenticationPolicy policy = {});

  const ServerModel& model() const { return model_; }
  const AuthenticationPolicy& policy() const { return policy_; }
  std::size_t n_pufs() const { return n_pufs_; }

  /// Issues a batch of model-selected stable challenges (Fig 7 left half).
  /// Throws NumericalError if the selection cannot fill the batch within
  /// the attempt budget (the n/beta combination yields too few CRPs).
  ChallengeBatch issue(Rng& rng) const;

  /// Baseline: random challenges with model-predicted responses, no
  /// stability filtering (the traditional scheme the paper improves on).
  ChallengeBatch issue_random(Rng& rng) const;

  /// Compares device responses against the batch's expectations.
  AuthenticationOutcome verify(const ChallengeBatch& batch,
                               const std::vector<bool>& responses) const;

  /// Full round trip against a chip at a corner: issue, sample the XOR
  /// output once per challenge, verify.
  AuthenticationOutcome authenticate(const sim::XorPufChip& chip,
                                     const sim::Environment& env, Rng& rng,
                                     bool model_selected = true) const;

 private:
  ServerModel model_;
  std::size_t n_pufs_;
  AuthenticationPolicy policy_;
};

}  // namespace xpuf::puf
