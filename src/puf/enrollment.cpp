#include "puf/enrollment.hpp"

#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "ml/streaming.hpp"

namespace xpuf::puf {

namespace {
// Rows per parallel prediction tile. Every prediction is a pure function of
// its row, so the grain changes cost, never values.
constexpr std::size_t kPredictGrain = 256;

/// Linear view of fitted weight rows (features() doubles each), for the
/// parity tiles. The view's noise sigmas are unused: only delays are read.
sim::ChipLinearView weights_view(std::span<const std::span<const double>> rows) {
  std::vector<sim::DeviceLinearView> devices(rows.size());
  for (std::size_t p = 0; p < rows.size(); ++p)
    devices[p].weights = linalg::Vector(std::vector<double>(rows[p].begin(), rows[p].end()));
  return sim::ChipLinearView(std::move(devices));
}

/// The normal-equation fit behind both Enroller entry points.
/// `for_each_chunk(fn)` calls fn(parity, soft) on every chunk of the
/// training scan in ascending row order — suffix-parity rows and soft[p][r]
/// for PUF p on the chunk's r-th row — and is run twice.
///
/// Pass 1 accumulates the shared Gram matrix and every PUF's X^T y in
/// O(features^2) memory; one Cholesky then solves all n_pufs regressions.
/// Pass 2 derives thresholds and R^2 against the fitted weights.
/// Predictions come from the parity tile over the fitted weights, whose
/// per-element chain equals a matvec over Phi (ascending index, bias last);
/// ml::StreamingResiduals takes the threshold extrema and accumulates
/// rss/tss in ascending row order. So the weights, thresholds
/// and R^2 all equal an ordinary least-squares fit over the materialized Phi
/// (normal equations, derive_thresholds, least-squares R^2) bit for bit,
/// for any chunking.
template <class ForEachChunk>
std::vector<PufEnrollment> fit_scan(const ForEachChunk& for_each_chunk, std::size_t n_pufs,
                                    std::size_t features) {
  ml::StreamingNormalEquations normal(features, n_pufs);
  Timer fit_timer;
  double fit_ms = 0.0;
  for_each_chunk([&](std::span<const std::uint64_t> parity,
                     const std::vector<std::vector<double>>& soft) {
    fit_timer.reset();
    normal.accumulate(parity, soft);
    fit_ms += fit_timer.millis();
  });
  fit_timer.reset();
  const linalg::Matrix weights = normal.solve();
  fit_ms += fit_timer.millis();
  // Per-PUF share of the shared accumulate + solve work.
  const double fit_ms_per_puf = fit_ms / static_cast<double>(n_pufs);

  std::vector<std::span<const double>> rows;
  for (std::size_t p = 0; p < n_pufs; ++p) rows.emplace_back(weights.row(p), features);
  const sim::ChipLinearView fitted_view = weights_view(rows);
  std::vector<double> mean(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) mean[p] = normal.target_mean(p);
  ml::StreamingResiduals residuals(std::move(mean));
  std::vector<double> pred;
  for_each_chunk([&](std::span<const std::uint64_t> parity,
                     const std::vector<std::vector<double>>& soft) {
    const std::size_t m = soft.front().size();
    pred.resize(m * n_pufs);
    parallel_for(m, kPredictGrain, [&](std::size_t begin, std::size_t end, std::size_t) {
      fitted_view.delay_differences_into(parity, begin, end, pred.data() + begin * n_pufs);
    });
    residuals.accumulate(pred, soft);
  });

  std::vector<PufEnrollment> pufs;
  pufs.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    linalg::Vector w(features);
    for (std::size_t c = 0; c < features; ++c) w[c] = weights(p, c);
    PufEnrollment e;
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds =
        finalize_thresholds(residuals.lowest_above_zero(p), residuals.highest_below_one(p));
    e.train_r_squared = residuals.r_squared(p);
    e.fit_time_ms = fit_ms_per_puf;
    pufs.push_back(std::move(e));
  }
  return pufs;
}

}  // namespace

ThresholdPair tighten(const ThresholdPair& thresholds, const BetaFactors& betas) {
  XPUF_REQUIRE(betas.beta0 > 0.0 && betas.beta0 <= 1.0, "beta0 must be in (0, 1]");
  XPUF_REQUIRE(betas.beta1 >= 1.0, "beta1 must be >= 1");
  ThresholdPair out;
  // Multiplicative scaling as in the paper; inverted for negative values so
  // the stable-'0' region always shrinks downward and stable-'1' upward.
  out.thr0 = thresholds.thr0 >= 0.0 ? thresholds.thr0 * betas.beta0
                                    : thresholds.thr0 / betas.beta0;
  out.thr1 = thresholds.thr1 >= 0.0 ? thresholds.thr1 * betas.beta1
                                    : thresholds.thr1 / betas.beta1;
  return out;
}

ServerModel::ServerModel(std::size_t chip_id, std::vector<PufEnrollment> pufs)
    : chip_id_(chip_id), pufs_(std::move(pufs)) {
  XPUF_REQUIRE(!pufs_.empty(), "ServerModel needs at least one PUF enrollment");
}

std::size_t ServerModel::stages() const {
  XPUF_REQUIRE(!pufs_.empty(), "empty ServerModel");
  return pufs_.front().model.stages();
}

const PufEnrollment& ServerModel::puf(std::size_t i) const {
  XPUF_REQUIRE(i < pufs_.size(), "PUF index out of range");
  return pufs_[i];
}

ThresholdPair ServerModel::adjusted_thresholds(std::size_t puf_index) const {
  return tighten(puf(puf_index).thresholds, betas_);
}

double ServerModel::predict_soft(std::size_t puf_index, const Challenge& challenge) const {
  return puf(puf_index).model.predict_raw(challenge);
}

StableClass ServerModel::classify(std::size_t puf_index, const Challenge& challenge) const {
  return adjusted_thresholds(puf_index).classify(predict_soft(puf_index, challenge));
}

bool ServerModel::all_stable(const Challenge& challenge, std::size_t n_pufs) const {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= pufs_.size(), "n_pufs out of range");
  for (std::size_t p = 0; p < n_pufs; ++p)
    if (classify(p, challenge) == StableClass::kUnstable) return false;
  return true;
}

bool ServerModel::predict_xor(const Challenge& challenge, std::size_t n_pufs) const {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= pufs_.size(), "n_pufs out of range");
  bool out = false;
  for (std::size_t p = 0; p < n_pufs; ++p) out ^= pufs_[p].model.predict_response(challenge);
  return out;
}

linalg::Matrix ServerModel::predict_raw_batch(const std::vector<Challenge>& challenges,
                                              std::size_t n_pufs) const {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= pufs_.size(), "n_pufs out of range");
  const std::vector<std::uint64_t> parity = sim::challenge_parity(challenges, stages());
  std::vector<std::span<const double>> weights;
  for (std::size_t p = 0; p < n_pufs; ++p) weights.push_back(pufs_[p].model.weights().span());
  const sim::ChipLinearView view = weights_view(weights);
  linalg::Matrix raw(challenges.size(), n_pufs);
  parallel_for(challenges.size(), kPredictGrain,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 view.delay_differences_into(parity, begin, end, raw.row(begin));
               });
  return raw;
}

ServerModel Enroller::enroll(const sim::XorPufChip& chip, Rng& rng) const {
  XPUF_TRACE_SPAN("puf.enroll_stream");
  sim::ChipTester tester(config_.environment, config_.trials, rng.fork());
  sim::ChipScanStream stream = tester.stream_individual(
      chip, config_.training_challenges, config_.chunk_challenges);
  XPUF_REQUIRE(stream.total() > 0, "enrollment needs at least one challenge");
  // Pass 2 replays the identical chunks: reset() serves the chunks the
  // stream kept from pass 1 and measures any past its budget again, as pure
  // functions of the cell index. (The first pass's reset() is a no-op.)
  sim::ScanChunk chunk;
  const auto for_each_chunk = [&](const auto& fn) {
    stream.reset();
    while (stream.next(chunk)) fn(chunk.parity, chunk.soft);
  };
  return ServerModel(chip.id(), fit_scan(for_each_chunk, chip.puf_count(), chip.stages() + 1));
}

ServerModel Enroller::enroll_from_scan(std::size_t chip_id,
                                       const sim::ChipSoftScan& scan) const {
  XPUF_REQUIRE(!scan.challenges.empty(), "enrollment scan has no challenges");
  XPUF_REQUIRE(!scan.soft.empty(), "enrollment scan has no PUF measurements");
  for (const std::vector<double>& row : scan.soft)
    XPUF_REQUIRE(row.size() == scan.challenges.size(), "scan soft-response row length mismatch");
  const std::size_t stages = scan.challenges.front().size();
  const std::vector<std::uint64_t> parity = sim::challenge_parity(scan.challenges, stages);
  const auto for_each_chunk = [&](const auto& fn) { fn(parity, scan.soft); };
  return ServerModel(chip_id, fit_scan(for_each_chunk, scan.soft.size(), stages + 1));
}

}  // namespace xpuf::puf
