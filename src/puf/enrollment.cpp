#include "puf/enrollment.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "ml/dataset.hpp"
#include "ml/streaming.hpp"

namespace xpuf::puf {

namespace {
// Rows per parallel pass-2 prediction tile. Every prediction is a pure
// function of its row, so the grain changes cost, never values.
constexpr std::size_t kPredictGrain = 256;
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

linalg::Matrix ServerModel::predict_raw_batch(const FeatureBlock& block,
                                              std::size_t n_pufs) const {
  XPUF_REQUIRE(n_pufs >= 1 && n_pufs <= pufs_.size(), "n_pufs out of range");
  if (block.empty()) return linalg::Matrix(0, n_pufs);
  const std::size_t f = stages() + 1;
  XPUF_REQUIRE(block.features() == f, "challenge length mismatch");
  // Stacking the weight rows is O(n_pufs * k) — noise next to the GEMM.
  linalg::Matrix stacked(n_pufs, f);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    const linalg::Vector& w = pufs_[p].model.weights();
    XPUF_REQUIRE(w.size() == f, "mixed stage counts in ServerModel");
    double* row = stacked.row(p);
    for (std::size_t i = 0; i < f; ++i) row[i] = w[i];
  }
  return linalg::matmul_nt(block.phi(), stacked);
}

// Dimension checks live in predict_raw_batch, the first call made.
// xpuf-lint: guarded-by(predict_raw_batch)
std::vector<std::uint8_t> ServerModel::all_stable_batch(const FeatureBlock& block,
                                                        std::size_t n_pufs) const {
  const linalg::Matrix raw = predict_raw_batch(block, n_pufs);
  std::vector<ThresholdPair> thresholds;
  thresholds.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) thresholds.push_back(adjusted_thresholds(p));
  std::vector<std::uint8_t> out(block.size(), 0);
  for (std::size_t c = 0; c < block.size(); ++c) {
    bool stable = true;
    for (std::size_t p = 0; p < n_pufs && stable; ++p)
      stable = thresholds[p].classify(raw(c, p)) != StableClass::kUnstable;
    out[c] = stable ? 1 : 0;
  }
  return out;
}

// Same.  xpuf-lint: guarded-by(predict_raw_batch)
std::vector<std::uint8_t> ServerModel::predict_xor_batch(const FeatureBlock& block,
                                                         std::size_t n_pufs) const {
  const linalg::Matrix raw = predict_raw_batch(block, n_pufs);
  std::vector<std::uint8_t> out(block.size(), 0);
  for (std::size_t c = 0; c < block.size(); ++c) {
    bool bit = false;
    for (std::size_t p = 0; p < n_pufs; ++p) bit ^= raw(c, p) > 0.5;
    out[c] = bit ? 1 : 0;
  }
  return out;
}

ServerModel Enroller::enroll(const sim::XorPufChip& chip, Rng& rng) const {
  XPUF_TRACE_SPAN("puf.enroll_stream");
  sim::ChipTester tester(config_.environment, config_.trials, rng.fork());
  const std::size_t n_pufs = chip.puf_count();
  const std::size_t features = chip.stages() + 1;
  sim::ChipScanStream stream = tester.stream_individual(
      chip, config_.training_challenges, config_.chunk_challenges);
  XPUF_REQUIRE(stream.total() > 0, "enrollment needs at least one challenge");

  // Pass 1: one measurement sweep accumulates the shared Gram matrix and
  // every PUF's X^T y in O(features^2) memory. One Cholesky then solves all
  // n_pufs regressions — the materialized path redoes the O(n d^2) Gram per
  // PUF, which is where the streaming speedup comes from.
  ml::StreamingNormalEquations normal(features, n_pufs);
  sim::ScanChunk chunk;
  Timer fit_timer;
  double fit_ms = 0.0;
  while (stream.next(chunk)) {
    fit_timer.reset();
    normal.accumulate(chunk.parity, chunk.soft);
    fit_ms += fit_timer.millis();
  }
  fit_timer.reset();
  const linalg::Matrix weights = normal.solve(config_.ridge);
  fit_ms += fit_timer.millis();
  // Per-PUF share of the shared accumulate + solve work; the materialized
  // path's fit_time_ms is per-PUF too.
  const double fit_ms_per_puf = fit_ms / static_cast<double>(n_pufs);

  // Pass 2: replay the identical chunks (reset() serves the chunks the
  // stream kept from pass 1 and measures any past its budget again, as pure
  // functions of the cell index) to derive thresholds and R^2 against the
  // fitted weights. Predictions come from the chip view's parity tile over
  // the fitted weights, whose per-element chain equals the materialized
  // path's matvec (ascending index, bias last); rss/tss accumulate in
  // ascending row order, so both diagnostics reproduce the materialized
  // values bit for bit. The view's noise sigma is unused: only delays are
  // read.
  std::vector<sim::DeviceLinearView> fitted(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    const double* w = weights.row(p);
    fitted[p].weights = linalg::Vector(std::vector<double>(w, w + features));
  }
  const sim::ChipLinearView fitted_view(std::move(fitted));
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> thr0(n_pufs, inf);
  std::vector<double> thr1(n_pufs, -inf);
  std::vector<double> rss(n_pufs, 0.0);
  std::vector<double> tss(n_pufs, 0.0);
  std::vector<double> mean(n_pufs, 0.0);
  for (std::size_t p = 0; p < n_pufs; ++p) mean[p] = normal.target_mean(p);
  std::vector<double> pred;
  stream.reset();
  while (stream.next(chunk)) {
    const std::size_t m = chunk.size();
    pred.resize(m * n_pufs);
    parallel_for(m, kPredictGrain, [&](std::size_t begin, std::size_t end, std::size_t) {
      fitted_view.delay_differences_into(chunk.parity, begin, end, pred.data() + begin * n_pufs);
    });
    for (std::size_t p = 0; p < n_pufs; ++p) {
      const std::vector<double>& soft = chunk.soft[p];
      for (std::size_t r = 0; r < m; ++r) {
        const double pr = pred[r * n_pufs + p];
        const double y = soft[r];
        if (y > 0.0 && pr < thr0[p]) thr0[p] = pr;
        if (y < 1.0 && pr > thr1[p]) thr1[p] = pr;
        const double e = pr - y;
        rss[p] += e * e;
        const double d = y - mean[p];
        tss[p] += d * d;
      }
    }
  }

  std::vector<PufEnrollment> pufs;
  pufs.reserve(n_pufs);
  for (std::size_t p = 0; p < n_pufs; ++p) {
    linalg::Vector w(features);
    for (std::size_t c = 0; c < features; ++c) w[c] = weights(p, c);
    PufEnrollment e;
    e.model = ArbiterPufModel(std::move(w));
    e.thresholds = finalize_thresholds(thr0[p], thr1[p]);
    e.train_r_squared = tss[p] > 0.0 ? 1.0 - rss[p] / tss[p] : 0.0;
    e.fit_time_ms = fit_ms_per_puf;
    pufs.push_back(std::move(e));
  }
  return ServerModel(chip.id(), std::move(pufs));
}

ServerModel Enroller::enroll_materialized(const sim::XorPufChip& chip, Rng& rng) const {
  XPUF_TRACE_SPAN("puf.enroll_materialized");
  sim::ChipTester tester(config_.environment, config_.trials, rng.fork());
  // Build the feature block once: the scan's batched evaluation and the
  // per-PUF regressions below share the same Phi matrix.
  const FeatureBlock block(
      tester.random_challenges(chip, config_.training_challenges));
  const sim::ChipSoftScan scan = tester.scan_individual(chip, block);
  return enroll_from_scan(chip.id(), scan, block);
}

ServerModel Enroller::enroll_from_scan(std::size_t chip_id,
                                       const sim::ChipSoftScan& scan) const {
  return enroll_from_scan(chip_id, scan, FeatureBlock(scan.challenges));
}

ServerModel Enroller::enroll_from_scan(std::size_t chip_id, const sim::ChipSoftScan& scan,
                                       const FeatureBlock& block) const {
  XPUF_REQUIRE(!scan.challenges.empty(), "enrollment scan has no challenges");
  XPUF_REQUIRE(!scan.soft.empty(), "enrollment scan has no PUF measurements");
  XPUF_REQUIRE(block.size() == scan.challenges.size(),
               "feature block does not match the scan");

  const linalg::Matrix& phi = block.phi();
  std::vector<PufEnrollment> pufs;
  pufs.reserve(scan.soft.size());

  for (std::size_t p = 0; p < scan.soft.size(); ++p) {
    XPUF_REQUIRE(scan.soft[p].size() == scan.challenges.size(),
                 "scan soft-response row length mismatch");
    ml::Dataset data;
    data.x = phi;
    data.y = linalg::Vector(std::vector<double>(scan.soft[p].begin(), scan.soft[p].end()));

    ml::LinearRegressionOptions opts;
    opts.fit_intercept = false;  // phi carries the constant feature
    opts.ridge = config_.ridge;

    Timer timer;
    ml::LinearRegression reg(opts);
    reg.fit(data);
    const double fit_ms = timer.millis();

    const linalg::Vector predicted = reg.predict(phi);
    PufEnrollment e;
    e.model = ArbiterPufModel(reg.coefficients());
    e.thresholds = derive_thresholds(predicted.span(), std::span<const double>(scan.soft[p]));
    e.train_r_squared = reg.train_r_squared();
    e.fit_time_ms = fit_ms;
    pufs.push_back(std::move(e));
  }
  return ServerModel(chip_id, std::move(pufs));
}

}  // namespace xpuf::puf
