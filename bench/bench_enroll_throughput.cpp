// Enrollment-throughput harness for the streaming pipeline.
//
// Times Enroller::enroll (streaming: chunked scan -> normal-equation
// accumulation -> one shared Cholesky) against oracle::materialized_enroll
// (tests/oracle/: the whole-scan path fitting ml::LinearRegression over the
// full Phi matrix) on the same seeded chip, and proves the
// two pipelines' ServerModels are bit-identical in-run. The acceptance
// workload is the paper-shaped 1,000,000 challenges x 100 evaluations x 10
// PUFs; the materialized side runs at --materialized-cap challenges (default
// 65536) because materializing the full workload is exactly the memory cliff
// the streaming path removes.
//
// Fixed-memory proof: before any materialized run, the bench enrolls
// streaming once at a quarter of the challenge count and then --reps times
// at the full count, reading getrusage peak RSS after each stage. If the
// full runs' peak exceeds the quarter run's by more than --rss-slack-mb
// (default 64), the pipeline is buffering O(n) state and the bench fails.
//
// Timing JSON fields (bench_out/enroll_throughput_timing.json):
//   items                                  (challenge, PUF) cells enrolled by
//                                          every run of the bench, the work
//                                          behind `seconds`
//   full_items                             cells of one full streaming run
//   reps, min_of_reps = 1                  every *_seconds field below is the
//                                          minimum over `reps` runs
//   materialized_seconds / streaming_seconds / speedup   A/B at the cap
//   full_seconds, crps_per_sec             full streaming run (full_items /
//                                          full_seconds)
//   rss_quarter_mb, rss_full_mb            fixed-memory probe
// tools/check_bench_regression.py gates the A/B pair in CI.
//
//   ./bench_enroll_throughput --threads 1          # acceptance run
//   ./bench_enroll_throughput --challenges 100000  # smaller workload
//   ./bench_enroll_throughput --chunk 1024         # smaller working set
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "oracle/oracle.hpp"
#include "puf/enrollment.hpp"

namespace {

/// Peak resident set of the process in MiB (ru_maxrss is KiB on Linux).
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Exact-equality check across every fitted quantity the server stores; any
/// drifted bit between the streaming and materialized fits fails the bench.
bool models_identical(const xpuf::puf::ServerModel& a, const xpuf::puf::ServerModel& b) {
  if (a.puf_count() != b.puf_count()) return false;
  for (std::size_t p = 0; p < a.puf_count(); ++p) {
    const xpuf::puf::PufEnrollment& pa = a.puf(p);
    const xpuf::puf::PufEnrollment& pb = b.puf(p);
    if (pa.model.weights() != pb.model.weights()) return false;
    if (pa.thresholds.thr0 != pb.thresholds.thr0) return false;
    if (pa.thresholds.thr1 != pb.thresholds.thr1) return false;
    if (pa.train_r_squared != pb.train_r_squared) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpuf;
  benchutil::BenchHarness bench(
      argc, argv, "enroll_throughput",
      "Enrollment throughput: streaming vs materialized pipeline",
      [](const Cli& cli, BenchScale& s) {
        if (!cli.has("challenges") && !s.full) s.challenges = 1'000'000;
        if (!cli.has("trials") && !s.full) s.trials = 100;
      });
  const BenchScale& scale = bench.scale();
  const auto n_pufs = static_cast<std::size_t>(bench.cli().get_int("pufs", 10));
  const auto stages = static_cast<std::size_t>(bench.cli().get_int("stages", 64));
  const auto chunk = static_cast<std::size_t>(bench.cli().get_int("chunk", 4096));
  const auto cap = std::min<std::size_t>(
      static_cast<std::size_t>(scale.challenges),
      static_cast<std::size_t>(bench.cli().get_int("materialized-cap", 65'536)));
  const double rss_slack_mb =
      static_cast<double>(bench.cli().get_int("rss-slack-mb", 64));
  const auto reps = static_cast<std::uint64_t>(bench.cli().get_int("reps", 3));
  XPUF_REQUIRE(reps > 0, "--reps must be positive");
  const auto challenges = static_cast<std::size_t>(scale.challenges);
  XPUF_REQUIRE(challenges >= 8, "enrollment bench needs at least 8 challenges");
  const std::size_t quarter = std::max<std::size_t>(std::size_t{1}, challenges / 4);
  // Quarter probe once, then `reps` full runs and `reps` A/B pairs at the cap.
  bench.set_items((quarter + reps * (challenges + 2 * cap)) * n_pufs);

  sim::PopulationConfig pop_cfg = benchutil::population_config(scale, n_pufs);
  pop_cfg.n_chips = 1;
  pop_cfg.device.stages = stages;
  sim::ChipPopulation pop(pop_cfg);
  const sim::XorPufChip& chip = pop.chip(0);

  // Every run reseeds identically, so any (pipeline, challenge-count) pair
  // repeats the same draws and timed repetitions are true reruns.
  auto enroll_with = [&](bool streaming, std::size_t n_challenges) {
    puf::EnrollmentConfig cfg;
    cfg.training_challenges = n_challenges;
    cfg.trials = scale.trials;
    cfg.chunk_challenges = chunk;
    Rng rng(20170604);
    return streaming ? puf::Enroller(cfg).enroll(chip, rng)
                     : oracle::materialized_enroll(cfg, chip, rng);
  };

  // Fixed-memory probe FIRST, while no materialized run has inflated the
  // high-water mark: peak RSS after a quarter-scale streaming enrollment vs
  // after the full-scale ones. ru_maxrss only ever grows, so any O(n) buffer
  // in the pipeline shows up as the delta between the two readings.
  const double kInf = std::numeric_limits<double>::infinity();
  Timer timer;
  (void)enroll_with(true, quarter);
  const double rss_quarter = max_rss_mb();
  double full_seconds = kInf;
  puf::ServerModel full_model;
  for (std::uint64_t i = 0; i < reps; ++i) {
    timer.reset();
    full_model = enroll_with(true, challenges);
    full_seconds = std::min(full_seconds, timer.seconds());
  }
  const double rss_full = max_rss_mb();
  const double rss_delta = rss_full - rss_quarter;
  const bool memory_fixed = rss_delta <= rss_slack_mb;
  const double crps_per_sec =
      static_cast<double>(challenges) * static_cast<double>(n_pufs) / full_seconds;
  XPUF_REQUIRE(full_model.puf_count() == n_pufs, "unexpected enrollment shape");

  // A/B at the cap, interleaved with per-rep minima (scheduler noise is
  // additive; the minimum estimates the true cost and interleaving exposes
  // both pipelines to the same load phases).
  double streaming_seconds = kInf, materialized_seconds = kInf;
  puf::ServerModel streamed, materialized;
  for (std::uint64_t i = 0; i < reps; ++i) {
    timer.reset();
    materialized = enroll_with(false, cap);
    materialized_seconds = std::min(materialized_seconds, timer.seconds());
    timer.reset();
    streamed = enroll_with(true, cap);
    streaming_seconds = std::min(streaming_seconds, timer.seconds());
  }
  const bool identical = models_identical(streamed, materialized);
  const double speedup =
      streaming_seconds > 0.0 ? materialized_seconds / streaming_seconds : 0.0;

  bench.set_field("full_items", static_cast<double>(challenges * n_pufs));
  bench.set_field("reps", static_cast<double>(reps));
  bench.set_field("min_of_reps", 1.0);
  bench.set_field("materialized_seconds", materialized_seconds);
  bench.set_field("streaming_seconds", streaming_seconds);
  bench.set_field("speedup", speedup);
  bench.set_field("full_seconds", full_seconds);
  bench.set_field("crps_per_sec", crps_per_sec);
  bench.set_field("rss_quarter_mb", rss_quarter);
  bench.set_field("rss_full_mb", rss_full);

  Table t("enrollment throughput");
  t.set_header({"metric", "value"});
  t.add_row({"challenges (streaming)", std::to_string(challenges)});
  t.add_row({"challenges (A/B cap)", std::to_string(cap)});
  t.add_row({"pufs", std::to_string(n_pufs)});
  t.add_row({"stages", std::to_string(stages)});
  t.add_row({"trials/challenge", std::to_string(scale.trials)});
  t.add_row({"chunk challenges", std::to_string(chunk)});
  t.add_row({"threads", std::to_string(ThreadPool::global_threads())});
  t.add_row({"reps (times are minima)", std::to_string(reps)});
  t.add_row({"full streaming enroll [s]", Table::num(full_seconds, 3)});
  t.add_row({"CRPs/sec (streaming, full)", Table::num(crps_per_sec, 0)});
  t.add_row({"peak RSS @ quarter scale [MiB]", Table::num(rss_quarter, 1)});
  t.add_row({"peak RSS @ full scale [MiB]", Table::num(rss_full, 1)});
  t.add_row({"RSS delta [MiB]", Table::num(rss_delta, 1)});
  t.add_row({"memory fixed (delta <= slack)", memory_fixed ? "yes" : "NO"});
  t.add_row({"materialized enroll [s]", Table::num(materialized_seconds, 3)});
  t.add_row({"streaming enroll [s]", Table::num(streaming_seconds, 3)});
  t.add_row({"streaming speedup", Table::num(speedup, 2)});
  t.add_row({"pipelines bit-identical", identical ? "yes" : "NO"});
  t.print();

  if (!identical) {
    std::fprintf(stderr, "ERROR: streaming enrollment diverged from materialized\n");
    return 1;
  }
  if (!memory_fixed) {
    std::fprintf(stderr,
                 "ERROR: peak RSS grew %.1f MiB between quarter- and full-scale "
                 "streaming runs (slack %.1f MiB) — the pipeline is not fixed-memory\n",
                 rss_delta, rss_slack_mb);
    return 1;
  }
  return 0;
}
