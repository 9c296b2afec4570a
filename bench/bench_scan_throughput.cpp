// Scan-throughput harness for the batched linear-view evaluation core.
//
// Times ChipTester::scan_individual against its scalar oracle over the
// acceptance workload (default 4096 challenges x 6 PUFs x 64 stages):
//
//   scalar    oracle::ScalarTester (tests/oracle/) — a recursive stage walk
//             plus environment derivation for every (PUF, challenge) cell
//   batched   the production scan: one parity-word tile per chunk
//             (sim/linear.hpp)
//
// Default --mode both runs scalar then batched on the same seeded workload,
// proves on the spot that the two scans are bit-identical, and records
// scalar_seconds / batched_seconds / speedup into the timing JSON
// (bench_out/scan_throughput_timing.json) that tools/check_bench_regression.py
// gates CI on. The original determinism check remains: the timed mode is
// repeated on one lane and compared bit-for-bit.
//
//   ./bench_scan_throughput --threads 1              # acceptance A/B run
//   ./bench_scan_throughput --mode batched           # one mode only
//   ./bench_scan_throughput --stages 32 --pufs 4     # other silicon shapes
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "oracle/oracle.hpp"
#include "sim/tester.hpp"

namespace {

/// One full scan with a fresh, identically seeded tester, so every timed run
/// draws the same challenges and the same measurement streams: the scalar
/// oracle's or the production tester's.
xpuf::sim::ChipSoftScan run_scan(const xpuf::sim::ChipPopulation& pop,
                                 const std::vector<xpuf::sim::Challenge>& challenges,
                                 std::uint64_t trials, bool scalar) {
  xpuf::Rng rng = pop.measurement_rng();
  const xpuf::sim::Environment env = xpuf::sim::Environment::nominal();
  if (scalar)
    return xpuf::oracle::ScalarTester(env, trials, rng.fork())
        .scan_individual(pop.chip(0), challenges);
  return xpuf::sim::ChipTester(env, trials, rng.fork()).scan_individual(pop.chip(0), challenges);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpuf;
  // The acceptance workload: 4096 challenges x 6 PUFs x 64 stages at a
  // modest trial count — large enough that evaluation (not binomial
  // sampling) dominates, small enough for a CI lane.
  benchutil::BenchHarness bench(
      argc, argv, "scan_throughput",
      "Scan throughput: scalar vs batched scan_individual",
      [](const Cli& cli, BenchScale& s) {
        if (!cli.has("challenges") && !s.full) s.challenges = 4'096;
        if (!cli.has("trials") && !s.full) s.trials = 1'000;
      });
  const BenchScale& scale = bench.scale();
  const auto n_pufs = static_cast<std::size_t>(bench.cli().get_int("pufs", 6));
  const auto stages = static_cast<std::size_t>(bench.cli().get_int("stages", 64));
  // Each mode repeats the identical scan --reps times; the reported time is
  // the per-rep minimum, so a single scheduler hiccup cannot dominate the
  // millisecond scans this workload produces.
  const auto reps = static_cast<std::uint64_t>(bench.cli().get_int("reps", 5));
  XPUF_REQUIRE(reps > 0, "--reps must be positive");
  const std::string mode = bench.cli().get("mode", "both");
  XPUF_REQUIRE(mode == "scalar" || mode == "batched" || mode == "both",
               "--mode must be scalar, batched, or both");
  bench.set_items(scale.challenges * n_pufs);

  sim::PopulationConfig pop_cfg = benchutil::population_config(scale, n_pufs);
  pop_cfg.device.stages = stages;
  sim::ChipPopulation pop(pop_cfg);
  // The challenge batch is drawn once and shared by every run; challenge
  // drawing is excluded from all timed sections.
  Rng challenge_rng = pop.measurement_rng();
  sim::ChipTester challenge_tester(sim::Environment::nominal(), scale.trials,
                                   challenge_rng.fork());
  const std::vector<sim::Challenge> challenges = challenge_tester.random_challenges(
      pop.chip(0), static_cast<std::size_t>(scale.challenges));

  // Per-rep minimum, with the modes interleaved: on a shared box scheduler
  // noise is strictly additive, so the minimum estimates the true scan cost,
  // and interleaving exposes both modes to the same load phases instead of
  // letting one hiccup land entirely on one side of the ratio.
  Timer timer;
  const double kInf = std::numeric_limits<double>::infinity();
  double scalar_seconds = kInf, batched_seconds = kInf;
  sim::ChipSoftScan scan, batched_scan;
  for (std::uint64_t i = 0; i < reps; ++i) {
    if (mode == "scalar" || mode == "both") {
      timer.reset();
      scan = run_scan(pop, challenges, scale.trials, true);
      scalar_seconds = std::min(scalar_seconds, timer.seconds());
    }
    if (mode == "batched" || mode == "both") {
      timer.reset();
      batched_scan = run_scan(pop, challenges, scale.trials, false);
      batched_seconds = std::min(batched_seconds, timer.seconds());
    }
  }
  bool modes_identical = true;
  if (mode == "both")
    modes_identical =
        scan.soft == batched_scan.soft && scan.stable == batched_scan.stable;
  else if (mode == "batched")
    scan = std::move(batched_scan);
  if (mode == "scalar" || mode == "both")
    bench.set_field("scalar_seconds", scalar_seconds);
  if (mode == "batched" || mode == "both")
    bench.set_field("batched_seconds", batched_seconds);

  // Determinism check: the timed mode repeated on one lane must reproduce
  // the multi-lane result bit for bit.
  const std::uint64_t lanes = ThreadPool::global_threads();
  ThreadPool::set_global_threads(1);
  timer.reset();
  const sim::ChipSoftScan serial_scan =
      run_scan(pop, challenges, scale.trials, mode == "scalar");
  const double serial_seconds = timer.seconds();
  ThreadPool::set_global_threads(lanes);
  const bool lanes_identical =
      scan.soft == serial_scan.soft && scan.stable == serial_scan.stable;

  Table t("scan_individual throughput");
  t.set_header({"metric", "value"});
  t.add_row({"mode", mode});
  t.add_row({"challenges", std::to_string(challenges.size())});
  t.add_row({"pufs", std::to_string(n_pufs)});
  t.add_row({"stages", std::to_string(stages)});
  t.add_row({"trials/challenge", std::to_string(scale.trials)});
  t.add_row({"reps", std::to_string(reps)});
  t.add_row({"threads", std::to_string(lanes)});
  if (mode == "scalar" || mode == "both")
    t.add_row({"scalar scan [s]", Table::num(scalar_seconds, 3)});
  if (mode == "batched" || mode == "both")
    t.add_row({"batched scan [s]", Table::num(batched_seconds, 3)});
  if (mode == "both") {
    const double speedup = batched_seconds > 0.0 ? scalar_seconds / batched_seconds : 0.0;
    bench.set_field("speedup", speedup);
    t.add_row({"batched speedup over scalar", Table::num(speedup, 2)});
    t.add_row({"modes bit-identical", modes_identical ? "yes" : "NO"});
  }
  t.add_row({"1-thread rerun [s]", Table::num(serial_seconds, 3)});
  t.add_row({"bit-identical across thread counts", lanes_identical ? "yes" : "NO"});
  t.print();

  if (!modes_identical) {
    std::fprintf(stderr, "ERROR: batched scan diverged from the scalar scan\n");
    return 1;
  }
  if (!lanes_identical) {
    std::fprintf(stderr, "ERROR: parallel scan diverged from the serial scan\n");
    return 1;
  }
  return 0;
}
