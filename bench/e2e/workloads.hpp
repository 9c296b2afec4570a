// Workloads of the end-to-end benchmark and the plumbing they share.
//
// Every workload runs in rounds. A round is the workload's set-up (timed as
// setup_s) followed by its measured work, and every round of one run starts
// from the same inputs, so each round must reproduce the same outcome
// digest. Rounds repeat until the run's wall time reaches --seconds (at
// least kMinRounds). The end-to-end metrics are the run's best round (see
// best_rate); per-layer metrics are medians or totals over rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace xpuf::bench_e2e {

class TraceRecorder;

/// Global thread-pool lanes every workload runs with. One, so a run never
/// uses more than one core: a shared 4-vCPU host slowed both of two busy
/// threads ~1.9x after ~40 s of sustained load and recovered only after
/// idling, which made every later measurement depend on the host's CPU
/// budget rather than on the code.
inline constexpr std::size_t kLanes = 1;
inline constexpr std::size_t kMinRounds = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// About 1/50 of every size, two rounds, plus the lockstep oracle check on
  /// the serve workloads.
  bool smoke = false;
  /// Traced run: spans are recorded and written here at exit.
  std::string trace_path;
  /// Scratch directory for store files.
  std::string work_dir = ".";

  bool traced() const { return !trace_path.empty(); }
  std::size_t min_rounds() const { return smoke ? 2 : kMinRounds; }
  /// `full` scaled down for smoke runs, never below `floor`.
  std::size_t size(std::size_t full, std::size_t floor = 1) const;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t digest = 0;  ///< outcome digest of round 0
  std::uint64_t rounds = 0;
  std::uint64_t attempted = 0;  ///< operations over all rounds
  std::uint64_t failed = 0;
  std::map<std::string, double> sizes;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> violations;

  void check(bool ok, const std::string& what);
  /// Round digests must all equal round 0's.
  void check_digest(std::uint64_t digest);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// One JSON object on one line.
  std::string to_json(const Options& options) const;
};

/// True while the run should start another round. A traced run cycles
/// through `kinds` round kinds (untraced and traced variants) and needs the
/// minimum number of rounds of each.
inline bool want_round(const Options& options, std::uint64_t rounds_done, double wall_s,
                       std::size_t kinds) {
  return rounds_done < options.min_rounds() * kinds || wall_s < options.seconds;
}

Result run_onboard(const Options& options);
Result run_serve(const Options& options, std::size_t n_pufs);
Result run_auth_store(const Options& options);

/// Order-sensitive 64-bit digest step (the service engines' mixing formula).
void mix(std::uint64_t& h, std::uint64_t v);
void mix_double(std::uint64_t& h, double v);

double median(std::vector<double> values);
/// Linear-interpolated quantile, 0 <= p <= 1.
double quantile(std::vector<double> values, double p);
/// The best of a run's identical rounds: the highest rate and the shortest
/// time. On a shared host, co-tenants' load only ever slows a round, and it
/// comes and goes in phases of seconds to minutes, so the median round of a
/// run flips between the host's fast and slow phases while the best round
/// stays with the code.
double best_rate(const std::vector<double>& rates);
double best_seconds(const std::vector<double>& seconds);
/// Peak resident set of this process image so far (VmHWM), MiB.
double peak_rss_mb();

/// Differences of the global metrics registry between two snapshots,
/// summed over any number of [before, after) windows.
class RegistryDelta {
 public:
  void begin();
  void end();
  std::uint64_t counter(const std::string& name) const;
  double span_seconds(const std::string& name) const;

 private:
  MetricsSnapshot before_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> spans_;
};

/// Span ids, resolved once per recorder.
struct SpanNames {
  SpanNames(TraceRecorder* recorder, const std::vector<std::string>& names);
  std::uint32_t operator[](std::size_t i) const { return ids.at(i); }
  std::vector<std::uint32_t> ids;
};

/// Share of the `root` spans' wall time that falls inside a named child span
/// (1 - root self time / root duration): the trace.coverage metric.
double coverage_of(const TraceRecorder& recorder, const std::string& root);

/// Writes the trace file named by the options; records a violation when it
/// cannot be written.
void write_trace(const TraceRecorder& recorder, const Options& options, Result& result);

}  // namespace xpuf::bench_e2e
