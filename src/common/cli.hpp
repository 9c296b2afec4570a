// Tiny declarative command-line parser shared by benches and examples.
//
// Every reproduction binary exposes the same vocabulary: --challenges,
// --trials, --seed, --chips, ... plus the XPUF_BENCH_SCALE=full environment
// override that restores paper-scale workloads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace xpuf {

/// Parsed command line: --key value / --key=value / --flag.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name appeared (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Scale presets shared by the reproduction benches. `reduced` keeps the
/// whole bench suite under ~10 minutes; `full` is the paper's workload
/// (1,000,000 challenges x 100,000 evaluations, 10 chips).
struct BenchScale {
  std::uint64_t challenges;      ///< random challenges per experiment
  std::uint64_t trials;          ///< repeated evaluations per challenge (K)
  std::uint64_t chips;           ///< chips in the simulated fab lot
  std::uint64_t attack_max_train;///< largest attack training-set size
  bool full;                     ///< true when paper scale was requested
  /// Execution lanes for the global thread pool (--threads / XPUF_THREADS;
  /// defaults to hardware_concurrency). Thread count never changes results
  /// — see common/parallel.hpp.
  std::uint64_t threads;
};

/// Resolves the scale: --scale full/reduced beats XPUF_BENCH_SCALE, which
/// beats the reduced default. Individual --challenges/--trials/--chips/
/// --threads flags override preset fields.
BenchScale resolve_scale(const Cli& cli);

}  // namespace xpuf
