// Span recorder of the end-to-end benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into public
// layer functions: name, start, end, parent and request id. The parent comes
// from a thread-local stack of open spans, or is passed explicitly when a
// span runs on a worker thread that the parent fanned work out to. Spans stay
// in memory for the whole run and are written out once, at exit.
//
// A span's self time is its duration minus the part of its interval that its
// children cover (the union of the child intervals, clipped to the parent),
// so overlapping children on parallel lanes are not counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace xpuf::bench_e2e {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::uint32_t name = 0;  ///< index into the recorder's name table
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;  ///< shared by every span of one request
  double start = 0.0;         ///< seconds since the recorder was created
  double end = 0.0;
};

/// Per-name totals over every recorded span of that name.
struct SelfStat {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed durations minus child coverage
};

class TraceRecorder {
 public:
  /// Interns a span name; callers resolve ids once, outside the hot loop.
  std::uint32_t name_id(const std::string& name);

  /// Opens a span now and returns its index.
  std::uint32_t open(std::uint32_t name, std::uint64_t request, std::uint32_t parent);
  void close(std::uint32_t index);

  /// Appends a finished span with explicit times.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, std::uint64_t request,
                    double start, double end);

  std::size_t size() const;
  Span span(std::uint32_t index) const;

  /// Self-time table keyed by span name.
  std::map<std::string, SelfStat> self_times() const;

  /// Writes the names, the self-time table and the first 2,000 spans (enough
  /// to inspect whole requests) as one JSON object. Returns false when the
  /// file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  Timer clock_;
};

/// RAII span. The parent is the calling thread's innermost open span unless
/// one is given. A null recorder makes the span a no-op, so traced and
/// untraced rounds run the same code.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::uint32_t name, std::uint64_t request = 0);
  ScopedSpan(TraceRecorder* recorder, std::uint32_t name, std::uint64_t request,
             std::uint32_t parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Index of the span in the recorder (kNoParent when not recording), for
  /// children opened on other threads.
  std::uint32_t index() const { return index_; }

 private:
  TraceRecorder* recorder_;
  std::uint32_t index_ = kNoParent;
};

/// Checks the self-time arithmetic on a fixed span tree (nested spans,
/// overlapping siblings, zero-length spans, a child overrunning its parent)
/// and the parent stack of ScopedSpan. Prints each failure; returns the
/// number of failures.
int self_test();

}  // namespace xpuf::bench_e2e
