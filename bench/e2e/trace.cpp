#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

namespace xpuf::bench_e2e {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> open_stack;

/// Length of the union of `intervals` (each already clipped to its parent).
double union_length(std::vector<std::pair<double, double>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool in_run = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!in_run || start > run_end) {
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (in_run) covered += run_end - run_start;
  return covered;
}

}  // namespace

std::uint32_t TraceRecorder::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t TraceRecorder::open(std::uint32_t name, std::uint64_t request,
                                  std::uint32_t parent) {
  const double now = clock_.seconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, request, now, now});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void TraceRecorder::close(std::uint32_t index) {
  const double now = clock_.seconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end = now;
}

std::uint32_t TraceRecorder::add(std::uint32_t name, std::uint32_t parent,
                                 std::uint64_t request, double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, request, start, end});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Span TraceRecorder::span(std::uint32_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.at(index);
}

std::map<std::string, SelfStat> TraceRecorder::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != kNoParent) children[spans_[i].parent].push_back(
        static_cast<std::uint32_t>(i));
  std::map<std::string, SelfStat> out;
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = std::max(0.0, s.end - s.start);
    covered.clear();
    for (const std::uint32_t c : children[i])
      covered.emplace_back(std::max(spans_[c].start, s.start),
                           std::min(spans_[c].end, s.end));
    SelfStat& stat = out[names_[s.name]];
    stat.calls += 1;
    stat.total_s += duration;
    stat.self_s += duration - union_length(covered);
  }
  return out;
}

bool TraceRecorder::write_json(const std::string& path) const {
  constexpr std::size_t kSampleSpans = 2000;
  const std::map<std::string, SelfStat> table = self_times();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans_total\": %zu, \"self_times\": {", spans_.size());
  bool first = true;
  for (const auto& [name, stat] : table) {
    std::fprintf(f, "%s\n  \"%s\": {\"calls\": %llu, \"total_s\": %.9g, \"self_s\": %.9g}",
                 first ? "" : ",", name.c_str(), static_cast<unsigned long long>(stat.calls),
                 stat.total_s, stat.self_s);
    first = false;
  }
  std::fprintf(f, "},\n\"names\": [");
  for (std::size_t i = 0; i < names_.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  std::fprintf(f, "],\n\"spans\": [");
  const std::size_t n = std::min(kSampleSpans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  [%u, %lld, %llu, %.9f, %.9f]", i == 0 ? "" : ",", s.name,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start, s.end);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(TraceRecorder* recorder, std::uint32_t name, std::uint64_t request)
    : ScopedSpan(recorder, name, request,
                 open_stack.empty() ? kNoParent : open_stack.back()) {}

ScopedSpan::ScopedSpan(TraceRecorder* recorder, std::uint32_t name, std::uint64_t request,
                       std::uint32_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  index_ = recorder_->open(name, request, parent);
  open_stack.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->close(index_);
  open_stack.pop_back();
}

int self_test() {
  int failures = 0;
  const auto expect = [&](const std::map<std::string, SelfStat>& table,
                          const std::string& name, std::uint64_t calls, double total,
                          double self) {
    const auto it = table.find(name);
    const bool ok = it != table.end() && it->second.calls == calls &&
                    std::fabs(it->second.total_s - total) < 1e-12 &&
                    std::fabs(it->second.self_s - self) < 1e-12;
    if (!ok) {
      ++failures;
      std::printf("self-test FAILED: %s expected calls=%llu total=%g self=%g", name.c_str(),
                  static_cast<unsigned long long>(calls), total, self);
      if (it != table.end())
        std::printf(", got calls=%llu total=%g self=%g",
                    static_cast<unsigned long long>(it->second.calls), it->second.total_s,
                    it->second.self_s);
      std::printf("\n");
    }
  };

  // root [0,10]
  //   a [1,4]  >  b [2,3]  >  c [2.5,2.5] (zero length)
  //   d [3,7]  (overlaps a on [3,4])  >  e [5,6], f [5.5,6.5] (overlapping)
  //   g [8,8]  (zero length)
  //   h [9,11] (overruns the root; clipped to [9,10])
  // A second root [20,22] with one child a [20.5,21] checks per-name sums.
  {
    TraceRecorder rec;
    const std::uint32_t root = rec.name_id("root");
    const std::uint32_t a = rec.name_id("a");
    const std::uint32_t r0 = rec.add(root, kNoParent, 1, 0.0, 10.0);
    const std::uint32_t a0 = rec.add(a, r0, 1, 1.0, 4.0);
    const std::uint32_t b0 = rec.add(rec.name_id("b"), a0, 1, 2.0, 3.0);
    rec.add(rec.name_id("c"), b0, 1, 2.5, 2.5);
    const std::uint32_t d0 = rec.add(rec.name_id("d"), r0, 1, 3.0, 7.0);
    rec.add(rec.name_id("e"), d0, 1, 5.0, 6.0);
    rec.add(rec.name_id("f"), d0, 1, 5.5, 6.5);
    rec.add(rec.name_id("g"), r0, 1, 8.0, 8.0);
    rec.add(rec.name_id("h"), r0, 1, 9.0, 11.0);
    const std::uint32_t r1 = rec.add(root, kNoParent, 2, 20.0, 22.0);
    rec.add(a, r1, 2, 20.5, 21.0);
    const auto table = rec.self_times();
    // root: 10 - |[1,7] u [8,8] u [9,10]| = 3, plus 2 - 0.5 = 1.5.
    expect(table, "root", 2, 12.0, 4.5);
    // a: (3 - 1) + 0.5.
    expect(table, "a", 2, 3.5, 2.5);
    expect(table, "b", 1, 1.0, 1.0);
    expect(table, "c", 1, 0.0, 0.0);
    // d: 4 - |[5,6.5]|.
    expect(table, "d", 1, 4.0, 2.5);
    expect(table, "e", 1, 1.0, 1.0);
    expect(table, "f", 1, 1.0, 1.0);
    expect(table, "g", 1, 0.0, 0.0);
    expect(table, "h", 1, 2.0, 2.0);
  }

  // The thread-local parent stack: nested ScopedSpans parent to the
  // innermost open span, an explicit parent overrides the stack, and a null
  // recorder records nothing.
  {
    TraceRecorder rec;
    const std::uint32_t outer = rec.name_id("outer");
    const std::uint32_t inner = rec.name_id("inner");
    std::uint32_t outer_index = kNoParent;
    {
      ScopedSpan o(&rec, outer, 7);
      outer_index = o.index();
      { ScopedSpan i(&rec, inner, 7); }
      { ScopedSpan off(nullptr, inner, 7); }
    }
    { ScopedSpan adopted(&rec, inner, 8, outer_index); }
    const bool ok = rec.size() == 3 && rec.span(0).parent == kNoParent &&
                    rec.span(1).parent == outer_index && rec.span(1).request == 7 &&
                    rec.span(2).parent == outer_index && rec.span(2).request == 8 &&
                    rec.span(1).start >= rec.span(0).start &&
                    rec.span(1).end <= rec.span(0).end;
    if (!ok) {
      ++failures;
      std::printf("self-test FAILED: ScopedSpan parent stack\n");
    }
  }
  if (failures == 0) std::printf("self-test passed\n");
  return failures;
}

}  // namespace xpuf::bench_e2e
