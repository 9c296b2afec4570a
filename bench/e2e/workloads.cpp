#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace.hpp"

namespace xpuf::bench_e2e {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_metrics(std::ostringstream& os, const std::map<std::string, Metric>& metrics) {
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}";
}

}  // namespace

std::size_t Options::size(std::size_t full, std::size_t floor) const {
  return std::max(floor, smoke ? full / 50 : full);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) violations.push_back(what);
}

void Result::check_digest(std::uint64_t round_digest) {
  if (rounds == 0) digest = round_digest;
  check(round_digest == digest,
        "round " + std::to_string(rounds) + " digest differs from round 0");
}

std::string Result::to_json(const Options& options) const {
  std::ostringstream os;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  os << "{\"workload\": " << json_string(options.workload) << ", \"seed\": " << options.seed
     << ", \"digest\": " << json_string(digest_hex) << ", \"rounds\": " << rounds
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"sizes\": {";
  bool first = true;
  for (const auto& [name, v] : sizes) {
    os << (first ? "" : ", ") << json_string(name) << ": " << json_number(v);
    first = false;
  }
  os << "}, \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i)
    os << (i == 0 ? "" : ", ") << json_string(violations[i]);
  os << "], \"end_to_end\": ";
  append_metrics(os, end_to_end);
  os << ", \"per_layer\": ";
  append_metrics(os, per_layer);
  os << "}";
  return os.str();
}

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void mix_double(std::uint64_t& h, double v) { mix(h, std::bit_cast<std::uint64_t>(v)); }

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double best_rate(const std::vector<double>& rates) { return quantile(rates, 1.0); }

double best_seconds(const std::vector<double>& seconds) { return quantile(seconds, 0.0); }

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries the pre-exec peak of the forking
  // parent into ru_maxrss, which would report the launcher's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

void RegistryDelta::begin() { before_ = MetricsRegistry::global().snapshot(); }

void RegistryDelta::end() {
  const MetricsSnapshot after = MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : after.counters) {
    const auto it = before_.counters.find(name);
    counters_[name] += value - (it == before_.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, span] : after.spans) {
    const auto it = before_.spans.find(name);
    spans_[name] += span.seconds - (it == before_.spans.end() ? 0.0 : it->second.seconds);
  }
}

std::uint64_t RegistryDelta::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryDelta::span_seconds(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : it->second;
}

SpanNames::SpanNames(TraceRecorder* recorder, const std::vector<std::string>& names) {
  for (const std::string& name : names)
    ids.push_back(recorder == nullptr ? 0 : recorder->name_id(name));
}

double coverage_of(const TraceRecorder& recorder, const std::string& root) {
  const auto table = recorder.self_times();
  const auto it = table.find(root);
  if (it == table.end() || it->second.total_s <= 0.0) return 0.0;
  return 1.0 - it->second.self_s / it->second.total_s;
}

void write_trace(const TraceRecorder& recorder, const Options& options, Result& result) {
  result.check(recorder.write_json(options.trace_path),
               "cannot write trace file " + options.trace_path);
}

}  // namespace xpuf::bench_e2e
