// xpuf_lint analysis engine — one entry point over the per-file rules
// (lint.cpp) and the cross-TU semantic passes (passes/).
//
// analyze_files() is a pure function of an in-memory file set, so tests feed
// it fixture trees and get byte-identical behavior to the CLI running over
// the checkout. The engine owns the two pieces of policy the passes must not
// know about:
//
//   * suppression filtering — `// xpuf-lint: allow(rule)` comments silence
//     pass findings exactly like per-file findings, and every marker is
//     counted into Stats so the suppression budget (tools/lint_baseline.json)
//     can ratchet down;
//   * guarded-by verification — `// xpuf-lint: guarded-by(callee)` discharges
//     a require-guard finding only when the index proves the claim: the named
//     callee is invoked from the flagged function's body AND some indexed
//     definition of it contains XPUF_REQUIRE. A claim the index cannot prove
//     keeps the original finding and raises `bad-guard-ref`, so these markers
//     can never rot into blanket suppressions.
//
// The marker examples above are themselves parsed (the grammar has no notion
// of "inside documentation"), hence:
// xpuf-lint: allow-file(bad-suppression, bad-guard-ref)
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace xpuf::lint {

struct Stats {
  std::size_t files_scanned = 0;
  std::size_t include_edges = 0;
  std::size_t functions_indexed = 0;
  std::size_t counters_indexed = 0;
  /// guarded-by markers the index verified (these cost no budget).
  std::size_t guarded_by_verified = 0;
  std::map<std::string, std::size_t> violations_by_rule;
  /// allow()/allow-file() markers per rule — the suppression budget input.
  std::map<std::string, std::size_t> suppressions_by_rule;

  std::size_t violations_total() const;
  std::size_t suppressions_total() const;
};

struct Report {
  std::vector<Violation> violations;  ///< Post-suppression, sorted (file, line).
  Stats stats;
};

/// Reads the lintable tree under `root` (src/, bench/, examples/, tests/,
/// tools/ — .cpp/.hpp/.h) as (rel_path, content) pairs, sorted by path.
std::vector<std::pair<std::string, std::string>> read_tree(const std::string& root);

/// Runs the full analysis (per-file rules + semantic passes + suppression and
/// guarded-by policy) over an in-memory file set.
Report analyze_files(const std::vector<std::pair<std::string, std::string>>& files);

/// analyze_files(read_tree(root)).
Report analyze_project(const std::string& root);

/// Serializes a report as SARIF-lite JSON:
///   {"version":1,
///    "tool":{"name":"xpuf_lint","rules":[{"id","summary"}...]},
///    "results":[{"ruleId","file","line","message"}...],
///    "stats":{...}}
/// Consumed by tools/check_lint_baseline.py in CI.
std::string report_to_json(const Report& report);

}  // namespace xpuf::lint
