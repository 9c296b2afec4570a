#include "engine.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <tuple>

#include "index/index.hpp"
#include "passes/passes.hpp"

namespace xpuf::lint {

namespace {

namespace fs = std::filesystem;

/// One guarded-by(callee, ...) marker. A trailing marker covers its own
/// line; a comment-only marker line additionally covers the next line —
/// the same coverage contract as allow comments.
struct GuardMarker {
  std::size_t line0;  ///< 0-based marker line.
  std::vector<std::string> callees;
  bool comment_only = false;
  bool used = false;
};

std::vector<GuardMarker> collect_guard_markers(const std::vector<std::string>& raw_lines) {
  std::vector<GuardMarker> out;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    std::vector<std::string> callees = parse_guarded_by_comment(raw_lines[i]);
    if (callees.empty()) continue;
    GuardMarker m;
    m.line0 = i;
    m.callees = std::move(callees);
    m.comment_only = trim(raw_lines[i]).rfind("//", 0) == 0;
    out.push_back(std::move(m));
  }
  return out;
}

bool marker_covers(const GuardMarker& m, std::size_t line0) {
  return m.line0 == line0 || (m.comment_only && m.line0 + 1 == line0);
}

/// True iff `body` calls `callee` (token-boundary match followed by '(').
bool body_calls(const std::string& body, const std::string& callee) {
  std::size_t at = 0;
  while ((at = body.find(callee, at)) != std::string::npos) {
    const bool left_ok = at == 0 || !ident_char(body[at - 1]);
    std::size_t after = at + callee.size();
    if (left_ok && after < body.size() && !ident_char(body[after])) {
      while (after < body.size() &&
             std::isspace(static_cast<unsigned char>(body[after])))
        ++after;
      if (after < body.size() && body[after] == '(') return true;
    }
    at += callee.size();
  }
  return false;
}

const FunctionSym* find_function_at(const ProjectIndex& index, const std::string& file,
                                    std::size_t line) {
  for (const auto& [name, syms] : index.functions)
    for (const FunctionSym& s : syms)
      if (s.file == file && s.line == line) return &s;
  return nullptr;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += raw;
        }
    }
  }
  return out;
}

void append_count_map(std::ostringstream& os, const std::map<std::string, std::size_t>& m,
                      const std::string& indent) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << "\n" << indent << "  \"" << json_escape(k) << "\": " << v;
    first = false;
  }
  if (!first) os << "\n" << indent;
  os << "}";
}

}  // namespace

std::size_t Stats::violations_total() const {
  std::size_t n = 0;
  for (const auto& [rule, count] : violations_by_rule) n += count;
  return n;
}

std::size_t Stats::suppressions_total() const {
  std::size_t n = 0;
  for (const auto& [rule, count] : suppressions_by_rule) n += count;
  return n;
}

std::vector<std::pair<std::string, std::string>> read_tree(const std::string& root) {
  const std::vector<std::string> trees = {"src", "bench", "examples", "tests", "tools"};
  std::vector<std::pair<std::string, std::string>> files;
  for (const std::string& tree : trees) {
    const fs::path dir = fs::path(root) / tree;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      files.emplace_back(fs::relative(entry.path(), root).generic_string(), ss.str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Report analyze_files(const std::vector<std::pair<std::string, std::string>>& files) {
  Report report;
  report.stats.files_scanned = files.size();

  const ProjectIndex index = build_index(files);
  report.stats.include_edges = index.includes.size();
  report.stats.counters_indexed = index.counters.size();
  for (const auto& [name, syms] : index.functions)
    report.stats.functions_indexed += syms.size();

  // Per-file artifacts: vector<bool> context for lint_source, suppression
  // tables for pass filtering, guarded-by markers, and budget counting.
  Context ctx;
  std::map<std::string, Suppressions> sup_by_file;
  std::map<std::string, std::vector<GuardMarker>> guards_by_file;
  for (const auto& [rel, content] : files) {
    collect_vector_bool_names(content, ctx.vector_bool_names_by_file[rel]);
    const std::vector<std::string> raw_lines = split_lines(content);
    sup_by_file.emplace(rel, build_suppressions(rel, raw_lines));
    guards_by_file.emplace(rel, collect_guard_markers(raw_lines));
    for (const std::string& line : raw_lines) {
      for (const std::string& r : parse_allow_comment(line))
        if (is_known_rule(r)) ++report.stats.suppressions_by_rule[r];
      for (const std::string& r : parse_allow_file_comment(line))
        if (is_known_rule(r)) ++report.stats.suppressions_by_rule[r];
    }
  }

  // Per-file rules (lint_source filters its own suppressions).
  std::vector<Violation> all;
  for (const auto& [rel, content] : files) {
    std::vector<Violation> v = lint_source(rel, content, ctx);
    all.insert(all.end(), v.begin(), v.end());
  }

  // Semantic passes, filtered through the same suppression tables.
  for (auto* pass : {pass_layering, pass_determinism, pass_wire_pairing,
                     pass_metrics_accounting, pass_orphan_headers, pass_orphan_symbols}) {
    for (Violation& v : pass(index)) {
      const auto it = sup_by_file.find(v.file);
      if (it != sup_by_file.end() && it->second.allows(v.rule, v.line - 1)) continue;
      all.push_back(std::move(v));
    }
  }

  // guarded-by policy: discharge require-guard findings the index can prove,
  // keep (and escalate) the ones it cannot.
  std::vector<Violation> kept;
  kept.reserve(all.size());
  for (Violation& v : all) {
    if (v.rule != "require-guard") {
      kept.push_back(std::move(v));
      continue;
    }
    auto& markers = guards_by_file[v.file];
    bool discharged = false;
    for (GuardMarker& m : markers) {
      if (!marker_covers(m, v.line - 1)) continue;
      m.used = true;
      const FunctionSym* sym = find_function_at(index, v.file, v.line);
      std::string unproven;
      for (const std::string& callee : m.callees) {
        if (sym && body_calls(sym->body, callee) && index.function_has_require(callee)) {
          discharged = true;
          break;
        }
        unproven = callee;
      }
      if (discharged) {
        ++report.stats.guarded_by_verified;
        break;
      }
      const auto sup = sup_by_file.find(v.file);
      if (sup == sup_by_file.end() || !sup->second.allows("bad-guard-ref", m.line0))
        kept.push_back({v.file, m.line0 + 1, "bad-guard-ref",
                        "guarded-by claims '" + unproven + "' checks this function's "
                        "preconditions, but the index finds no call to a definition "
                        "containing XPUF_REQUIRE"});
    }
    if (!discharged) kept.push_back(std::move(v));
  }

  // Stale markers: a guarded-by that discharges nothing is a suppression
  // wearing a proof's clothing — the guarded function grew its own check, or
  // the marker drifted off its line. Either way it must go.
  for (auto& [file, markers] : guards_by_file) {
    for (const GuardMarker& m : markers) {
      if (m.used) continue;
      const auto sup = sup_by_file.find(file);
      if (sup != sup_by_file.end() && sup->second.allows("bad-guard-ref", m.line0)) continue;
      kept.push_back({file, m.line0 + 1, "bad-guard-ref",
                      "stale guarded-by marker: no require-guard finding here to "
                      "discharge — remove it"});
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  for (const Violation& v : kept) ++report.stats.violations_by_rule[v.rule];
  report.violations = std::move(kept);
  return report;
}

Report analyze_project(const std::string& root) { return analyze_files(read_tree(root)); }

std::string report_to_json(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"tool\": {\n    \"name\": \"xpuf_lint\",\n"
     << "    \"rules\": [";
  bool first = true;
  for (const RuleInfo& r : rules()) {
    os << (first ? "" : ",") << "\n      {\"id\": \"" << json_escape(r.name)
       << "\", \"summary\": \"" << json_escape(r.summary) << "\"}";
    first = false;
  }
  os << "\n    ]\n  },\n  \"results\": [";
  first = true;
  for (const Violation& v : report.violations) {
    os << (first ? "" : ",") << "\n    {\"ruleId\": \"" << json_escape(v.rule)
       << "\", \"file\": \"" << json_escape(v.file) << "\", \"line\": " << v.line
       << ", \"message\": \"" << json_escape(v.message) << "\"}";
    first = false;
  }
  os << "\n  ],\n  \"stats\": {\n";
  const Stats& s = report.stats;
  os << "    \"files_scanned\": " << s.files_scanned << ",\n"
     << "    \"include_edges\": " << s.include_edges << ",\n"
     << "    \"functions_indexed\": " << s.functions_indexed << ",\n"
     << "    \"counters_indexed\": " << s.counters_indexed << ",\n"
     << "    \"guarded_by_verified\": " << s.guarded_by_verified << ",\n"
     << "    \"violations_total\": " << s.violations_total() << ",\n"
     << "    \"violations_by_rule\": ";
  append_count_map(os, s.violations_by_rule, "    ");
  os << ",\n    \"suppressions_total\": " << s.suppressions_total() << ",\n"
     << "    \"suppressions_by_rule\": ";
  append_count_map(os, s.suppressions_by_rule, "    ");
  os << "\n  }\n}\n";
  return os.str();
}

}  // namespace xpuf::lint
