// xpuf_lint CLI.
//
//   xpuf_lint --root <repo-root>           analyze src/ bench/ examples/
//                                          tests/ tools/
//   xpuf_lint --format json                emit the SARIF-lite report instead
//                                          of text (pair with --out FILE)
//   xpuf_lint --stats                      print engine statistics after the
//                                          findings (text mode)
//   xpuf_lint --list-rules                 print the rule registry
//   xpuf_lint --check-tidy-config <file>   validate a .clang-tidy config
//
// Exit status: 0 when clean, 1 when violations were found, 2 on usage or
// I/O error. --format json exits by the same contract, so CI can both
// archive the report and gate on it.
#include "lint.hpp"

#include <cstdio>
#include <fstream>
#include <string>

#include "engine.hpp"

int main(int argc, char** argv) {
  using namespace xpuf::lint;
  std::string root = ".";
  std::string tidy_config;
  std::string format = "text";
  std::string out_path;
  bool list_rules = false;
  bool show_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--check-tidy-config" && i + 1 < argc) {
      tidy_config = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "xpuf_lint: unknown format '%s' (text|json)\n",
                     format.c_str());
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: xpuf_lint [--root DIR] [--format text|json] [--out FILE] [--stats]\n"
          "                 [--list-rules] [--check-tidy-config FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "xpuf_lint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (list_rules) {
    for (const RuleInfo& r : rules())
      std::printf("%-22s %s\n", r.name.c_str(), r.summary.c_str());
    return 0;
  }

  if (!tidy_config.empty()) {
    const auto problems = check_tidy_config(tidy_config);
    for (const Violation& v : problems)
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                   v.message.c_str());
    if (problems.empty()) std::printf("tidy config OK: %s\n", tidy_config.c_str());
    return problems.empty() ? 0 : 1;
  }

  const Report report = analyze_project(root);

  if (format == "json") {
    const std::string json = report_to_json(report);
    if (out_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "xpuf_lint: cannot write '%s'\n", out_path.c_str());
        return 2;
      }
      out << json;
    }
    return report.violations.empty() ? 0 : 1;
  }

  for (const Violation& v : report.violations)
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                 v.message.c_str());
  if (show_stats) {
    const Stats& s = report.stats;
    std::printf("files scanned:       %zu\n", s.files_scanned);
    std::printf("include edges:       %zu\n", s.include_edges);
    std::printf("functions indexed:   %zu\n", s.functions_indexed);
    std::printf("counters indexed:    %zu\n", s.counters_indexed);
    std::printf("guarded-by verified: %zu\n", s.guarded_by_verified);
    std::printf("suppressions:        %zu\n", s.suppressions_total());
    for (const auto& [rule, count] : s.suppressions_by_rule)
      std::printf("  %-22s %zu\n", rule.c_str(), count);
  }
  if (report.violations.empty()) {
    std::printf("xpuf_lint: clean\n");
    return 0;
  }
  std::fprintf(stderr, "xpuf_lint: %zu violation(s)\n", report.violations.size());
  return 1;
}
