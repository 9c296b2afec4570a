#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "engine.hpp"
#include "index/index.hpp"
#include "lexer/lexer.hpp"

namespace xpuf::lint {

namespace {

const std::vector<RuleInfo> kRules = {
    {"raw-rng",
     "raw std random engine or rand()/srand(); draw from common/rng streams instead"},
    {"nondeterminism",
     "wall-clock / random_device entropy source outside common/rng.cpp breaks reseedability"},
    {"vector-bool-parallel",
     "vector<bool> touched inside a parallel_for body; adjacent bits share words — stage "
     "bytes and commit serially"},
    {"require-guard",
     "public puf//sim/ entry point takes container/dimension parameters but never checks "
     "XPUF_REQUIRE"},
    {"raw-timing",
     "raw std::chrono::steady_clock outside common/timer.hpp / common/trace.cpp; time "
     "through Timer/TraceSpan so wall-clock stays out of measurement paths"},
    {"raw-syscall",
     "raw POSIX socket/epoll syscall or errno branch outside the syscall wrapper TU "
     "(src/net/async/syscall.cpp); go through the net::async::sys_* wrappers so "
     "EINTR/EAGAIN folding and byte accounting stay in one place"},
    {"narrowing",
     "double literal narrowed to float, or C-style arithmetic cast; use an f suffix / "
     "static_cast"},
    {"include-order",
     "header missing #pragma once, self-header not included first, or <system> include "
     "after a \"project\" include"},
    {"wire-portability",
     "wire codec uses memcpy/type-punning or non-fixed-width integers; serialize "
     "field-by-field with explicit little-endian put_/read_ helpers"},
    {"scalar-eval",
     "per-challenge delay_difference/one_probability/measure_soft_response call in a "
     "protocol hot path — evaluate batches through the parity-word core "
     "(sim/linear.hpp: suffix-parity words, parity tiles, parity_dots) — or "
     "per-challenge model evaluation (predict_xor and friends) "
     "in the issuance files; screen candidates in blocks through ChallengeScreener "
     "(puf/screening.hpp)"},
    {"ml-dot",
     "hand-rolled row-wise dot-product loop in src/ml/; route it through linalg::dot or "
     "the GEMM kernels (matmul_nt / matmul_tn) so batch and scalar paths share one "
     "accumulation order"},
    {"parity-chain",
     "hand-rolled +/-1 sign chain (`acc *= c ? -1.0 : 1.0`) outside src/sim/linear.cpp; "
     "keep a running XOR parity and take the sign from sim::parity_sign, or build phi "
     "through sim::feature_fill"},
    {"bad-suppression", "xpuf-lint allow comment names a rule that does not exist"},
    // Semantic rules — emitted by the cross-TU passes (passes/) and the
    // engine's guarded-by policy, registered here so the suppression
    // vocabulary and --list-rules cover them.
    {"layering",
     "include edge violates the declared module DAG (common <- linalg/crypto <- sim <- "
     "ml <- puf <- analysis/net) or closes a module cycle"},
    {"parallel-rng",
     "Rng inside a parallel body is not keyed off StreamFamily::stream(i); draw order "
     "then depends on thread scheduling"},
    {"unordered-fp",
     "std::unordered_* iteration feeds an accumulation; hash order is unspecified, so "
     "floating-point results drift across runs"},
    {"wire-pairing",
     "codec halves drifted (wire.cpp / record.cpp + same-stem header): put_uN without "
     "a width-matched read_uN, encode/decode sequences out of sync, or reserve() not "
     "accounting the fixed frame bytes"},
    {"metrics-accounting",
     "registered counter is never incremented, or incremented but never audited by a "
     "tests//bench/ expectation or a total() consumer"},
    {"bad-guard-ref",
     "guarded-by(callee) marker the symbol index cannot verify, or one that no longer "
     "discharges any require-guard finding"},
    {"orphan-header",
     "src/ header no file outside tests/ includes (its own .cpp aside); code only its "
     "tests reach is not a production path — delete it or move the oracle to tests/"},
    {"orphan-symbol",
     "function, method or field declared in a src/ header whose name appears outside "
     "tests/ only where it is declared or defined; delete it, move a test helper to "
     "tests/, or mark a kept test hook allow(orphan-symbol) naming its test"},
};

std::vector<std::string> parse_allow_list(const std::string& line, const std::string& marker) {
  std::vector<std::string> out;
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return out;
  const std::size_t open = line.find('(', at + marker.size());
  if (open == std::string::npos) return out;
  const std::size_t close = line.find(')', open);
  if (close == std::string::npos) return out;
  std::string inner = line.substr(open + 1, close - open - 1);
  std::stringstream ss(inner);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool path_has_prefix(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool is_rng_file(const std::string& rel) {
  return rel == "src/common/rng.hpp" || rel == "src/common/rng.cpp";
}

// ---------------------------------------------------------------------------
// Simple per-line regex rules.

struct PatternRule {
  const char* rule;
  std::regex pattern;
  const char* message;
};

const std::vector<PatternRule>& raw_rng_patterns() {
  static const std::vector<PatternRule> pats = {
      {"raw-rng", std::regex(R"(\bstd::mt19937)"),
       "std::mt19937 bypasses the seeded xoshiro streams; use xpuf::Rng"},
      {"raw-rng", std::regex(R"(\bstd::(minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b)"),
       "std <random> engine bypasses the seeded xoshiro streams; use xpuf::Rng"},
      {"raw-rng", std::regex(R"((^|[^\w:])s?rand\s*\()"),
       "C rand()/srand() is neither seeded nor portable; use xpuf::Rng"},
      {"raw-rng", std::regex(R"(\bstd::\w+_distribution\b)"),
       "std <random> distributions differ across standard libraries; use the Rng "
       "distribution helpers"},
      {"nondeterminism", std::regex(R"(\bstd::random_device\b|[^\w:]random_device\b)"),
       "random_device injects unseeded entropy; derive streams from the experiment seed"},
      {"nondeterminism", std::regex(R"((^|[^\w:.])(time|clock)\s*\()"),
       "wall-clock entropy makes runs unreproducible; thread an explicit seed instead"},
      {"nondeterminism", std::regex(R"(\bgettimeofday\b|\bstd::chrono::system_clock\b)"),
       "wall-clock entropy makes runs unreproducible; use steady_clock for intervals"},
  };
  return pats;
}

const std::regex& float_literal_pattern() {
  // float x = 0.5;  (double literal, no f suffix)
  static const std::regex re(
      R"(\bfloat\s+\w+\s*=\s*[^;{]*\b\d+\.\d*(e[+-]?\d+)?(?![0-9fF]))");
  return re;
}

const std::regex& cstyle_cast_pattern() {
  static const std::regex re(
      R"(\(\s*(float|double|int|unsigned|long|short|std::size_t|size_t|std::u?int(8|16|32|64)_t|u?int(8|16|32|64)_t)\s*\)\s*[A-Za-z_0-9(])");
  return re;
}

// ---------------------------------------------------------------------------
// vector<bool> declarations and parallel_for regions.

const std::regex& vector_bool_decl_pattern() {
  static const std::regex re(
      R"(std::vector\s*<\s*(std::vector\s*<\s*)?bool\s*>\s*(>\s*)?[&*]?\s*([A-Za-z_]\w*))");
  return re;
}

const std::regex& vector_bool_use_pattern() {
  static const std::regex re(R"(\bvector\s*<\s*bool\b)");
  return re;
}

// ---------------------------------------------------------------------------
// require-guard: function-definition scanner for src/puf//src/sim/ .cpp.
// (The structural machinery — namespace_scope_functions, parallel-region
// marking — lives in index/, shared with the semantic passes.)

const std::regex& container_param_pattern() {
  static const std::regex re(
      R"(std::vector\s*<|\bMatrix\b|\bVector\b|\bChallenge\b|\bBatch\b|\bBlock\b|\bScan\b|\bDataset\b|\bstd::span\b|\bstd::size_t\b)");
  return re;
}

// ---------------------------------------------------------------------------
// include-order.

struct IncludeDirective {
  std::size_t line0;
  std::string path;  ///< Without the delimiters.
  bool angled;
};

// Collected from the RAW lines: the comment/string blanking pass erases the
// path inside a quoted include, which is exactly the text this rule needs.
std::vector<IncludeDirective> collect_includes(const std::vector<std::string>& raw_lines) {
  static const std::regex re(R"(^\s*#\s*include\s*([<"])([^>"]+)[>"])");
  std::vector<IncludeDirective> out;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(raw_lines[i], m, re))
      out.push_back({i, m[2].str(), m[1].str() == "<"});
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

bool is_known_rule(const std::string& rule) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.name == rule; });
}

std::vector<std::string> parse_allow_comment(const std::string& line) {
  // Reject the allow-file form: "allow-file(" also contains "allow" but the
  // marker match below requires the next non-space char to be '('.
  const std::size_t at = line.find("xpuf-lint:");
  if (at == std::string::npos) return {};
  std::string rest = trim(line.substr(at + std::string("xpuf-lint:").size()));
  if (rest.rfind("allow", 0) != 0 || rest.rfind("allow-file", 0) == 0) return {};
  return parse_allow_list(line, "xpuf-lint:");
}

std::vector<std::string> parse_allow_file_comment(const std::string& line) {
  const std::size_t at = line.find("xpuf-lint:");
  if (at == std::string::npos) return {};
  std::string rest = trim(line.substr(at + std::string("xpuf-lint:").size()));
  if (rest.rfind("allow-file", 0) != 0) return {};
  return parse_allow_list(line, "allow-file");
}

std::vector<std::string> parse_guarded_by_comment(const std::string& line) {
  const std::size_t at = line.find("xpuf-lint:");
  if (at == std::string::npos) return {};
  std::string rest = trim(line.substr(at + std::string("xpuf-lint:").size()));
  if (rest.rfind("guarded-by", 0) != 0) return {};
  return parse_allow_list(line, "guarded-by");
}

bool Suppressions::allows(const std::string& rule, std::size_t line0) const {
  if (file_wide.count(rule)) return true;
  return line0 < per_line.size() && per_line[line0].count(rule) != 0;
}

Suppressions build_suppressions(const std::string& rel_path,
                                const std::vector<std::string>& raw_lines) {
  Suppressions sup;
  sup.per_line.resize(raw_lines.size());
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    auto note_bad = [&](const std::string& name) {
      sup.meta.push_back({rel_path, i + 1, "bad-suppression",
                          "unknown rule '" + name + "' in xpuf-lint allow comment"});
    };
    for (const std::string& r : parse_allow_file_comment(line)) {
      if (!is_known_rule(r)) {
        note_bad(r);
        continue;
      }
      sup.file_wide.insert(r);
    }
    const std::vector<std::string> allowed = parse_allow_comment(line);
    if (allowed.empty()) continue;
    const bool comment_only = trim(line).rfind("//", 0) == 0;
    for (const std::string& r : allowed) {
      if (!is_known_rule(r)) {
        note_bad(r);
        continue;
      }
      sup.per_line[i].insert(r);
      if (comment_only && i + 1 < raw_lines.size()) sup.per_line[i + 1].insert(r);
    }
  }
  return sup;
}

void collect_vector_bool_names(const std::string& content, std::set<std::string>& out) {
  const std::string code = blank_comments_and_strings(content);
  auto begin = std::sregex_iterator(code.begin(), code.end(), vector_bool_decl_pattern());
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[3].str();
    if (!name.empty() && !std::isdigit(static_cast<unsigned char>(name[0]))) out.insert(name);
  }
}

std::vector<Violation> lint_source(const std::string& rel_path, const std::string& content,
                                   const Context& ctx) {
  std::vector<Violation> out;
  const std::string code = blank_comments_and_strings(content);
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::vector<std::string> code_lines = split_lines(code);
  const Suppressions sup = build_suppressions(rel_path, raw_lines);

  auto report = [&](const std::string& rule, std::size_t line0, const std::string& msg) {
    if (!sup.allows(rule, line0)) out.push_back({rel_path, line0 + 1, rule, msg});
  };
  // Meta findings go through report() too, so a file documenting the
  // suppression syntax can allow(bad-suppression) its own examples.
  for (const Violation& v : sup.meta) report(v.rule, v.line - 1, v.message);

  // raw-rng / nondeterminism (path-exempt: the RNG implementation itself —
  // raw-rng for both rng files, nondeterminism for rng.cpp only, where the
  // one sanctioned entropy escape hatch may live).
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    for (const PatternRule& pr : raw_rng_patterns()) {
      const bool is_raw_rng = std::string(pr.rule) == "raw-rng";
      if (is_raw_rng && is_rng_file(rel_path)) continue;
      if (!is_raw_rng && rel_path == "src/common/rng.cpp") continue;
      if (std::regex_search(code_lines[i], pr.pattern)) report(pr.rule, i, pr.message);
    }
  }

  // raw-timing: clock reads live only in the sanctioned timing layer (the
  // Timer stopwatch and the TraceSpan recorder); everywhere else wall-clock
  // flows through those types so it can never leak into results.
  if (rel_path != "src/common/timer.hpp" && rel_path != "src/common/trace.cpp") {
    static const std::regex steady(R"(\bstd::chrono::steady_clock\b)");
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      if (std::regex_search(code_lines[i], steady))
        report("raw-timing", i,
               "raw steady_clock read; use xpuf::Timer or XPUF_TRACE_SPAN instead");
  }

  // raw-syscall: every raw socket/epoll/fd syscall and every errno branch is
  // confined to the wrapper TU (net/async/syscall.cpp), which folds
  // EINTR/EAGAIN/partial transfers into IoStatus and owns the byte
  // conservation counters. A raw call site anywhere else re-opens the errno
  // branch matrix the wrappers closed. Three pattern tiers: errno itself,
  // ::-qualified calls of any wrapped syscall, and the unqualified names
  // distinctive enough to never collide with project identifiers.
  if (rel_path != "src/net/async/syscall.cpp") {
    static const std::vector<PatternRule> pats = {
        {"raw-syscall", std::regex(R"(\berrno\b)"),
         "errno inspection outside the syscall wrapper TU; consume the IoStatus a "
         "net::async::sys_* wrapper returns instead"},
        {"raw-syscall",
         std::regex(
             R"((^|[^\w])::\s*(read|write|close|accept4?|recv|send|connect|bind|listen|socket|socketpair|fcntl|setsockopt|getsockopt|getsockname|shutdown|unlink|epoll_create1?|epoll_ctl|epoll_wait)\s*\()"),
         "raw ::syscall outside the wrapper TU; use the net::async::sys_* wrappers"},
        {"raw-syscall",
         std::regex(
             R"((^|[^\w:.])(accept4|socketpair|setsockopt|getsockname|epoll_create1?|epoll_ctl|epoll_wait)\s*\()"),
         "raw socket/epoll syscall outside the wrapper TU; use the net::async::sys_* "
         "wrappers"},
    };
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      for (const PatternRule& pr : pats)
        if (std::regex_search(code_lines[i], pr.pattern)) report(pr.rule, i, pr.message);
  }

  // narrowing.
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    if (std::regex_search(code_lines[i], float_literal_pattern()))
      report("narrowing", i, "double literal initializes a float; add an f suffix");
    if (std::regex_search(code_lines[i], cstyle_cast_pattern()))
      report("narrowing", i, "C-style arithmetic cast; use static_cast<> so narrowing is explicit");
  }

  // vector-bool-parallel. The name set is scoped: identifiers declared in
  // this file plus in every project header this file includes.
  std::set<std::string> vb_names;
  collect_vector_bool_names(content, vb_names);
  for (const IncludeDirective& inc : collect_includes(raw_lines)) {
    if (inc.angled) continue;
    for (const auto& [file, names] : ctx.vector_bool_names_by_file) {
      if (file == inc.path || (file.size() > inc.path.size() &&
                               file.compare(file.size() - inc.path.size() - 1, 1, "/") == 0 &&
                               file.compare(file.size() - inc.path.size(), inc.path.size(),
                                            inc.path) == 0)) {
        vb_names.insert(names.begin(), names.end());
      }
    }
  }
  {
    const std::vector<bool> region = mark_parallel_regions(code);
    // Line start offsets into `code`.
    std::vector<std::size_t> line_begin;
    line_begin.push_back(0);
    for (std::size_t i = 0; i < code.size(); ++i)
      if (code[i] == '\n') line_begin.push_back(i + 1);
    for (std::size_t li = 0; li < code_lines.size(); ++li) {
      const std::size_t begin = line_begin[li];
      const std::size_t end = begin + code_lines[li].size();
      bool any_in_region = false;
      for (std::size_t p = begin; p < end && p < region.size(); ++p)
        if (region[p]) {
          any_in_region = true;
          break;
        }
      if (!any_in_region) continue;
      const std::string& line = code_lines[li];
      if (std::regex_search(line, vector_bool_use_pattern())) {
        report("vector-bool-parallel", li,
               "vector<bool> type used inside a parallel_for body; stage std::uint8_t and "
               "commit serially");
        continue;
      }
      for (const std::string& name : vb_names) {
        const std::regex use(R"((^|[^\w.])()" + name + R"()\s*\[)");
        std::smatch m;
        if (std::regex_search(line, m, use) ||
            std::regex_search(line, std::regex(R"(\.\s*()" + name + R"()\s*\[)"))) {
          report("vector-bool-parallel", li,
                 "'" + name +
                     "' is declared vector<bool>; indexing it inside a parallel_for body "
                     "races on shared words");
          break;
        }
      }
    }
  }

  // wire-portability: the frame codec (src/net/wire.*) and the byte-order
  // primitives it shares with the store log (src/common/byte_codec.*) are
  // where bytes cross a machine boundary, so they must stay byte-exact on any
  // host: no struct aliasing (memcpy/reinterpret_cast/bit_cast reads memory
  // in host endianness and host padding), and no integer type whose width
  // the standard leaves to the platform. Fields serialize one at a time
  // through the explicit little-endian put_*/read_* helpers.
  if (path_has_prefix(rel_path, "src/net/wire.") ||
      path_has_prefix(rel_path, "src/common/byte_codec.")) {
    static const std::vector<PatternRule> pats = {
        {"wire-portability", std::regex(R"(\bmem(cpy|move)\s*\()"),
         "memcpy/memmove aliases object bytes in host order; serialize each field "
         "through the put_/read_ helpers"},
        {"wire-portability", std::regex(R"(\breinterpret_cast\b|\bstd::bit_cast\b)"),
         "type punning reads host-endian, host-padded memory; decode through ByteReader"},
        {"wire-portability",
         std::regex(R"((^|[^\w])(int|long|short|unsigned|signed|size_t|wchar_t)\b)"),
         "platform-width integer in the wire codec; use std::uintN_t so the layout is "
         "identical on every host"},
    };
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      for (const PatternRule& pr : pats)
        if (std::regex_search(code_lines[i], pr.pattern)) report(pr.rule, i, pr.message);
  }

  // require-guard: only .cpp files in src/puf/ and src/sim/.
  const bool guard_scope =
      (path_has_prefix(rel_path, "src/puf/") || path_has_prefix(rel_path, "src/sim/")) &&
      rel_path.size() > 4 && rel_path.substr(rel_path.size() - 4) == ".cpp";
  if (guard_scope) {
    for (const FunctionDef& def : namespace_scope_functions(code)) {
      if (!std::regex_search(def.params, container_param_pattern())) continue;
      if (def.body.find("XPUF_REQUIRE") != std::string::npos) continue;
      // A body that immediately delegates has its guard in the callee; the
      // heuristic skips single-statement forwarders.
      if (std::count(def.body.begin(), def.body.end(), ';') <= 1) continue;
      report("require-guard", def.line0,
             "public entry point takes dimensioned parameters but has no XPUF_REQUIRE "
             "precondition check");
    }
  }

  // scalar-eval: the scan/selection/attack hot paths (src/puf/ plus the
  // tester) route noise-free evaluation through the batched linear-view
  // core; a new per-challenge member call re-opens the cell-at-a-time cost
  // the batch rework removed. Sanctioned per-cell sites — the
  // measurement-based baseline, ground-truth analysis — carry allow
  // comments stating why; the per-cell reference scans live in tests/.
  const bool scalar_scope =
      rel_path == "src/sim/tester.cpp" ||
      (path_has_prefix(rel_path, "src/puf/") && rel_path.size() > 4 &&
       rel_path.substr(rel_path.size() - 4) == ".cpp");
  if (scalar_scope) {
    static const std::regex scalar_call(
        R"((\.|->)\s*(delay_difference|one_probability|measure_soft_response)\s*\()");
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      if (std::regex_search(code_lines[i], scalar_call))
        report("scalar-eval", i,
               "per-challenge scalar evaluation call site; route the batch through the "
               "parity-word core (sim/linear.hpp)");
  }

  // The issuance hot path raises the bar further: on the authentication/
  // selection/screening/database files, per-challenge MODEL evaluation
  // (predict_xor and friends, one challenge per call) is also a scalar-eval
  // finding — candidates must be screened in blocks through
  // ChallengeScreener. Scoped to exactly those files so model-class
  // internals (enrollment, model.cpp's own scalar kernels, analysis tools)
  // stay legal; the deliberate scalar fallback (issue_random's unscreened
  // baseline) carries an allow comment stating why.
  const bool model_eval_scope =
      rel_path == "src/puf/authentication.cpp" || rel_path == "src/puf/selection.cpp" ||
      rel_path == "src/puf/screening.cpp" || rel_path == "src/puf/database.cpp";
  if (model_eval_scope) {
    static const std::regex model_eval_call(
        R"((\.|->)\s*(predict_soft|predict_xor|all_stable|predict_response)\s*\()");
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      if (std::regex_search(code_lines[i], model_eval_call))
        report("scalar-eval", i,
               "per-challenge model evaluation in the issuance hot path; screen "
               "candidates in blocks through ChallengeScreener (puf/screening.hpp)");
  }

  // ml-dot: the ML stack's forward passes and objectives share one
  // accumulation order through linalg::dot and the GEMM kernels — that is
  // what makes batch-vs-scalar equivalence a bit-level claim. A new
  // `acc += a[i] * b[i]` loop in src/ml/ forks that order (and the scalar
  // cost) again; sanctioned exceptions carry allow comments stating why.
  const bool ml_scope = path_has_prefix(rel_path, "src/ml/") && rel_path.size() > 4 &&
                        rel_path.substr(rel_path.size() - 4) == ".cpp";
  if (ml_scope) {
    static const std::regex ml_dot(
        R"(\+=\s*[\w.]+\s*\[\s*(\w+)\s*\]\s*\*\s*[\w.]+\s*\[\s*\1\s*\])");
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      if (std::regex_search(code_lines[i], ml_dot))
        report("ml-dot", i,
               "hand-rolled row-wise dot product; use linalg::dot (scalar) or "
               "matmul_nt/matmul_tn (batched) so the accumulation order stays shared");
  }

  // parity-chain: phi entries are exactly +/-1, so a suffix "product" is a
  // parity. A `*= bit ? -1.0 : 1.0` chain serialises one FP multiply per
  // stage behind a branch on random bits — the cost the parity kernel in
  // sim/linear.cpp removed. Either arm order counts.
  if (rel_path != "src/sim/linear.cpp") {
    static const std::regex chain(
        R"(\*=[^;?]*\?\s*(-\s*1(\.0*)?\s*:\s*\+?\s*1(\.0*)?|\+?\s*1(\.0*)?\s*:\s*-\s*1(\.0*)?)(?![\w.]))");
    for (std::size_t i = 0; i < code_lines.size(); ++i)
      if (std::regex_search(code_lines[i], chain))
        report("parity-chain", i,
               "+/-1 sign chain by multiply-and-branch; keep a running XOR parity and "
               "take the sign from sim::parity_sign (sim/linear.hpp)");
  }

  // include-order.
  {
    const std::vector<IncludeDirective> includes = collect_includes(raw_lines);
    const bool is_header = rel_path.size() > 4 &&
                           rel_path.substr(rel_path.size() - 4) == ".hpp";
    if (is_header) {
      std::size_t pragma_line = std::string::npos;
      for (std::size_t i = 0; i < code_lines.size(); ++i) {
        if (std::regex_search(code_lines[i], std::regex(R"(^\s*#\s*pragma\s+once\b)"))) {
          pragma_line = i;
          break;
        }
      }
      if (pragma_line == std::string::npos) {
        report("include-order", 0, "header has no #pragma once");
      } else if (!includes.empty() && includes.front().line0 < pragma_line) {
        report("include-order", includes.front().line0,
               "#include precedes #pragma once; the guard must come first");
      }
    }
    const bool is_cpp =
        rel_path.size() > 4 && rel_path.substr(rel_path.size() - 4) == ".cpp";
    if (is_cpp && !includes.empty()) {
      // The self header is the quoted include that resolves, from the .cpp's
      // directory or an include root above it, to the .cpp's own directory
      // and stem: "puf/screening.hpp" in src/puf/screening.cpp, "lint.hpp" in
      // tools/xpuf_lint/lint.cpp — but not "puf/key_generation.hpp" in
      // examples/key_generation.cpp, a library header of the same name.
      const std::string self_path = rel_path.substr(0, rel_path.size() - 4) + ".hpp";
      const auto self = std::find_if(includes.begin(), includes.end(), [&](const auto& inc) {
        const std::string tail = "/" + inc.path;
        return !inc.angled &&
               (self_path == inc.path ||
                (self_path.size() > tail.size() &&
                 self_path.compare(self_path.size() - tail.size(), tail.size(), tail) == 0));
      });
      if (self != includes.end() && self != includes.begin()) {
        report("include-order", self->line0,
               "self header \"" + self->path + "\" must be the first include");
      }
    }
    // A leading quoted include is the TU's primary header (self header, or
    // e.g. lint.hpp for main.cpp); after it, system headers come before
    // project headers.
    std::size_t first_checked =
        (is_cpp && !includes.empty() && !includes.front().angled) ? 1 : 0;
    bool seen_quoted = false;
    for (std::size_t i = first_checked; i < includes.size(); ++i) {
      if (!includes[i].angled) {
        seen_quoted = true;
      } else if (seen_quoted) {
        report("include-order", includes[i].line0,
               "<" + includes[i].path + "> appears after \"project\" includes; system "
               "headers come first");
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return out;
}

std::vector<Violation> lint_tree(const std::string& root) {
  return analyze_project(root).violations;
}

std::vector<Violation> check_tidy_config(const std::string& path) {
  std::vector<Violation> out;
  std::ifstream in(path);
  if (!in) {
    out.push_back({path, 0, "tidy-config", "config file missing or unreadable"});
    return out;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  const std::vector<std::string> lines = split_lines(content);
  bool has_checks = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.find('\t') != std::string::npos)
      out.push_back({path, i + 1, "tidy-config", "tab indentation; clang-tidy YAML requires spaces"});
    if (std::regex_search(line, std::regex(R"(^Checks\s*:)"))) has_checks = true;
    // Quote balance is checked outside YAML comments (apostrophes in prose
    // are fine).
    const std::size_t hash = line.find('#');
    const std::string yaml = hash == std::string::npos ? line : line.substr(0, hash);
    const auto quotes = std::count(yaml.begin(), yaml.end(), '\'');
    if (quotes % 2 != 0)
      out.push_back({path, i + 1, "tidy-config", "unbalanced single quote"});
  }
  if (!has_checks) out.push_back({path, 0, "tidy-config", "no top-level Checks: key"});
  return out;
}

}  // namespace xpuf::lint
