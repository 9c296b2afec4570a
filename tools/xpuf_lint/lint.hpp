// xpuf_lint — project-invariant checker for the xpuf tree.
//
// The reproducibility guarantees this repo makes (bit-identical scans for any
// thread count, exactly reseedable experiments, loud precondition failures)
// depend on conventions that the compiler cannot enforce: every random draw
// must flow through common/rng, parallel bodies must not touch bit-packed
// vector<bool> storage, and public puf//sim/ entry points must validate their
// dimensions with XPUF_REQUIRE. xpuf_lint machine-checks those conventions at
// the token/regex level — deliberately no libclang dependency, so it builds
// and runs everywhere the library does.
//
// Rules — each suppressible per line via an allow comment (the marker is
// `xpuf-lint:` followed by `allow(rule, ...)`, or `allow-file(rule, ...)` for
// a whole file). The syntax examples in this header are themselves parsed, so:
// xpuf-lint: allow-file(bad-suppression, bad-guard-ref)
//
//   raw-rng              std::mt19937 / rand() / srand() / std::*_distribution
//                        outside src/common/rng.{hpp,cpp}
//   nondeterminism       time( / clock( / std::random_device /
//                        system_clock outside src/common/rng.cpp
//   vector-bool-parallel vector<bool> (the type, or an identifier declared
//                        with that type anywhere in the tree) indexed inside
//                        a parallel_for body
//   require-guard        public function definitions in src/puf//src/sim/
//                        .cpp files taking container/dimension parameters
//                        whose body never checks XPUF_REQUIRE
//   raw-timing           std::chrono::steady_clock outside
//                        src/common/timer.hpp and src/common/trace.cpp —
//                        wall-clock reads flow through Timer / TraceSpan
//   narrowing            double literal initializing a float without an f
//                        suffix, and C-style arithmetic casts (use
//                        static_cast)
//   include-order        headers missing #pragma once (or placing it after an
//                        include); .cpp not including its own header first;
//                        <system> includes after "project" includes
//   wire-portability     inside src/net/wire.{hpp,cpp} only: raw memcpy /
//                        memmove of object bytes, reinterpret_cast /
//                        std::bit_cast type punning, or platform-width
//                        integer tokens (int, long, size_t, ...) — the frame
//                        codec serializes fixed-width fields through the
//                        explicit little-endian put_/read_ helpers
//
// Semantic rules (cross-TU, run by the engine in engine.hpp over the project
// index — see passes/passes.hpp):
//
//   layering             include edge violating the declared module DAG
//                        (common <- linalg/crypto <- sim <- ml <- puf <-
//                        analysis/net), or a cycle in the module graph
//   parallel-rng         unkeyed Rng construction, fork()/fork_base(), or a
//                        draw from an outer generator inside a parallel_for /
//                        parallel_reduce body
//   unordered-fp         std::unordered_* iteration feeding an accumulation;
//                        hash order is unspecified, FP results drift
//   wire-pairing         in wire.cpp or record.cpp (+ same-stem header):
//                        put_uN without a width-matching read_uN, encode/
//                        decode field sequences out of sync, or reserve()
//                        constants drifted from the fixed frame layout
//   metrics-accounting   a src/ counter registration that is never
//                        incremented, or incremented but never audited
//   bad-guard-ref        a guarded-by(callee) marker whose claim the index
//                        cannot prove (no call to an XPUF_REQUIRE-bearing
//                        definition), or one discharging nothing
//   orphan-header        a src/ header that no bench, tool, example or other
//                        src/ file includes (only tests, or nothing)
//   orphan-symbol        a function, method or field declared in a src/
//                        header whose name appears outside tests/ only at
//                        its own declaration and definition
//
// Besides allow comments there is a verified marker form,
// `// xpuf-lint: guarded-by(callee)`, for require-guard findings whose
// precondition check lives in the callee: the engine discharges the finding
// only after proving the claim against the symbol index, so it costs no
// suppression budget.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xpuf::lint {

struct Violation {
  std::string file;     ///< Path as given to the linter.
  std::size_t line;     ///< 1-based line number.
  std::string rule;     ///< Rule identifier (see rules()).
  std::string message;  ///< Human-readable explanation.
};

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The full rule registry (stable order, stable names — the names are the
/// suppression-comment vocabulary).
const std::vector<RuleInfo>& rules();

/// True iff `rule` names a registered rule.
bool is_known_rule(const std::string& rule);

/// Parses `// xpuf-lint: allow(a, b)` out of a raw source line. Returns the
/// listed rule names (empty if the line carries no allow comment). Unknown
/// rule names are returned too — lint_source reports them as violations of
/// the meta rule "bad-suppression" so typos cannot silently disable checks.
std::vector<std::string> parse_allow_comment(const std::string& line);

/// Same for the file-wide form `// xpuf-lint: allow-file(a, b)`.
std::vector<std::string> parse_allow_file_comment(const std::string& line);

/// Parses `// xpuf-lint: guarded-by(callee_a, callee_b)` — the names are
/// function identifiers, not rule names. Verification happens in the engine.
std::vector<std::string> parse_guarded_by_comment(const std::string& line);

/// Per-line suppression sets for one file: an allow comment covers its own
/// line; a comment-only allow line additionally covers the next line.
/// Unknown rule names surface in `meta` as bad-suppression findings.
struct Suppressions {
  std::set<std::string> file_wide;
  std::vector<std::set<std::string>> per_line;  ///< Indexed by 0-based line.
  std::vector<Violation> meta;

  bool allows(const std::string& rule, std::size_t line0) const;
};

Suppressions build_suppressions(const std::string& rel_path,
                                const std::vector<std::string>& raw_lines);

/// Cross-file knowledge the per-file pass needs: identifiers declared with
/// type vector<bool> (possibly nested), per file, so a .cpp using a
/// header-declared bit-packed field is still caught inside parallel bodies.
/// Scoped per file (a file only sees names from itself and the headers it
/// includes) so a common name like `bits` in one test cannot poison the rule
/// for an unrelated translation unit.
struct Context {
  /// Key: path relative to the repo root. Value: vector<bool> identifiers
  /// declared in that file.
  std::map<std::string, std::set<std::string>> vector_bool_names_by_file;
};

/// Scans `content` for vector<bool> declarations and records the declared
/// identifiers into `out` (pass 1 of lint_tree).
void collect_vector_bool_names(const std::string& content, std::set<std::string>& out);

/// Lints one in-memory translation unit. `rel_path` is the path relative to
/// the repo root; it drives path-scoped rules (the common/rng exemption for
/// raw-rng/nondeterminism, and require-guard applying only to .cpp files
/// under src/puf/ and src/sim/). Comments and string literals are blanked
/// before any pattern matching, so mentioning `rand()` in a comment is fine.
std::vector<Violation> lint_source(const std::string& rel_path, const std::string& content,
                                   const Context& ctx);

/// Runs the full semantic engine (per-file rules plus the cross-TU passes,
/// with suppression and guarded-by policy applied) over `root`'s source
/// trees and returns the surviving violations sorted by (file, line).
/// Equivalent to analyze_project(root).violations — see engine.hpp for the
/// report-with-stats form.
std::vector<Violation> lint_tree(const std::string& root);

/// Sanity-checks a .clang-tidy config: file exists, has a non-empty Checks
/// key, balanced quotes, and no tab indentation (clang-tidy's YAML parser
/// rejects tabs). Returns problems as violations against the config path.
std::vector<Violation> check_tidy_config(const std::string& path);

}  // namespace xpuf::lint
