// xpuf_lint cross-TU index — the shared substrate of the semantic passes.
//
// build_index() ingests every source file once and precomputes what the
// passes query repeatedly: blanked views and token streams (lexer/), the
// project include graph with resolved edges, a symbol table of
// namespace-scope function definitions (including out-of-line member
// functions, keyed by unqualified name), every MetricsRegistry counter
// registration with its binding variable, and per-file identifier sets for
// hash-ordered containers. The index is a pure function of the file set, so
// tests drive it with in-memory fixtures exactly like the CLI drives it with
// the checked-out tree.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer/lexer.hpp"

namespace xpuf::lint {

/// One ingested translation unit / header.
struct SourceFile {
  std::string rel_path;                ///< Path relative to the repo root.
  std::string content;                 ///< Raw bytes.
  std::string code;                    ///< Comments AND strings blanked.
  std::string code_with_strings;       ///< Comments blanked, strings kept.
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::vector<Token> tokens;           ///< Tokenized from `content`.
};

/// A resolved project include edge.
struct IncludeEdge {
  std::string from;   ///< Including file (rel path).
  std::string to;     ///< Included file (rel path, resolved).
  std::size_t line;   ///< 1-based line of the #include directive.
};

/// A namespace-scope function definition (free function or out-of-line
/// member — the key is the unqualified name, `read_u16` for
/// `WireReader::read_u16`).
struct FunctionSym {
  std::string name;
  std::string file;
  std::size_t line;      ///< 1-based line of the signature.
  std::string params;    ///< First balanced parenthesis group of the signature.
  std::string body;      ///< Blanked body text between the function's braces.
  bool has_require = false;  ///< Body contains an XPUF_REQUIRE check.
};

/// One `counter("name")` registration site.
struct CounterSite {
  std::string name;       ///< The metric name literal.
  std::string file;
  std::size_t line;       ///< 1-based.
  std::string bound_var;  ///< `x` for `Counter& x = ...counter("name")`, else "".
  bool inline_add = false;    ///< `counter("name").add(` chain.
  bool inline_total = false;  ///< `counter("name").total(` chain.
};

struct ProjectIndex {
  std::vector<SourceFile> files;
  std::map<std::string, std::size_t> file_ids;  ///< rel path -> files index.
  std::vector<IncludeEdge> includes;
  std::map<std::string, std::vector<FunctionSym>> functions;
  std::vector<CounterSite> counters;
  /// Identifiers declared with a std::unordered_* type, per declaring file.
  std::map<std::string, std::set<std::string>> unordered_names_by_file;

  const SourceFile* file(const std::string& rel) const;

  /// "src/<module>/..." -> "<module>"; "" for anything outside src/.
  static std::string module_of(const std::string& rel);

  /// True iff some indexed definition of `name` contains XPUF_REQUIRE.
  bool function_has_require(const std::string& name) const;
};

/// Blanks preprocessor-directive lines, '\'-continued ones included (they
/// are not ;-terminated, so they would otherwise pollute the statement
/// buffer of a structural scan).
std::string blank_preprocessor_lines(const std::string& code);

/// Structural function-definition scan used by both the index and the
/// require-guard rule. `code` must already have comments/strings blanked.
struct FunctionDef {
  std::size_t line0;      ///< 0-based line of the opening signature.
  std::string signature;  ///< Text from statement start through the param ')'.
  std::string params;     ///< First balanced parenthesis group.
  std::string body;       ///< Text between the function's braces.
};
std::vector<FunctionDef> namespace_scope_functions(const std::string& code);

/// Marks, per character of the blanked source, whether it falls inside a
/// parallel_for / parallel_reduce call (anywhere between the call's opening
/// parenthesis and its matching close — which covers the lambda body).
std::vector<bool> mark_parallel_regions(const std::string& code);

/// Ingests `(rel_path, content)` pairs and builds the full index.
ProjectIndex build_index(std::vector<std::pair<std::string, std::string>> file_set);

}  // namespace xpuf::lint
