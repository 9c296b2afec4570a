#include "index/index.hpp"

#include <algorithm>
#include <cctype>
#include <regex>

namespace xpuf::lint {

namespace {

const std::set<std::string>& signature_stop_words() {
  static const std::set<std::string> kw = {"if",     "for",   "while", "switch",
                                           "return", "catch", "do",    "else",
                                           "struct", "class", "enum",  "union"};
  return kw;
}

/// Collapses "a/b/../c" and "./" segments; keeps the path repo-relative.
std::string normalize_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  auto flush = [&] {
    if (cur.empty() || cur == ".") {
      cur.clear();
      return;
    }
    if (cur == "..") {
      if (!parts.empty()) parts.pop_back();
    } else {
      parts.push_back(cur);
    }
    cur.clear();
  };
  for (char c : path) {
    if (c == '/')
      flush();
    else
      cur.push_back(c);
  }
  flush();
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.push_back('/');
    out += parts[i];
  }
  return out;
}

std::string dir_of(const std::string& rel) {
  const std::size_t slash = rel.find_last_of('/');
  return slash == std::string::npos ? "" : rel.substr(0, slash);
}

/// Extracts identifiers declared with a std::unordered_* type. A tiny
/// angle-depth scanner instead of a regex: the element type may itself be a
/// template (`std::unordered_map<std::string, std::vector<int>> seen`).
void collect_unordered_names(const std::string& code, std::set<std::string>& out) {
  const std::string marker = "std::unordered_";
  std::size_t at = 0;
  while ((at = code.find(marker, at)) != std::string::npos) {
    std::size_t i = at + marker.size();
    while (i < code.size() && ident_char(code[i])) ++i;  // map / set / ...
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i]))) ++i;
    if (i >= code.size() || code[i] != '<') {
      at = i;
      continue;
    }
    int depth = 0;
    while (i < code.size()) {
      if (code[i] == '<') ++depth;
      if (code[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
      ++i;
    }
    while (i < code.size() && (std::isspace(static_cast<unsigned char>(code[i])) ||
                               code[i] == '&' || code[i] == '*'))
      ++i;
    std::size_t name_begin = i;
    while (i < code.size() && ident_char(code[i])) ++i;
    if (i > name_begin &&
        !std::isdigit(static_cast<unsigned char>(code[name_begin])))
      out.insert(code.substr(name_begin, i - name_begin));
    at = i;
  }
}

/// Walks tokens for `counter ( "name" )` chains and records the registration
/// site, the inline .add()/.total() chain flags, and the variable the
/// reference is bound to (scan back over the statement for
/// `Counter & <var> =`).
void collect_counter_sites(const SourceFile& f, std::vector<CounterSite>& out) {
  const std::vector<Token>& t = f.tokens;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier || t[i].text != "counter") continue;
    if (t[i + 1].kind != TokenKind::kPunct || t[i + 1].text != "(") continue;
    if (t[i + 2].kind != TokenKind::kString) continue;
    if (t[i + 3].kind != TokenKind::kPunct || t[i + 3].text != ")") continue;
    CounterSite site;
    site.name = t[i + 2].text;
    site.file = f.rel_path;
    site.line = t[i].line;
    // Chained call after the close paren?
    if (i + 6 < t.size() && t[i + 4].text == "." &&
        t[i + 5].kind == TokenKind::kIdentifier && t[i + 6].text == "(") {
      if (t[i + 5].text == "add") site.inline_add = true;
      if (t[i + 5].text == "total") site.inline_total = true;
    }
    // Statement prefix: scan back to the statement boundary looking for
    // `Counter & <var> =`.
    std::size_t b = i;
    while (b > 0) {
      const Token& tb = t[b - 1];
      if (tb.kind == TokenKind::kPunct &&
          (tb.text == ";" || tb.text == "{" || tb.text == "}"))
        break;
      --b;
    }
    for (std::size_t k = b; k + 3 <= i; ++k) {
      if (t[k].kind == TokenKind::kIdentifier && t[k].text == "Counter" &&
          t[k + 1].text == "&" && t[k + 2].kind == TokenKind::kIdentifier &&
          k + 3 < t.size() && t[k + 3].text == "=") {
        site.bound_var = t[k + 2].text;
        break;
      }
    }
    out.push_back(std::move(site));
  }
}

}  // namespace

std::string blank_preprocessor_lines(const std::string& code) {
  std::string out = code;
  std::size_t line_start = 0;
  bool in_directive = false;  // carries across '\'-continued directive lines
  for (std::size_t i = 0; i <= code.size(); ++i) {
    if (i == code.size() || code[i] == '\n') {
      std::size_t j = line_start;
      while (j < i && std::isspace(static_cast<unsigned char>(code[j]))) ++j;
      if (j < i && code[j] == '#') in_directive = true;
      if (in_directive) {
        for (std::size_t k = line_start; k < i; ++k) out[k] = ' ';
        std::size_t last = i;
        while (last > line_start &&
               std::isspace(static_cast<unsigned char>(code[last - 1])) && code[last - 1] != '\n')
          --last;
        in_directive = last > line_start && code[last - 1] == '\\';
      }
      line_start = i + 1;
    }
  }
  return out;
}

std::vector<FunctionDef> namespace_scope_functions(const std::string& raw_code) {
  const std::string code = blank_preprocessor_lines(raw_code);
  std::vector<FunctionDef> out;
  std::vector<char> scopes;  // 'n' named ns, 'a' anon ns, 'f' function, 'o' other
  std::string stmt;          // text since last ; { }
  bool stmt_has_content = false;  // stmt holds a non-whitespace char
  std::size_t stmt_line0 = 0;
  std::size_t line0 = 0;
  auto ns_depth = [&] {
    return static_cast<std::size_t>(
        std::count_if(scopes.begin(), scopes.end(), [](char s) { return s == 'n' || s == 'a'; }));
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '\n') ++line0;
    if (c == ';') {
      stmt.clear();
      stmt_has_content = false;
      stmt_line0 = line0 + 1;
      continue;
    }
    if (c == '}') {
      if (!scopes.empty()) scopes.pop_back();
      stmt.clear();
      stmt_has_content = false;
      stmt_line0 = line0 + 1;
      continue;
    }
    if (c != '{') {
      // Whitespace accumulates in stmt, so anchor the statement's line on the
      // first real character, not on stmt.empty().
      if (!stmt_has_content && !std::isspace(static_cast<unsigned char>(c))) {
        stmt_line0 = line0;
        stmt_has_content = true;
      }
      stmt.push_back(c);
      continue;
    }
    // Opening brace: classify the scope from the pending statement text.
    const std::string t = trim(stmt);
    static const std::regex ns_re(R"(^namespace(\s+[\w:]+)?\s*$)");
    std::smatch m;
    char kind = 'o';
    if (std::regex_match(t, m, ns_re)) {
      kind = m[1].matched ? 'n' : 'a';
    } else if (scopes.size() == ns_depth() && t.find('(') != std::string::npos) {
      // Candidate function definition at namespace scope. Extract the first
      // balanced paren group and the identifier before it.
      const std::size_t open = t.find('(');
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t k = open; k < t.size(); ++k) {
        if (t[k] == '(') ++depth;
        if (t[k] == ')' && --depth == 0) {
          close = k;
          break;
        }
      }
      std::size_t name_end = open;
      while (name_end > 0 && std::isspace(static_cast<unsigned char>(t[name_end - 1])))
        --name_end;
      std::size_t name_begin = name_end;
      while (name_begin > 0 && ident_char(t[name_begin - 1])) --name_begin;
      const std::string name = t.substr(name_begin, name_end - name_begin);
      const bool in_anon =
          std::find(scopes.begin(), scopes.end(), 'a') != scopes.end();
      if (close != std::string::npos && !name.empty() && !in_anon &&
          !signature_stop_words().count(name) && t.find("operator") == std::string::npos &&
          t.rfind("static ", 0) != 0 && t.find('=') == std::string::npos) {
        kind = 'f';
        FunctionDef def;
        def.line0 = stmt_line0;
        def.signature = t.substr(0, close + 1);
        def.params = t.substr(open + 1, close - open - 1);
        // Capture the body: from i+1 to the matching close brace.
        int bdepth = 1;
        std::size_t j = i + 1;
        while (j < code.size() && bdepth > 0) {
          if (code[j] == '{') ++bdepth;
          if (code[j] == '}') --bdepth;
          ++j;
        }
        def.body = code.substr(i + 1, j - i - 2 < code.size() ? j - i - 2 : 0);
        out.push_back(std::move(def));
      }
    }
    scopes.push_back(kind);
    stmt.clear();
    stmt_has_content = false;
    stmt_line0 = line0 + 1;
  }
  return out;
}

std::vector<bool> mark_parallel_regions(const std::string& code) {
  std::vector<bool> in_region(code.size(), false);
  std::vector<int> call_stack;  // paren depth at each open parallel call
  int paren_depth = 0;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (ident_char(c)) {
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      const std::string word = code.substr(i, j - i);
      if ((word == "parallel_for" || word == "parallel_reduce") &&
          (i == 0 || (!ident_char(code[i - 1]) && code[i - 1] != ':'))) {
        std::size_t k = j;
        while (k < code.size() && std::isspace(static_cast<unsigned char>(code[k]))) ++k;
        if (k < code.size() && code[k] == '(') call_stack.push_back(paren_depth);
      }
      if (!call_stack.empty())
        for (std::size_t p = i; p < j; ++p) in_region[p] = true;
      i = j;
      continue;
    }
    if (c == '(') ++paren_depth;
    if (c == ')') {
      --paren_depth;
      if (!call_stack.empty() && paren_depth == call_stack.back()) call_stack.pop_back();
    }
    if (!call_stack.empty()) in_region[i] = true;
    ++i;
  }
  return in_region;
}

const SourceFile* ProjectIndex::file(const std::string& rel) const {
  const auto it = file_ids.find(rel);
  return it == file_ids.end() ? nullptr : &files[it->second];
}

std::string ProjectIndex::module_of(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t begin = 4;
  const std::size_t slash = rel.find('/', begin);
  if (slash == std::string::npos) return "";
  return rel.substr(begin, slash - begin);
}

bool ProjectIndex::function_has_require(const std::string& name) const {
  const auto it = functions.find(name);
  if (it == functions.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [](const FunctionSym& f) { return f.has_require; });
}

ProjectIndex build_index(std::vector<std::pair<std::string, std::string>> file_set) {
  std::sort(file_set.begin(), file_set.end());
  ProjectIndex index;
  index.files.reserve(file_set.size());
  for (auto& [rel, content] : file_set) {
    SourceFile f;
    f.rel_path = rel;
    f.content = std::move(content);
    f.code = blank_comments_and_strings(f.content);
    f.code_with_strings = blank_comments(f.content);
    f.raw_lines = split_lines(f.content);
    f.code_lines = split_lines(f.code);
    f.tokens = tokenize(f.content);
    index.file_ids[rel] = index.files.size();
    index.files.push_back(std::move(f));
  }

  // Include graph. Quoted includes resolve against the including file's
  // directory first, then the project include roots (matching the CMake
  // target_include_directories layout).
  static const std::regex inc_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  const std::vector<std::string> roots = {"src", "tools/xpuf_lint", "bench", "examples",
                                          "tests"};
  for (const SourceFile& f : index.files) {
    for (std::size_t i = 0; i < f.raw_lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(f.raw_lines[i], m, inc_re)) continue;
      const std::string inc = m[1].str();
      std::vector<std::string> candidates;
      const std::string dir = dir_of(f.rel_path);
      if (!dir.empty()) candidates.push_back(normalize_path(dir + "/" + inc));
      for (const std::string& root : roots)
        candidates.push_back(normalize_path(root + "/" + inc));
      candidates.push_back(normalize_path(inc));
      for (const std::string& cand : candidates) {
        if (index.file_ids.count(cand)) {
          index.includes.push_back({f.rel_path, cand, i + 1});
          break;
        }
      }
    }
  }

  // Symbol table, counter sites, unordered-container identifiers.
  for (const SourceFile& f : index.files) {
    for (const FunctionDef& def : namespace_scope_functions(f.code)) {
      const std::string sig = def.signature;
      std::size_t name_end = sig.find('(');
      if (name_end == std::string::npos) continue;
      while (name_end > 0 && std::isspace(static_cast<unsigned char>(sig[name_end - 1])))
        --name_end;
      std::size_t name_begin = name_end;
      while (name_begin > 0 && ident_char(sig[name_begin - 1])) --name_begin;
      FunctionSym sym;
      sym.name = sig.substr(name_begin, name_end - name_begin);
      if (sym.name.empty()) continue;
      sym.file = f.rel_path;
      sym.line = def.line0 + 1;
      sym.params = def.params;
      sym.body = def.body;
      sym.has_require = def.body.find("XPUF_REQUIRE") != std::string::npos;
      index.functions[sym.name].push_back(std::move(sym));
    }
    collect_counter_sites(f, index.counters);
    collect_unordered_names(f.code, index.unordered_names_by_file[f.rel_path]);
  }
  return index;
}

}  // namespace xpuf::lint
