#include "passes/passes.hpp"

#include <map>
#include <set>
#include <string>

namespace xpuf::lint {

namespace {

/// A function (namespace or class scope) or field (class scope) that a
/// file declares or defines.
struct Declared {
  std::string name;
  std::size_t line;
};

/// What one structural walk over a file's tokens finds: the functions and
/// fields it declares or defines, and the token indices that are
/// declarations rather than uses (declared names, namespace-scope
/// variables, out-of-line definitions, parameter names).
struct FileDecls {
  std::vector<Declared> declared;
  std::set<std::size_t> sites;
};

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kw = {
      "alignas", "alignof", "auto",     "bool",      "char",   "const",    "constexpr",
      "decltype", "double", "float",    "int",       "long",   "noexcept", "operator",
      "return",  "short",   "signed",   "sizeof",    "static", "static_assert",
      "unsigned", "void",   "volatile", "while",     "if",     "for",      "switch"};
  return kw.count(s) > 0;
}

/// One structural pass over a file's tokens (comments, strings and
/// preprocessor lines blanked). Statements at namespace and class scope are
/// parsed for the name they declare; function bodies and brace initializers
/// are skipped, so every token inside them stays a use.
class Walker {
 public:
  explicit Walker(const std::vector<Token>& t) : t_(t) {}

  FileDecls run() {
    std::vector<std::size_t> stmt;  // token indices of the open statement
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const std::string& x = t_[i].text;
      if (!parsing()) {
        if (x == "{") scopes_.push_back({'b', "", false});
        if (x == "}") {
          const bool ends = scopes_.back().ends_statement;
          scopes_.pop_back();
          if (ends) stmt.clear();
          else if (parsing()) stmt.push_back(i);
        }
      } else if (x == ";") {
        process(stmt);
        stmt.clear();
      } else if (x == "}") {
        if (!scopes_.empty()) scopes_.pop_back();
        stmt.clear();
      } else if (x == ":" && stmt.size() == 1 &&
                 (text(stmt[0]) == "public" || text(stmt[0]) == "private" ||
                  text(stmt[0]) == "protected")) {
        stmt.clear();
      } else if (x == "{") {
        open_brace(i, stmt);
      } else {
        stmt.push_back(i);
      }
    }
    return std::move(out_);
  }

 private:
  /// 'n' namespace, 'c' class body, 'e' enum body, 'b' a function body or
  /// brace initializer. A 'b' opened by a function body ends the statement
  /// when it closes; one opened by an initializer lets the statement go on.
  struct Scope {
    char kind;
    std::string class_name;
    bool ends_statement;
  };

  const std::vector<Token>& t_;
  std::vector<Scope> scopes_;
  FileDecls out_;

  const std::string& text(std::size_t k) const { return t_[k].text; }
  bool parsing() const {
    return scopes_.empty() || scopes_.back().kind == 'n' || scopes_.back().kind == 'c';
  }
  bool in_class() const { return !scopes_.empty() && scopes_.back().kind == 'c'; }

  /// First statement position past a leading `template <...>` and any
  /// `[[...]]` attributes.
  std::size_t head(const std::vector<std::size_t>& s) const {
    std::size_t p = 0;
    for (;;) {
      if (p < s.size() && text(s[p]) == "template" && p + 1 < s.size() &&
          text(s[p + 1]) == "<") {
        int depth = 0;
        for (++p; p < s.size(); ++p) {
          if (text(s[p]) == "<") ++depth;
          if (text(s[p]) == ">" && --depth == 0) break;
        }
        ++p;
        continue;
      }
      if (p + 1 < s.size() && text(s[p]) == "[" && text(s[p + 1]) == "[") {
        while (p < s.size() && text(s[p]) != "]") ++p;
        p += 2;
        continue;
      }
      return p;
    }
  }

  bool single_colon(const std::vector<std::size_t>& s, std::size_t p) const {
    return text(s[p]) == ":" && (p == 0 || text(s[p - 1]) != ":") &&
           (p + 1 >= s.size() || text(s[p + 1]) != ":");
  }

  /// Position of the first `(` outside angle brackets and parentheses,
  /// provided no top-level `=` or `{` comes first; s.size() otherwise. An
  /// operator's symbol (`operator==`, `operator()`) is part of its name.
  std::size_t declarator_paren(const std::vector<std::size_t>& s, std::size_t from) const {
    int angle = 0;
    for (std::size_t p = from; p < s.size(); ++p) {
      const std::string& x = text(s[p]);
      if (x == "operator") {
        std::size_t q = p + 1;
        if (q + 1 < s.size() && text(s[q]) == "(" && text(s[q + 1]) == ")") q += 2;
        while (q < s.size() && text(s[q]) != "(") ++q;
        return q;
      }
      if (x == "<" && p > 0 && t_[s[p - 1]].kind == TokenKind::kIdentifier) ++angle;
      else if (x == ">" && angle > 0 && text(s[p - 1]) != "-") --angle;
      else if (angle == 0 && (x == "=" || x == "{")) return s.size();
      else if (angle == 0 && x == "(") return p;
    }
    return s.size();
  }

  /// Index one past the `)` matching the `(` at s[open].
  std::size_t close_of(const std::vector<std::size_t>& s, std::size_t open) const {
    int depth = 0;
    for (std::size_t p = open; p < s.size(); ++p) {
      if (text(s[p]) == "(") ++depth;
      if (text(s[p]) == ")" && --depth == 0) return p + 1;
    }
    return s.size();
  }

  /// Records a function declarator whose parameter list opens at s[open]:
  /// the name before it and the parameter names inside it are sites.
  void function(const std::vector<std::size_t>& s, std::size_t open) {
    if (open == 0) return;
    const std::size_t name_tok = s[open - 1];
    const Token& name = t_[name_tok];
    if (name.kind != TokenKind::kIdentifier || is_keyword(name.text)) return;
    for (std::size_t p = 0; p < open; ++p)
      if (text(s[p]) == "operator") return;
    out_.sites.insert(name_tok);
    const bool special = (in_class() && name.text == scopes_.back().class_name) ||
                         (open >= 2 && text(s[open - 2]) == "~");
    if (!special) out_.declared.push_back({name.text, name.line});
    // A parameter name follows its type and precedes , ) = or [. A bare
    // identifier argument (a macro invocation) has no type before it and
    // stays a use.
    const std::size_t close = close_of(s, open);
    int depth = 0;
    for (std::size_t p = open; p + 1 < close; ++p) {
      const std::string& x = text(s[p]);
      if (x == "(" || x == "<") ++depth;
      if (x == ")" || x == ">") --depth;
      if (depth != 1 || t_[s[p]].kind != TokenKind::kIdentifier || p == open + 1) continue;
      const std::string& next = text(s[p + 1]);
      const Token& prev = t_[s[p - 1]];
      if ((next == "," || next == ")" || next == "=" || next == "[") &&
          (prev.kind == TokenKind::kIdentifier || prev.text == "&" || prev.text == "*" ||
           prev.text == ">"))
        out_.sites.insert(s[p]);
    }
  }

  /// Records a variable or field: the last identifier before the first
  /// top-level `=`, `{`, `[`, bit-field `:` or the end of the statement.
  void variable(const std::vector<std::size_t>& s, std::size_t from) {
    std::size_t name_tok = t_.size();
    int angle = 0;
    for (std::size_t p = from; p < s.size(); ++p) {
      const std::string& x = text(s[p]);
      if (x == "<") ++angle;
      if (x == ">" && angle > 0) --angle;
      if (angle == 0 && (x == "=" || x == "{" || x == "[" || single_colon(s, p))) break;
      if (t_[s[p]].kind == TokenKind::kIdentifier) name_tok = s[p];
    }
    if (name_tok == t_.size() || is_keyword(text(name_tok))) return;
    out_.sites.insert(name_tok);
    if (in_class()) out_.declared.push_back({text(name_tok), t_[name_tok].line});
  }

  void process(const std::vector<std::size_t>& s) {
    const std::size_t h = head(s);
    if (h >= s.size()) return;
    static const std::set<std::string> skip = {"using",  "typedef", "friend", "static_assert",
                                               "struct", "class",   "union",  "enum",
                                               "namespace"};
    if (skip.count(text(s[h]))) return;
    const std::size_t open = declarator_paren(s, h);
    if (open < s.size()) function(s, open);
    else variable(s, h);
  }

  void open_brace(std::size_t i, std::vector<std::size_t>& stmt) {
    const std::size_t h = head(stmt);
    const std::string first = h < stmt.size() ? text(stmt[h]) : "";
    if (first == "namespace" || first == "extern" || first == "enum") {
      scopes_.push_back({first == "enum" ? 'e' : 'n', "", true});
      stmt.clear();
      return;
    }
    if (first == "struct" || first == "class" || first == "union") {
      std::string name;
      if (h + 1 < stmt.size() && t_[stmt[h + 1]].kind == TokenKind::kIdentifier)
        name = text(stmt[h + 1]);
      scopes_.push_back({'c', name, true});
      stmt.clear();
      return;
    }
    // A brace inside an open parenthesis is a default-argument initializer.
    int parens = 0;
    for (std::size_t k : stmt) {
      if (text(k) == "(") ++parens;
      if (text(k) == ")") --parens;
    }
    const std::size_t open = declarator_paren(stmt, h);
    bool body = parens == 0 && open < stmt.size();
    if (body) {
      // Inside a constructor's member-initializer list, `member{` is an
      // initializer; the body brace follows `)` or `}`.
      for (std::size_t p = close_of(stmt, open); p < stmt.size(); ++p) {
        if (!single_colon(stmt, p)) continue;
        body = text(stmt.back()) == ")" || text(stmt.back()) == "}";
        break;
      }
    }
    if (body) {
      process(stmt);
      scopes_.push_back({'b', "", true});
      return;
    }
    stmt.push_back(i);
    scopes_.push_back({'b', "", false});
  }
};

}  // namespace

std::vector<Violation> pass_orphan_symbols(const ProjectIndex& index) {
  // The analyzer is std-only and never calls project code, so its own
  // identifiers are no uses of src/ names.
  const auto user = [](const std::string& rel) {
    return !rel.starts_with("tests/") && !rel.starts_with("tools/xpuf_lint/");
  };

  std::map<std::string, std::size_t> uses;
  std::vector<std::pair<std::string, Declared>> candidates;
  for (const SourceFile& f : index.files) {
    const bool src_header = f.rel_path.starts_with("src/") && f.rel_path.ends_with(".hpp");
    if (!user(f.rel_path)) continue;
    // The walk skips directives; a macro body's identifiers are uses.
    const std::string code = blank_preprocessor_lines(f.code);
    std::string directives = f.code;
    for (std::size_t k = 0; k < code.size(); ++k)
      if (code[k] == f.code[k] && code[k] != '\n') directives[k] = ' ';
    for (const Token& tok : tokenize(directives))
      if (tok.kind == TokenKind::kIdentifier) ++uses[tok.text];
    const std::vector<Token> tokens = tokenize(code);
    FileDecls decls = Walker(tokens).run();
    for (std::size_t k = 0; k < tokens.size(); ++k)
      if (tokens[k].kind == TokenKind::kIdentifier && !decls.sites.count(k))
        ++uses[tokens[k].text];
    if (!src_header) continue;
    for (Declared& d : decls.declared) candidates.emplace_back(f.rel_path, std::move(d));
  }

  // index.files is sorted by path and each file's declarations by position,
  // so the findings are too.
  std::vector<Violation> out;
  for (const auto& [file, d] : candidates) {
    if (uses.count(d.name)) continue;
    out.push_back({file, d.line, "orphan-symbol",
                   "'" + d.name + "' is declared here, but outside tests/ only its own "
                   "declaration and definition mention it; delete it, move a test helper "
                   "to tests/, or mark a kept test hook allow(orphan-symbol) naming its test"});
  }
  return out;
}

}  // namespace xpuf::lint
