#include "passes/passes.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>

namespace xpuf::lint {

namespace {

/// 1-based line of a character offset, from precomputed newline prefix data.
std::size_t line_of(const std::vector<std::size_t>& newline_before, std::size_t pos) {
  // newline_before[i] == count of '\n' in code[0, i).
  return newline_before[pos] + 1;
}

std::vector<std::size_t> newline_prefix(const std::string& code) {
  std::vector<std::size_t> pre(code.size() + 1, 0);
  for (std::size_t i = 0; i < code.size(); ++i)
    pre[i + 1] = pre[i] + (code[i] == '\n' ? 1 : 0);
  return pre;
}

const std::regex& rng_decl_pattern() {
  static const std::regex re(R"(\bRng\s+(\w+)\s*[=({])");
  return re;
}

/// Every method on xpuf::Rng that advances generator state.
const std::regex& rng_draw_pattern() {
  static const std::regex re(
      R"((\w+)\s*\.\s*(next_u64|uniform|uniform_below|normal|bernoulli|binomial|shuffle|binomial_inversion)\s*\()");
  return re;
}

const std::regex& fork_pattern() {
  static const std::regex re(R"(\.\s*fork(_base)?\s*\()");
  return re;
}

/// Contiguous character spans of `mask` that are true.
std::vector<std::pair<std::size_t, std::size_t>> true_spans(const std::vector<bool>& mask) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t begin = 0;
  bool in = false;
  for (std::size_t i = 0; i <= mask.size(); ++i) {
    const bool v = i < mask.size() && mask[i];
    if (v && !in) {
      begin = i;
      in = true;
    } else if (!v && in) {
      spans.emplace_back(begin, i);
      in = false;
    }
  }
  return spans;
}

void check_parallel_rng(const SourceFile& f, std::vector<Violation>& out) {
  const std::string& code = f.code;
  const std::vector<bool> region = mark_parallel_regions(code);
  const std::vector<std::size_t> pre = newline_prefix(code);

  // Every Rng identifier declared anywhere in this file — receivers of draw
  // calls are only checked when we know they are generators.
  std::set<std::string> file_rngs;
  for (auto it = std::sregex_iterator(code.begin(), code.end(), rng_decl_pattern());
       it != std::sregex_iterator(); ++it)
    file_rngs.insert((*it)[1].str());

  for (const auto& [begin, end] : true_spans(region)) {
    const std::string body = code.substr(begin, end - begin);

    // Rng declarations inside the body: keyed iff the declaring statement
    // reaches a StreamFamily::stream(i) call.
    std::set<std::string> declared_in_body;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), rng_decl_pattern());
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position(0));
      declared_in_body.insert((*it)[1].str());
      std::size_t stmt_end = body.find(';', at);
      if (stmt_end == std::string::npos) stmt_end = body.size();
      const std::string stmt = body.substr(at, stmt_end - at);
      if (stmt.find(".stream(") == std::string::npos)
        out.push_back({f.rel_path, line_of(pre, begin + at), "parallel-rng",
                       "Rng '" + (*it)[1].str() +
                           "' constructed inside a parallel body without a per-item "
                           "stream key; bind it from StreamFamily::stream(i)"});
    }

    // fork()/fork_base() advances shared generator state; inside a parallel
    // body the draw order depends on thread scheduling.
    for (auto it = std::sregex_iterator(body.begin(), body.end(), fork_pattern());
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position(0));
      out.push_back({f.rel_path, line_of(pre, begin + at), "parallel-rng",
                     "fork()/fork_base() inside a parallel body draws from shared "
                     "generator state; hoist the fork and key per-item streams instead"});
    }

    // Draws on a generator created outside the body.
    for (auto it = std::sregex_iterator(body.begin(), body.end(), rng_draw_pattern());
         it != std::sregex_iterator(); ++it) {
      const std::string receiver = (*it)[1].str();
      if (!file_rngs.count(receiver) || declared_in_body.count(receiver)) continue;
      const std::size_t at = static_cast<std::size_t>(it->position(0));
      out.push_back({f.rel_path, line_of(pre, begin + at), "parallel-rng",
                     "'" + receiver + "." + (*it)[2].str() +
                         "(...)' draws from an Rng created outside the parallel body; "
                         "results then depend on chunk scheduling"});
    }
  }
}

void check_unordered_fp(const SourceFile& f, const ProjectIndex& index,
                        std::vector<Violation>& out) {
  const auto names_it = index.unordered_names_by_file.find(f.rel_path);
  if (names_it == index.unordered_names_by_file.end() || names_it->second.empty()) return;
  const std::string& code = f.code;
  const std::vector<std::size_t> pre = newline_prefix(code);

  for (const std::string& name : names_it->second) {
    const std::regex loop(R"(\bfor\s*\(\s*[^;)]*:\s*)" + name + R"(\s*\))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), loop);
         it != std::sregex_iterator(); ++it) {
      const std::size_t at = static_cast<std::size_t>(it->position(0));
      // Loop body: the next balanced brace block, or (braceless form) the
      // text up to the next ';'.
      std::size_t cursor = at + it->length(0);
      while (cursor < code.size() &&
             std::isspace(static_cast<unsigned char>(code[cursor])))
        ++cursor;
      std::string loop_body;
      if (cursor < code.size() && code[cursor] == '{') {
        int depth = 0;
        std::size_t j = cursor;
        while (j < code.size()) {
          if (code[j] == '{') ++depth;
          if (code[j] == '}' && --depth == 0) break;
          ++j;
        }
        loop_body = code.substr(cursor, j - cursor);
      } else {
        const std::size_t semi = code.find(';', cursor);
        loop_body = code.substr(cursor, semi == std::string::npos
                                            ? std::string::npos
                                            : semi - cursor);
      }
      if (loop_body.find("+=") != std::string::npos ||
          loop_body.find("-=") != std::string::npos)
        out.push_back({f.rel_path, line_of(pre, at), "unordered-fp",
                       "iterating hash container '" + name +
                           "' into an accumulation; hash order is unspecified, so "
                           "floating-point results vary across runs — iterate a sorted "
                           "view or use std::map"});
    }
  }
}

}  // namespace

std::vector<Violation> pass_determinism(const ProjectIndex& index) {
  std::vector<Violation> out;
  for (const SourceFile& f : index.files) {
    check_parallel_rng(f, out);
    check_unordered_fp(f, index, out);
  }
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.message) < std::tie(b.file, b.line, b.message);
  });
  return out;
}

}  // namespace xpuf::lint
