#include "passes/passes.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <regex>
#include <string>

namespace xpuf::lint {

namespace {

std::string basename_of(const std::string& p) {
  const std::size_t slash = p.find_last_of('/');
  return slash == std::string::npos ? p : p.substr(slash + 1);
}

std::string dir_of(const std::string& rel) {
  const std::size_t slash = rel.find_last_of('/');
  return slash == std::string::npos ? "" : rel.substr(0, slash);
}

/// k-constant integer definitions (`constexpr std::uint32_t kHeaderBytes =
/// 24;`) from a blanked source — the vocabulary of reserve() accounting.
void collect_constants(const std::string& code, std::map<std::string, std::uint64_t>& out) {
  static const std::regex re(
      R"(constexpr\s+[\w:]+\s+(k\w+)\s*=\s*(\d[\d']*)u?\s*;)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::string digits = (*it)[2].str();
    digits.erase(std::remove(digits.begin(), digits.end(), '\''), digits.end());
    out[(*it)[1].str()] = std::stoull(digits);
  }
}

/// Widths (in bits) of the put_uN calls in `body`, in source order.
std::vector<int> put_sequence(const std::string& body) {
  static const std::regex re(R"(\bput_u(8|16|32|64)\s*\()");
  std::vector<int> seq;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), re);
       it != std::sregex_iterator(); ++it)
    seq.push_back(std::stoi((*it)[1].str()));
  return seq;
}

std::vector<int> read_sequence(const std::string& body) {
  static const std::regex re(R"(\bread_u(8|16|32|64)\s*\()");
  std::vector<int> seq;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), re);
       it != std::sregex_iterator(); ++it)
    seq.push_back(std::stoi((*it)[1].str()));
  return seq;
}

std::string sequence_to_string(const std::vector<int>& seq) {
  std::string s = "[";
  for (std::size_t i = 0; i < seq.size(); ++i)
    s += (i ? "," : "") + std::string("u") + std::to_string(seq[i]);
  return s + "]";
}

/// Bytes a put_uN definition appends per call: the explicit push_back count,
/// or the shift-loop bound / 8 for the unrolled-loop form.
std::uint64_t put_body_bytes(const std::string& body) {
  static const std::regex loop_bound(R"(\bshift\s*<\s*(\d+))");
  std::smatch m;
  if (std::regex_search(body, m, loop_bound)) return std::stoull(m[1].str()) / 8;
  std::uint64_t n = 0;
  std::size_t at = 0;
  while ((at = body.find("push_back", at)) != std::string::npos) {
    ++n;
    at += 9;
  }
  return n;
}

/// Constant part of a reserve() argument: integer literals and known
/// k-constants joined by top-level '+'; dynamic terms contribute nothing.
std::uint64_t reserve_constant_sum(const std::string& expr,
                                   const std::map<std::string, std::uint64_t>& constants) {
  std::uint64_t sum = 0;
  int depth = 0;
  std::string term;
  auto flush = [&] {
    const std::string t = trim(term);
    term.clear();
    if (t.empty()) return;
    if (std::all_of(t.begin(), t.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) || c == '\'';
        })) {
      std::string digits = t;
      digits.erase(std::remove(digits.begin(), digits.end(), '\''), digits.end());
      sum += std::stoull(digits);
      return;
    }
    const auto it = constants.find(t);
    if (it != constants.end()) sum += it->second;
  };
  for (char c : expr) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == '+' && depth == 0) {
      flush();
      continue;
    }
    term.push_back(c);
  }
  flush();
  return sum;
}

/// The first reserve(...) argument in `body`, or nullopt-equivalent "".
bool find_reserve_arg(const std::string& body, std::string& arg) {
  const std::size_t at = body.find("reserve");
  if (at == std::string::npos) return false;
  const std::size_t open = body.find('(', at);
  if (open == std::string::npos) return false;
  int depth = 0;
  for (std::size_t i = open; i < body.size(); ++i) {
    if (body[i] == '(') ++depth;
    if (body[i] == ')' && --depth == 0) {
      arg = body.substr(open + 1, i - open - 1);
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Violation> pass_wire_pairing(const ProjectIndex& index) {
  std::vector<Violation> out;
  for (const SourceFile& f : index.files) {
    const std::string base = basename_of(f.rel_path);
    if (base != "wire.cpp" && base != "record.cpp") continue;
    // Same-stem header: wire.cpp <-> wire.hpp, record.cpp <-> record.hpp.
    const std::string dir = dir_of(f.rel_path);
    const std::string stem = base.substr(0, base.size() - 4);
    const std::string header_rel =
        dir.empty() ? stem + ".hpp" : dir + "/" + stem + ".hpp";

    // Functions defined in this TU (or inline in its paired header — the
    // byte primitives of a header-only codec — or in the byte-order header
    // both project codecs share), by name. A TU definition shadows a
    // same-named header one.
    std::map<std::string, const FunctionSym*> local;
    for (const auto& [name, syms] : index.functions)
      for (const FunctionSym& s : syms) {
        if (s.file == f.rel_path)
          local[name] = &s;
        else if (s.file == header_rel || s.file == "src/common/byte_codec.hpp")
          local.emplace(name, &s);
      }
    const bool is_codec =
        std::any_of(local.begin(), local.end(), [](const auto& kv) {
          return kv.first.rfind("put_u", 0) == 0 || kv.first.rfind("encode_", 0) == 0;
        });
    if (!is_codec) continue;

    // Constants resolve from the TU and its paired header.
    std::map<std::string, std::uint64_t> constants;
    collect_constants(f.code, constants);
    if (const SourceFile* hdr = index.file(header_rel))
      collect_constants(hdr->code, constants);

    // 1. put_uN <-> read_uN pairing, with byte-width verification on both
    //    halves (reads may live in the header for fixture trees, so the
    //    lookup for the counterpart is index-wide).
    static const std::regex width_name(R"(^(put|read)_u(8|16|32|64)$)");
    for (const auto& [name, sym] : local) {
      std::smatch m;
      if (!std::regex_match(name, m, width_name)) continue;
      const std::uint64_t bytes = std::stoull(m[2].str()) / 8;
      if (m[1].str() == "put") {
        const std::string counterpart = "read_u" + m[2].str();
        if (index.functions.find(counterpart) == index.functions.end())
          out.push_back({sym->file, sym->line, "wire-pairing",
                         name + " has no " + counterpart +
                             " counterpart; every field writer needs a "
                             "bounds-checked reader"});
        const std::uint64_t wrote = put_body_bytes(sym->body);
        if (wrote != bytes)
          out.push_back({sym->file, sym->line, "wire-pairing",
                         name + " appends " + std::to_string(wrote) + " byte(s); its "
                             "name promises " + std::to_string(bytes)});
      } else {
        static const std::regex guard(R"(remaining\s*\(\s*\)\s*<\s*(\d+))");
        std::smatch g;
        if (!std::regex_search(sym->body, g, guard)) {
          out.push_back({sym->file, sym->line, "wire-pairing",
                         name + " has no remaining() bounds check; a truncated frame "
                             "would read past the buffer"});
        } else if (std::stoull(g[1].str()) != bytes) {
          out.push_back({sym->file, sym->line, "wire-pairing",
                         name + " guards " + g[1].str() + " byte(s); its name promises " +
                             std::to_string(bytes)});
        }
      }
    }

    // 2. encode_X put sequence must mirror decode_X read sequence.
    for (const auto& [name, sym] : local) {
      if (name.rfind("encode_", 0) != 0) continue;
      const std::string counterpart = "decode_" + name.substr(7);
      const auto dec = local.find(counterpart);
      if (dec == local.end()) {
        out.push_back({sym->file, sym->line, "wire-pairing",
                       name + " has no " + counterpart + "; one-way payloads cannot "
                           "round-trip"});
        continue;
      }
      const std::vector<int> puts = put_sequence(sym->body);
      const std::vector<int> reads = read_sequence(dec->second->body);
      if (puts != reads)
        out.push_back({sym->file, sym->line, "wire-pairing",
                       name + " writes " + sequence_to_string(puts) + " but " +
                           counterpart + " reads " + sequence_to_string(reads) +
                           "; field order and widths must match byte for byte"});
    }

    // 3. Frame-size accounting: each encode_X must reserve its fixed byte
    //    footprint, and the constant part of the reserve must equal the sum
    //    of the fixed put widths.
    for (const auto& [name, sym] : local) {
      if (name.rfind("encode_", 0) != 0) continue;
      std::uint64_t fixed = 0;
      for (int bits : put_sequence(sym->body)) fixed += static_cast<std::uint64_t>(bits) / 8;
      if (fixed == 0) continue;
      std::string arg;
      if (!find_reserve_arg(sym->body, arg)) {
        out.push_back({sym->file, sym->line, "wire-pairing",
                       name + " writes " + std::to_string(fixed) + " fixed bytes but "
                           "never reserves them; add a reserve() accounting for the "
                           "frame layout"});
        continue;
      }
      const std::uint64_t stated = reserve_constant_sum(arg, constants);
      if (stated != fixed)
        out.push_back({sym->file, sym->line, "wire-pairing",
                       name + " reserves " + std::to_string(stated) +
                           " fixed byte(s) but its put calls write " +
                           std::to_string(fixed) +
                           "; the reserve constants drifted from the frame layout"});
    }
  }
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.message) < std::tie(b.file, b.line, b.message);
  });
  return out;
}

}  // namespace xpuf::lint
