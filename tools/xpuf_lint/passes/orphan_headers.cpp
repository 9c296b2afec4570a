#include "passes/passes.hpp"

#include <set>
#include <string>

namespace xpuf::lint {

std::vector<Violation> pass_orphan_headers(const ProjectIndex& index) {
  // Headers some non-test file includes; a header's own .cpp does not count,
  // since every implemented header has one.
  std::set<std::string> reached;
  for (const IncludeEdge& e : index.includes) {
    if (e.from.starts_with("tests/")) continue;
    if (e.from == e.to.substr(0, e.to.rfind('.')) + ".cpp") continue;
    reached.insert(e.to);
  }

  // index.files is sorted by path, so the findings are too.
  std::vector<Violation> out;
  for (const SourceFile& f : index.files) {
    if (!f.rel_path.starts_with("src/") || !f.rel_path.ends_with(".hpp")) continue;
    if (reached.count(f.rel_path)) continue;
    out.push_back({f.rel_path, 1, "orphan-header",
                   "no bench, tool, example or other src/ file includes this header; "
                   "code only its own tests reach is not a production path — delete it, "
                   "or move a test oracle to tests/"});
  }
  return out;
}

}  // namespace xpuf::lint
