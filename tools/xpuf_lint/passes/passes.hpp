// xpuf_lint semantic passes — project-wide checks over the cross-TU index.
//
// Unlike the per-file rules in lint.cpp, each pass sees the whole tree at
// once: the include graph (layering), every parallel region and RNG binding
// (determinism), the paired halves of the wire codec (wire-pairing), every
// MetricsRegistry counter registration (metrics-accounting), who
// includes each src/ header (orphan-header), and where each src/ header's
// names are used (orphan-symbol). Passes return raw violations;
// the engine (engine.hpp) applies suppressions and guarded-by verification
// afterwards, so a pass never needs to know about allow comments.
#pragma once

#include <vector>

#include "index/index.hpp"
#include "lint.hpp"

namespace xpuf::lint {

/// Rule `layering`: enforces the declared module DAG
/// (common <- linalg/crypto <- sim <- ml <- puf <- analysis/net) on every
/// resolved src/-internal include edge, and reports any cycle in the
/// observed module graph.
std::vector<Violation> pass_layering(const ProjectIndex& index);

/// Rules `parallel-rng` / `unordered-fp`: inside parallel_for /
/// parallel_reduce bodies, every Rng must be keyed off a per-item
/// StreamFamily::stream(i) — constructing an unkeyed Rng, calling
/// fork()/fork_base(), or drawing from a generator created outside the body
/// all make results depend on thread scheduling. Separately, iterating a
/// std::unordered_* container into an accumulation makes the result depend
/// on hash iteration order.
std::vector<Violation> pass_determinism(const ProjectIndex& index);

/// Rule `wire-pairing`: in a codec TU (wire.cpp or the enrollment-store's
/// record.cpp, together with its same-stem header), every put_uN must have a
/// byte-width-matching read_uN, every encode_X's put sequence must mirror
/// decode_X's read sequence, and each encode_X's reserve() constant must
/// equal the fixed byte footprint of its put calls.
std::vector<Violation> pass_wire_pairing(const ProjectIndex& index);

/// Rule `metrics-accounting`: every counter("name") registered under src/
/// must be incremented somewhere, and its value must be observable — a
/// .total() read, or the name appearing in a tests//bench/ audit.
std::vector<Violation> pass_metrics_accounting(const ProjectIndex& index);

/// Rule `orphan-header`: every src/ header must be included by some file
/// outside tests/ other than its own same-stem .cpp — a bench, tool,
/// example or another src/ file. A header only tests include is code no
/// production path reaches.
std::vector<Violation> pass_orphan_headers(const ProjectIndex& index);

/// Rule `orphan-symbol`: the name-level counterpart of orphan-header. A
/// function, method or field declared in a src/ header fails when, outside
/// tests/, its name appears only where it is declared or defined. Names are
/// matched unqualified, so a name some other declaration shares and uses
/// counts as live: the rule can miss an orphan, never flag a live name.
std::vector<Violation> pass_orphan_symbols(const ProjectIndex& index);

}  // namespace xpuf::lint
