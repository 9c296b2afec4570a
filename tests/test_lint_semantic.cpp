// Fixture tests for the xpuf_lint semantic engine (tools/xpuf_lint/engine.hpp):
// each cross-TU pass is driven on a minimal in-memory tree with at least one
// true positive and one clean counterexample, plus the suppression-budget and
// guarded-by round trips and the SARIF-lite JSON schema.
//
// Marker strings inside fixtures are assembled at runtime (lint_marker below)
// so this file's own raw lines never carry a parseable suppression comment.
#include "engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace {

using xpuf::lint::Report;
using xpuf::lint::Violation;
using Files = std::vector<std::pair<std::string, std::string>>;

/// Builds "// xpuf-lint: <rest>" without this source file containing the
/// marker token itself.
std::string lint_marker(const std::string& rest) {
  return std::string("// xpuf-") + "lint: " + rest;
}

std::vector<Violation> with_rule(const Report& report, const std::string& rule) {
  std::vector<Violation> out;
  for (const Violation& v : report.violations)
    if (v.rule == rule) out.push_back(v);
  return out;
}

// --- Layering ---------------------------------------------------------------

TEST(LintLayering, FlagsAnIncludeEdgeAgainstTheModuleDag) {
  // ml may reach down to sim/linalg/common, never up into puf.
  const Report report = xpuf::lint::analyze_files({
      {"src/ml/model.hpp", "#pragma once\n#include \"puf/proto.hpp\"\n"},
      {"src/puf/proto.hpp", "#pragma once\n"},
  });
  const auto hits = with_rule(report, "layering");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/ml/model.hpp");
  EXPECT_EQ(hits[0].line, 2u);
}

TEST(LintLayering, AcceptsEdgesTheDagDeclares) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/top.hpp", "#pragma once\n#include \"ml/mid.hpp\"\n"},
      {"src/ml/mid.hpp", "#pragma once\n#include \"common/base.hpp\"\n"},
      {"src/common/base.hpp", "#pragma once\n"},
  });
  EXPECT_TRUE(with_rule(report, "layering").empty());
  EXPECT_EQ(report.stats.include_edges, 2u);
}

// --- Determinism: parallel-rng ----------------------------------------------

TEST(LintParallelRng, FlagsUnkeyedRngConstructionInAParallelBody) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/worker.cpp",
       "void scan(std::size_t n) {\n"
       "  XPUF_REQUIRE(n > 0, \"n\");\n"
       "  parallel_for(n, 64, [&](std::size_t b, std::size_t e, std::size_t) {\n"
       "    Rng local(123);\n"
       "    for (std::size_t i = b; i < e; ++i) (void)local.uniform();\n"
       "  });\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "parallel-rng");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4u);
}

TEST(LintParallelRng, AcceptsStreamKeyedPerItemGenerators) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/worker.cpp",
       "void scan(std::size_t n, const StreamFamily& streams) {\n"
       "  XPUF_REQUIRE(n > 0, \"n\");\n"
       "  parallel_for(n, 1, [&](std::size_t b, std::size_t e, std::size_t) {\n"
       "    for (std::size_t i = b; i < e; ++i) {\n"
       "      Rng local = streams.stream(i);\n"
       "      (void)local.uniform();\n"
       "    }\n"
       "  });\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "parallel-rng").empty());
}

TEST(LintParallelRng, FlagsOuterDrawsAndForksInsideTheBody) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/worker.cpp",
       "Rng shared(7);\n"
       "void work(std::size_t n) {\n"
       "  XPUF_REQUIRE(n > 0, \"n\");\n"
       "  parallel_for(n, 1, [&](std::size_t b, std::size_t e, std::size_t) {\n"
       "    (void)shared.uniform();\n"
       "    Rng child = shared.fork();\n"
       "    (void)child;\n"
       "  });\n"
       "}\n"},
  });
  // The outer-generator draw, the fork, and the unkeyed declaration.
  EXPECT_EQ(with_rule(report, "parallel-rng").size(), 3u);
}

// --- Determinism: unordered-fp ----------------------------------------------

TEST(LintUnorderedFp, FlagsHashIterationFeedingAnAccumulation) {
  const Report report = xpuf::lint::analyze_files({
      {"src/ml/acc.cpp",
       "double total() {\n"
       "  std::unordered_map<int, double> weights;\n"
       "  double sum = 0.0;\n"
       "  for (const auto& kv : weights) sum += kv.second;\n"
       "  return sum;\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "unordered-fp");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4u);
}

TEST(LintUnorderedFp, OrderedContainersAndNonAccumulatingLoopsAreClean) {
  const Report report = xpuf::lint::analyze_files({
      {"src/ml/acc.cpp",
       "double total() {\n"
       "  std::map<int, double> weights;\n"
       "  std::unordered_map<int, double> index;\n"
       "  double sum = 0.0;\n"
       "  for (const auto& kv : weights) sum += kv.second;\n"
       "  for (const auto& kv : index) check(kv.first);\n"
       "  return sum;\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "unordered-fp").empty());
}

// --- Wire pairing -----------------------------------------------------------

TEST(LintWirePairing, FlagsAWriterWithoutItsBoundsCheckedReader) {
  const Report report = xpuf::lint::analyze_files({
      {"src/net/wire.cpp",
       "void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {\n"
       "  out.push_back(static_cast<std::uint8_t>(v & 0xffu));\n"
       "  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "wire-pairing");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("read_u16"), std::string::npos);
}

TEST(LintWirePairing, FlagsEncodeDecodeSequenceDrift) {
  const Report report = xpuf::lint::analyze_files({
      {"src/net/wire.cpp",
       "constexpr std::uint64_t kPongBytes = 3;\n"
       "void encode_pong(std::vector<std::uint8_t>& out) {\n"
       "  out.reserve(kPongBytes);\n"
       "  put_u16(out, 7);\n"
       "  put_u8(out, 1);\n"
       "}\n"
       "void decode_pong(Cursor& in) {\n"
       "  read_u8(in);\n"
       "  read_u16(in);\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "wire-pairing");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("[u16,u8]"), std::string::npos);
  EXPECT_NE(hits[0].message.find("[u8,u16]"), std::string::npos);
}

TEST(LintWirePairing, FlagsReserveConstantsDriftedFromThePutLayout) {
  const Report report = xpuf::lint::analyze_files({
      {"src/net/wire.cpp",
       "constexpr std::uint64_t kPingBytes = 4;\n"
       "void encode_ping(std::vector<std::uint8_t>& out) {\n"
       "  out.reserve(kPingBytes);\n"
       "  put_u16(out, 7);\n"
       "  put_u8(out, 1);\n"
       "}\n"
       "void decode_ping(Cursor& in) {\n"
       "  read_u16(in);\n"
       "  read_u8(in);\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "wire-pairing");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("reserves 4"), std::string::npos);
  EXPECT_NE(hits[0].message.find("write 3"), std::string::npos);
}

TEST(LintWirePairing, AConsistentCodecIsClean) {
  const Report report = xpuf::lint::analyze_files({
      {"src/net/wire.cpp",
       "constexpr std::uint64_t kPingBytes = 3;\n"
       "void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {\n"
       "  out.push_back(static_cast<std::uint8_t>(v & 0xffu));\n"
       "  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xffu));\n"
       "}\n"
       "std::uint16_t read_u16(Cursor& in) {\n"
       "  if (in.remaining() < 2) throw DecodeError(\"short frame\");\n"
       "  return in.take_u16();\n"
       "}\n"
       "void encode_ping(std::vector<std::uint8_t>& out) {\n"
       "  out.reserve(kPingBytes);\n"
       "  put_u16(out, 7);\n"
       "  put_u8(out, 1);\n"
       "}\n"
       "void decode_ping(Cursor& in) {\n"
       "  read_u16(in);\n"
       "  read_u8(in);\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "wire-pairing").empty());
}

// ISSUE 8: the pass also covers the enrollment-store codec (record.cpp), and
// folds the same-stem header into the local symbol set so inline byte
// primitives there are width-checked too. The violation anchors to the
// header, where the offending definition actually lives.
TEST(LintWirePairing, ChecksHeaderInlinePrimitivesOfARecordCodec) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/store/record.hpp",
       "#pragma once\n"
       "inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {\n"
       "  for (int shift = 0; shift < 32; shift += 8)\n"
       "    out.push_back(static_cast<std::uint8_t>(v >> shift));\n"
       "}\n"
       "inline bool RecordReader::read_u32(std::uint32_t& v) {\n"
       "  if (remaining() < 2) return false;\n"
       "  v = take32();\n"
       "  return true;\n"
       "}\n"},
      {"src/puf/store/record.cpp",
       "void encode_item(std::vector<std::uint8_t>& out) {\n"
       "  out.reserve(4);\n"
       "  put_u32(out, 7);\n"
       "}\n"
       "void decode_item(Cursor& in) {\n"
       "  read_u32(in);\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "wire-pairing");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/puf/store/record.hpp");
  EXPECT_NE(hits[0].message.find("guards 2"), std::string::npos);
}

TEST(LintWirePairing, ARecordCodecWithHeaderConstantsIsClean) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/store/record.hpp",
       "#pragma once\n"
       "inline constexpr std::uint32_t kItemBytes = 6;\n"
       "inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {\n"
       "  out.push_back(static_cast<std::uint8_t>(v));\n"
       "  out.push_back(static_cast<std::uint8_t>(v >> 8));\n"
       "}\n"
       "inline bool RecordReader::read_u16(std::uint16_t& v) {\n"
       "  if (remaining() < 2) return false;\n"
       "  v = take16();\n"
       "  return true;\n"
       "}\n"
       "inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {\n"
       "  for (int shift = 0; shift < 32; shift += 8)\n"
       "    out.push_back(static_cast<std::uint8_t>(v >> shift));\n"
       "}\n"
       "inline bool RecordReader::read_u32(std::uint32_t& v) {\n"
       "  if (remaining() < 4) return false;\n"
       "  v = take32();\n"
       "  return true;\n"
       "}\n"},
      {"src/puf/store/record.cpp",
       "void encode_item(std::vector<std::uint8_t>& out,\n"
       "                 const std::vector<std::uint8_t>& payload) {\n"
       "  out.reserve(kItemBytes + payload.size());\n"
       "  put_u16(out, 7);\n"
       "  put_u32(out, static_cast<std::uint32_t>(payload.size()));\n"
       "  out.insert(out.end(), payload.begin(), payload.end());\n"
       "}\n"
       "void decode_item(Cursor& in) {\n"
       "  read_u16(in);\n"
       "  read_u32(in);\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "wire-pairing").empty());
}

// --- Metrics accounting -----------------------------------------------------

TEST(LintMetricsAccounting, FlagsDeadAndUnauditedCounters) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/metrics_demo.cpp",
       "void register_dead() {\n"
       "  Counter& dead = MetricsRegistry::global().counter(\"demo.dead\");\n"
       "  (void)dead;\n"
       "}\n"
       "void bump_unaudited() {\n"
       "  Counter& hits = MetricsRegistry::global().counter(\"demo.unaudited\");\n"
       "  hits.add(1);\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "metrics-accounting");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("demo.dead"), std::string::npos);
  EXPECT_NE(hits[0].message.find("never incremented"), std::string::npos);
  EXPECT_NE(hits[1].message.find("demo.unaudited"), std::string::npos);
  EXPECT_NE(hits[1].message.find("never audited"), std::string::npos);
  EXPECT_EQ(report.stats.counters_indexed, 2u);
}

TEST(LintMetricsAccounting, ATestExpectationQuotingTheNameIsAnAudit) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/metrics_demo.cpp",
       "void bump() {\n"
       "  Counter& hits = MetricsRegistry::global().counter(\"demo.live\");\n"
       "  hits.add(1);\n"
       "}\n"},
      {"tests/test_demo.cpp",
       "void check() {\n"
       "  EXPECT_EQ(snap.counters.at(\"demo.live\"), 1u);\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "metrics-accounting").empty());
}

// --- Orphan headers ---------------------------------------------------------

TEST(LintOrphanHeader, FlagsAHeaderOnlyATestIncludes) {
  const Report report = xpuf::lint::analyze_files({
      // Reached only by its own .cpp and its test: flagged.
      {"src/sim/orphan.hpp", "#pragma once\nint orphan();\n"},
      {"src/sim/orphan.cpp", "#include \"sim/orphan.hpp\"\nint orphan() { return 1; }\n"},
      {"tests/test_orphan.cpp", "#include \"sim/orphan.hpp\"\n"},
      // Reached by another src/ file, and by an example: clean.
      {"src/sim/core.hpp", "#pragma once\n"},
      {"src/puf/user.cpp", "#include \"sim/core.hpp\"\n"},
      {"src/sim/demo.hpp", "#pragma once\n"},
      {"examples/demo.cpp", "#include \"sim/demo.hpp\"\n"},
  });
  const auto hits = with_rule(report, "orphan-header");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/sim/orphan.hpp");
  EXPECT_EQ(hits[0].line, 1u);
}

// --- Orphan symbols ---------------------------------------------------------

TEST(LintOrphanSymbol, FlagsANameOnlyATestUses) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/calc.hpp", "#pragma once\nint used();\nint only_tested();\nint via_macro();\n"},
      {"src/sim/calc.cpp",
       "#include \"sim/calc.hpp\"\nint used() { return 1; }\n"
       "int only_tested() { return 2; }\nint via_macro() { return 3; }\n"},
      // A comment or a string naming only_tested is no use; a macro body
      // naming via_macro is.
      {"bench/bench_calc.cpp",
       "#include \"sim/calc.hpp\"\n#define CALL_IT() via_macro()\n"
       "// only_tested() is not called here\n"
       "int main() { const char* s = \"only_tested\"; (void)s; return used() + CALL_IT(); }\n"},
      {"tests/test_calc.cpp",
       "#include \"sim/calc.hpp\"\nint t() { return only_tested() + used(); }\n"},
  });
  const auto hits = with_rule(report, "orphan-symbol");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/sim/calc.hpp");
  EXPECT_EQ(hits[0].line, 3u);
  EXPECT_NE(hits[0].message.find("'only_tested'"), std::string::npos);
}

TEST(LintOrphanSymbol, AnOverloadSetIsLiveWhenAnyOverloadIsUsed) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/ops.hpp",
       "#pragma once\ndouble scale(double x);\ndouble scale(int x);\n"
       "int twice(int x);\nint twice(double x);\n"},
      {"src/sim/ops.cpp",
       "#include \"sim/ops.hpp\"\ndouble scale(double x) { return x; }\n"
       "double scale(int x) { return x; }\nint twice(int x) { return 2 * x; }\n"
       "int twice(double x) { return 2; }\n"},
      {"examples/ops_demo.cpp", "#include \"sim/ops.hpp\"\nint main() { return scale(2.0) > 1; }\n"},
      {"tests/test_ops.cpp", "#include \"sim/ops.hpp\"\nint t() { return twice(1) + twice(1.0); }\n"},
  });
  // Overloads share one name: scale is live through either, and neither
  // twice is used outside tests.
  const auto hits = with_rule(report, "orphan-symbol");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_EQ(hits[1].line, 5u);
}

TEST(LintOrphanSymbol, InlineAccessorsAreCheckedByName) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/counter.hpp",
       "#pragma once\nstruct Counter {\n  int size() const { return n_; }\n"
       "  int peak() const { return n_; }\n  int n_ = 0;\n};\n"},
      {"bench/bench_counter.cpp",
       "#include \"sim/counter.hpp\"\nint f(const Counter& c) { return c.size(); }\n"},
      {"tests/test_counter.cpp",
       "#include \"sim/counter.hpp\"\nint t(const Counter& c) { return c.peak(); }\n"},
  });
  // The field is live through the accessors that read it; the accessor only
  // a test calls is not.
  const auto hits = with_rule(report, "orphan-symbol");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 4u);
  EXPECT_NE(hits[0].message.find("'peak'"), std::string::npos);
}

TEST(LintOrphanSymbol, APrivateHelperCalledInItsOwnCppIsLive) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/engine.hpp",
       "#pragma once\nclass Engine {\n public:\n  explicit Engine(int n);\n  void run();\n\n"
       " private:\n  void step();\n  int n_;\n};\n"},
      {"src/sim/engine.cpp",
       "#include \"sim/engine.hpp\"\nEngine::Engine(int n) : n_(n) {}\n"
       "void Engine::run() { step(); }\nvoid Engine::step() {}\n"},
      {"tools/drive.cpp", "#include \"sim/engine.hpp\"\nvoid drive() { Engine e(2); e.run(); }\n"},
  });
  EXPECT_TRUE(with_rule(report, "orphan-symbol").empty());
}

TEST(LintOrphanSymbol, AnAllowCommentKeepsATestHook) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/hook.hpp",
       "#pragma once\nstruct Probe {\n  " + lint_marker("allow(orphan-symbol)") +
           "\n  int hook() const { return 1; }\n};\n"},
      {"tests/test_hook.cpp",
       "#include \"sim/hook.hpp\"\nint t(const Probe& p) { return p.hook(); }\n"},
  });
  EXPECT_TRUE(with_rule(report, "orphan-symbol").empty());
  EXPECT_EQ(report.stats.suppressions_by_rule.at("orphan-symbol"), 1u);
}

// --- Guarded-by policy ------------------------------------------------------

namespace guarded_fixture {

std::string guarded_tree(const std::string& marker_line) {
  return "void helper(const std::vector<double>& v) {\n"
         "  XPUF_REQUIRE(!v.empty(), \"v must be non-empty\");\n"
         "  (void)v.size();\n"
         "}\n" +
         marker_line +
         "double outer(const std::vector<double>& v) {\n"
         "  helper(v);\n"
         "  double s = 0.0;\n"
         "  for (double x : v) s += x;\n"
         "  return s;\n"
         "}\n";
}

}  // namespace guarded_fixture

TEST(LintGuardedBy, AProvenClaimDischargesAtZeroBudgetCost) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/guarded.cpp",
       guarded_fixture::guarded_tree(lint_marker("guarded-by(helper)") + "\n")},
  });
  EXPECT_TRUE(with_rule(report, "require-guard").empty());
  EXPECT_TRUE(with_rule(report, "bad-guard-ref").empty());
  EXPECT_EQ(report.stats.guarded_by_verified, 1u);
  EXPECT_EQ(report.stats.suppressions_total(), 0u);
}

TEST(LintGuardedBy, WithoutTheMarkerTheFindingStands) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/guarded.cpp", guarded_fixture::guarded_tree("")},
  });
  EXPECT_EQ(with_rule(report, "require-guard").size(), 1u);
  EXPECT_EQ(report.stats.guarded_by_verified, 0u);
}

TEST(LintGuardedBy, AnUnprovableClaimKeepsTheFindingAndFlagsTheMarker) {
  // `helper` exists but carries no XPUF_REQUIRE, so the claim cannot be
  // proven: the original finding survives and the marker itself is reported.
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/guarded.cpp",
       "void helper(const std::vector<double>& v) {\n"
       "  (void)v;\n"
       "}\n" +
       lint_marker("guarded-by(helper)") + "\n" +
       "double outer(const std::vector<double>& v) {\n"
       "  helper(v);\n"
       "  double s = 0.0;\n"
       "  for (double x : v) s += x;\n"
       "  return s;\n"
       "}\n"},
  });
  EXPECT_EQ(with_rule(report, "require-guard").size(), 1u);
  EXPECT_EQ(with_rule(report, "bad-guard-ref").size(), 1u);
  EXPECT_EQ(report.stats.guarded_by_verified, 0u);
}

TEST(LintGuardedBy, AMarkerDischargingNothingIsStale) {
  const Report report = xpuf::lint::analyze_files({
      {"src/sim/guarded.cpp",
       lint_marker("guarded-by(helper)") + "\n" +
       "double outer(const std::vector<double>& v) {\n"
       "  XPUF_REQUIRE(!v.empty(), \"v\");\n"
       "  double s = 0.0;\n"
       "  for (double x : v) s += x;\n"
       "  return s;\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "bad-guard-ref");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("stale"), std::string::npos);
}

// --- Scalar-eval (issuance hot path) ----------------------------------------

TEST(LintScalarEval, FlagsPerChallengeModelEvalInTheIssuanceHotPath) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/authentication.cpp",
       "void issue(const ServerModel& model, std::size_t n) {\n"
       "  XPUF_REQUIRE(n >= 1, \"n\");\n"
       "  for (std::size_t i = 0; i < n; ++i) {\n"
       "    Challenge c = next(i);\n"
       "    out.push_back(model.predict_xor(c, n));\n"
       "  }\n"
       "}\n"},
  });
  const auto hits = with_rule(report, "scalar-eval");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 5u);
  EXPECT_NE(hits[0].message.find("ChallengeScreener"), std::string::npos);
}

TEST(LintScalarEval, ModelEvalOutsideTheHotPathFilesIsClean) {
  // The same per-challenge call is legal in enrollment (it IS the model), and
  // a bare member access without a call never matches in the scoped files.
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/enrollment.cpp",
       "bool eval(const ServerModel& model, const Challenge& c, std::size_t n) {\n"
       "  XPUF_REQUIRE(n >= 1, \"n\");\n"
       "  return model.predict_xor(c, n);\n"
       "}\n"},
      {"src/puf/selection.cpp",
       "std::size_t count_stable(const std::vector<Row>& rows) {\n"
       "  std::size_t n = 0;\n"
       "  for (const Row& row : rows)\n"
       "    if (row.all_stable) ++n;\n"
       "  return n;\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "scalar-eval").empty());
}

TEST(LintScalarEval, ADeclaredScalarFallbackIsBudgetedByItsAllowComment) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/authentication.cpp",
       "bool fallback(const ServerModel& model, const Challenge& c, std::size_t n) {\n"
       "  XPUF_REQUIRE(n >= 1, \"n\");\n"
       "  " + lint_marker("allow(scalar-eval)") + "\n" +
       "  return model.predict_xor(c, n);\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "scalar-eval").empty());
  EXPECT_EQ(report.stats.suppressions_by_rule.at("scalar-eval"), 1u);
}

// --- Parity chain ------------------------------------------------------------

TEST(LintParityChain, FlagsAHandRolledSignChainInEitherArmOrder) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/predict.cpp",
       "double predict(const Challenge& c, const double* w) {\n"
       "  double acc = 1.0, s = 0.0;\n"
       "  for (std::size_t i = c.size(); i > 0; --i) {\n"
       "    acc *= c[i - 1] ? -1.0 : 1.0;\n"
       "    s += w[i - 1] * acc;\n"
       "  }\n"
       "  return s;\n"
       "}\n"},
      {"tests/test_sign.cpp", "void f(bool b, double& x) { x *= b ? 1 : -1; }\n"},
  });
  const auto hits = with_rule(report, "parity-chain");
  ASSERT_EQ(hits.size(), 2u);
  for (const Violation& v : hits) {
    if (v.file == "src/puf/predict.cpp") {
      EXPECT_EQ(v.line, 4u);
      EXPECT_NE(v.message.find("parity_sign"), std::string::npos);
    } else {
      EXPECT_EQ(v.file, "tests/test_sign.cpp");
      EXPECT_EQ(v.line, 1u);
    }
  }
}

TEST(LintParityChain, ParityKernelsAndOtherSignsAreClean) {
  const Report report = xpuf::lint::analyze_files({
      // The canonical kernel itself is exempt.
      {"src/sim/linear.cpp", "void g(bool b, double& acc) { acc *= b ? -1.0 : 1.0; }\n"},
      {"src/puf/clean.cpp",
       // A parity-driven sign, a one-shot +/-1 value, and a multiply by a
       // non-unit factor are not sign chains.
       "void h(bool b, std::uint64_t& parity, double* out, double& x, double& y) {\n"
       "  parity ^= b;\n"
       "  out[0] = sim::parity_sign(parity);\n"
       "  y = b ? 1.0 : -1.0;\n"
       "  x *= b ? -1.5 : 1.0;\n"
       "  x *= b ? -1.0 : 10.0;\n"
       "}\n"},
  });
  EXPECT_TRUE(with_rule(report, "parity-chain").empty());
}

// --- Include order -----------------------------------------------------------

TEST(LintIncludeOrder, ASameNamedHeaderElsewhereIsNotTheSelfHeader) {
  // An example named after a library header includes it like any other
  // project header, after the system headers.
  const Report report = xpuf::lint::analyze_files({
      {"examples/key_generation.cpp",
       "#include <cstdio>\n\n#include \"puf/key_generation.hpp\"\n"},
      {"src/puf/key_generation.hpp", "#pragma once\n"},
  });
  EXPECT_TRUE(with_rule(report, "include-order").empty());
}

TEST(LintIncludeOrder, ASelfHeaderOutOfOrderIsFlagged) {
  // Resolved from the src/ include root and from the including directory.
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/key_generation.cpp",
       "#include <cstdio>\n\n#include \"puf/key_generation.hpp\"\n"},
      {"src/puf/key_generation.hpp", "#pragma once\n"},
      {"tools/demo/demo.cpp", "#include <string>\n#include \"demo.hpp\"\n"},
      {"tools/demo/demo.hpp", "#pragma once\n"},
  });
  const auto hits = with_rule(report, "include-order");
  ASSERT_EQ(hits.size(), 2u);
  for (const Violation& v : hits) {
    EXPECT_EQ(v.line, v.file == "tools/demo/demo.cpp" ? 2u : 3u) << v.file;
    EXPECT_NE(v.message.find("self header"), std::string::npos) << v.message;
  }
}

// --- Suppression budget -----------------------------------------------------

TEST(LintSuppressionBudget, AllowMarkersAreCountedAndFilterFindings) {
  const std::string flagged = "std::mt19937 gen(42);\n";
  const Report unsuppressed = xpuf::lint::analyze_files({
      {"src/puf/demo.cpp", flagged},
  });
  EXPECT_EQ(with_rule(unsuppressed, "raw-rng").size(), 1u);
  EXPECT_EQ(unsuppressed.stats.suppressions_total(), 0u);

  const Report suppressed = xpuf::lint::analyze_files({
      {"src/puf/demo.cpp",
       "std::mt19937 gen(42);  " + lint_marker("allow(raw-rng)") + "\n"},
  });
  EXPECT_TRUE(with_rule(suppressed, "raw-rng").empty());
  EXPECT_EQ(suppressed.stats.suppressions_total(), 1u);
  EXPECT_EQ(suppressed.stats.suppressions_by_rule.at("raw-rng"), 1u);
}

TEST(LintSuppressionBudget, SemanticPassFindingsHonorAllowComments) {
  const Report report = xpuf::lint::analyze_files({
      {"src/ml/model.hpp",
       "#pragma once\n" + lint_marker("allow(layering)") + "\n" +
           "#include \"puf/proto.hpp\"\n"},
      {"src/puf/proto.hpp", "#pragma once\n"},
  });
  EXPECT_TRUE(with_rule(report, "layering").empty());
  EXPECT_EQ(report.stats.suppressions_by_rule.at("layering"), 1u);
}

// --- JSON report ------------------------------------------------------------

TEST(LintJsonReport, EmitsTheSarifLiteSchema) {
  const Report report = xpuf::lint::analyze_files({
      {"src/puf/demo.cpp", "std::mt19937 gen(42);\n"},
  });
  const std::string json = xpuf::lint::report_to_json(report);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"xpuf_lint\""), std::string::npos);
  // Every registered rule is listed with a summary.
  for (const auto& rule : xpuf::lint::rules())
    EXPECT_NE(json.find("{\"id\": \"" + rule.name + "\""), std::string::npos);
  // The one finding appears as a result row.
  EXPECT_NE(json.find("\"ruleId\": \"raw-rng\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/puf/demo.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  // Stats block carries the budget inputs check_lint_baseline.py consumes.
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violations_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violations_by_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressions_total\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"guarded_by_verified\": 0"), std::string::npos);
}

}  // namespace
