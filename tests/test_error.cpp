// Contract layer tests: the error taxonomy (common/error.hpp), the
// XPUF_REQUIRE message format, and the xpuf_lint suppression grammar.
//
// Suppression markers are parsed from raw source lines, so the marker
// strings used as test fixtures below are visible to the linter when it
// lints this very file; the unknown-rule fixtures would otherwise be
// reported.  xpuf-lint: allow-file(bad-suppression)
#include "common/error.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using xpuf::lint::Context;
using xpuf::lint::Violation;

std::vector<Violation> lint_str(const std::string& rel_path, const std::string& src) {
  return xpuf::lint::lint_source(rel_path, src, Context{});
}

bool has_rule(const std::vector<Violation>& violations, const std::string& rule) {
  for (const Violation& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

// --- Error taxonomy ---------------------------------------------------------

TEST(ErrorTaxonomy, NumericalErrorIsARuntimeError) {
  const xpuf::NumericalError e("cholesky: matrix not positive definite");
  const std::runtime_error& base = e;
  EXPECT_STREQ(base.what(), "cholesky: matrix not positive definite");
}

TEST(ErrorTaxonomy, AccessErrorIsARuntimeError) {
  const xpuf::AccessError e("tap 3 is fused off");
  const std::runtime_error& base = e;
  EXPECT_STREQ(base.what(), "tap 3 is fused off");
}

TEST(ErrorTaxonomy, ParseErrorIsARuntimeError) {
  const xpuf::ParseError e("row 7: expected 3 columns");
  const std::runtime_error& base = e;
  EXPECT_STREQ(base.what(), "row 7: expected 3 columns");
}

TEST(ErrorTaxonomy, SubclassesAreCatchableAsRuntimeError) {
  EXPECT_THROW(throw xpuf::NumericalError("x"), std::runtime_error);
  EXPECT_THROW(throw xpuf::AccessError("x"), std::runtime_error);
  EXPECT_THROW(throw xpuf::ParseError("x"), std::runtime_error);
}

// --- XPUF_REQUIRE -----------------------------------------------------------

TEST(XpufRequire, PassingCheckIsSilent) {
  EXPECT_NO_THROW(XPUF_REQUIRE(1 + 1 == 2, "arithmetic works"));
}

TEST(XpufRequire, ThrowsInvalidArgument) {
  EXPECT_THROW(XPUF_REQUIRE(false, "always fails"), std::invalid_argument);
  // invalid_argument is a logic_error: programmer error, not runtime failure.
  EXPECT_THROW(XPUF_REQUIRE(false, "always fails"), std::logic_error);
}

TEST(XpufRequire, MessageCarriesExprFileLineAndText) {
  std::string what;
  const int expected_line = __LINE__ + 2;
  try {
    XPUF_REQUIRE(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "XPUF_REQUIRE did not throw";
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("precondition failed: 2 + 2 == 5"), std::string::npos) << what;
  EXPECT_NE(what.find("test_error.cpp:" + std::to_string(expected_line)),
            std::string::npos)
      << what;
  EXPECT_NE(what.find(" — arithmetic is broken"), std::string::npos) << what;
}

TEST(XpufRequire, EmptyMessageOmitsTheDashSuffix) {
  std::string what;
  try {
    XPUF_REQUIRE(false, "");
    FAIL() << "XPUF_REQUIRE did not throw";
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_EQ(what.find(" — "), std::string::npos) << what;
  EXPECT_NE(what.find("precondition failed: false"), std::string::npos) << what;
}

// --- xpuf_lint rule registry ------------------------------------------------

TEST(LintRegistry, RegistryListsTheDocumentedRules) {
  const auto& rules = xpuf::lint::rules();
  ASSERT_FALSE(rules.empty());
  EXPECT_TRUE(xpuf::lint::is_known_rule("raw-rng"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("nondeterminism"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("vector-bool-parallel"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("require-guard"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("raw-timing"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("raw-syscall"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("narrowing"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("include-order"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("wire-portability"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("scalar-eval"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("ml-dot"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("parity-chain"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("bad-suppression"));
  // Semantic (cross-TU) rules run by the engine over the project index.
  EXPECT_TRUE(xpuf::lint::is_known_rule("layering"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("parallel-rng"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("unordered-fp"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("wire-pairing"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("metrics-accounting"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("bad-guard-ref"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("orphan-header"));
  EXPECT_TRUE(xpuf::lint::is_known_rule("orphan-symbol"));
  EXPECT_FALSE(xpuf::lint::is_known_rule("no-such-rule"));
}

// --- Suppression-comment grammar --------------------------------------------

TEST(LintSuppression, ParsesSingleRuleAllow) {
  const auto rules = xpuf::lint::parse_allow_comment("int x;  // xpuf-lint: allow(raw-rng)");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0], "raw-rng");
}

TEST(LintSuppression, ParsesMultiRuleAllow) {
  const auto rules =
      xpuf::lint::parse_allow_comment("// xpuf-lint: allow(raw-rng, narrowing)");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0], "raw-rng");
  EXPECT_EQ(rules[1], "narrowing");
}

TEST(LintSuppression, PlainLineHasNoAllow) {
  EXPECT_TRUE(xpuf::lint::parse_allow_comment("int x = rand_free_zone;").empty());
}

TEST(LintSuppression, AllowFileFormIsNotAPerLineAllow) {
  const std::string line = "// xpuf-lint: allow-file(raw-rng)";
  EXPECT_TRUE(xpuf::lint::parse_allow_comment(line).empty());
  const auto rules = xpuf::lint::parse_allow_file_comment(line);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0], "raw-rng");
}

TEST(LintSuppression, PerLineAllowIsNotAnAllowFile) {
  EXPECT_TRUE(
      xpuf::lint::parse_allow_file_comment("// xpuf-lint: allow(raw-rng)").empty());
}

// --- lint_source behavior ---------------------------------------------------

TEST(LintSource, FlagsRawRngOutsideCommonRng) {
  const auto v = lint_str("src/puf/demo.cpp", "std::mt19937 gen(42);\n");
  EXPECT_TRUE(has_rule(v, "raw-rng"));
}

TEST(LintSource, ExemptsTheRngImplementationItself) {
  const auto v = lint_str("src/common/rng.cpp", "std::mt19937 gen(42);\n");
  EXPECT_FALSE(has_rule(v, "raw-rng"));
}

TEST(LintSource, CommentsAndStringsAreInvisible) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "// std::mt19937 in prose is fine\n"
                          "const char* s = \"std::mt19937\";\n");
  EXPECT_FALSE(has_rule(v, "raw-rng"));
}

TEST(LintSource, TrailingAllowCoversItsOwnLine) {
  const auto v =
      lint_str("src/puf/demo.cpp", "std::mt19937 gen(42);  // xpuf-lint: allow(raw-rng)\n");
  EXPECT_FALSE(has_rule(v, "raw-rng"));
}

TEST(LintSource, CommentOnlyAllowLineCoversTheNextLine) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "// xpuf-lint: allow(raw-rng)\n"
                          "std::mt19937 gen(42);\n");
  EXPECT_FALSE(has_rule(v, "raw-rng"));
}

TEST(LintSource, AllowDoesNotLeakPastTheNextLine) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "// xpuf-lint: allow(raw-rng)\n"
                          "int unrelated = 0;\n"
                          "std::mt19937 gen(42);\n");
  EXPECT_TRUE(has_rule(v, "raw-rng"));
}

TEST(LintSource, AllowFileCoversTheWholeFile) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "// xpuf-lint: allow-file(raw-rng)\n"
                          "int unrelated = 0;\n"
                          "std::mt19937 gen(42);\n");
  EXPECT_FALSE(has_rule(v, "raw-rng"));
}

TEST(LintSource, UnknownRuleInAllowIsABadSuppression) {
  const auto v = lint_str("src/puf/demo.cpp", "// xpuf-lint: allow(no-such-rule)\n");
  EXPECT_TRUE(has_rule(v, "bad-suppression"));
}

TEST(LintSource, BadSuppressionIsItselfSuppressible) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "// xpuf-lint: allow-file(bad-suppression)\n"
                          "// xpuf-lint: allow(no-such-rule)\n");
  EXPECT_FALSE(has_rule(v, "bad-suppression"));
}

TEST(LintSource, FlagsRawSyscallsOutsideTheWrapperTu) {
  EXPECT_TRUE(has_rule(
      lint_str("src/net/async/demo.cpp",
               "if (::connect(fd, addr, len) < 0) return false;\n"),
      "raw-syscall"));
  EXPECT_TRUE(has_rule(
      lint_str("src/puf/store/demo.cpp", "if (errno == EINTR) continue;\n"),
      "raw-syscall"));
  EXPECT_TRUE(has_rule(
      lint_str("src/net/async/demo.cpp",
               "epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);\n"),
      "raw-syscall"));
}

TEST(LintSource, ExemptsTheSyscallWrapperTuItself) {
  EXPECT_FALSE(has_rule(
      lint_str("src/net/async/syscall.cpp",
               "if (errno == EINTR) continue;\n"
               "::close(fd);\n"
               "epoll_wait(ep, events, 64, timeout);\n"),
      "raw-syscall"));
}

TEST(LintSource, WrapperCallsAndQualifiedMembersAreNotRawSyscalls) {
  // sys_* wrapper calls embed the syscall name after an identifier char.
  EXPECT_FALSE(has_rule(
      lint_str("src/net/async/demo.cpp",
               "sys_epoll_wait(epoll_, wait_ms, events_);\n"),
      "raw-syscall"));
  // Class-qualified members named like syscalls (WireReader::read_u8,
  // Transport::send) are project code, not the libc symbols.
  EXPECT_FALSE(has_rule(
      lint_str("src/net/demo.cpp",
               "bool WireReader::read_u8(std::uint8_t& v) { return ok; }\n"
               "transport.send(std::move(frame));\n"),
      "raw-syscall"));
}

TEST(LintSource, FlagsNondeterminismSources) {
  const auto v = lint_str("src/sim/demo.cpp", "std::random_device rd;\n");
  EXPECT_TRUE(has_rule(v, "nondeterminism"));
  const auto exempt = lint_str("src/common/rng.cpp", "std::random_device rd;\n");
  EXPECT_FALSE(has_rule(exempt, "nondeterminism"));
}

TEST(LintSource, FlagsVectorBoolIndexingInParallelBody) {
  const auto v = lint_str("src/sim/demo.cpp",
                          "std::vector<bool> flags(n);\n"
                          "parallel_for(n, 64, [&](std::size_t b, std::size_t e,\n"
                          "                        std::size_t) {\n"
                          "  for (std::size_t i = b; i < e; ++i) flags[i] = true;\n"
                          "});\n");
  EXPECT_TRUE(has_rule(v, "vector-bool-parallel"));
}

TEST(LintSource, ByteStagingInParallelBodyIsClean) {
  const auto v = lint_str("src/sim/demo.cpp",
                          "std::vector<bool> flags(n);\n"
                          "std::vector<std::uint8_t> staged(n);\n"
                          "parallel_for(n, 64, [&](std::size_t b, std::size_t e,\n"
                          "                        std::size_t) {\n"
                          "  for (std::size_t i = b; i < e; ++i) staged[i] = 1;\n"
                          "});\n"
                          "for (std::size_t i = 0; i < n; ++i) flags[i] = staged[i] != 0;\n");
  EXPECT_FALSE(has_rule(v, "vector-bool-parallel"));
}

TEST(LintSource, FlagsHandRolledDotLoopInMl) {
  const std::string loop =
      "for (std::size_t c = 0; c < d; ++c) z += row[c] * w[c];\n";
  EXPECT_TRUE(has_rule(lint_str("src/ml/demo.cpp", loop), "ml-dot"));
  // Reversed operand order is the same dot product.
  EXPECT_TRUE(has_rule(
      lint_str("src/ml/demo.cpp", "s += w[i] * phi[i];\n"), "ml-dot"));
  // Scope is src/ml/ .cpp only; elsewhere the loop may be the kernel itself.
  EXPECT_FALSE(has_rule(lint_str("src/linalg/demo.cpp", loop), "ml-dot"));
  EXPECT_FALSE(has_rule(lint_str("src/ml/demo.hpp", loop), "ml-dot"));
  // Mismatched subscripts are not a dot product (e.g. gram accumulation).
  EXPECT_FALSE(has_rule(
      lint_str("src/ml/demo.cpp", "g(i, j) += ri * row[j];\n"), "ml-dot"));
  EXPECT_FALSE(has_rule(
      lint_str("src/ml/demo.cpp", "acc += a[i] * b[j];\n"), "ml-dot"));
  // An allow comment suppresses a sanctioned site.
  EXPECT_FALSE(has_rule(
      lint_str("src/ml/demo.cpp",
               "z += row[c] * w[c];  // xpuf-lint: allow(ml-dot)\n"),
      "ml-dot"));
}

TEST(LintSource, FlagsUnguardedPufEntryPoint) {
  const std::string body =
      "namespace xpuf::puf {\n"
      "int process(const std::vector<int>& xs) {\n"
      "  int sum = 0;\n"
      "  for (int x : xs) sum += x;\n"
      "  return sum;\n"
      "}\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_str("src/puf/demo.cpp", body), "require-guard"));
  // The same definition outside the guarded trees is not a public entry point.
  EXPECT_FALSE(has_rule(lint_str("src/analysis/demo.cpp", body), "require-guard"));
}

TEST(LintSource, GuardedPufEntryPointIsClean) {
  const auto v = lint_str("src/puf/demo.cpp",
                          "namespace xpuf::puf {\n"
                          "int process(const std::vector<int>& xs) {\n"
                          "  XPUF_REQUIRE(!xs.empty(), \"need data\");\n"
                          "  int sum = 0;\n"
                          "  for (int x : xs) sum += x;\n"
                          "  return sum;\n"
                          "}\n"
                          "}\n");
  EXPECT_FALSE(has_rule(v, "require-guard"));
}

TEST(LintSource, HeaderWithoutPragmaOnceIsFlagged) {
  EXPECT_TRUE(has_rule(lint_str("src/puf/demo.hpp", "int f();\n"), "include-order"));
  EXPECT_FALSE(
      has_rule(lint_str("src/puf/demo.hpp", "#pragma once\nint f();\n"), "include-order"));
}

TEST(LintSource, WirePortabilityFlagsMemcpyInTheWireCodec) {
  const std::string src =
      "#pragma once\n"
      "void pack(Header h, std::uint8_t* out) { std::memcpy(out, &h, 24); }\n";
  EXPECT_TRUE(has_rule(lint_str("src/net/wire.hpp", src), "wire-portability"));
  // The rule is scoped to the wire codec; the same code elsewhere is legal.
  EXPECT_FALSE(has_rule(lint_str("src/net/transport.cpp", src), "wire-portability"));
}

TEST(LintSource, WirePortabilityFlagsTypePunning) {
  EXPECT_TRUE(has_rule(
      lint_str("src/net/wire.cpp",
               "std::uint32_t peek(const std::uint8_t* p) {\n"
               "  return *reinterpret_cast<const std::uint32_t*>(p);\n"
               "}\n"),
      "wire-portability"));
  EXPECT_TRUE(has_rule(lint_str("src/net/wire.cpp",
                                "auto bits = std::bit_cast<std::uint32_t>(x);\n"),
                       "wire-portability"));
}

TEST(LintSource, WirePortabilityFlagsPlatformWidthIntegers) {
  EXPECT_TRUE(has_rule(
      lint_str("src/net/wire.cpp", "unsigned seq = 0;\n"), "wire-portability"));
  EXPECT_TRUE(has_rule(
      lint_str("src/net/wire.cpp", "std::size_t n = payload.size();\n"),
      "wire-portability"));
  // Fixed-width fields and comments mentioning the tokens are clean.
  EXPECT_FALSE(has_rule(
      lint_str("src/net/wire.cpp",
               "// never use int or size_t here\nstd::uint32_t seq = 0;\n"),
      "wire-portability"));
}

TEST(LintTidyConfig, MissingFileIsAViolation) {
  const auto v = xpuf::lint::check_tidy_config("/nonexistent/.clang-tidy");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "tidy-config");
}

}  // namespace
