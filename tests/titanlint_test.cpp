// titanlint rule-engine tests: each rule family gets a minimal fixture
// with a known violation and an exact expected diagnostic, plus the
// clean-counterpart cases that prove the rules don't over-fire (scope
// dirs, allow-markers, transitive includes, the sanctioned
// begin()/end()-into-sorted-vector drain).  The real-tree run is a
// separate ctest target (titanlint_tree) wired in tests/CMakeLists.txt.
#include "titanlint/lint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

namespace {

using titanlint::Diagnostic;
using titanlint::LintResult;
using titanlint::Severity;
using titanlint::SourceFile;

[[nodiscard]] LintResult lint_one(std::string path, std::string text) {
  const std::vector<SourceFile> files = {{std::move(path), std::move(text)}};
  return titanlint::run_lint(files);
}

[[nodiscard]] std::vector<std::string> formatted(const LintResult& result) {
  std::vector<std::string> out;
  for (const auto& d : result.diagnostics) out.push_back(titanlint::format(d));
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

TEST(Tokenizer, KeepsScopeAndArrowWhole) {
  const auto tf = titanlint::tokenize("a::b->c");
  ASSERT_EQ(tf.tokens.size(), 5U);
  EXPECT_EQ(tf.tokens[1].text, "::");
  EXPECT_EQ(tf.tokens[3].text, "->");
}

TEST(Tokenizer, SkipsCommentsAndStrings) {
  const auto tf = titanlint::tokenize(
      "int x; // std::rand()\n/* std::thread */ const char* s = \"std::rand\";\n");
  for (const auto& t : tf.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "thread");
  }
  // The string literal arrives as one token, commas and all.
  ASSERT_GE(tf.tokens.size(), 2U);
  EXPECT_EQ(tf.tokens.back().text, ";");
}

TEST(Tokenizer, RecordsIncludesWithLines) {
  const auto tf =
      titanlint::tokenize("#include <optional>\n#include \"study/io.hpp\"\nint x;\n");
  ASSERT_EQ(tf.includes.size(), 2U);
  EXPECT_EQ(tf.includes[0].header, "optional");
  EXPECT_TRUE(tf.includes[0].angled);
  EXPECT_EQ(tf.includes[1].header, "study/io.hpp");
  EXPECT_FALSE(tf.includes[1].angled);
  EXPECT_EQ(tf.includes[1].line, 2U);
}

TEST(Tokenizer, TracksLinesThroughRawStrings) {
  const auto tf = titanlint::tokenize("auto s = R\"(line\nline\n)\";\nint y;\n");
  EXPECT_EQ(tf.tokens.back().text, ";");
  EXPECT_EQ(tf.tokens.back().line, 4U);
}

TEST(Tokenizer, CollectsAllowMarkers) {
  const auto tf = titanlint::tokenize("int x; // titanlint: allow(det-rand)\n");
  EXPECT_TRUE(tf.allowed(1, "det-rand"));
  EXPECT_FALSE(tf.allowed(1, "det-thread"));
  EXPECT_FALSE(tf.allowed(2, "det-rand"));
}

// ---------------------------------------------------------------------------
// Determinism rules.
// ---------------------------------------------------------------------------

TEST(DetRand, FlagsRandSrandAndWallClockSeeding) {
  const auto result = lint_one("src/stats/fixture.cpp",
                               "void f() {\n"
                               "  int x = std::rand();\n"
                               "  srand(42);\n"
                               "  long t = time(nullptr);\n"
                               "  (void)x; (void)t;\n"
                               "}\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[0],
            "src/stats/fixture.cpp:2: error[det-rand]: std::rand is not seedable "
            "per-study; use stats::Rng");
  EXPECT_EQ(lines[1],
            "src/stats/fixture.cpp:3: error[det-rand]: std::srand is not seedable "
            "per-study; use stats::Rng");
  EXPECT_EQ(lines[2],
            "src/stats/fixture.cpp:4: error[det-rand]: time(nullptr) leaks wall-clock "
            "into the run; thread an explicit seed or timestamp through instead");
}

TEST(DetRand, FlagsRandomDevice) {
  const auto result =
      lint_one("src/fault/fixture.cpp", "auto seed() { return std::random_device{}(); }\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(result.diagnostics[0].rule, "det-rand");
  EXPECT_EQ(result.diagnostics[0].line, 1U);
}

TEST(DetRand, AllowMarkerSuppresses) {
  const auto result = lint_one(
      "src/stats/fixture.cpp",
      "int f() { return std::rand(); }  // titanlint: allow(det-rand)\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(DetRand, IgnoresMembersAndOtherNamespaces) {
  const auto result = lint_one("src/stats/fixture.cpp",
                               "int g(Rng& rng) {\n"
                               "  auto t = clock.time(nullptr_marker);\n"
                               "  return rng.rand();\n"
                               "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(DetUnorderedIter, FlagsRangeForOverUnorderedInKernelDirs) {
  const std::string body =
      "#include <unordered_map>\n"
      "void g() {\n"
      "  std::unordered_map<int, long> m;\n"
      "  for (const auto& kv : m) {\n"
      "    (void)kv;\n"
      "  }\n"
      "}\n";
  const auto result = lint_one("src/analysis/fixture.cpp", body);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/analysis/fixture.cpp:4: error[det-unordered-iter]: iteration order of "
            "'m' (std::unordered_*) is unspecified and would leak into report bytes; "
            "drain into a sorted vector first");

  // Identical code outside the determinism-sensitive dirs is fine.
  EXPECT_TRUE(lint_one("src/render/fixture.cpp", body).diagnostics.empty());

  // src/tdf decodes straight into report bytes, so it is in scope too.
  EXPECT_EQ(formatted(lint_one("src/tdf/fixture.cpp", body)).size(), 1U);
}

TEST(DetUnorderedIter, SortedDrainStaysLegal) {
  const auto result = lint_one(
      "src/study/fixture.cpp",
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "std::vector<std::pair<int, long>> h(const std::unordered_map<int, long>& m) {\n"
      "  std::vector<std::pair<int, long>> out(m.begin(), m.end());\n"
      "  std::sort(out.begin(), out.end());\n"
      "  return out;\n"
      "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(DetThread, FlagsRawThreadingOutsideSrcPar) {
  const std::string body =
      "#include <thread>\n"
      "void h() {\n"
      "  std::thread worker;\n"
      "  auto f = std::async(nothing);\n"
      "}\n";
  const auto result = lint_one("src/study/fixture.cpp", body);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0],
            "src/study/fixture.cpp:3: error[det-thread]: raw std::thread outside "
            "src/par breaks the fixed-chunk determinism contract; use titan::par "
            "primitives");
  EXPECT_EQ(result.diagnostics[1].line, 4U);

  // src/par is the blessed home of raw threads.
  EXPECT_TRUE(lint_one("src/par/fixture.cpp", body).diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Profile-layer hygiene.
// ---------------------------------------------------------------------------

TEST(ProfileHygiene, FlagsDirectK20xIncludeOutsideTheProfileLayer) {
  const std::string body =
      "#include \"gpu/k20x.hpp\"\n"
      "int f() { return 0; }\n";
  const auto result = lint_one("src/study/fixture.cpp", body);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/study/fixture.cpp:1: error[profile-hygiene]: direct include of "
            "gpu/k20x.hpp outside the profile layer hardcodes the Titan fleet; take a "
            "FleetProfile and use its .gpu model instead");

  // The layers that define the door keep their access.
  EXPECT_TRUE(lint_one("src/profile/fixture.cpp", body).diagnostics.empty());
  EXPECT_TRUE(lint_one("src/gpu/fixture.cpp", body).diagnostics.empty());
  // Tests, tools and benches are out of scope.
  EXPECT_TRUE(lint_one("tests/fixture.cpp", body).diagnostics.empty());
}

TEST(ProfileHygiene, FlagsBareTaxonomyIterationButExemptsParsers) {
  const std::string body =
      "#include \"xid/taxonomy.hpp\"\n"
      "int count() {\n"
      "  int n = 0;\n"
      "  for (const auto& info : xid::all_errors()) n += info.xid;\n"
      "  return n;\n"
      "}\n";
  const auto result = lint_one("src/analysis/fixture.cpp", body);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/analysis/fixture.cpp:4: error[profile-hygiene]: bare "
            "xid::all_errors() iterates every kind any fleet ever had; use "
            "FleetProfile::active_kinds() so inactive kinds stay out of reports");

  // Parsers must recognise every token any fleet ever wrote.
  EXPECT_TRUE(lint_one("src/parse/fixture.cpp", body).diagnostics.empty());
  // The taxonomy's own home stays free to enumerate itself.
  EXPECT_TRUE(lint_one("src/xid/fixture.cpp", body).diagnostics.empty());
}

TEST(ProfileHygiene, AllowMarkerSuppresses) {
  const auto result = lint_one(
      "src/analysis/fixture.cpp",
      "int f() {\n"
      "  int n = 0;\n"
      "  for (const auto& e : xid::all_errors()) ++n;  // titanlint: allow(profile-hygiene)\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Capability cross-check.
// ---------------------------------------------------------------------------

const char kAnalysisHelpers[] =
    "#include \"analysis/spatial.hpp\"\n"
    "namespace titan::analysis {\n"
    "int cabinet_heatmap(const EventFrame& frame, int kind) {\n"
    "  auto rows = frame.rows_of(kind);\n"
    "  return 0;\n"
    "}\n"
    "int cage_distribution(const EventFrame& frame, int kind) {\n"
    "  auto joined = frame.cards();\n"
    "  return static_cast<int>(joined.size()) + kind;\n"
    "}\n"
    "}\n";

const char kMisdeclaredRegistry[] =
    "#include \"study/registry.hpp\"\n"
    "namespace titan::study {\n"
    "namespace {\n"
    "AnalysisResult kernel_good(const StudyContext& context) {\n"
    "  auto grid = cabinet_heatmap(context.frame, 1);\n"
    "  return grid;\n"
    "}\n"
    "AnalysisResult kernel_bad(const StudyContext& ctx) {\n"
    "  auto cages = cage_distribution(ctx.frame, 2);\n"
    "  auto sweep = ctx.snapshot;\n"
    "  return cages;\n"
    "}\n"
    "}\n"
    "const AnalysisRegistry& AnalysisRegistry::standard() {\n"
    "  AnalysisRegistry r;\n"
    "  r.add({\"good\", \"well declared\", kEvents, kernel_good});\n"
    "  r.add({\"bad\", \"mis-declared\", kEvents | kTrace, kernel_bad});\n"
    "  return r;\n"
    "}\n"
    "}\n";

TEST(CapabilityCheck, MisdeclaredKernelFixture) {
  const std::vector<SourceFile> files = {
      {"src/analysis/fixture_helpers.cpp", kAnalysisHelpers},
      {"src/study/registry.cpp", kMisdeclaredRegistry},
  };
  const auto result = titanlint::run_lint(files);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 2U);
  // The error anchors on the first access the missing capability covers
  // (the cage_distribution call that reaches frame.cards()).
  EXPECT_EQ(lines[0],
            "src/study/registry.cpp:9: error[cap-undeclared]: kernel 'kernel_bad' "
            "reads kLedger|kSnapshot but analysis 'bad' declares only kEvents|kTrace");
  EXPECT_EQ(lines[1],
            "src/study/registry.cpp:17: warning[cap-unused]: analysis 'bad' declares "
            "kTrace but no access in kernel 'kernel_bad' can be attributed to it");
  EXPECT_EQ(result.error_count(), 1U);
  EXPECT_EQ(result.warning_count(), 1U);
}

TEST(CapabilityCheck, ExactDeclarationsAreClean) {
  const char registry[] =
      "namespace titan::study {\n"
      "namespace {\n"
      "AnalysisResult kernel_mixed(const StudyContext& context) {\n"
      "  auto cages = cage_distribution(context.frame, 2);\n"
      "  auto strikes = context.truth->sbe_strikes;\n"
      "  auto jobs = context.trace();\n"
      "  return cages;\n"
      "}\n"
      "}\n"
      "const AnalysisRegistry& AnalysisRegistry::standard() {\n"
      "  AnalysisRegistry r;\n"
      "  r.add({\"mixed\", \"everything used\",\n"
      "         kEvents | kLedger | kTrace | kStrikes, kernel_mixed});\n"
      "  return r;\n"
      "}\n"
      "}\n";
  const std::vector<SourceFile> files = {
      {"src/analysis/fixture_helpers.cpp", kAnalysisHelpers},
      {"src/study/registry.cpp", registry},
  };
  EXPECT_TRUE(titanlint::run_lint(files).diagnostics.empty());
}

TEST(CapabilityCheck, TruthFrameAndPeriodAttribution) {
  // The frame's root column is ground truth riding on the event frame:
  // kEvents for the member, kGroundTruth for the column.  The period is
  // unconditional context state.
  const char registry[] =
      "namespace titan::study {\n"
      "namespace {\n"
      "AnalysisResult kernel_truth(const StudyContext& context) {\n"
      "  auto roots = context.frame.roots();\n"
      "  auto begin = context.period.begin;\n"
      "  return begin;\n"
      "}\n"
      "}\n"
      "const AnalysisRegistry& AnalysisRegistry::standard() {\n"
      "  AnalysisRegistry r;\n"
      "  r.add({\"truth\", \"ground truth only\", kEvents | kGroundTruth, kernel_truth});\n"
      "  return r;\n"
      "}\n"
      "}\n";
  const std::vector<SourceFile> files = {{"src/study/registry.cpp", registry}};
  EXPECT_TRUE(titanlint::run_lint(files).diagnostics.empty());
}

TEST(CapabilityCheck, JobColumnThroughHelperNeedsGroundTruth) {
  // A helper that reads frame.jobs() makes its caller a ground-truth
  // reader, even when the kernel itself only ever names context.frame.
  const char helpers[] =
      "namespace titan::analysis {\n"
      "int interruptions(const EventFrame& frame, int kind) {\n"
      "  auto owners = frame.jobs();\n"
      "  return static_cast<int>(owners.size()) + kind;\n"
      "}\n"
      "}\n";
  const char registry[] =
      "namespace titan::study {\n"
      "namespace {\n"
      "AnalysisResult kernel_jobs(const StudyContext& context) {\n"
      "  auto hits = interruptions(context.frame, 3);\n"
      "  return hits;\n"
      "}\n"
      "}\n"
      "const AnalysisRegistry& AnalysisRegistry::standard() {\n"
      "  AnalysisRegistry r;\n"
      "  r.add({\"jobs\", \"events only\", kEvents, kernel_jobs});\n"
      "  return r;\n"
      "}\n"
      "}\n";
  const std::vector<SourceFile> files = {
      {"src/analysis/fixture_helpers.cpp", helpers},
      {"src/study/registry.cpp", registry},
  };
  const auto result = titanlint::run_lint(files);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/study/registry.cpp:4: error[cap-undeclared]: kernel 'kernel_jobs' reads "
            "kGroundTruth but analysis 'jobs' declares only kEvents");
}

// ---------------------------------------------------------------------------
// Include hygiene.
// ---------------------------------------------------------------------------

TEST(IncludeHygiene, FlagsUseWithoutReachableHeader) {
  const auto result = lint_one("src/gpu/fixture.hpp",
                               "#pragma once\n"
                               "#include <string>\n"
                               "inline std::optional<int> maybe();\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/gpu/fixture.hpp:3: error[include-hygiene]: std::optional used but "
            "<optional> is not reachable through this file's includes");
}

TEST(IncludeHygiene, DirectIncludeIsClean) {
  const auto result = lint_one("src/gpu/fixture.hpp",
                               "#pragma once\n"
                               "#include <optional>\n"
                               "inline std::optional<int> maybe();\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(IncludeHygiene, TransitiveRepoHeaderCounts) {
  const std::vector<SourceFile> files = {
      {"src/util/base.hpp", "#pragma once\n#include <span>\n"},
      {"src/util/user.cpp",
       "#include \"util/base.hpp\"\nstd::span<const int> window();\n"},
  };
  EXPECT_TRUE(titanlint::run_lint(files).diagnostics.empty());
}

TEST(IncludeHygiene, StringViewThroughStringIsNotEnough) {
  const auto result = lint_one(
      "src/render/fixture.cpp",
      "#include <string>\nint n(std::string_view s) { return (int)s.size(); }\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(result.diagnostics[0].rule, "include-hygiene");
  EXPECT_EQ(result.diagnostics[0].line, 2U);
}

// ---------------------------------------------------------------------------
// Tokenizer hardening: raw strings and comment line-continuations must
// not desync the token stream or the allow-marker scan.
// ---------------------------------------------------------------------------

TEST(Tokenizer, CommentLineContinuationStaysComment) {
  const auto tf = titanlint::tokenize(
      "// a comment ending in a continuation \\\n"
      "int x = std::rand();\n"
      "int y;\n");
  for (const auto& t : tf.tokens) EXPECT_NE(t.text, "rand");
  ASSERT_FALSE(tf.tokens.empty());
  EXPECT_EQ(tf.tokens.back().text, ";");
  EXPECT_EQ(tf.tokens.back().line, 3U);
}

TEST(Tokenizer, CrlfCommentContinuationAlsoSplices) {
  const auto tf = titanlint::tokenize(
      "// windows line \\\r\n"
      "still comment\n"
      "int z;\n");
  ASSERT_EQ(tf.tokens.size(), 3U);
  EXPECT_EQ(tf.tokens[0].text, "int");
  EXPECT_EQ(tf.tokens[0].line, 3U);
}

TEST(Tokenizer, ContinuationDoesNotDesyncAllowMarkers) {
  // The spliced second line must still count toward line numbering, so
  // the allow marker on line 3 suppresses the finding on line 3.
  const auto result = lint_one("src/stats/fixture.cpp",
                               "// note \\\n"
                               "   spliced tail of the comment\n"
                               "int f() { return std::rand(); }  // titanlint: allow(det-rand)\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(Tokenizer, RawStringContentIsNeitherCodeNorMarkers) {
  const auto tf = titanlint::tokenize(
      "auto s = R\"(// titanlint: allow(det-rand) */ std::rand())\";\n"
      "int z = std::rand();\n");
  EXPECT_FALSE(tf.allowed(1, "det-rand"));
  std::size_t rand_tokens = 0;
  for (const auto& t : tf.tokens) {
    if (t.kind == titanlint::Token::Kind::kIdentifier && t.text == "rand") ++rand_tokens;
  }
  EXPECT_EQ(rand_tokens, 1U);  // only the real one on line 2
}

TEST(Tokenizer, DelimitedRawStringWithCommentCloser) {
  const auto tf = titanlint::tokenize(
      "auto s = R\"x(text with )\" inside and */ too)x\";\n"
      "int w;\n");
  ASSERT_GE(tf.tokens.size(), 3U);
  EXPECT_EQ(tf.tokens.back().text, ";");
  EXPECT_EQ(tf.tokens.back().line, 2U);
}

// ---------------------------------------------------------------------------
// Stream discipline.
// ---------------------------------------------------------------------------

TEST(StreamDiscipline, FlagsDuplicateSiblingLabels) {
  const auto result = lint_one("src/fault/fixture.cpp",
                               "void plan(Rng& rng) {\n"
                               "  auto a = rng.fork(\"dbe\");\n"
                               "  auto b = rng.fork(\"dbe\");\n"
                               "}\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/fault/fixture.cpp:3: error[stream-collision]: fork label \"dbe\" on "
            "'rng' collides with the sibling fork at line 2; sibling labels must be "
            "unique or the two consumers share one stream");
}

TEST(StreamDiscipline, DistinctLabelsReceiversAndFunctionsAreClean) {
  EXPECT_TRUE(lint_one("src/fault/fixture.cpp",
                       "void plan(Rng& rng) {\n"
                       "  auto a = rng.fork(\"dbe\");\n"
                       "  auto b = rng.fork(\"otb\");\n"
                       "  auto c = a.fork(\"dbe\");\n"  // different receiver
                       "}\n"
                       "void other(Rng& rng) {\n"
                       "  auto a = rng.fork(\"dbe\");\n"  // different function
                       "}\n")
                  .diagnostics.empty());
}

TEST(StreamDiscipline, FlagsDynamicLabels) {
  const auto result = lint_one("src/fault/fixture.cpp",
                               "void plan(Rng& rng, std::string name) {\n"
                               "  auto a = rng.fork(name);\n"
                               "}\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/fault/fixture.cpp:2: error[stream-dynamic-label]: fork label on 'rng' "
            "is not a string literal; dynamic labels are invisible to the STREAMS.md "
            "manifest -- name the stream and use fork(label, index) for per-item "
            "streams");
}

TEST(StreamDiscipline, AllowMarkerSuppressesDynamicLabel) {
  EXPECT_TRUE(
      lint_one("src/fault/fixture.cpp",
               "void plan(Rng& rng, std::string name) {\n"
               "  auto a = rng.fork(name);  // titanlint: allow(stream-dynamic-label)\n"
               "}\n")
          .diagnostics.empty());
}

TEST(StreamDiscipline, FlagsForkInsideUnorderedIteration) {
  // src/render is outside the det-unordered-iter scope dirs, so the only
  // finding is the stream one -- the rules are independent.
  const auto result = lint_one("src/render/fixture.cpp",
                               "#include <unordered_map>\n"
                               "void g(Rng& rng) {\n"
                               "  std::unordered_map<int, int> cards;\n"
                               "  for (const auto& kv : cards) {\n"
                               "    auto r = rng.fork(\"card\", kv.first);\n"
                               "  }\n"
                               "}\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/render/fixture.cpp:5: error[stream-unordered-fork]: fork inside "
            "iteration over 'cards' (std::unordered_*, loop at line 4): fork order "
            "depends on hash layout; iterate a sorted view or fork by stable key "
            "outside the loop");
}

TEST(StreamDiscipline, IndexedForkOutsideLoopIsClean) {
  EXPECT_TRUE(lint_one("src/fault/fixture.cpp",
                       "void g(Rng& rng, std::size_t n) {\n"
                       "  for (std::size_t i = 0; i < n; ++i) {\n"
                       "    auto r = rng.fork(\"card\", i);\n"
                       "  }\n"
                       "}\n")
                  .diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Taxonomy exhaustiveness.
// ---------------------------------------------------------------------------

// A minimal TriageCode universe.  The enumerator lines carry allow
// markers for the reference rules so each test isolates one finding.
const char kTriageEnumQuiet[] =
    "enum class TriageCode : std::uint8_t {\n"
    "  kAlpha,  // titanlint: allow(taxo-dead-code) titanlint: allow(taxo-untested)\n"
    "  kBeta,  // titanlint: allow(taxo-dead-code) titanlint: allow(taxo-untested)\n"
    "  kCount_,\n"
    "};\n";

TEST(Taxonomy, FlagsDeletedCodeNameTableEntry) {
  std::string text{kTriageEnumQuiet};
  text +=
      "constexpr const char* kCodeNames[2] = {\n"
      "    \"E_ALPHA\",\n"
      "};\n";
  const auto result = lint_one("src/ingest/fixture.hpp", text);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/ingest/fixture.hpp:6: error[taxo-missing-name]: kCodeNames has 1 "
            "entries but TriageCode declares 2 values; every value needs a name row");
}

TEST(Taxonomy, FlagsEmptyNameEntry) {
  std::string text{kTriageEnumQuiet};
  text +=
      "constexpr const char* kCodeNames[2] = {\n"
      "    \"\",\n"
      "    \"E_ALPHA\",\n"
      "};\n";
  const auto lines = formatted(lint_one("src/ingest/fixture.hpp", text));
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/ingest/fixture.hpp:7: error[taxo-missing-name]: kCodeNames entry for "
            "TriageCode::kAlpha is empty");
}

TEST(Taxonomy, FlagsDuplicateNameEntries) {
  std::string text{kTriageEnumQuiet};
  text +=
      "constexpr const char* kCodeNames[2] = {\n"
      "    \"E_ALPHA\",\n"
      "    \"E_ALPHA\",\n"
      "};\n";
  const auto lines = formatted(lint_one("src/ingest/fixture.hpp", text));
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/ingest/fixture.hpp:8: error[taxo-missing-name]: duplicate kCodeNames "
            "entry \"E_ALPHA\" (first at line 7); names are wire identifiers and must "
            "be unique");
}

TEST(Taxonomy, CompleteTableAndAbsentTableAreBothClean) {
  std::string complete{kTriageEnumQuiet};
  complete +=
      "constexpr const char* kCodeNames[2] = {\n"
      "    \"E_ALPHA\",\n"
      "    \"E_BETA\",\n"
      "};\n";
  EXPECT_TRUE(lint_one("src/ingest/fixture.hpp", complete).diagnostics.empty());
  // No table in the corpus at all: narrow fixtures stay lintable.
  EXPECT_TRUE(lint_one("src/ingest/fixture.hpp", kTriageEnumQuiet).diagnostics.empty());
}

TEST(Taxonomy, FlagsDeadAndUntestedValues) {
  const std::vector<SourceFile> files = {
      {"src/ingest/fixture.hpp",
       "enum class TriageCode : std::uint8_t {\n"
       "  kUsed,\n"
       "  kGhost,\n"
       "  kCount_,\n"
       "};\n"},
      {"src/ingest/user.cpp", "auto c = TriageCode::kUsed;\n"},
      {"tests/fixture_test.cpp", "auto c = TriageCode::kUsed;\n"},
  };
  const auto result = titanlint::run_lint(files);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0],
            "src/ingest/fixture.hpp:3: error[taxo-dead-code]: TriageCode::kGhost is "
            "never referenced under src/; a taxonomy value no code can produce is dead "
            "vocabulary");
  EXPECT_EQ(lines[1],
            "src/ingest/fixture.hpp:3: error[taxo-untested]: TriageCode::kGhost never "
            "appears under tests/; add a fixture that exercises it");
}

TEST(Taxonomy, SentinelIsExemptEverywhere) {
  // kCount_ carries no allow markers in kTriageEnumQuiet and still
  // produces nothing: trailing '_' marks a sentinel.
  EXPECT_TRUE(lint_one("src/ingest/fixture.hpp", kTriageEnumQuiet).diagnostics.empty());
}

TEST(Taxonomy, FlagsSwitchWithDefaultArm) {
  const auto result = lint_one("src/ingest/fixture.cpp",
                               "bool fatal(TriageCode code) {\n"
                               "  switch (code) {\n"
                               "    case TriageCode::kAlpha: return true;\n"
                               "    default: return false;\n"
                               "  }\n"
                               "}\n");
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/ingest/fixture.cpp:4: error[taxo-switch-default]: switch over "
            "TriageCode has a 'default:' arm; enumerate every value so -Wswitch flags "
            "the next appended one at compile time");
}

TEST(Taxonomy, FlagsSwitchMissingAnEnumerator) {
  const std::vector<SourceFile> files = {
      {"src/ingest/fixture.hpp", kTriageEnumQuiet},
      {"src/ingest/user.cpp",
       "bool fatal(TriageCode code) {\n"
       "  switch (code) {\n"
       "    case TriageCode::kAlpha: return true;\n"
       "    case TriageCode::kCount_: return false;\n"
       "  }\n"
       "  return false;\n"
       "}\n"},
  };
  const auto result = titanlint::run_lint(files);
  const auto lines = formatted(result);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_EQ(lines[0],
            "src/ingest/user.cpp:2: error[taxo-switch-default]: switch over TriageCode "
            "does not handle kBeta; every value needs an explicit arm");
}

TEST(Taxonomy, ExhaustiveSwitchIsClean) {
  const std::vector<SourceFile> files = {
      {"src/ingest/fixture.hpp", kTriageEnumQuiet},
      {"src/ingest/user.cpp",
       "bool fatal(TriageCode code) {\n"
       "  switch (code) {\n"
       "    case TriageCode::kAlpha: return true;\n"
       "    case TriageCode::kBeta: return false;\n"
       "  }\n"
       "  return false;\n"  // sentinel arm optional
       "}\n"},
  };
  EXPECT_TRUE(titanlint::run_lint(files).diagnostics.empty());
}

// ---------------------------------------------------------------------------
// STREAMS.md manifest.
// ---------------------------------------------------------------------------

const char kManifestHeader[] =
    "# RNG stream manifest\n"
    "\n"
    "Every named `fork` call site under `src/`, extracted statically by\n"
    "`titanlint --streams` (rule family `stream-*`).  A child stream's\n"
    "sequence depends only on (parent seed, label), so this file is the\n"
    "repo's determinism contract: a diff here means a stream was added,\n"
    "renamed or moved, and golden outputs may shift.  Commit the diff\n"
    "together with the change that caused it.  Regenerate with:\n"
    "\n"
    "    ./build/tools/titanlint --root . --streams > STREAMS.md\n";

TEST(StreamsManifest, ExactRenderingAndInputOrderIndependence) {
  const SourceFile a{"src/fault/a.cpp",
                     "void plan(Rng& rng) {\n"
                     "  auto dbe = rng.fork(\"dbe\");\n"
                     "  dbe.fork(\"x\", i);\n"
                     "}\n"};
  const SourceFile b{"src/core/b.cpp",
                     "void seed(Rng& master) {\n"
                     "  auto users = master.fork(\"users\");\n"
                     "}\n"};
  std::string expected{kManifestHeader};
  expected +=
      "\n## src/core/b.cpp\n"
      "\n- `seed`\n"
      "  - `master` -> `\"users\"` => `users`\n"
      "\n## src/fault/a.cpp\n"
      "\n- `plan`\n"
      "  - `dbe` -> `\"x\"` [indexed]\n"
      "  - `rng` -> `\"dbe\"` => `dbe`\n"
      "\n---\n\n3 streams across 2 files.\n";

  const std::vector<SourceFile> forward = {a, b};
  const std::vector<SourceFile> reverse = {b, a};
  EXPECT_EQ(titanlint::streams_manifest(forward), expected);
  // Byte-identical whatever order the files arrive in.
  EXPECT_EQ(titanlint::streams_manifest(reverse), expected);
}

TEST(StreamsManifest, EmptyTreeRendersHeaderAndZeroCount) {
  const std::vector<SourceFile> files = {{"src/core/quiet.cpp", "int x;\n"}};
  std::string expected{kManifestHeader};
  expected += "\n---\n\n0 streams across 0 files.\n";
  EXPECT_EQ(titanlint::streams_manifest(files), expected);
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

TEST(JsonOutput, OneObjectPerFindingAndEscaping) {
  const auto result = lint_one("src/stats/fixture.cpp", "int x = std::rand();\n");
  EXPECT_EQ(titanlint::to_json(result),
            "[\n"
            "  {\"path\": \"src/stats/fixture.cpp\", \"line\": 1, \"severity\": "
            "\"error\", \"rule\": \"det-rand\", \"message\": \"std::rand is not "
            "seedable per-study; use stats::Rng\"}\n"
            "]\n");

  // Quotes inside messages (stream-collision embeds the label) escape.
  const auto collision = lint_one("src/fault/fixture.cpp",
                                  "void plan(Rng& rng) {\n"
                                  "  auto a = rng.fork(\"dbe\");\n"
                                  "  auto b = rng.fork(\"dbe\");\n"
                                  "}\n");
  const auto json = titanlint::to_json(collision);
  EXPECT_NE(json.find("fork label \\\"dbe\\\""), std::string::npos);
}

TEST(JsonOutput, EmptyResultIsEmptyArray) {
  EXPECT_EQ(titanlint::to_json(lint_one("src/core/quiet.cpp", "int x;\n")), "[]\n");
}

TEST(DetRand, TestSourcesAreSymbolEvidenceOnly) {
  // tests/ feeds the symbol table but per-file rules skip it.
  EXPECT_TRUE(lint_one("tests/fixture.cpp", "int x = std::rand();\n").diagnostics.empty());
}

// ---------------------------------------------------------------------------
// I/O atomicity (crash consistency).
// ---------------------------------------------------------------------------

TEST(IoAtomic, FlagsNonAtomicArtifactWrite) {
  const auto result = lint_one("src/ops/export.cpp",
                               "void dump(const Ctx& c) {\n"
                               "  write_text(dir / \"manifest.txt\", text);\n"
                               "}\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(formatted(result)[0],
            "src/ops/export.cpp:2: error[io-atomic]: non-atomic write_text of dataset "
            "artifact 'manifest.txt'; route it through study::io atomic_write_* so a "
            "crash cannot leave a half-written artifact");
}

TEST(IoAtomic, FlagsRawOfstreamAimedAtAnArtifact) {
  const auto result = lint_one("src/ops/export.cpp",
                               "void dump(const Ctx& c) {\n"
                               "  std::ofstream out{dir / \"dataset.tdf\"};\n"
                               "  out << bytes;\n"
                               "}\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(formatted(result)[0],
            "src/ops/export.cpp:2: error[io-atomic]: raw std::ofstream aimed at dataset "
            "artifact 'dataset.tdf'; route it through study::io atomic_write_* so a "
            "crash cannot leave a half-written artifact");
}

TEST(IoAtomic, ShardContainersMatchOnTheirStem) {
  const auto result = lint_one("src/ops/export.cpp",
                               "void dump(const Ctx& c) {\n"
                               "  write_lines(dir / (\"dataset.shard-\" + n + \".tdf\"),"
                               " lines);\n"
                               "}\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(formatted(result)[0],
            "src/ops/export.cpp:2: error[io-atomic]: non-atomic write_lines of dataset "
            "artifact 'dataset.shard-*.tdf'; route it through study::io atomic_write_* "
            "so a crash cannot leave a half-written artifact");
}

TEST(IoAtomic, NonArtifactAndCarveOutWritesAreClean) {
  // A write aimed at something that is not a dataset artifact is fine.
  EXPECT_TRUE(lint_one("src/ops/export.cpp",
                       "void dump(const Ctx& c) {\n"
                       "  write_text(dir / \"notes.txt\", text);\n"
                       "}\n")
                  .diagnostics.empty());
  // The corruption injector's whole job is non-atomic mutation.
  EXPECT_TRUE(lint_one("src/ingest/corrupt.cpp",
                       "void corrupt(const Ctx& c) {\n"
                       "  std::ofstream out{dir / \"manifest.txt\"};\n"
                       "}\n")
                  .diagnostics.empty());
  // study::io itself implements the primitives.
  EXPECT_TRUE(lint_one("src/study/io.cpp",
                       "void write_text(const P& p, S text) {\n"
                       "  std::ofstream out{p};\n"
                       "}\n")
                  .diagnostics.empty());
}

TEST(IoAtomic, FlagsAtomicWriteWithoutAKillPoint) {
  const auto result = lint_one("src/study/seal.cpp",
                               "void seal_shard(const P& dir) {\n"
                               "  atomic_write_text(dir / file, encoded);\n"
                               "}\n");
  ASSERT_EQ(result.diagnostics.size(), 1U);
  EXPECT_EQ(formatted(result)[0],
            "src/study/seal.cpp:2: error[io-atomic]: atomic write in 'seal_shard' has "
            "no TITAN_PTP kill point on its path; add one so crash sweeps exercise "
            "this durable-state transition");
}

TEST(IoAtomic, KillPointOnThePathIsClean) {
  EXPECT_TRUE(lint_one("src/study/seal.cpp",
                       "void seal_shard(const P& dir) {\n"
                       "  TITAN_PTP(\"study/shard/encoded\");\n"
                       "  atomic_write_text(dir / file, encoded);\n"
                       "  TITAN_PTP(\"study/shard/sealed\");\n"
                       "}\n")
                  .diagnostics.empty());
}

TEST(IoAtomic, KillPointCheckScopesToTheDurableLayers) {
  // Outside src/study, src/tdf and src/ckpt an atomic_write_* call has no
  // kill-point obligation (there is nothing for a crash sweep to resume).
  EXPECT_TRUE(lint_one("src/ops/export.cpp",
                       "void dump(const P& dir) {\n"
                       "  atomic_write_text(dir / \"report.txt\", text);\n"
                       "}\n")
                  .diagnostics.empty());
  // Declarations at file scope are not calls.
  EXPECT_TRUE(lint_one("src/study/seal.hpp",
                       "void atomic_write_text(const P& path, S text);\n")
                  .diagnostics.empty());
}

TEST(IoAtomic, AllowMarkerSuppresses) {
  EXPECT_TRUE(lint_one("src/study/seal.cpp",
                       "void seal_shard(const P& dir) {\n"
                       "  atomic_write_text(dir / file, encoded);"
                       "  // titanlint: allow(io-atomic)\n"
                       "}\n")
                  .diagnostics.empty());
}

}  // namespace
