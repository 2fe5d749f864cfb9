// Study-layer pipeline tests: one StudyContext from each source kind, the
// registry sweep, and the two determinism guarantees the layer makes --
// byte-identical reports at any titan::par width, and byte-identical
// reports between a simulated study and a dataset round-trip of the same
// seed on the capability set they share.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/frequency.hpp"
#include "analysis/reliability_report.hpp"
#include "logsim/console.hpp"
#include "par/pool.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"

namespace titan {
namespace profile {

// Print a profile parameter by its name, so test names are stable.
void PrintTo(const FleetProfile* fleet, std::ostream* os) { *os << fleet->name; }

}  // namespace profile

namespace {

constexpr std::uint64_t kSeed = 29;

/// RAII pool-width override (restores the previous width on scope exit).
class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::size_t threads) : saved_{par::thread_count()} {
    par::set_threads(threads);
  }
  ~ThreadsGuard() { par::set_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::size_t saved_;
};

const study::StudyContext& simulated() {
  static const study::StudyContext context =
      study::SimulatedSource{core::quick_config(kSeed)}.load();
  return context;
}

const study::AnalysisRegistry& registry() { return study::AnalysisRegistry::standard(); }

/// An events-only context sharing the simulated stream (what a bare
/// console log yields).
study::StudyContext events_only() {
  study::StudyContext context;
  context.period = simulated().period;
  context.accounting_from = simulated().accounting_from;
  context.frame = simulated().frame.slice(0, simulated().frame.size());
  context.capabilities = study::kEvents;
  return context;
}

TEST(StudyRegistry, RegistersTheTenPaperAnalyses) {
  const std::vector<std::string> expected = {
      "frequency",    "spatial",     "xid_matrix",  "sbe_study",
      "retirement",   "interruption", "prediction",  "utilization",
      "reliability_report", "workload_char"};
  EXPECT_EQ(registry().names(), expected);
  for (const auto& name : expected) {
    const auto* entry = registry().find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_FALSE(entry->description.empty()) << name;
    EXPECT_NE(entry->needs, 0U) << name;
  }
  EXPECT_EQ(registry().find("no_such_analysis"), nullptr);
}

TEST(StudyRegistry, DuplicateRegistrationThrows) {
  study::AnalysisRegistry local;
  local.add({"census", "a", study::kEvents, [](const study::StudyContext&) {
               return study::AnalysisResult{};
             }});
  EXPECT_THROW(local.add({"census", "b", study::kEvents,
                          [](const study::StudyContext&) {
                            return study::AnalysisResult{};
                          }}),
               std::invalid_argument);
}

TEST(StudyRegistry, AvailabilityFollowsContextCapabilities) {
  // The simulated context carries every capability, so everything runs.
  EXPECT_EQ(registry().available(simulated()), registry().names());

  // An events-only context supports exactly the kernels that read nothing
  // but the frame and the period.
  const std::vector<std::string> expected = {"frequency", "xid_matrix", "retirement",
                                             "prediction"};
  EXPECT_EQ(registry().available(events_only()), expected);
}

TEST(StudyRegistry, UnknownOrUnavailableSelectionThrows) {
  const std::vector<std::string> unknown = {"frequency", "no_such_analysis"};
  EXPECT_THROW((void)registry().run(simulated(), unknown), std::invalid_argument);

  const std::vector<std::string> needs_trace = {"utilization"};
  EXPECT_THROW((void)registry().run(events_only(), needs_trace), std::invalid_argument);
}

TEST(StudyRegistry, SweepMatchesDirectKernelCalls) {
  const auto sweep = registry().run_all(simulated());
  ASSERT_EQ(sweep.results.size(), registry().names().size());
  for (const auto& name : registry().names()) {
    const std::vector<std::string> one = {name};
    const auto single = registry().run(simulated(), one);
    ASSERT_EQ(single.results.size(), 1U);
    const auto* swept = sweep.find(name);
    ASSERT_NE(swept, nullptr) << name;
    EXPECT_EQ(*swept, single.results[0]) << name;
  }
}

TEST(StudyRegistry, SweepMatchesDirectCallsAtThreadWidths) {
  // The parallel sweep must reproduce direct one-kernel invocations byte
  // for byte at serial and wide pool widths alike, and the rendered report
  // must not vary with the width either.
  std::string text_at_1, json_at_1;
  for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    const ThreadsGuard guard{width};
    const auto context = study::SimulatedSource{core::quick_config(17)}.load();
    const auto sweep = registry().run_all(context);
    for (const auto& name : registry().names()) {
      const std::vector<std::string> one = {name};
      const auto direct = registry().run(context, one);
      ASSERT_EQ(direct.results.size(), 1U) << name;
      const auto* swept = sweep.find(name);
      ASSERT_NE(swept, nullptr) << name;
      EXPECT_EQ(*swept, direct.results[0]) << name << " at width " << width;
    }
    if (width == 1) {
      text_at_1 = sweep.text();
      json_at_1 = sweep.json();
    } else {
      EXPECT_EQ(sweep.text(), text_at_1);
      EXPECT_EQ(sweep.json(), json_at_1);
    }
  }
}

TEST(StudyReport, SectionsAppearInSelectionOrder) {
  const std::vector<std::string> selection = {"retirement", "frequency"};
  const auto report = registry().run(simulated(), selection);
  ASSERT_EQ(report.results.size(), 2U);
  EXPECT_EQ(report.results[0].name, "retirement");
  EXPECT_EQ(report.results[1].name, "frequency");
  const auto text = report.text();
  EXPECT_LT(text.find("-- retirement "), text.find("-- frequency "));
  const auto json = report.json();
  EXPECT_LT(json.find("\"retirement\""), json.find("\"frequency\""));
}

TEST(StudyReport, FrequencyKernelMatchesAnalysisLayer) {
  const std::vector<std::string> selection = {"frequency"};
  const auto report = registry().run(simulated(), selection);
  const auto* result = report.find("frequency");
  ASSERT_NE(result, nullptr);

  const auto* kinds = result->json.find("kinds");
  ASSERT_NE(kinds, nullptr);
  const auto* dbe = kinds->find("DBE");
  ASSERT_NE(dbe, nullptr);
  EXPECT_EQ(dbe->at("events").as_uint(),
            simulated().frame.count_of(xid::ErrorKind::kDoubleBitError));

  const auto mtbf = analysis::kind_mtbf(simulated().frame, xid::ErrorKind::kDoubleBitError,
                                        simulated().period.begin, simulated().period.end);
  EXPECT_DOUBLE_EQ(dbe->at("mtbf_hours").as_double(), mtbf.mtbf_hours);
}

TEST(StudyReport, ReliabilityKernelMatchesAnalysisLayer) {
  const std::vector<std::string> selection = {"reliability_report"};
  const auto report = registry().run(simulated(), selection);
  const auto* result = report.find("reliability_report");
  ASSERT_NE(result, nullptr);

  const auto expected = analysis::mtbf_report(simulated().frame, simulated().period.begin,
                                              simulated().period.end);
  const auto* measured = result->json.find("measured");
  ASSERT_NE(measured, nullptr);
  EXPECT_EQ(measured->at("event_count").as_uint(), expected.measured.event_count);
  EXPECT_DOUBLE_EQ(measured->at("mtbf_hours").as_double(), expected.measured.mtbf_hours);
  EXPECT_DOUBLE_EQ(result->json.at("improvement_factor").as_double(),
                   expected.improvement_factor);
}

TEST(StudyPipeline, ReportBytesIdenticalAcrossThreadWidths) {
  // Full pipeline under each width: load (frame build) + sweep.
  std::string text_1, json_1, text_8, json_8;
  {
    const ThreadsGuard guard{1};
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    const auto report = registry().run_all(context);
    text_1 = report.text();
    json_1 = report.json();
  }
  {
    const ThreadsGuard guard{8};
    const auto context = study::SimulatedSource{core::quick_config(kSeed)}.load();
    const auto report = registry().run_all(context);
    text_8 = report.text();
    json_8 = report.json();
  }
  EXPECT_EQ(text_1, text_8);
  EXPECT_EQ(json_1, json_8);
}

TEST(StudyPipeline, DatasetRoundTripReproducesSimulatedReportBytes) {
  const auto& sim = simulated();
  const auto dir =
      std::filesystem::path{::testing::TempDir()} / "titanrel_study_roundtrip";
  study::write_dataset(sim, dir);

  const auto loaded = study::DatasetSource{dir}.load();
  EXPECT_EQ(loaded.period.begin, sim.period.begin);
  EXPECT_EQ(loaded.period.end, sim.period.end);
  EXPECT_EQ(loaded.accounting_from, sim.accounting_from);
  EXPECT_EQ(loaded.frame, sim.frame.slice(0, sim.frame.size()));
  EXPECT_TRUE(loaded.has(study::kEvents | study::kSnapshot));
  EXPECT_FALSE(loaded.has(study::kGroundTruth));

  // On the capability set both sources share, the reports must be
  // byte-identical: kernels read only what they declare.
  const auto shared = registry().available(loaded);
  EXPECT_EQ(shared.size(), 6U);
  const auto from_sim = registry().run(sim, shared);
  const auto from_dataset = registry().run(loaded, shared);
  EXPECT_EQ(from_sim.text(), from_dataset.text());
  EXPECT_EQ(from_sim.json(), from_dataset.json());
}

TEST(StudyPipeline, DatasetSourceWithoutConsoleLogThrows) {
  const auto dir = std::filesystem::path{::testing::TempDir()} / "titanrel_study_empty";
  std::filesystem::create_directories(dir);
  EXPECT_THROW((void)study::DatasetSource{dir}.load(), std::runtime_error);
}

TEST(StudyPipeline, WriteDatasetWithoutTruthRoundTripsEventsOnly) {
  // Contexts without ground truth (e.g. a re-loaded dataset) are writable
  // in both formats: the console/job/smi artifacts are re-rendered from
  // the frame instead of the simulation trace.
  const auto context = events_only();
  for (const auto& [format, tag] :
       {std::pair{study::DatasetFormat::kText, "text"},
        std::pair{study::DatasetFormat::kBinary, "binary"}}) {
    const auto dir = std::filesystem::path{::testing::TempDir()} /
                     (std::string{"titanrel_study_no_truth_"} + tag);
    study::write_dataset(context, dir, format);
    const auto loaded = study::DatasetSource{dir}.load();
    EXPECT_EQ(loaded.frame, context.frame) << tag;
    EXPECT_EQ(loaded.period.begin, context.period.begin) << tag;
    EXPECT_EQ(loaded.period.end, context.period.end) << tag;
    EXPECT_EQ(loaded.load_stats.binary, format == study::DatasetFormat::kBinary) << tag;
  }
}

TEST(StudyPipeline, WritersFollowSnapshotCapability) {
  // Every writer decides smi presence from kSnapshot alone, so a reload
  // never gains a capability its source lacked -- ground truth included.
  auto context = simulated();
  context.capabilities &= ~static_cast<unsigned>(study::kSnapshot);
  const auto root = std::filesystem::path{::testing::TempDir()} / "titanrel_no_snapshot";
  study::write_dataset(context, root / "text", study::DatasetFormat::kText);
  EXPECT_FALSE(std::filesystem::exists(root / "text" / "smi_sweep.txt"));
  study::write_dataset(context, root / "binary", study::DatasetFormat::kBinary);
  (void)study::write_sharded_dataset(context, root / "sharded", 3);
  for (const char* layout : {"text", "binary", "sharded"}) {
    const auto loaded = study::DatasetSource{root / layout}.load();
    EXPECT_TRUE(loaded.has(study::kEvents)) << layout;
    EXPECT_FALSE(loaded.has(study::kSnapshot)) << layout;
    EXPECT_EQ(loaded.frame, context.frame.slice(0, context.frame.size())) << layout;
  }
}

class WriteTimeConsole : public testing::TestWithParam<const profile::FleetProfile*> {};

TEST_P(WriteTimeConsole, MatchesEagerEmit) {
  // Oracle: the eager renderer over the ground-truth events, which is how
  // the simulator's console log was produced before it was rendered at
  // write time.  The profiles word their descriptions differently.
  const auto& fleet = *GetParam();
  const auto context = study::SimulatedSource{core::quick_config(kSeed, fleet)}.load();
  std::string expected;
  for (const auto& line : logsim::emit_console_log(context.truth->events, fleet)) {
    expected += line;
    expected += '\n';
  }
  EXPECT_EQ(context.load_stats.console_lines, context.frame.size());

  // The write-time renderer is parallel: its bytes must not depend on the
  // pool width.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadsGuard width{threads};
    const auto root = std::filesystem::path{::testing::TempDir()} /
                      ("titanrel_console_" + std::string{fleet.name} + "_" +
                       std::to_string(threads));
    study::write_dataset(context, root / "simulated", study::DatasetFormat::kText);
    EXPECT_TRUE(study::read_all(root / "simulated" / "console.log") == expected) << threads;

    // A loaded dataset has no ground truth; rewriting it renders the same
    // bytes from its frame.
    const auto loaded = study::DatasetSource{root / "simulated"}.load();
    EXPECT_EQ(loaded.load_stats.console_lines, loaded.frame.size()) << threads;
    study::write_dataset(loaded, root / "rewritten", study::DatasetFormat::kText);
    EXPECT_TRUE(study::read_all(root / "rewritten" / "console.log") == expected) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, WriteTimeConsole,
                         testing::ValuesIn(profile::builtin_profiles().begin(),
                                           profile::builtin_profiles().end()));

TEST(StudyContext, TraceThrowsWithoutGroundTruth) {
  const auto context = events_only();
  EXPECT_THROW((void)context.trace(), std::logic_error);
}

}  // namespace
}  // namespace titan
