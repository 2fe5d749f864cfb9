// Runtime capability guard: FrameGuardScope semantics, and the agreement
// check promised by the contract -- running every registered paper
// analysis under per-kernel guard scopes must produce zero violations,
// i.e. the registry's declared capability masks really cover every
// EventFrame column the kernels touch (the same property titanlint's
// cap-undeclared rule proves statically).
#include "analysis/frame_guard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "analysis/event_frame.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

using analysis::EventFrame;
using analysis::FrameGuardScope;
namespace frame_guard = analysis::frame_guard;

std::atomic<unsigned> g_violations{0};
std::atomic<unsigned> g_last_column{0};

void recording_handler(unsigned column, unsigned) noexcept {
  g_violations.fetch_add(1);
  g_last_column.store(column);
}

/// Install the recording handler for one test, restoring the previous
/// (aborting) handler on the way out.
class RecordingHandler {
 public:
  RecordingHandler() : previous_{frame_guard::set_handler(&recording_handler)} {
    g_violations.store(0);
    g_last_column.store(0);
  }
  ~RecordingHandler() { frame_guard::set_handler(previous_); }

 private:
  frame_guard::Handler previous_;
};

[[nodiscard]] EventFrame small_frame() {
  std::vector<parse::ParsedEvent> events;
  for (int i = 0; i < 8; ++i) {
    events.push_back(parse::ParsedEvent{
        1000 + 60 * i, static_cast<topology::NodeId>(i),
        i % 2 == 0 ? xid::ErrorKind::kDoubleBitError : xid::ErrorKind::kOffTheBus,
        xid::MemoryStructure::kNone});
  }
  return EventFrame::build(std::span<const parse::ParsedEvent>{events});
}

TEST(FrameGuard, EverythingAllowedOutsideAnyScope) {
  const RecordingHandler handler;
  const auto frame = small_frame();
  (void)frame.times();
  (void)frame.cards();
  (void)frame.jobs();
  (void)frame.roots();
  EXPECT_EQ(g_violations.load(), 0U);
}

TEST(FrameGuard, ScopeRestrictsColumnGroups) {
  const RecordingHandler handler;
  const auto frame = small_frame();
  const FrameGuardScope scope{analysis::kColumnBase};
  (void)frame.times();
  (void)frame.count_of(xid::ErrorKind::kDoubleBitError);
  (void)frame.rows_of(xid::ErrorKind::kOffTheBus);
  EXPECT_EQ(g_violations.load(), 0U);

  (void)frame.cards();
  EXPECT_EQ(g_violations.load(), 1U);
  EXPECT_EQ(g_last_column.load(), unsigned{analysis::kColumnCards});

  (void)frame.roots();
  EXPECT_EQ(g_violations.load(), 2U);
  EXPECT_EQ(g_last_column.load(), unsigned{analysis::kColumnJobs});
}

TEST(FrameGuard, SnapshotOnlyMaskBlocksEvenBaseColumns) {
  // A kernel declaring only kSnapshot (no frame capability at all) gets a
  // zero column mask: its first frame read of any column must trip.
  const RecordingHandler handler;
  const auto frame = small_frame();
  const FrameGuardScope scope{0U};
  (void)frame.times();
  EXPECT_EQ(g_violations.load(), 1U);
  EXPECT_EQ(g_last_column.load(), unsigned{analysis::kColumnBase});
}

TEST(FrameGuard, ScopesNestAndRestore) {
  const RecordingHandler handler;
  const auto frame = small_frame();
  {
    const FrameGuardScope outer{analysis::kColumnBase | analysis::kColumnCards};
    {
      const FrameGuardScope inner{analysis::kColumnBase};
      (void)frame.cards();
      EXPECT_EQ(g_violations.load(), 1U);
    }
    (void)frame.cards();  // outer mask restored
    EXPECT_EQ(g_violations.load(), 1U);
  }
  (void)frame.jobs();  // back to allow-all
  EXPECT_EQ(g_violations.load(), 1U);
}

TEST(FrameGuard, ColumnNamesForDiagnostics) {
  EXPECT_STREQ(frame_guard::column_name(analysis::kColumnBase), "base");
  EXPECT_STREQ(frame_guard::column_name(analysis::kColumnCards), "cards");
  EXPECT_STREQ(frame_guard::column_name(analysis::kColumnJobs), "jobs");
}

TEST(FrameGuard, RegistrySweepAgreesWithDeclaredCapabilities) {
  // The acceptance check: all ten paper analyses, run as the registry
  // sweep with per-kernel guard scopes installed, read only columns
  // their declared masks license.
  const RecordingHandler handler;
  const auto context = study::SimulatedSource{core::quick_config(6)}.load();

  // The sweep's zero below means something only if the registry really
  // installs a scope per kernel: a kernel whose mask omits kLedger and
  // reads cards() anyway must be recorded.
  study::AnalysisRegistry misdeclared;
  misdeclared.add({"reads_cards", "declares kEvents, reads the ledger join", study::kEvents,
                   [](const study::StudyContext& ctx) {
                     (void)ctx.frame.cards();
                     return study::AnalysisResult{"reads_cards", {}, {}};
                   }});
  const std::vector<std::string> selection{"reads_cards"};
  (void)misdeclared.run(context, selection);
  ASSERT_EQ(g_violations.load(), 1U);
  EXPECT_EQ(g_last_column.load(), unsigned{analysis::kColumnCards});
  g_violations.store(0);

  const auto report = study::AnalysisRegistry::standard().run_all(context);
  EXPECT_EQ(report.results.size(), 10U);
  EXPECT_EQ(g_violations.load(), 0U);
}

}  // namespace
}  // namespace titan
