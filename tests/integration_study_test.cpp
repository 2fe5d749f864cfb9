// End-to-end pipeline tests: one SimulatedSource StudyContext drives
// everything -- the console-recovered view must agree with ground truth,
// and the paper's methodology (filtering, joins, smi cross-check) must
// behave as described when driven through the study layer.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/frequency.hpp"
#include "analysis/reliability_report.hpp"
#include "logsim/console.hpp"
#include "logsim/joblog.hpp"
#include "parse/console.hpp"
#include "parse/filter.hpp"
#include "parse/sec.hpp"
#include "study/source.hpp"

namespace titan {
namespace {

const study::StudyContext& context() {
  static const study::StudyContext ctx =
      study::SimulatedSource{core::quick_config(21)}.load();
  return ctx;
}

const core::StudyDataset& truth() { return *context().truth; }

/// The console log the SMW would have recorded, rendered from ground
/// truth.
const std::vector<std::string>& console_log() {
  static const auto lines = logsim::emit_console_log(truth().events, *context().profile);
  return lines;
}

/// The frame's XID 13 rows as ParsedEvents, the input parse::filter_events
/// takes.
std::vector<parse::ParsedEvent> xid13_rows() {
  constexpr auto kXid13 = xid::ErrorKind::kGraphicsEngineException;
  const auto& frame = context().frame;
  std::vector<parse::ParsedEvent> rows;
  for (const auto row : frame.rows_of(kXid13)) {
    rows.push_back(parse::ParsedEvent{frame.times()[row], frame.nodes()[row], kXid13,
                                      frame.structures()[row]});
  }
  return rows;
}

TEST(Integration, SimulatedContextCarriesEveryCapability) {
  EXPECT_TRUE(context().has(study::kEvents | study::kLedger | study::kSnapshot |
                            study::kTrace | study::kGroundTruth | study::kStrikes));
  EXPECT_EQ(context().load_stats.console_lines, context().frame.size());
  EXPECT_EQ(console_log().size(), context().frame.size());
}

TEST(Integration, ConsoleLogRoundTripsLosslessly) {
  // Re-parsing the emitted log must recover the frame's stream exactly:
  // the parsed frame equals the context frame's base columns rebuilt
  // without the ledger and job joins a console line cannot carry.
  const auto parsed = parse::parse_console_log(console_log());
  EXPECT_EQ(parsed.malformed_lines, 0U);
  const auto& frame = context().frame;
  EXPECT_EQ(analysis::EventFrame::build(std::span<const parse::ParsedEvent>{parsed.events}),
            frame.slice(0, frame.size()));
}

TEST(Integration, FiveSecondFilterRecoversGroundTruthRoots) {
  // The paper's 5 s rule must recover (approximately) the true root count
  // for XID 13: one root per crashing debug job.  Ground truth comes off
  // the frame's root column.
  const auto xid13 = xid13_rows();
  const auto filtered = parse::filter_events(xid13, parse::FilterParams{5.0});

  std::size_t true_roots = 0;
  const auto roots = context().frame.roots();
  for (const auto row :
       context().frame.rows_of(xid::ErrorKind::kGraphicsEngineException)) {
    if (roots[row] != 0) ++true_roots;
  }
  // Machine-wide dedup can merge two genuinely distinct roots that land
  // within 5 s of each other, so filtered <= true is the guarantee; they
  // must agree within a few percent.
  EXPECT_LE(filtered.roots.size(), true_roots);
  EXPECT_GT(static_cast<double>(filtered.roots.size()), 0.85 * static_cast<double>(true_roots));
}

TEST(Integration, FilteredChildrenAreMostlyTrueChildren) {
  const auto xid13 = xid13_rows();
  const auto filtered = parse::filter_events(xid13, parse::FilterParams{5.0});
  std::size_t true_children = 0;
  const auto roots = context().frame.roots();
  for (const auto row :
       context().frame.rows_of(xid::ErrorKind::kGraphicsEngineException)) {
    if (roots[row] == 0) ++true_children;
  }
  EXPECT_GE(filtered.children.size(), true_children);
}

TEST(Integration, MtbfReportFromStudyFrame) {
  const auto report = analysis::mtbf_report(context().frame, context().period.begin,
                                            context().period.end);
  EXPECT_GT(report.measured.event_count, 0U);
  EXPECT_GT(report.measured.mtbf_hours, 40.0);
  EXPECT_GT(report.improvement_factor, 1.0);  // field beats datasheet (Obs. 1)
}

TEST(Integration, SmiConsoleComparisonShowsUndercount) {
  const auto cmp = analysis::smi_console_comparison(context().frame, context().snapshot);
  EXPECT_GT(cmp.console_dbe_count, 0U);
  EXPECT_LE(cmp.smi_dbe_count, cmp.console_dbe_count);  // Observation 2
}

TEST(Integration, JobLogRoundTrips) {
  const auto lines = logsim::emit_job_log(truth().trace);
  ASSERT_EQ(lines.size(), truth().trace.jobs().size());
  for (std::size_t i = 0; i < lines.size(); i += 503) {
    const auto rec = logsim::parse_job_log_line(lines[i]);
    ASSERT_TRUE(rec.has_value()) << lines[i];
    const auto& job = truth().trace.jobs()[i];
    EXPECT_EQ(rec->id, job.id);
    EXPECT_EQ(rec->user, job.user);
    EXPECT_EQ(rec->start, job.start);
    EXPECT_EQ(rec->node_count, job.nodes.size());
    EXPECT_NEAR(rec->gpu_core_hours, job.gpu_core_hours, 1e-3);
  }
}

TEST(Integration, SecSeesEveryConsoleEvent) {
  parse::SimpleEventCorrelator sec{parse::default_gpu_rules()};
  (void)sec.process(console_log());
  std::uint64_t total = 0;
  for (const auto& info : xid::all_errors()) {
    if (info.kind == xid::ErrorKind::kSingleBitError) continue;
    total += sec.match_count(std::string{"gpu-"} + std::string{xid::token(info.kind)});
  }
  EXPECT_EQ(total, console_log().size());
}

TEST(Integration, BadNodeAnecdoteVisibleInPerNodeFilter) {
  // Observation 8: the bad node's XID 13 rate stands out when events are
  // deduped per node.
  const auto xid13 = xid13_rows();
  const auto filtered = parse::filter_events(xid13, parse::FilterParams{5.0,
                                             parse::FilterScope::kPerNode});
  std::unordered_map<topology::NodeId, int> per_node;
  for (const auto& e : filtered.roots) ++per_node[e.node];
  ASSERT_NE(truth().bad_node, topology::kInvalidNode);
  // The bad node's repeat count sits in the extreme tail.  (It cannot be
  // the unique maximum: first-fit allocation reuses low-rank nodes across
  // many debug jobs, so a handful of heavily-scheduled nodes also rack up
  // counts -- which is precisely why the paper's operators found the case
  // hard to spot.)
  std::size_t above = 0;
  const int bad_count = per_node[truth().bad_node];
  for (const auto& [node, count] : per_node) {
    if (count > bad_count) ++above;
  }
  EXPECT_GT(bad_count, 3);
  EXPECT_LE(above, per_node.size() / 100 + 5);
}

TEST(Integration, UtilizationReasonable) {
  EXPECT_GT(truth().workload_utilization, 0.5);
  EXPECT_LE(truth().workload_utilization, 1.0);
}

}  // namespace
}  // namespace titan
