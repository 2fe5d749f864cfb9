#include "logsim/smi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "profile/fleet_profile.hpp"
#include "topology/machine.hpp"

namespace titan::logsim {
namespace {

const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::quick_config(21));
  return data;
}

TEST(Smi, SnapshotCoversFleet) {
  const auto& snap = dataset().final_snapshot;
  EXPECT_EQ(snap.records.size(), static_cast<std::size_t>(topology::kComputeNodes));
  for (const auto& r : snap.records) {
    EXPECT_NE(r.serial, xid::kInvalidCard);
    EXPECT_FALSE(topology::is_service_node(r.node));
    EXPECT_GT(r.temperature_f, 50.0);
    EXPECT_LT(r.temperature_f, 130.0);
  }
}

TEST(Smi, UndercountsDbesVsConsole) {
  // Observation 2: "nvidia-smi output reports fewer DBEs than our console
  // log filtering method" (InfoROM commits lost on fast node death).
  std::uint64_t console_dbe = 0;
  for (const auto& e : dataset().events) {
    if (e.kind == xid::ErrorKind::kDoubleBitError) ++console_dbe;
  }
  const auto smi_dbe = dataset().final_snapshot.fleet_dbe_total();
  EXPECT_LE(smi_dbe, console_dbe);
}

TEST(Smi, SbeTotalsMatchStrikeStream) {
  // The snapshot aggregates exactly the strikes committed to InfoROMs of
  // still-installed cards; pulled cards keep their history off-snapshot.
  std::uint64_t snapshot_total = dataset().final_snapshot.fleet_sbe_total();
  EXPECT_LE(snapshot_total, dataset().sbe_strikes.size());
  EXPECT_GT(snapshot_total, dataset().sbe_strikes.size() / 2);
}

TEST(Smi, SbeSkewExists) {
  // A handful of cards must dominate the counters.
  const auto& snap = dataset().final_snapshot;
  std::vector<std::uint64_t> counts;
  for (const auto& r : snap.records) {
    if (r.sbe_total > 0) counts.push_back(r.sbe_total);
  }
  ASSERT_GT(counts.size(), 50U);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t top10 = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i < 10) top10 += counts[i];
    total += counts[i];
  }
  EXPECT_GT(static_cast<double>(top10) / static_cast<double>(total), 0.3);
}

TEST(Smi, PerJobCountsOnlyWindowJobs) {
  const auto& d = dataset();
  const auto begin = d.config.period.begin + 30 * stats::kSecondsPerDay;
  const auto end = d.config.period.end;
  const auto records = per_job_sbe_counts(d.sbe_strikes, d.trace, begin, end);
  ASSERT_FALSE(records.empty());
  for (const auto& rec : records) {
    const auto& job = d.trace.job(rec.job);
    EXPECT_GE(job.start, begin);
    EXPECT_LT(job.start, end);
  }
}

TEST(Smi, PerJobCountsAttributeStrikesCorrectly) {
  // Build a tiny synthetic case: strikes on known nodes/times.
  std::vector<sched::JobRecord> jobs(1);
  jobs[0].id = 0;
  jobs[0].user = 1;
  jobs[0].start = 1000;
  jobs[0].end = 2000;
  jobs[0].nodes = {5, 6};
  const sched::JobTrace trace{std::move(jobs)};

  std::vector<fault::SbeStrike> strikes(4);
  strikes[0].time = 1500;
  strikes[0].node = 5;  // counted
  strikes[1].time = 1500;
  strikes[1].node = 7;  // wrong node
  strikes[2].time = 999;
  strikes[2].node = 6;  // before job
  strikes[3].time = 1999;
  strikes[3].node = 6;  // counted
  const auto records = per_job_sbe_counts(strikes, trace, 0, 10000);
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0].sbe_count, 2U);
}

TEST(Smi, MoreDbeThanSbeCardsExist) {
  // The paper's logging inconsistency: some cards show more DBEs than
  // SBEs -- here it arises honestly (a DBE on a card that never had SBEs).
  std::size_t inconsistent = 0;
  for (const auto& r : dataset().final_snapshot.records) {
    if (r.dbe_total > r.sbe_total) ++inconsistent;
  }
  EXPECT_GT(inconsistent, 0U);
}

// ---------------------------------------------------------------------------
// Quantize oracle: the text round trip the dataset writers once made
// (render every job line and the smi sweep, parse them back) against
// in-place quantization, field by field.
// ---------------------------------------------------------------------------

/// The job line as the writers rendered it before to_chars.
std::string legacy_job_log_line(const JobLogRecord& rec) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%lld|%d|%lld|%lld|%zu|%.4f|%.4f|%.4f",
                static_cast<long long>(rec.id), rec.user, static_cast<long long>(rec.start),
                static_cast<long long>(rec.end), rec.node_count, rec.gpu_core_hours,
                rec.max_memory_gb, rec.total_memory_gb);
  return buf;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Quantizes `rec` both ways and compares field by field (the structs'
/// padding differs, so never whole-struct memcmp).
void expect_job_quantized_like_text(const JobLogRecord& rec) {
  const std::string line = legacy_job_log_line(rec);
  EXPECT_EQ(job_log_line(rec), line);
  const auto parsed = parse_job_log_line(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  const auto got = quantized(rec);
  EXPECT_TRUE(same_bytes(got.id, parsed->id) && same_bytes(got.user, parsed->user) &&
              same_bytes(got.start, parsed->start) && same_bytes(got.end, parsed->end) &&
              same_bytes(got.node_count, parsed->node_count) &&
              same_bytes(got.gpu_core_hours, parsed->gpu_core_hours) &&
              same_bytes(got.max_memory_gb, parsed->max_memory_gb) &&
              same_bytes(got.total_memory_gb, parsed->total_memory_gb))
      << line;
}

void expect_smi_quantized_like_text(const SmiSnapshot& snapshot) {
  const auto parsed = parse_smi_sweep_text(smi_sweep_text(snapshot));
  const auto got = quantized(snapshot);
  EXPECT_EQ(parsed.malformed_blocks, 0U);
  EXPECT_TRUE(same_bytes(got.taken_at, parsed.taken_at));
  ASSERT_EQ(got.records.size(), parsed.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    const auto& a = got.records[i];
    const auto& b = parsed.records[i];
    ASSERT_TRUE(same_bytes(a.node, b.node) && same_bytes(a.serial, b.serial) &&
                same_bytes(a.sbe_total, b.sbe_total) && same_bytes(a.dbe_total, b.dbe_total) &&
                same_bytes(a.sbe_volatile, b.sbe_volatile) &&
                same_bytes(a.dbe_volatile, b.dbe_volatile) &&
                same_bytes(a.retired_pages_sbe, b.retired_pages_sbe) &&
                same_bytes(a.retired_pages_dbe, b.retired_pages_dbe) &&
                same_bytes(a.temperature_f, b.temperature_f))
        << "record " << i << ": " << a.temperature_f << " vs " << b.temperature_f;
  }
}

TEST(Quantize, InPlaceMatchesTextRoundTripOnSimulatedStudies) {
  for (const char* profile_name : {"k20x-titan", "a100"}) {
    for (const auto policy :
         {sched::PlacementPolicy::kTorusOrder, sched::PlacementPolicy::kCoolCageFirst}) {
      auto config = core::quick_config(7);
      core::apply_profile(config, *profile::find_profile(profile_name));
      config.workload.policy = policy;
      const auto study = core::run_study(config);
      SCOPED_TRACE(profile_name);
      ASSERT_FALSE(study.trace.jobs().empty());
      for (const auto& job : study.trace.jobs()) {
        expect_job_quantized_like_text(job_log_record(job));
      }
      expect_smi_quantized_like_text(study.final_snapshot);
    }
  }
}

TEST(Quantize, InPlaceMatchesTextRoundTripOnEdgeValues) {
  // Ties and near-ties at the fourth decimal (0.03125 and 2.5e-5 are
  // exact binary ties), signed zeros, NaNs, infinities, denormals and
  // values past 2^53.
  const double edges[] = {0.00005,
                          1.00005,
                          1.23455,
                          12.34565,
                          0.03125,
                          2.5e-5,
                          -0.00005,
                          0.0,
                          -0.0,
                          -0.00004,
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::denorm_min(),
                          9007199254740993.0,
                          1e17 + 0.5,
                          123456789.00005};
  for (const double value : edges) {
    JobLogRecord rec;
    rec.id = 42;
    rec.user = 7;
    rec.start = -5;
    rec.end = 1391212800;
    rec.node_count = 18688;
    rec.gpu_core_hours = value;
    rec.max_memory_gb = -value;
    rec.total_memory_gb = value * 3.0;
    expect_job_quantized_like_text(rec);
  }

  SmiSnapshot snapshot;
  snapshot.taken_at = 1391212799;
  const double temperatures[] = {0.05,  0.25, 0.35, 0.15, 98.65, -0.0, -0.04, 0.0,
                                 -12.25, 1e6 + 0.05, std::numeric_limits<double>::quiet_NaN()};
  SmiCardRecord record;
  record.node = 40;
  record.serial = 3;
  record.sbe_total = 17;
  for (const double t : temperatures) {
    record.temperature_f = t;
    snapshot.records.push_back(record);
    ++record.node;
  }
  // The longest block: the widest cname, serial, temperature and counters.
  record.node = topology::kNodeSlots - 1;
  record.serial = std::numeric_limits<xid::CardId>::min();
  record.temperature_f = -std::numeric_limits<double>::max();
  for (auto* counter : {&record.sbe_total, &record.dbe_total, &record.sbe_volatile,
                        &record.dbe_volatile, &record.retired_pages_sbe,
                        &record.retired_pages_dbe}) {
    *counter = std::numeric_limits<std::uint64_t>::max();
  }
  snapshot.records.push_back(record);
  expect_smi_quantized_like_text(snapshot);
}

}  // namespace
}  // namespace titan::logsim
