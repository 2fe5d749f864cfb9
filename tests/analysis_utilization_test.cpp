#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "analysis/sbe_study.hpp"
#include "analysis/workload_char.hpp"
#include "core/facility.hpp"
#include "stats/topk.hpp"

namespace titan::analysis {
namespace {

const core::StudyDataset& dataset() {
  static const core::StudyDataset data = core::run_study(core::quick_config(21));
  return data;
}

const UtilizationStudy& study() {
  static const UtilizationStudy s = [] {
    const auto& d = dataset();
    // Measurement window: the final month of the quick campaign.
    const auto begin = stats::month_start(d.config.period.begin, 2);
    return utilization_study(d.trace, d.sbe_strikes, begin, d.config.period.end);
  }();
  return s;
}

// ---- Oracle: the study before node byte maps --------------------------------
// Offender nodes in an unordered_set, and a binary search over every node
// of every window job, struck or not.

std::vector<logsim::JobSbeRecord> oracle_per_job_sbe_counts(
    const std::vector<fault::SbeStrike>& strikes, const sched::JobTrace& trace,
    stats::TimeSec window_begin, stats::TimeSec window_end) {
  std::vector<std::vector<stats::TimeSec>> by_node(
      static_cast<std::size_t>(topology::kNodeSlots));
  for (const auto& s : strikes) {
    by_node[static_cast<std::size_t>(s.node)].push_back(s.time);
  }
  for (auto& times : by_node) std::sort(times.begin(), times.end());

  std::vector<logsim::JobSbeRecord> out;
  for (const auto& job : trace.jobs()) {
    if (job.start < window_begin || job.start >= window_end) continue;
    logsim::JobSbeRecord rec;
    rec.job = job.id;
    for (const topology::NodeId node : job.nodes) {
      const auto& times = by_node[static_cast<std::size_t>(node)];
      const auto lo = std::lower_bound(times.begin(), times.end(), job.start);
      const auto hi = std::lower_bound(times.begin(), times.end(), job.end);
      rec.sbe_count += static_cast<std::uint64_t>(hi - lo);
    }
    out.push_back(rec);
  }
  return out;
}

UtilizationStudy oracle_utilization_study(const sched::JobTrace& trace,
                                          const std::vector<fault::SbeStrike>& strikes,
                                          stats::TimeSec window_begin,
                                          stats::TimeSec window_end) {
  UtilizationStudy out;
  out.job_sbe = oracle_per_job_sbe_counts(strikes, trace, window_begin, window_end);

  std::unordered_map<xid::CardId, std::uint64_t> card_totals;
  std::unordered_map<xid::CardId, topology::NodeId> card_node;
  for (const auto& s : strikes) {
    ++card_totals[s.card];
    card_node[s.card] = s.node;
  }
  out.top10_offenders = stats::top_k_keys(card_totals, 10);
  std::unordered_set<topology::NodeId> offender_nodes;
  for (const auto card : out.top10_offenders) offender_nodes.insert(card_node.at(card));

  const auto job_uses_offender = [&](const sched::JobRecord& job) {
    return std::any_of(job.nodes.begin(), job.nodes.end(),
                       [&](topology::NodeId n) { return offender_nodes.contains(n); });
  };

  constexpr std::array kMetrics = {JobMetric::kMaxMemory, JobMetric::kTotalMemory,
                                   JobMetric::kNodeCount, JobMetric::kGpuCoreHours};
  std::vector<double> sbe_all;
  std::vector<double> sbe_excl;
  std::array<std::vector<double>, kMetrics.size()> x_all;
  std::array<std::vector<double>, kMetrics.size()> x_excl;

  struct UserAgg {
    double core_hours = 0.0;
    double sbe = 0.0;
  };
  std::unordered_map<xid::UserId, UserAgg> users_all;
  std::unordered_map<xid::UserId, UserAgg> users_excl;

  for (const auto& rec : out.job_sbe) {
    const auto& job = trace.job(rec.job);
    const bool excl = job_uses_offender(job);
    const auto sbe = static_cast<double>(rec.sbe_count);
    sbe_all.push_back(sbe);
    if (!excl) sbe_excl.push_back(sbe);
    for (std::size_t m = 0; m < kMetrics.size(); ++m) {
      const double v = metric_value(job, kMetrics[m]);
      x_all[m].push_back(v);
      if (!excl) x_excl[m].push_back(v);
    }
    auto& all_agg = users_all[job.user];
    all_agg.core_hours += job.gpu_core_hours;
    all_agg.sbe += sbe;
    if (!excl) {
      auto& excl_agg = users_excl[job.user];
      excl_agg.core_hours += job.gpu_core_hours;
      excl_agg.sbe += sbe;
    }
  }

  for (std::size_t m = 0; m < kMetrics.size(); ++m) {
    MetricCorrelation mc;
    mc.metric = kMetrics[m];
    mc.spearman_all = stats::spearman(x_all[m], sbe_all);
    mc.pearson_all = stats::pearson(x_all[m], sbe_all);
    mc.spearman_excl = stats::spearman(x_excl[m], sbe_excl);
    mc.pearson_excl = stats::pearson(x_excl[m], sbe_excl);
    mc.jobs_all = x_all[m].size();
    mc.jobs_excl = x_excl[m].size();
    out.metrics.push_back(mc);
  }
  const auto user_corr = [](const std::unordered_map<xid::UserId, UserAgg>& users) {
    std::vector<std::pair<xid::UserId, UserAgg>> ordered(users.begin(), users.end());
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> hours;
    std::vector<double> sbes;
    for (const auto& [id, agg] : ordered) {
      hours.push_back(agg.core_hours);
      sbes.push_back(agg.sbe);
    }
    return stats::spearman(hours, sbes);
  };
  out.user_spearman_all = user_corr(users_all);
  out.user_spearman_excl = user_corr(users_excl);
  out.users_all = users_all.size();
  out.users_excl = users_excl.size();
  return out;
}

void expect_same_correlation(const stats::Correlation& got, const stats::Correlation& want,
                             const std::string& what) {
  EXPECT_EQ(std::memcmp(&got.coefficient, &want.coefficient, sizeof(double)), 0)
      << what << " coefficient " << got.coefficient << " vs " << want.coefficient;
  EXPECT_EQ(std::memcmp(&got.p_value, &want.p_value, sizeof(double)), 0)
      << what << " p " << got.p_value << " vs " << want.p_value;
  EXPECT_EQ(got.n, want.n) << what;
}

void expect_same_study(const UtilizationStudy& got, const UtilizationStudy& want) {
  ASSERT_EQ(got.job_sbe.size(), want.job_sbe.size());
  for (std::size_t i = 0; i < got.job_sbe.size(); ++i) {
    EXPECT_EQ(got.job_sbe[i].job, want.job_sbe[i].job) << "record " << i;
    EXPECT_EQ(got.job_sbe[i].sbe_count, want.job_sbe[i].sbe_count) << "record " << i;
  }
  ASSERT_EQ(got.metrics.size(), want.metrics.size());
  for (std::size_t m = 0; m < got.metrics.size(); ++m) {
    const auto& a = got.metrics[m];
    const auto& b = want.metrics[m];
    const std::string what{metric_name(b.metric)};
    EXPECT_EQ(a.metric, b.metric);
    expect_same_correlation(a.spearman_all, b.spearman_all, what + " spearman all");
    expect_same_correlation(a.pearson_all, b.pearson_all, what + " pearson all");
    expect_same_correlation(a.spearman_excl, b.spearman_excl, what + " spearman excl");
    expect_same_correlation(a.pearson_excl, b.pearson_excl, what + " pearson excl");
    EXPECT_EQ(a.jobs_all, b.jobs_all) << what;
    EXPECT_EQ(a.jobs_excl, b.jobs_excl) << what;
  }
  expect_same_correlation(got.user_spearman_all, want.user_spearman_all, "users all");
  expect_same_correlation(got.user_spearman_excl, want.user_spearman_excl, "users excl");
  EXPECT_EQ(got.users_all, want.users_all);
  EXPECT_EQ(got.users_excl, want.users_excl);
  EXPECT_EQ(got.top10_offenders, want.top10_offenders);
}

TEST(UtilizationOracle, QuickStudy) {
  const auto data = core::run_study(core::quick_config(7));
  const auto begin = stats::month_start(data.config.period.begin, 1);
  const auto got = utilization_study(data.trace, data.sbe_strikes, begin, data.config.period.end);
  ASSERT_GT(got.job_sbe.size(), 100U);
  ASSERT_LT(got.metrics.front().jobs_excl, got.metrics.front().jobs_all);
  expect_same_study(got, oracle_utilization_study(data.trace, data.sbe_strikes, begin,
                                                  data.config.period.end));
}

TEST(UtilizationOracle, OffenderInsideAMultiRunWordStraddlingList) {
  // Job 0 holds three runs; the middle one crosses the 128-entry word
  // boundary at node 128, and the top offender's node 130 sits inside it.
  constexpr topology::NodeId kOffender = 130;
  std::vector<sched::JobRecord> jobs;
  for (std::size_t i = 0; i < 24; ++i) {
    sched::JobRecord job;
    job.id = static_cast<xid::JobId>(i);
    job.user = static_cast<xid::UserId>(i % 5);
    job.start = static_cast<stats::TimeSec>(i) * 1000;
    job.end = job.start + 5000 + static_cast<stats::TimeSec>(i % 4) * 2500;
    std::vector<topology::NodeId> nodes;
    if (i == 0) {
      nodes = {10, 11, 12};
      for (topology::NodeId n = 120; n < 136; ++n) nodes.push_back(n);
      nodes.insert(nodes.end(), {300, 301});
    } else {
      // Neighbouring nodes, some struck, most not.
      const auto first = static_cast<topology::NodeId>(200 + 40 * (i % 6) + i);
      for (topology::NodeId n = first; n < first + static_cast<topology::NodeId>(1 + i % 7); ++n) {
        nodes.push_back(n);
      }
      if (i % 8 == 3) nodes.push_back(kOffender - 1);  // next to the offender, never on it
    }
    job.nodes = sched::NodeList(nodes);
    job.gpu_core_hours = static_cast<double>((i * 13) % 17) + 0.5;
    job.max_memory_gb = static_cast<double>((i * 7) % 6);
    job.total_memory_gb = static_cast<double>((i * 11) % 23);
    jobs.push_back(std::move(job));
  }
  const sched::JobTrace trace{std::move(jobs)};

  // Card c sits on node 129 + 20c (card 0 on the offender node); card 0
  // takes the most strikes, twelve more cards a few each.
  std::vector<fault::SbeStrike> strikes;
  for (std::int32_t card = 0; card < 13; ++card) {
    const auto node = card == 0 ? kOffender : static_cast<topology::NodeId>(181 + 20 * card);
    const int count = card == 0 ? 40 : 2 + card % 5;
    for (int k = 0; k < count; ++k) {
      fault::SbeStrike strike;
      strike.card = card;
      strike.node = node;
      strike.time = static_cast<stats::TimeSec>(k) * 631 % 30000;
      strikes.push_back(strike);
    }
  }
  const auto got = utilization_study(trace, strikes, 0, 30000);
  ASSERT_EQ(got.top10_offenders.front(), 0);
  ASSERT_LT(got.metrics.front().jobs_excl, got.metrics.front().jobs_all);
  ASSERT_GT(got.job_sbe.front().sbe_count, 0U);
  expect_same_study(got, oracle_utilization_study(trace, strikes, 0, 30000));
}

TEST(Utilization, JobRecordsComeFromWindow) {
  ASSERT_GT(study().job_sbe.size(), 100U);
  const auto begin = stats::month_start(dataset().config.period.begin, 2);
  for (const auto& rec : study().job_sbe) {
    EXPECT_GE(dataset().trace.job(rec.job).start, begin);
  }
}

TEST(Utilization, AllFourMetricsPresent) {
  ASSERT_EQ(study().metrics.size(), 4U);
  for (const auto& mc : study().metrics) {
    EXPECT_EQ(mc.jobs_all, study().job_sbe.size());
    EXPECT_LE(mc.jobs_excl, mc.jobs_all);
    EXPECT_GE(mc.spearman_all.coefficient, -1.0);
    EXPECT_LE(mc.spearman_all.coefficient, 1.0);
  }
}

TEST(Utilization, CoreHoursCorrelationStrongest) {
  // The paper's headline ordering: core-hours > nodes > memory metrics.
  double core = 0.0;
  double nodes = 0.0;
  double max_mem = 0.0;
  for (const auto& mc : study().metrics) {
    if (mc.metric == JobMetric::kGpuCoreHours) core = mc.spearman_all.coefficient;
    if (mc.metric == JobMetric::kNodeCount) nodes = mc.spearman_all.coefficient;
    if (mc.metric == JobMetric::kMaxMemory) max_mem = mc.spearman_all.coefficient;
  }
  EXPECT_GT(core, max_mem);
  EXPECT_GT(nodes, max_mem);
  EXPECT_GT(core, 0.2);
}

TEST(Utilization, ExcludingOffendersWeakensExposureCorrelations) {
  for (const auto& mc : study().metrics) {
    if (mc.metric != JobMetric::kGpuCoreHours) continue;
    EXPECT_LT(mc.spearman_excl.coefficient, mc.spearman_all.coefficient + 0.05);
  }
}

TEST(Utilization, UserAggregationAtLeastAsStrong) {
  // Observation 13: userID is a better proxy than per-job core hours.
  double core = 0.0;
  for (const auto& mc : study().metrics) {
    if (mc.metric == JobMetric::kGpuCoreHours) core = mc.spearman_all.coefficient;
  }
  EXPECT_GT(study().user_spearman_all.coefficient, core - 0.1);
  EXPECT_GT(study().users_all, 10U);
}

TEST(Utilization, TopOffendersRankedBySbe) {
  const auto& d = dataset();
  ASSERT_EQ(study().top10_offenders.size(), 10U);
  // Every reported offender really has strikes.
  std::unordered_map<xid::CardId, std::uint64_t> totals;
  for (const auto& s : d.sbe_strikes) ++totals[s.card];
  for (std::size_t i = 1; i < study().top10_offenders.size(); ++i) {
    EXPECT_GE(totals.at(study().top10_offenders[i - 1]),
              totals.at(study().top10_offenders[i]));
  }
}

TEST(Utilization, SortedSeriesBinsShape) {
  const auto bins =
      sorted_series_bins(dataset().trace, study().job_sbe, JobMetric::kGpuCoreHours, 20);
  ASSERT_EQ(bins.metric_mean.size(), 20U);
  ASSERT_EQ(bins.sbe_mean.size(), 20U);
  // Sorted by metric: bin means are nondecreasing.
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_LE(bins.metric_mean[b - 1], bins.metric_mean[b] + 1e-9);
  }
  // Normalized to mean: the weighted average is ~1.
  double avg = 0.0;
  for (const double m : bins.metric_mean) avg += m;
  EXPECT_NEAR(avg / 20.0, 1.0, 0.5);
}

TEST(Utilization, SortedSeriesEmptyInput) {
  const auto bins = sorted_series_bins(dataset().trace, {}, JobMetric::kNodeCount, 10);
  EXPECT_TRUE(bins.metric_mean.empty());
}

TEST(SbeStudy, FewerThanFivePercentOfCards) {
  const auto s = sbe_spatial_study(dataset().final_snapshot);
  EXPECT_GT(s.cards_with_any_sbe, 50U);
  EXPECT_LT(s.fraction_of_fleet, 0.05);
}

TEST(SbeStudy, RemovingOffendersHomogenizes) {
  const auto s = sbe_spatial_study(dataset().final_snapshot);
  ASSERT_EQ(s.grids.size(), 3U);
  EXPECT_GT(s.skew[0], s.skew[1]);
  EXPECT_GT(s.skew[1], s.skew[2]);
  EXPECT_GT(s.skew[0] / s.skew[2], 1.5);
}

TEST(SbeStudy, DistinctCardsNearlyCageUniform) {
  // Observation 10: distinct SBE cards spread evenly across cages.
  const auto s = sbe_cage_study(dataset().final_snapshot);
  const auto& d = s.distinct_cards[2];  // top-50 removed
  const auto mx = std::max({d[0], d[1], d[2]});
  const auto mn = std::min({d[0], d[1], d[2]});
  ASSERT_GT(mn, 0U);
  EXPECT_LT(static_cast<double>(mx) / static_cast<double>(mn), 1.5);
}

TEST(SbeStudy, StructureTotalsFavorOnChip) {
  const auto by_structure = fleet_sbe_by_structure(dataset().fleet);
  const auto l2 = by_structure[static_cast<std::size_t>(xid::MemoryStructure::kL2Cache)];
  const auto dev = by_structure[static_cast<std::size_t>(xid::MemoryStructure::kDeviceMemory)];
  EXPECT_GT(l2, dev);
}

TEST(WorkloadChar, ProfilesAndShape) {
  const JobColumns jobs{dataset().trace};
  const auto shape = workload_shape(jobs);
  EXPECT_GT(shape.corehours_vs_nodes.coefficient, 0.4);        // Fig. 21(b)
  EXPECT_LT(shape.top_memory_jobs_node_percentile, 0.9);       // Fig. 21(d)
  EXPECT_GT(shape.small_vs_large_max_wall_ratio, 0.6);         // Fig. 21(c)

  const auto profile =
      job_profile(jobs, JobField::kGpuCoreHours, JobField::kNodeCount, 10);
  ASSERT_EQ(profile.key_mean.size(), 10U);
  EXPECT_LT(profile.key_mean.front(), profile.key_mean.back());
}

}  // namespace
}  // namespace titan::analysis
