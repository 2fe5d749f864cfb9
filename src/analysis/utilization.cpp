#include "analysis/utilization.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>

#include "stats/descriptive.hpp"
#include "stats/topk.hpp"

namespace titan::analysis {

std::string_view metric_name(JobMetric metric) noexcept {
  switch (metric) {
    case JobMetric::kMaxMemory: return "max memory";
    case JobMetric::kTotalMemory: return "total memory";
    case JobMetric::kNodeCount: return "node count";
    case JobMetric::kGpuCoreHours: return "GPU core hours";
  }
  return "?";
}

double metric_value(const sched::JobRecord& job, JobMetric metric) noexcept {
  switch (metric) {
    case JobMetric::kMaxMemory: return job.max_memory_gb;
    case JobMetric::kTotalMemory: return job.total_memory_gb;
    case JobMetric::kNodeCount: return static_cast<double>(job.node_count());
    case JobMetric::kGpuCoreHours: return job.gpu_core_hours;
  }
  return 0.0;
}

UtilizationStudy utilization_study(const sched::JobTrace& trace,
                                   const std::vector<fault::SbeStrike>& strikes,
                                   stats::TimeSec window_begin, stats::TimeSec window_end) {
  UtilizationStudy out;
  out.job_sbe = logsim::per_job_sbe_counts(strikes, trace, window_begin, window_end);

  // Whole-campaign offender ranking (cards), and the nodes hosting them.
  std::unordered_map<xid::CardId, std::uint64_t> card_totals;
  std::unordered_map<xid::CardId, topology::NodeId> card_node;
  for (const auto& s : strikes) {
    ++card_totals[s.card];
    card_node[s.card] = s.node;
  }
  out.top10_offenders = stats::top_k_keys(card_totals, 10);
  std::vector<std::uint8_t> offender_node(static_cast<std::size_t>(topology::kNodeSlots), 0);
  for (const auto card : out.top10_offenders) {
    offender_node[static_cast<std::size_t>(card_node.at(card))] = 1;
  }

  const auto job_uses_offender = [&](const sched::JobRecord& job) {
    return std::any_of(job.nodes.begin(), job.nodes.end(), [&](topology::NodeId n) {
      return offender_node[static_cast<std::size_t>(n)] != 0;
    });
  };

  // One pass over the window jobs: a single trace lookup per record
  // fills the paired series for every metric plus the per-user (Fig. 20)
  // aggregation.
  constexpr std::array kMetrics = {JobMetric::kMaxMemory, JobMetric::kTotalMemory,
                                   JobMetric::kNodeCount, JobMetric::kGpuCoreHours};
  std::vector<double> sbe_all;
  std::vector<double> sbe_excl;
  std::array<std::vector<double>, kMetrics.size()> x_all;
  std::array<std::vector<double>, kMetrics.size()> x_excl;
  sbe_all.reserve(out.job_sbe.size());
  for (auto& v : x_all) v.reserve(out.job_sbe.size());

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

SortedSeriesBins sorted_series_bins(const sched::JobTrace& trace,
                                    const std::vector<logsim::JobSbeRecord>& jobs,
                                    JobMetric metric, std::size_t bins) {
  SortedSeriesBins out;
  if (jobs.empty() || bins == 0) return out;
  std::vector<double> metric_values;
  std::vector<double> sbe_values;
  metric_values.reserve(jobs.size());
  for (const auto& rec : jobs) {
    metric_values.push_back(metric_value(trace.job(rec.job), metric));
    sbe_values.push_back(static_cast<double>(rec.sbe_count));
  }
  const auto metric_norm = stats::normalize_to_mean(metric_values);
  const auto sbe_norm = stats::normalize_to_mean(sbe_values);
  const auto perm = stats::sort_permutation(metric_norm);
  const auto m_sorted = stats::apply_permutation(metric_norm, perm);
  const auto s_sorted = stats::apply_permutation(sbe_norm, perm);

  out.metric_mean.assign(bins, 0.0);
  out.sbe_mean.assign(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t i = 0; i < m_sorted.size(); ++i) {
    const std::size_t b = std::min(bins - 1, i * bins / m_sorted.size());
    out.metric_mean[b] += m_sorted[i];
    out.sbe_mean[b] += s_sorted[i];
    ++counts[b];
  }
  for (std::size_t b = 0; b < bins; ++b) {
    if (counts[b] > 0) {
      out.metric_mean[b] /= static_cast<double>(counts[b]);
      out.sbe_mean[b] /= static_cast<double>(counts[b]);
    }
  }
  return out;
}

}  // namespace titan::analysis
