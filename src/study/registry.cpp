#include "study/registry.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/frame_guard.hpp"
#include "analysis/frequency.hpp"
#include "analysis/interruption.hpp"
#include "analysis/prediction.hpp"
#include "analysis/reliability_report.hpp"
#include "analysis/retirement_study.hpp"
#include "analysis/sbe_study.hpp"
#include "analysis/spatial.hpp"
#include "analysis/utilization.hpp"
#include "analysis/workload_char.hpp"
#include "analysis/xid_matrix.hpp"
#include "par/parallel.hpp"
#include "render/ascii.hpp"

namespace titan::study {

namespace {

using xid::ErrorKind;

/// The per-job nvidia-smi framework window: the paper ran it "for the
/// period of over a month"; mirror the benches' final 45 days.
constexpr stats::TimeSec kSmiFrameworkWindow = 45 * stats::kSecondsPerDay;

std::string kind_token(ErrorKind kind) { return std::string{xid::token(kind)}; }

JsonValue grid_json(const stats::Grid2D& grid) {
  auto rows = JsonValue::array();
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    auto row = JsonValue::array();
    for (std::size_t c = 0; c < grid.cols(); ++c) row.push(grid.at(r, c));
    rows.push(std::move(row));
  }
  return rows;
}

template <typename T>
JsonValue sequence_json(std::span<const T> values) {
  auto array = JsonValue::array();
  for (const auto& value : values) array.push(value);
  return array;
}

JsonValue correlation_json(const stats::Correlation& c) {
  auto out = JsonValue::object();
  out.set("coefficient", c.coefficient).set("p_value", c.p_value).set("n", c.n);
  return out;
}

// ---------------------------------------------------------------------------
// Kernels.  Each is a pure reader of the const StudyContext and touches
// only the inputs its registry entry's capability mask declares, which is
// what keeps reports byte-identical across sources sharing those
// capabilities.
// ---------------------------------------------------------------------------

AnalysisResult kernel_frequency(const StudyContext& context) {
  AnalysisResult out{.name = "frequency", .text = {}, .json = JsonValue::object()};
  const auto begin = context.period.begin;
  const auto end = context.period.end;

  auto kinds_json = JsonValue::object();
  const std::vector<std::string> header = {"kind", "events", "mtbf h", "median gap h",
                                           "dispersion"};
  std::vector<std::vector<std::string>> rows;
  for (const auto kind : context.profile->active_kinds()) {
    const auto count = context.frame.count_of(kind);
    if (count == 0) continue;
    const auto mtbf = analysis::kind_mtbf(context.frame, kind, begin, end);
    const double dispersion =
        analysis::daily_dispersion_index(context.frame, kind, begin, end);
    const auto series = analysis::monthly_frequency(context.frame, kind, begin, end);

    rows.push_back({kind_token(kind), std::to_string(count),
                    render::fmt_double(mtbf.mtbf_hours, 1),
                    render::fmt_double(mtbf.median_gap_hours, 1),
                    render::fmt_double(dispersion, 2)});

    auto entry = JsonValue::object();
    entry.set("events", count)
        .set("mtbf_hours", mtbf.mtbf_hours)
        .set("median_gap_hours", mtbf.median_gap_hours)
        .set("dispersion", dispersion)
        .set("monthly", sequence_json(std::span<const std::uint64_t>{series.counts}));
    kinds_json.set(kind_token(kind), std::move(entry));
  }

  out.text = render::table(header, rows);
  const auto dbe_series =
      analysis::monthly_frequency(context.frame, ErrorKind::kDoubleBitError, begin, end);
  out.text += "\nmonthly DBE counts (Fig. 2):\n";
  const auto labels = dbe_series.labels();
  out.text += render::bar_chart(labels, dbe_series.counts);

  out.json.set("kinds", std::move(kinds_json));
  return out;
}

AnalysisResult kernel_spatial(const StudyContext& context) {
  AnalysisResult out{.name = "spatial", .text = {}, .json = JsonValue::object()};

  for (const auto kind : context.profile->spatial_kinds) {
    const auto grid = analysis::cabinet_heatmap(context.frame, kind);
    const auto cages = analysis::cage_distribution(context.frame, kind);

    out.text += kind_token(kind) + " cabinet heatmap (rows = cab_y):\n";
    out.text += render::heatmap(grid);
    const std::vector<std::string> header = {"cage", "events", "distinct cards"};
    std::vector<std::vector<std::string>> rows;
    for (std::size_t cage = 0; cage < cages.event_counts.size(); ++cage) {
      rows.push_back({std::to_string(cage), std::to_string(cages.event_counts[cage]),
                      std::to_string(cages.distinct_cards[cage])});
    }
    out.text += render::table(header, rows);
    out.text += "top/bottom cage ratio: " +
                render::fmt_double(cages.top_to_bottom_ratio(), 2) + "\n\n";

    auto entry = JsonValue::object();
    entry.set("heatmap", grid_json(grid))
        .set("cage_events", sequence_json(std::span<const std::uint64_t>{cages.event_counts}))
        .set("cage_distinct_cards",
             sequence_json(std::span<const std::uint64_t>{cages.distinct_cards}))
        .set("top_to_bottom_ratio", cages.top_to_bottom_ratio());
    out.json.set(kind_token(kind), std::move(entry));
  }

  const auto breakdown =
      analysis::structure_breakdown(context.frame, ErrorKind::kDoubleBitError);
  out.text += "DBE by memory structure (Fig. 3c):\n";
  auto structures = JsonValue::object();
  for (std::size_t i = 0; i < xid::kMemoryStructureCount; ++i) {
    const auto structure = static_cast<xid::MemoryStructure>(i);
    if (breakdown.counts[i] == 0) continue;
    out.text += "  " + std::string{xid::structure_token(structure)} + ": " +
                std::to_string(breakdown.counts[i]) + " (" +
                render::fmt_percent(breakdown.share(structure)) + ")\n";
    structures.set(std::string{xid::structure_token(structure)}, breakdown.counts[i]);
  }
  out.json.set("dbe_structures", std::move(structures));
  return out;
}

AnalysisResult kernel_xid_matrix(const StudyContext& context) {
  AnalysisResult out{.name = "xid_matrix", .text = {}, .json = JsonValue::object()};
  const auto kinds = context.profile->matrix_kinds;
  const auto with_same = analysis::follow_matrix(context.frame, kinds, 300.0, true);
  // Excluding same-type followers changes only the diagonal, so the
  // cross-only matrix is `with_same` with its diagonal zeroed.
  auto cross_only = with_same;
  for (std::size_t k = 0; k < cross_only.kinds.size(); ++k) cross_only.fractions.at(k, k) = 0.0;
  const auto labels = with_same.labels();

  out.text += "P(B within 300 s | A), same-type included:\n";
  out.text += render::labeled_heatmap(with_same.fractions, labels, labels);
  out.text += "\nsame-type pairs excluded:\n";
  out.text += render::labeled_heatmap(cross_only.fractions, labels, labels);

  const auto isolated = analysis::isolated_kinds(with_same);
  out.text += "\nisolated kinds:";
  auto isolated_json = JsonValue::array();
  for (const auto kind : isolated) {
    out.text += ' ';
    out.text += kind_token(kind);
    isolated_json.push(kind_token(kind));
  }
  out.text += "\n";

  auto kinds_json = JsonValue::array();
  for (const auto kind : with_same.kinds) kinds_json.push(kind_token(kind));
  out.json.set("kinds", std::move(kinds_json))
      .set("fractions", grid_json(with_same.fractions))
      .set("fractions_cross_only", grid_json(cross_only.fractions))
      .set("isolated", std::move(isolated_json));
  return out;
}

AnalysisResult kernel_sbe_study(const StudyContext& context) {
  AnalysisResult out{.name = "sbe_study", .text = {}, .json = JsonValue::object()};
  const auto spatial = analysis::sbe_spatial_study(context.snapshot);
  const auto cages = analysis::sbe_cage_study(context.snapshot);

  out.text += "cards with any SBE: " + std::to_string(spatial.cards_with_any_sbe) + " (" +
              render::fmt_percent(spatial.fraction_of_fleet) + " of fleet)\n";
  out.text += "spatial skew (CV) at top-0/10/50 offenders removed: " +
              render::fmt_double(spatial.skew[0], 2) + " / " +
              render::fmt_double(spatial.skew[1], 2) + " / " +
              render::fmt_double(spatial.skew[2], 2) + "\n";
  out.text += "SBE cabinet heatmap (no exclusions, Fig. 14):\n";
  out.text += render::heatmap(spatial.grids[0]);

  const std::vector<std::string> header = {"excluded", "cage 0", "cage 1", "cage 2"};
  std::vector<std::vector<std::string>> rows;
  auto cage_counts = JsonValue::array();
  for (std::size_t level = 0; level < analysis::kOffenderExclusions.size(); ++level) {
    rows.push_back({std::to_string(analysis::kOffenderExclusions[level]),
                    std::to_string(cages.counts[level][0]),
                    std::to_string(cages.counts[level][1]),
                    std::to_string(cages.counts[level][2])});
    cage_counts.push(sequence_json(std::span<const std::uint64_t>{cages.counts[level]}));
  }
  out.text += "per-cage SBE totals by exclusion level (Fig. 15):\n";
  out.text += render::table(header, rows);

  auto offenders = JsonValue::array();
  for (std::size_t i = 0; i < spatial.top_offenders.size() && i < 10; ++i) {
    offenders.push(spatial.top_offenders[i]);
  }
  out.json.set("cards_with_any_sbe", spatial.cards_with_any_sbe)
      .set("fraction_of_fleet", spatial.fraction_of_fleet)
      .set("skew", sequence_json(std::span<const double>{spatial.skew}))
      .set("cage_counts", std::move(cage_counts))
      .set("top_offenders", std::move(offenders));
  return out;
}

AnalysisResult kernel_retirement(const StudyContext& context) {
  AnalysisResult out{.name = "retirement", .text = {}, .json = JsonValue::object()};
  const auto delays = analysis::retirement_delay_study(
      context.frame, context.accounting_from, ErrorKind::kDoubleBitError,
      context.profile->repair_recorded_kind());

  const std::vector<std::string> header = {"delay since last DBE", "retirements"};
  const std::vector<std::vector<std::string>> rows = {
      {"within 10 min", std::to_string(delays.within_10min)},
      {"10 min .. 6 h", std::to_string(delays.min10_to_6h)},
      {"beyond 6 h", std::to_string(delays.beyond_6h)},
      {"no prior DBE", std::to_string(delays.before_any_dbe)},
  };
  out.text += render::table(header, rows);
  out.text += "successive DBE pairs without a retirement between them: " +
              std::to_string(delays.dbe_pairs_without_retirement) + "\n";

  out.json.set("within_10min", delays.within_10min)
      .set("min10_to_6h", delays.min10_to_6h)
      .set("beyond_6h", delays.beyond_6h)
      .set("before_any_dbe", delays.before_any_dbe)
      .set("dbe_pairs_without_retirement", delays.dbe_pairs_without_retirement)
      .set("total_retirements", delays.total_retirements());
  return out;
}

AnalysisResult kernel_interruption(const StudyContext& context) {
  AnalysisResult out{.name = "interruption", .text = {}, .json = JsonValue::object()};
  const auto interrupts = analysis::interruption_study(
      context.frame, context.trace(), context.period.begin, context.period.end);

  out.text += "jobs: " + std::to_string(interrupts.total_jobs) + ", interrupted: " +
              std::to_string(interrupts.interrupted_jobs) + " (" +
              render::fmt_percent(interrupts.interruption_rate()) + ")\n";
  out.text += "node-hours lost (no checkpointing): " +
              render::fmt_double(interrupts.node_hours_lost, 0) + " of " +
              render::fmt_double(interrupts.total_node_hours, 0) + "\n";
  out.text += "full-machine MTTI: " +
              render::fmt_double(interrupts.full_machine_mtti_hours, 2) + " h\n";

  const std::vector<std::string> header = {"min nodes", "jobs", "interrupted", "rate"};
  std::vector<std::vector<std::string>> rows;
  auto by_size = JsonValue::array();
  for (std::size_t i = 0; i < interrupts.by_size.size(); ++i) {
    const auto& cls = interrupts.by_size[i];
    rows.push_back({std::to_string(analysis::kSizeClassLowerBounds[i]),
                    std::to_string(cls.jobs), std::to_string(cls.interrupted),
                    render::fmt_percent(cls.interruption_rate())});
    auto entry = JsonValue::object();
    entry.set("min_nodes", analysis::kSizeClassLowerBounds[i])
        .set("jobs", cls.jobs)
        .set("interrupted", cls.interrupted)
        .set("node_hours_lost", cls.node_hours_lost);
    by_size.push(std::move(entry));
  }
  out.text += render::table(header, rows);

  out.json.set("total_jobs", interrupts.total_jobs)
      .set("interrupted_jobs", interrupts.interrupted_jobs)
      .set("total_node_hours", interrupts.total_node_hours)
      .set("node_hours_lost", interrupts.node_hours_lost)
      .set("full_machine_mtti_hours", interrupts.full_machine_mtti_hours)
      .set("by_size", std::move(by_size));
  return out;
}

AnalysisResult kernel_prediction(const StudyContext& context) {
  AnalysisResult out{.name = "prediction", .text = {}, .json = JsonValue::object()};
  const auto& frame = context.frame;
  const auto half = frame.size() / 2;
  constexpr double kHorizonS = 3600.0;
  constexpr double kThreshold = 0.1;
  // One half-stream frame at a time: the predictor keeps only its rules,
  // so the training frame is freed before the evaluation frame is built.
  const auto predictor = analysis::FailurePredictor::fit(frame.slice(0, half),
                                                         ErrorKind::kDoubleBitError, kHorizonS);
  const auto evaluation = predictor.evaluate(frame.slice(half, frame.size() - half), kThreshold);

  const std::vector<std::string> header = {"precursor", "P(DBE within 1 h)", "support"};
  std::vector<std::vector<std::string>> rows;
  auto rules = JsonValue::array();
  for (const auto& rule : predictor.rules()) {
    rows.push_back({kind_token(rule.precursor), render::fmt_double(rule.probability, 3),
                    std::to_string(rule.support)});
    auto entry = JsonValue::object();
    entry.set("precursor", kind_token(rule.precursor))
        .set("probability", rule.probability)
        .set("support", rule.support);
    rules.push(std::move(entry));
  }
  out.text += "learned precursor rules (train = first half of the stream):\n";
  out.text += render::table(header, rows);
  out.text += "evaluation at threshold " + render::fmt_double(kThreshold, 1) + ": " +
              std::to_string(evaluation.alarms) + " alarms, precision " +
              render::fmt_percent(evaluation.precision()) + ", recall " +
              render::fmt_percent(evaluation.recall()) + ", F1 " +
              render::fmt_double(evaluation.f1(), 3) + "\n";

  auto eval_json = JsonValue::object();
  eval_json.set("alarms", evaluation.alarms)
      .set("true_positives", evaluation.true_positives)
      .set("targets", evaluation.targets)
      .set("targets_covered", evaluation.targets_covered)
      .set("precision", evaluation.precision())
      .set("recall", evaluation.recall())
      .set("f1", evaluation.f1());
  out.json.set("horizon_s", kHorizonS)
      .set("threshold", kThreshold)
      .set("rules", std::move(rules))
      .set("evaluation", std::move(eval_json));
  return out;
}

AnalysisResult kernel_utilization(const StudyContext& context) {
  AnalysisResult out{.name = "utilization", .text = {}, .json = JsonValue::object()};
  const auto window_begin =
      std::max(context.period.begin, context.period.end - kSmiFrameworkWindow);
  const auto utilization = analysis::utilization_study(
      context.trace(), context.truth->sbe_strikes, window_begin, context.period.end);

  const std::vector<std::string> header = {"metric", "spearman (all)", "p", "spearman (excl)",
                                           "jobs"};
  std::vector<std::vector<std::string>> rows;
  auto metrics = JsonValue::object();
  for (const auto& metric : utilization.metrics) {
    rows.push_back({std::string{analysis::metric_name(metric.metric)},
                    render::fmt_double(metric.spearman_all.coefficient, 3),
                    render::fmt_double(metric.spearman_all.p_value, 3),
                    render::fmt_double(metric.spearman_excl.coefficient, 3),
                    std::to_string(metric.jobs_all)});
    auto entry = JsonValue::object();
    entry.set("spearman_all", correlation_json(metric.spearman_all))
        .set("pearson_all", correlation_json(metric.pearson_all))
        .set("spearman_excl", correlation_json(metric.spearman_excl))
        .set("pearson_excl", correlation_json(metric.pearson_excl))
        .set("jobs_all", metric.jobs_all)
        .set("jobs_excl", metric.jobs_excl);
    metrics.set(std::string{analysis::metric_name(metric.metric)}, std::move(entry));
  }
  out.text += "utilization vs SBE correlations (final 45-day smi window):\n";
  out.text += render::table(header, rows);
  out.text += "per-user core-hours vs SBE spearman: " +
              render::fmt_double(utilization.user_spearman_all.coefficient, 3) + " (" +
              std::to_string(utilization.users_all) + " users)\n";

  out.json.set("window_begin", window_begin)
      .set("window_jobs", utilization.job_sbe.size())
      .set("metrics", std::move(metrics))
      .set("user_spearman_all", correlation_json(utilization.user_spearman_all))
      .set("user_spearman_excl", correlation_json(utilization.user_spearman_excl))
      .set("users_all", utilization.users_all)
      .set("users_excl", utilization.users_excl);
  return out;
}

AnalysisResult kernel_reliability_report(const StudyContext& context) {
  AnalysisResult out{.name = "reliability_report", .text = {}, .json = JsonValue::object()};
  const auto report =
      analysis::mtbf_report(context.frame, context.period.begin, context.period.end);
  const auto comparison = analysis::smi_console_comparison(context.frame, context.snapshot);

  out.text += "DBE MTBF: " + render::fmt_double(report.measured.mtbf_hours, 1) + " h over " +
              std::to_string(report.measured.event_count) + " events (datasheet budget: " +
              render::fmt_double(report.datasheet_mtbf_hours, 1) + " h, field is " +
              render::fmt_double(report.improvement_factor, 1) + "x better -- Obs. 1)\n";
  out.text += "console DBEs: " + std::to_string(comparison.console_dbe_count) +
              ", nvidia-smi DBEs: " + std::to_string(comparison.smi_dbe_count) +
              " (undercount " + render::fmt_percent(comparison.smi_undercount_fraction()) +
              " -- Obs. 2)\n";
  out.text += "cards with DBE>SBE in smi counters: " +
              std::to_string(comparison.cards_dbe_exceeds_sbe) + " of " +
              std::to_string(comparison.cards_with_dbe) + " cards with any DBE\n";

  auto measured = JsonValue::object();
  measured.set("mtbf_hours", report.measured.mtbf_hours)
      .set("mean_gap_hours", report.measured.mean_gap_hours)
      .set("median_gap_hours", report.measured.median_gap_hours)
      .set("event_count", report.measured.event_count)
      .set("window_hours", report.measured.window_hours);
  out.json.set("measured", std::move(measured))
      .set("datasheet_mtbf_hours", report.datasheet_mtbf_hours)
      .set("improvement_factor", report.improvement_factor)
      .set("console_dbe_count", comparison.console_dbe_count)
      .set("smi_dbe_count", comparison.smi_dbe_count)
      .set("smi_undercount_fraction", comparison.smi_undercount_fraction())
      .set("cards_dbe_exceeds_sbe", comparison.cards_dbe_exceeds_sbe)
      .set("cards_with_dbe", comparison.cards_with_dbe);
  return out;
}

AnalysisResult kernel_workload_char(const StudyContext& context) {
  AnalysisResult out{.name = "workload_char", .text = {}, .json = JsonValue::object()};
  const analysis::JobColumns jobs{context.trace()};
  const auto shape = analysis::workload_shape(jobs);

  out.text += "core-hours vs node-count spearman: " +
              render::fmt_double(shape.corehours_vs_nodes.coefficient, 3) + " (n=" +
              std::to_string(shape.corehours_vs_nodes.n) + ")\n";
  out.text += "top-1% max-memory jobs mean node-count percentile: " +
              render::fmt_double(shape.top_memory_jobs_node_percentile, 1) + "\n";
  out.text += "top-1% total-memory jobs mean core-hour percentile: " +
              render::fmt_double(shape.top_memory_jobs_corehour_percentile, 1) + "\n";
  out.text += "small-vs-large max wall-hours ratio: " +
              render::fmt_double(shape.small_vs_large_max_wall_ratio, 2) + "\n";

  constexpr std::size_t kBins = 20;
  struct Panel {
    const char* name;
    analysis::JobField sort_key;
    analysis::JobField target;
  };
  constexpr Panel kPanels[] = {
      {"corehours_vs_totalmem", analysis::JobField::kGpuCoreHours,
       analysis::JobField::kTotalMemory},
      {"corehours_vs_nodes", analysis::JobField::kGpuCoreHours, analysis::JobField::kNodeCount},
      {"nodes_vs_wallhours", analysis::JobField::kNodeCount, analysis::JobField::kWallHours},
      {"nodes_vs_maxmem", analysis::JobField::kNodeCount, analysis::JobField::kMaxMemory},
  };
  auto profiles = JsonValue::object();
  for (const auto& panel : kPanels) {
    const auto profile = analysis::job_profile(jobs, panel.sort_key, panel.target, kBins);
    auto entry = JsonValue::object();
    entry.set("key_mean", sequence_json(std::span<const double>{profile.key_mean}))
        .set("target_mean", sequence_json(std::span<const double>{profile.target_mean}));
    profiles.set(panel.name, std::move(entry));
  }

  out.json.set("corehours_vs_nodes", correlation_json(shape.corehours_vs_nodes))
      .set("top_memory_jobs_node_percentile", shape.top_memory_jobs_node_percentile)
      .set("top_memory_jobs_corehour_percentile", shape.top_memory_jobs_corehour_percentile)
      .set("small_vs_large_max_wall_ratio", shape.small_vs_large_max_wall_ratio)
      .set("profiles", std::move(profiles));
  return out;
}

/// Translate a registry capability mask into the EventFrame column groups
/// it licenses: kEvents buys the base columns, kLedger the card join and
/// kGroundTruth the job/root attribution.  The guard is per-thread, not
/// per-frame, so frames a kernel builds from context columns share the
/// mask.
unsigned guard_columns(unsigned needs) {
  unsigned columns = 0;
  if ((needs & kEvents) != 0) columns |= analysis::kColumnBase;
  if ((needs & kLedger) != 0) columns |= analysis::kColumnCards;
  if ((needs & kGroundTruth) != 0) columns |= analysis::kColumnJobs;
  return columns;
}

}  // namespace

const AnalysisRegistry& AnalysisRegistry::standard() {
  static const AnalysisRegistry registry = [] {
    AnalysisRegistry r;
    r.add({"frequency", "per-kind census, MTBF and monthly series (Figs. 2/4/6/9-11)",
           kEvents, kernel_frequency});
    r.add({"spatial", "cabinet heatmaps, cage and structure breakdowns (Figs. 3/5/7)",
           kEvents | kLedger, kernel_spatial});
    r.add({"xid_matrix", "following-failure matrix between XID kinds (Fig. 13)", kEvents,
           kernel_xid_matrix});
    r.add({"sbe_study", "SBE spatial/offender analyses from the smi sweep (Figs. 14-15)",
           kSnapshot, kernel_sbe_study});
    r.add({"retirement", "DBE-to-retirement delay buckets (Fig. 8, Obs. 5)", kEvents,
           kernel_retirement});
    r.add({"interruption", "application interruption impact by job size",
           kEvents | kGroundTruth | kTrace, kernel_interruption});
    r.add({"prediction", "precursor-rule DBE prediction (train/eval split)", kEvents,
           kernel_prediction});
    r.add({"utilization", "utilization vs SBE correlations (Figs. 16-20)", kTrace | kStrikes,
           kernel_utilization});
    r.add({"reliability_report", "DBE MTBF vs datasheet and smi cross-check (Obs. 1-2)",
           kEvents | kSnapshot, kernel_reliability_report});
    r.add({"workload_char", "GPU workload characterization (Fig. 21, Obs. 14)", kTrace,
           kernel_workload_char});
    return r;
  }();
  return registry;
}

void AnalysisRegistry::add(Entry entry) {
  if (find(entry.name) != nullptr) {
    throw std::invalid_argument{"AnalysisRegistry: duplicate analysis " + entry.name};
  }
  entries_.push_back(std::move(entry));
}

const AnalysisRegistry::Entry* AnalysisRegistry::find(std::string_view name) const noexcept {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> AnalysisRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.name);
  return out;
}

std::vector<std::string> AnalysisRegistry::available(const StudyContext& context) const {
  std::vector<std::string> out;
  for (const auto& entry : entries_) {
    if (context.has(entry.needs)) out.push_back(entry.name);
  }
  return out;
}

StudyReport AnalysisRegistry::run(const StudyContext& context,
                                  std::span<const std::string> selection) const {
  std::vector<const Entry*> selected;
  selected.reserve(selection.size());
  for (const auto& name : selection) {
    const auto* entry = find(name);
    if (entry == nullptr) {
      throw std::invalid_argument{"AnalysisRegistry: unknown analysis " + name};
    }
    if (!context.has(entry->needs)) {
      throw std::invalid_argument{"AnalysisRegistry: context cannot run " + name +
                                  " (missing capability)"};
    }
    selected.push_back(entry);
  }

  StudyReport report;
  report.period = context.period;
  if (context.ingest_report) report.ingest = ingest_section(*context.ingest_report);
  report.results = par::parallel_map(0, selected.size(), 1, [&](std::size_t i) {
    const analysis::FrameGuardScope scope{guard_columns(selected[i]->needs)};
    return selected[i]->kernel(context);
  });
  return report;
}

StudyReport AnalysisRegistry::run_all(const StudyContext& context) const {
  const auto selection = available(context);
  return run(context, selection);
}

}  // namespace titan::study
