// Performance microbenches (google-benchmark) for the framework's hot
// kernels: SECDED codec, console-line emit/parse, temporal filtering,
// correlation statistics, topology math, the workload simulator and the
// study front end, the text dataset load, and a small end-to-end study.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/event_frame.hpp"
#include "analysis/frequency.hpp"
#include "analysis/reliability_report.hpp"
#include "analysis/retirement_study.hpp"
#include "analysis/spatial.hpp"
#include "analysis/utilization.hpp"
#include "analysis/workload_char.hpp"
#include "analysis/xid_matrix.hpp"
#include "core/facility.hpp"
#include "core/sharded.hpp"
#include "fault/campaign.hpp"
#include "gpu/secded.hpp"
#include "ingest/triage.hpp"
#include "logsim/console.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "par/pool.hpp"
#include "parse/console.hpp"
#include "parse/filter.hpp"
#include "sched/users.hpp"
#include "sched/workload.hpp"
#include "stats/correlation.hpp"
#include "stats/distributions.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"
#include "topology/machine.hpp"
#include "topology/torus.hpp"

namespace {

using namespace titan;

/// The shared full-campaign dataset for the analysis-layer benches (seed
/// 42 so BM_FullStudyEndToEnd and the suite benches replay the same
/// campaign).  Built once on first use.
[[nodiscard]] const core::StudyDataset& perf_dataset() {
  static const core::StudyDataset data = core::run_study(core::default_config(42));
  return data;
}

[[nodiscard]] const analysis::EventFrame& perf_frame() {
  static const analysis::EventFrame frame = analysis::EventFrame::build(
      std::span<const xid::Event>{perf_dataset().events}, &perf_dataset().fleet.ledger());
  return frame;
}

/// Simulated compute node-hours per study run: the natural throughput unit
/// for the campaign pipeline (the paper's dataset is 280M node-hours).
[[nodiscard]] std::int64_t simulated_node_hours(const core::FacilityConfig& config) {
  return static_cast<std::int64_t>(topology::kComputeNodes) *
         (config.period.duration() / stats::kSecondsPerHour);
}

void BM_SecdedEncode(benchmark::State& state) {
  stats::Rng rng{1};
  std::uint64_t data = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpu::secded_encode(data));
    ++data;
  }
}
BENCHMARK(BM_SecdedEncode);

void BM_SecdedDecodeClean(benchmark::State& state) {
  const auto word = gpu::secded_encode(0xdeadbeef12345678ULL);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpu::secded_decode(word));
  }
}
BENCHMARK(BM_SecdedDecodeClean);

void BM_SecdedDecodeCorrect(benchmark::State& state) {
  auto word = gpu::secded_encode(0xdeadbeef12345678ULL);
  word.flip(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpu::secded_decode(word));
  }
}
BENCHMARK(BM_SecdedDecodeCorrect);

void BM_ConsoleLineEmit(benchmark::State& state) {
  xid::Event e;
  e.time = 1400000000;
  e.node = 12345;
  e.kind = xid::ErrorKind::kDoubleBitError;
  e.structure = xid::MemoryStructure::kDeviceMemory;
  const auto& fleet = profile::k20x_titan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logsim::console_line(e, fleet));
  }
}
BENCHMARK(BM_ConsoleLineEmit);

void BM_ConsoleLineParse(benchmark::State& state) {
  xid::Event e;
  e.time = 1400000000;
  e.node = 12345;
  e.kind = xid::ErrorKind::kDoubleBitError;
  e.structure = xid::MemoryStructure::kDeviceMemory;
  const std::string line = logsim::console_line(e, profile::k20x_titan());
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse::parse_console_line(line));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ConsoleLineParse);

void BM_FilterEvents(benchmark::State& state) {
  stats::Rng rng{7};
  std::vector<parse::ParsedEvent> events(static_cast<std::size_t>(state.range(0)));
  stats::TimeSec t = 0;
  for (auto& e : events) {
    t += static_cast<stats::TimeSec>(rng.below(10));
    e.time = t;
    e.node = static_cast<topology::NodeId>(rng.below(topology::kNodeSlots));
    e.kind = xid::ErrorKind::kGraphicsEngineException;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse::filter_events(events, parse::FilterParams{5.0}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterEvents)->Arg(1000)->Arg(100000);

void BM_Spearman(benchmark::State& state) {
  stats::Rng rng{9};
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = x[i] * 0.5 + rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::spearman(x, y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Spearman)->Arg(1000)->Arg(100000);

void BM_TorusMath(benchmark::State& state) {
  topology::NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::torus_rank(topology::torus_coord(id)));
    id = (id + 1) % topology::kNodeSlots;
  }
}
BENCHMARK(BM_TorusMath);

void BM_PoissonProcess(benchmark::State& state) {
  stats::Rng rng{11};
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::sample_poisson_process(rng, 1.0, 0.0, 10000.0));
  }
}
BENCHMARK(BM_PoissonProcess);

void BM_QuickStudyEndToEnd(benchmark::State& state) {
  // Full machine, 3-month campaign: the integration-test workload.
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_study(core::quick_config(42)));
  }
  // items/sec == simulated node-hours/sec.
  state.SetItemsProcessed(state.iterations() * simulated_node_hours(core::quick_config(42)));
}
BENCHMARK(BM_QuickStudyEndToEnd)->Unit(benchmark::kMillisecond);

void BM_CampaignThreads(benchmark::State& state) {
  // The quick study at a fixed pool width: the scaling curve of the
  // titan::par fault-campaign parallelization (output is byte-identical
  // across widths; only wall-clock may change).
  par::set_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_study(core::quick_config(42)));
  }
  par::set_threads(par::default_thread_count());
  state.SetItemsProcessed(state.iterations() * simulated_node_hours(core::quick_config(42)));
}
BENCHMARK(BM_CampaignThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SimulateWorkload(benchmark::State& state) {
  // The default campaign's workload at a fixed pool width: the submission
  // draw runs ahead of the placement loop at width >= 2.
  par::set_threads(static_cast<std::size_t>(state.range(0)));
  const auto config = core::default_config(42);
  const stats::Rng master{config.seed};
  const auto users = sched::make_user_population(config.users, master.fork("users"));
  sched::WorkloadStats stats;
  std::size_t jobs = 0;
  for (auto _ : state) {
    auto result = sched::simulate_workload(config.workload, users, master.fork("workload"));
    jobs = result.trace.jobs().size();
    stats = result.stats;
    benchmark::DoNotOptimize(result);
  }
  par::set_threads(par::default_thread_count());
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["words_per_fit"] =
      static_cast<double>(stats.fit_words) / static_cast<double>(std::max<std::uint64_t>(1, stats.fits));
  state.counters["blocks"] = static_cast<double>(stats.blocks);
  state.counters["blocks_drawn_ahead"] = static_cast<double>(stats.blocks - stats.blocks_waited);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_SimulateWorkload)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_StudyFrontEnd(benchmark::State& state) {
  // What a study needs before phase D: the workload plus, on its draw
  // side, the fleet and the campaign plan (phases A-C).
  par::set_threads(static_cast<std::size_t>(state.range(0)));
  const auto config = core::default_config(42);
  for (auto _ : state) benchmark::DoNotOptimize(core::build_front_end(config));
  par::set_threads(par::default_thread_count());
}
BENCHMARK(BM_StudyFrontEnd)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Phase D and E output of the perf campaign, before phase F orders it.
struct CampaignStreams {
  std::vector<fault::CardStream> cards;
  std::vector<xid::Event> tail;
};

[[nodiscard]] const CampaignStreams& perf_streams() {
  static const CampaignStreams streams = [] {
    const auto& config = perf_dataset().config;
    const stats::Rng master{config.seed};
    gpu::Fleet fleet;
    auto traits = fault::initialize_fleet(fleet, config.period.begin, master.fork("fleet"),
                                          config.campaign.model);
    const auto plan = fault::plan_fault_campaign(fleet, std::move(traits), config.campaign,
                                                 master.fork("faults"));
    CampaignStreams out;
    out.cards = fault::run_card_streams(plan, fleet, perf_dataset().trace, 0,
                                        plan.card_count(), /*collect_sbe=*/false);
    out.tail = fault::run_campaign_tail(plan, fleet, perf_dataset().trace).events;
    return out;
  }();
  return streams;
}

void BM_CampaignTimeOrder(benchmark::State& state) {
  // Phase F's one stable time order over the full campaign's card
  // streams and tail (the copy of the streams is not timed).
  const auto& streams = perf_streams();
  const auto last_time = perf_dataset().config.period.end - 1;
  std::size_t events = streams.tail.size();
  for (const auto& card : streams.cards) events += card.events.size();
  for (auto _ : state) {
    state.PauseTiming();
    auto cards = streams.cards;
    auto tail = streams.tail;
    state.ResumeTiming();
    benchmark::DoNotOptimize(fault::order_streams(cards, std::move(tail), last_time));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CampaignTimeOrder)->Unit(benchmark::kMillisecond);

void BM_QuantizeSideArtifacts(benchmark::State& state) {
  // The side artifacts a binary or sharded write stores: every job record
  // and the end-of-study smi sweep, quantized in place to the text
  // serialization's rounding.  Serial here; the writers spread the job
  // records over the pool.
  const auto& jobs = perf_dataset().trace.jobs();
  const auto& snapshot = perf_dataset().final_snapshot;
  for (auto _ : state) {
    std::vector<logsim::JobLogRecord> records;
    records.reserve(jobs.size());
    for (const auto& job : jobs) records.push_back(logsim::quantized(logsim::job_log_record(job)));
    benchmark::DoNotOptimize(records);
    benchmark::DoNotOptimize(logsim::quantized(snapshot));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size() + snapshot.records.size()));
}
BENCHMARK(BM_QuantizeSideArtifacts)->Unit(benchmark::kMillisecond);

/// The default study's last-shard container in the 8-shard write the
/// study benchmark's sharded round trip makes: that shard's events (all
/// but a few hundred of the study's) plus the quantized job table and smi
/// sweep.  Built once on first use.
[[nodiscard]] const tdf::TdfDataset& last_shard_container() {
  static const tdf::TdfDataset data = [] {
    const auto config = core::default_config(20151115);
    core::ShardedStudy sharded{config, 8};
    core::ShardEventColumns columns;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) columns = sharded.shard_events(s);
    tdf::TdfDataset out;
    study::detail::stamp_meta(out, config.period, config.campaign.timeline.new_driver,
                              *config.profile);
    out.times = std::move(columns.times);
    out.nodes = std::move(columns.nodes);
    out.kinds = std::move(columns.kinds);
    out.structures = std::move(columns.structures);
    out.has_jobs = true;
    out.jobs = study::detail::quantized_jobs(sharded.trace());
    out.has_smi = true;
    out.snapshot = logsim::quantized(sharded.final_snapshot());
    return out;
  }();
  return data;
}

void BM_EncodeContainer(benchmark::State& state) {
  // tdf::encode_tdf of the last shard's container at pool width
  // state.range(0): the write's serial tail before the container hash.
  const auto& data = last_shard_container();
  par::set_threads(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto encoded = tdf::encode_tdf(data);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
    benchmark::ClobberMemory();
  }
  par::set_threads(par::default_thread_count());
  state.counters["events"] = static_cast<double>(data.event_count());
  state.counters["jobs"] = static_cast<double>(data.jobs.size());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeContainer)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EventFrameBuild(benchmark::State& state) {
  // Columnar index construction over the full-campaign ground truth (SBEs
  // dropped, card join and job/root columns filled): the one-time cost the
  // frame kernels amortize.
  const std::span<const xid::Event> events{perf_dataset().events};
  const auto* ledger = &perf_dataset().fleet.ledger();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::EventFrame::build(events, ledger));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(perf_frame().size()));
}
BENCHMARK(BM_EventFrameBuild)->Unit(benchmark::kMillisecond);

/// The default-seed study (20151115, the study benchmark's seed) written
/// as a text dataset once per process (≈51 MB); removed at exit.
[[nodiscard]] const std::filesystem::path& text_fixture() {
  static const struct Fixture {
    Fixture()
        : dir{std::filesystem::temp_directory_path() /
              ("titanrel_bench_text_" + std::to_string(::getpid()))} {
      const auto context = study::SimulatedSource{core::default_config(20151115)}.load();
      study::write_dataset(context, dir, study::DatasetFormat::kText);
    }
    ~Fixture() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    std::filesystem::path dir;
  } fixture;
  return fixture.dir;
}

/// Chunks the load cuts `text` into.
[[nodiscard]] double chunks_of(std::string_view text) {
  return static_cast<double>(ingest::load_chunks(text).size());
}

void BM_TextDatasetLoad(benchmark::State& state) {
  // The strict text load dataset_analyze times: each artifact mapped once,
  // every claim hashed on its own pool task beside the chunked console and
  // job parses.  The serial FNV-1a over the console is the floor of the
  // critical path; compare with BM_IngestConsoleChunks (the parse alone).
  const auto& dir = text_fixture();
  ingest::IngestReport scratch{ingest::IngestPolicy::kSalvage};
  double hashed = 0.0;
  for (const auto& [name, checksum] :
       study::read_manifest(dir, ingest::IngestPolicy::kSalvage, scratch).checksums) {
    hashed += static_cast<double>(std::filesystem::file_size(dir / name));
  }
  const double chunks = chunks_of(study::read_all(dir / "console.log")) +
                        chunks_of(study::read_all(dir / "jobs.log")) + 1.0;  // + the smi sweep
  for (auto _ : state) {
    benchmark::DoNotOptimize(study::DatasetSource{dir}.load());
  }
  state.counters["bytes_hashed"] = hashed;
  state.counters["chunks_parsed"] = chunks;
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(hashed));
}
BENCHMARK(BM_TextDatasetLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IngestConsoleChunks(benchmark::State& state) {
  // The console parse alone, in the load's chunks over the pool: no
  // hashing, no mapping, no frame build.
  const auto text = study::read_all(text_fixture() / "console.log");
  for (auto _ : state) {
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    benchmark::DoNotOptimize(
        ingest::ingest_console_text(text, "console.log", ingest::IngestPolicy::kStrict, report));
  }
  state.counters["chunks_parsed"] = chunks_of(text);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_IngestConsoleChunks)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The paper's core analysis battery over a prebuilt frame.
void run_analysis_suite(const analysis::EventFrame& stream, const core::StudyDataset& data) {
  const auto begin = data.config.period.begin;
  const auto end = data.config.period.end;
  constexpr std::array kKinds = {
      xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kOffTheBus,
      xid::ErrorKind::kPageRetirement, xid::ErrorKind::kGraphicsEngineException,
      xid::ErrorKind::kUcHaltNewDriver};
  for (const auto kind : kKinds) {
    benchmark::DoNotOptimize(analysis::monthly_frequency(stream, kind, begin, end));
    benchmark::DoNotOptimize(analysis::kind_mtbf(stream, kind, begin, end));
  }
  benchmark::DoNotOptimize(
      analysis::daily_dispersion_index(stream, xid::ErrorKind::kDoubleBitError, begin, end));
  benchmark::DoNotOptimize(analysis::daily_dispersion_index(
      stream, xid::ErrorKind::kGraphicsEngineException, begin, end));
  for (const auto kind : {xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kOffTheBus,
                          xid::ErrorKind::kPageRetirement}) {
    benchmark::DoNotOptimize(analysis::cabinet_heatmap(stream, kind));
  }
  for (const auto kind : {xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kOffTheBus}) {
    benchmark::DoNotOptimize(analysis::cage_distribution(stream, kind));
    benchmark::DoNotOptimize(analysis::structure_breakdown(stream, kind));
  }
  const auto kinds = analysis::fig13_kinds();
  // One call, as the xid_matrix kernel makes: the cross-only matrix is this
  // one with its diagonal zeroed.
  benchmark::DoNotOptimize(analysis::follow_matrix(stream, kinds, 300.0, true));
  benchmark::DoNotOptimize(
      analysis::retirement_delay_study(stream, stats::month_start(begin, 7)));
  benchmark::DoNotOptimize(analysis::smi_console_comparison(stream, data.final_snapshot));
  benchmark::DoNotOptimize(analysis::mtbf_report(stream, begin, end));
}

void BM_AnalysisSuiteFrame(benchmark::State& state) {
  // The battery against the prebuilt columnar index (build cost measured
  // separately by BM_EventFrameBuild).
  const auto& data = perf_dataset();
  const auto& frame = perf_frame();
  for (auto _ : state) {
    run_analysis_suite(frame, data);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_AnalysisSuiteFrame)->Unit(benchmark::kMillisecond);

void BM_WorkloadChar(benchmark::State& state) {
  // The workload_char kernel's work: job columns (one comparison sort,
  // one counting sort), the Fig. 21 shape and its four 20-bin panels.
  using analysis::JobField;
  constexpr std::array<std::array<JobField, 2>, 4> kPanels = {{
      {JobField::kGpuCoreHours, JobField::kTotalMemory},
      {JobField::kGpuCoreHours, JobField::kNodeCount},
      {JobField::kNodeCount, JobField::kWallHours},
      {JobField::kNodeCount, JobField::kMaxMemory},
  }};
  const auto& trace = perf_dataset().trace;
  for (auto _ : state) {
    const analysis::JobColumns jobs{trace};
    benchmark::DoNotOptimize(analysis::workload_shape(jobs));
    for (const auto& [key, target] : kPanels) {
      benchmark::DoNotOptimize(analysis::job_profile(jobs, key, target, 20));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.jobs().size()));
}
BENCHMARK(BM_WorkloadChar)->Unit(benchmark::kMillisecond);

void BM_Utilization(benchmark::State& state) {
  // The utilization kernel's study: the last 45 days of per-job SBE counts
  // and their correlations, offender jobs excluded and not.
  const auto& data = perf_dataset();
  const auto end = data.config.period.end;
  const auto begin = std::max(data.config.period.begin, end - 45 * stats::kSecondsPerDay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::utilization_study(data.trace, data.sbe_strikes, begin, end));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.sbe_strikes.size()));
}
BENCHMARK(BM_Utilization)->Unit(benchmark::kMillisecond);

void BM_FullStudyEndToEnd(benchmark::State& state) {
  // The canonical 21-month default_config campaign every figure bench
  // replays -- the headline number for pipeline optimizations.  The
  // analysis-phase share counters report how much of a figure bench's
  // wall-clock the frame path now covers: simulate, then index + run the
  // analysis battery, timing each half.
  double simulate_s = 0.0;
  double analysis_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto data = core::run_study(core::default_config(42));
    const auto t1 = std::chrono::steady_clock::now();
    const auto frame = analysis::EventFrame::build(std::span<const xid::Event>{data.events},
                                                   &data.fleet.ledger());
    run_analysis_suite(frame, data);
    const auto t2 = std::chrono::steady_clock::now();
    simulate_s += std::chrono::duration<double>(t1 - t0).count();
    analysis_s += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(&frame);
  }
  state.counters["simulate_s"] = simulate_s;
  state.counters["analysis_s"] = analysis_s;
  state.counters["analysis_share"] =
      simulate_s + analysis_s > 0.0 ? analysis_s / (simulate_s + analysis_s) : 0.0;
  state.SetItemsProcessed(state.iterations() * simulated_node_hours(core::default_config(42)));
}
BENCHMARK(BM_FullStudyEndToEnd)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
