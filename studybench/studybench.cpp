// studybench: the measuring process of the study benchmark (README.md).
//
// run.py starts it twice per run, each time as a child whose peak RSS it
// reads with wait4, so one phase's high-water mark never leaks into the
// other's reading:
//
//   studybench setup   --workload W --seed N --work DIR --golden DIR --out FILE
//   studybench measure --workload W --seed N --seconds S --trace 0|1 --work DIR --out FILE
//   studybench selftest
//
// `setup` writes the workload's fixture, the cross-check reference and
// the set-up samples; `measure` runs units back to back (closed loop, one
// client) for S seconds and writes raw per-unit samples.  With --trace 1,
// `measure` also times calls into each layer's public entry points and
// writes the spans as Chrome trace-event JSON.  run.py turns the samples
// into metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/facility.hpp"
#include "core/sharded.hpp"
#include "fault/campaign.hpp"
#include "ingest/triage.hpp"
#include "logsim/console.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "logsim/smi_text.hpp"
#include "par/pool.hpp"
#include "sched/users.hpp"
#include "sched/workload.hpp"
#include "stats/rng.hpp"
#include "study/io.hpp"
#include "study/registry.hpp"
#include "study/report.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 8;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The Fig. 13 following window the xid_matrix kernel uses.
constexpr stats::TimeSec kXidWindowS = 300;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Seconds of a fixed, titanrel-independent workload (sort plus random
/// gathers over 64 MiB): the machine's speed right now.
double calibrate_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> keys(std::size_t{1} << 20);
  for (auto& k : keys) k = next();
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> table(std::size_t{1} << 23);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = keys[keys.size() / 2];
  std::uint64_t idx = 1;
  for (int i = 0; i < (1 << 21); ++i) {
    idx = idx * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += table[(idx >> 20) & (table.size() - 1)];
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvBasis) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a_values(std::span<const T> values, std::uint64_t hash) {
  for (const T& value : values) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    hash = fnv1a(std::string_view{bytes, sizeof(T)}, hash);
  }
  return hash;
}

/// Digest of an event stream held as four columns.
std::uint64_t column_digest(std::span<const stats::TimeSec> times,
                            std::span<const topology::NodeId> nodes,
                            std::span<const xid::ErrorKind> kinds,
                            std::span<const xid::MemoryStructure> structures) {
  auto hash = fnv1a_values(times, kFnvBasis);
  hash = fnv1a_values(nodes, hash);
  hash = fnv1a_values(kinds, hash);
  return fnv1a_values(structures, hash);
}

std::uint64_t frame_digest(const analysis::EventFrame& frame) {
  return column_digest(frame.times(), frame.nodes(), frame.kinds(), frame.structures());
}

/// Digest of the console-visible part of a fault-campaign event stream
/// (SBEs never reach the console), in the same byte form as frame_digest.
std::uint64_t fault_stream_digest(std::span<const xid::Event> events) {
  std::vector<stats::TimeSec> times;
  std::vector<topology::NodeId> nodes;
  std::vector<xid::ErrorKind> kinds;
  std::vector<xid::MemoryStructure> structures;
  for (const auto& e : events) {
    if (e.kind == xid::ErrorKind::kSingleBitError) continue;
    times.push_back(e.time);
    nodes.push_back(e.node);
    kinds.push_back(e.kind);
    structures.push_back(e.structure);
  }
  return column_digest(times, nodes, kinds, structures);
}

/// Digest of a context loaded by a sharded round trip: the frame columns
/// plus the study window and side-artifact sizes.
std::uint64_t context_digest(const study::StudyContext& context) {
  auto hash = frame_digest(context.frame);
  const std::vector<std::int64_t> tail = {
      context.period.begin, context.period.end, context.accounting_from,
      static_cast<std::int64_t>(context.job_log.size()),
      static_cast<std::int64_t>(context.snapshot.records.size())};
  return fnv1a_values(std::span<const std::int64_t>{tail}, hash);
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// Per-section digests: each section rendered alone (text and json) under
/// the report's period, so sections compare byte for byte across reports
/// that hold different kernel sets.
std::map<std::string, std::uint64_t> section_digests(const study::StudyReport& report) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& result : report.results) {
    const study::StudyReport one{report.period, std::nullopt, {result}};
    out[result.name] = fnv1a(one.json(), fnv1a(one.text()));
  }
  return out;
}

/// Kernels a dataset load can run (text or sharded: events plus the smi
/// sweep), i.e. the sections a simulated and a dataset study share.
std::vector<std::string> dataset_kernels() {
  std::vector<std::string> names;
  for (const auto& name : study::AnalysisRegistry::standard().names()) {
    const auto needs = study::AnalysisRegistry::standard().find(name)->needs;
    if ((needs & ~static_cast<unsigned>(study::kEvents | study::kSnapshot)) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

/// Row pairs (i < j) whose times lie within the xid_matrix window, by a
/// two-pointer pass over a time-sorted column.
std::uint64_t window_pairs(std::span<const stats::TimeSec> times, stats::TimeSec window) {
  std::uint64_t pairs = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    hi = std::max(hi, i + 1);
    while (hi < times.size() && times[hi] - times[i] < window) ++hi;
    pairs += hi - i - 1;
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Spans and counters (traced runs only)
// ---------------------------------------------------------------------------

/// In-memory span recorder.  A span is (name, start, end, parent); spans
/// are tagged with the phase that recorded them ("probe" for the layer
/// probe pass, "unit" for the workload's own units) so a metric can prefer
/// what the workload itself called.  Disabled, span() only runs the body.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_phase(std::string phase) { phase_ = std::move(phase); }

  template <typename Body>
  decltype(auto) span(std::string name, Body&& body) {
    if (!enabled_) return std::forward<Body>(body)();
    const Scope scope{*this, std::move(name)};
    return std::forward<Body>(body)();
  }

  /// Duration of the most recently closed span, in ms.
  [[nodiscard]] double last_ms() const noexcept { return last_ms_; }

  void count(const std::string& name, double value) {
    if (enabled_) counters_.insert_or_assign(name, value);
  }
  [[nodiscard]] const std::map<std::string, double>& counters() const noexcept {
    return counters_;
  }

  /// Durations (ms) of spans named `name`: the "unit" phase's when it has
  /// any, else the "probe" phase's.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const {
    for (const std::string_view phase : {"unit", "probe"}) {
      std::vector<double> out;
      for (const auto& s : spans_) {
        if (s.name == name && s.phase == phase) out.push_back((s.end_us - s.begin_us) / 1e3);
      }
      if (!out.empty()) return out;
    }
    return {};
  }

  /// Chrome trace-event JSON ("X" complete events, parent ids in args).
  void write_chrome(const fs::path& path) const {
    std::ofstream out{path};
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.phase
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.begin_us
          << ",\"dur\":" << (s.end_us - s.begin_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string phase;
    double begin_us = 0.0;
    double end_us = 0.0;
    long parent = -1;
  };

  /// Opens a span on construction and closes it on destruction, so a
  /// body that throws still ends its span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_{tracer}, id_{tracer.spans_.size()} {
      const long parent = tracer.open_.empty() ? -1 : static_cast<long>(tracer.open_.back());
      tracer.spans_.push_back(Span{std::move(name), tracer.phase_, tracer.now_us(), 0.0, parent});
      tracer.open_.push_back(id_);
    }
    ~Scope() {
      auto& span = tracer_.spans_[id_];
      span.end_us = tracer_.now_us();
      tracer_.last_ms_ = (span.end_us - span.begin_us) / 1e3;
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_;
  std::string phase_ = "probe";
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, double> counters_;
  double last_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

enum class Workload { kSimStudy, kDatasetAnalyze, kShardedRoundtrip };

struct Options {
  std::string mode;
  Workload workload = Workload::kSimStudy;
  std::uint64_t seed = 20151115;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;
  fs::path golden;
  fs::path out;
};

Workload parse_workload(std::string_view name) {
  if (name == "sim_study") return Workload::kSimStudy;
  if (name == "dataset_analyze") return Workload::kDatasetAnalyze;
  if (name == "sharded_roundtrip") return Workload::kShardedRoundtrip;
  throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"usage: studybench setup|measure|selftest ..."};
  Options o;
  o.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = parse_workload(value);
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--work") o.work = value;
    else if (key == "--golden") o.golden = value;
    else if (key == "--out") o.out = value;
    else throw std::invalid_argument{"unknown option '" + std::string{key} + "'"};
  }
  return o;
}

fs::path fixture_dir(const Options& o) { return o.work / "fixture"; }
fs::path reference_file(const Options& o) { return o.work / "reference.txt"; }

void write_reference(const fs::path& path, const std::map<std::string, std::uint64_t>& sections) {
  std::ofstream out{path};
  for (const auto& [name, digest] : sections) out << name << ' ' << hex(digest) << '\n';
}

std::map<std::string, std::uint64_t> read_reference(const fs::path& path) {
  std::map<std::string, std::uint64_t> sections;
  std::ifstream in{path};
  std::string name;
  std::string digest;
  while (in >> name >> digest) sections[name] = std::stoull(digest, nullptr, 16);
  return sections;
}

std::string json_number(double value) {
  std::ostringstream s;
  s.precision(17);
  s << value;
  return s.str();
}

/// A JSON array of already-serialized `items`.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out + ']';
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(json_number(v));
  return json_array(items);
}

/// Minimal JSON object writer for the sample files run.py reads.
class JsonOut {
 public:
  void field(std::string_view key, const std::string& raw) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(key).append("\":").append(raw);
  }
  void number(std::string_view key, double value) { field(key, json_number(value)); }
  void boolean(std::string_view key, bool value) { field(key, value ? "true" : "false"); }
  void string(std::string_view key, std::string_view value) {
    field(key, "\"" + std::string{value} + "\"");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Set-up: golden check, fixture, cross-check reference
// ---------------------------------------------------------------------------

/// The quick_config(7) study must equal the committed golden report.
bool golden_matches(const fs::path& golden_dir) {
  const auto context = study::SimulatedSource{core::quick_config(7)}.load();
  const auto report = study::AnalysisRegistry::standard().run_all(context);
  const auto text = study::read_all(golden_dir / "k20x_quick_seed7.txt");
  const auto json = study::read_all(golden_dir / "k20x_quick_seed7.json");
  return !text.empty() && report.text() == text && report.json() == json;
}

int run_setup(const Options& o) {
  fs::create_directories(o.work);
  const auto& registry = study::AnalysisRegistry::standard();
  bool golden = true;
  std::optional<study::StudyContext> simulated;
  std::vector<double> setup_s;
  std::vector<double> cal_s;
  // One set-up = the golden check, plus (dataset_analyze) simulating the
  // seed and writing its text fixture.  Repeated so setup_s is a median.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    simulated.reset();
    cal_s.push_back(calibrate_s());
    const auto t0 = Clock::now();
    golden = golden_matches(o.golden) && golden;
    if (o.workload == Workload::kDatasetAnalyze) {
      simulated = study::SimulatedSource{core::default_config(o.seed)}.load();
      fs::remove_all(fixture_dir(o));
      study::write_dataset(*simulated, fixture_dir(o), study::DatasetFormat::kText);
    }
    setup_s.push_back(seconds_since(t0));
  }
  cal_s.push_back(calibrate_s());

  // Untimed: the sections a dataset study must reproduce, from the
  // simulated study of the same seed.
  std::size_t reference_sections = 0;
  if (o.workload != Workload::kSimStudy) {
    if (!simulated) simulated = study::SimulatedSource{core::default_config(o.seed)}.load();
    const auto names = dataset_kernels();
    const auto sections = section_digests(registry.run(*simulated, names));
    write_reference(reference_file(o), sections);
    reference_sections = sections.size();
  }

  JsonOut out;
  out.field("setup_s", json_numbers(setup_s));
  out.field("cal_s", json_numbers(cal_s));
  out.boolean("golden", golden);
  out.number("reference_sections", static_cast<double>(reference_sections));
  std::ofstream{o.out} << out.str() << '\n';
  return 0;
}

/// Analysis half of a sim_study / dataset_analyze unit: sweep and render.
std::uint64_t analyse(const study::StudyContext& context, Tracer& t) {
  const double cpu0 = cpu_seconds();
  const auto report = t.span("study.sweep", [&] {
    return study::AnalysisRegistry::standard().run_all(context);
  });
  const double sweep_ms = t.last_ms();
  t.count("par.cpu_per_wall", (cpu_seconds() - cpu0) * 1e3 / sweep_ms);
  const auto [text, json] = t.span("render.report", [&] {
    return std::pair{report.text(), report.json()};
  });
  t.count("render.report_bytes", static_cast<double>(text.size() + json.size()));
  return fnv1a(json, fnv1a(text));
}

/// Traced runs, first unit, outside its timing: each kernel alone on the
/// unit's own context, and the sweep's overlap against their sum.
void time_kernels(const study::StudyContext& context, Tracer& t) {
  const auto& registry = study::AnalysisRegistry::standard();
  t.count("analysis.xid_window_pairs",
          static_cast<double>(window_pairs(context.frame.times(), kXidWindowS)));
  double kernels_ms = 0.0;
  for (const auto& name : registry.available(context)) {
    const std::vector<std::string> one{name};
    t.span("analysis." + name, [&] { return registry.run(context, one); });
    kernels_ms += t.last_ms();
  }
  t.count("study.sweep_overlap", kernels_ms / t.durations_ms("study.sweep").back());
}

// ---------------------------------------------------------------------------
// Layer probe pass (traced runs): every layer's public entry points, timed
// from here, once on the seed's inputs.
// ---------------------------------------------------------------------------

/// Returns false when the decomposition check fails: the fault layer's
/// console-visible event stream must digest equal to the SimulatedSource
/// frame's columns.
bool probe_layers(const Options& o, Tracer& t) {
  t.set_phase("probe");
  const auto config = core::default_config(o.seed);
  const stats::Rng master{config.seed};

  std::uint64_t fault_digest = 0;
  std::string console_text;
  std::string jobs_text;
  std::string smi_text;
  {
    const auto users = sched::make_user_population(config.users, master.fork("users"));
    auto workload = t.span("sched.workload", [&] {
      return sched::simulate_workload(config.workload, users, master.fork("workload"));
    });
    {
      auto jobs = workload.trace.jobs();
      std::size_t entries = 0;
      for (const auto& job : jobs) entries += job.node_count();
      t.count("sched.jobs", static_cast<double>(jobs.size()));
      t.count("sched.index_entries", static_cast<double>(entries));
      t.span("sched.trace_index", [&] { return sched::JobTrace{std::move(jobs)}; });
    }

    gpu::Fleet fleet;
    auto traits = t.span("fault.fleet_init", [&] {
      return fault::initialize_fleet(fleet, config.period.begin, master.fork("fleet"),
                                     config.campaign.model);
    });
    const auto campaign = t.span("fault.campaign", [&] {
      return fault::run_fault_campaign(fleet, std::move(traits), workload.trace, config.campaign,
                                       master.fork("faults"));
    });
    t.count("fault.events", static_cast<double>(campaign.events.size()));
    t.count("fault.sbe_strikes", static_cast<double>(campaign.sbe_strikes.size()));
    fault_digest = fault_stream_digest(campaign.events);

    const auto lines = t.span("logsim.console", [&] {
      return logsim::emit_console_log(campaign.events, *config.profile);
    });
    t.count("logsim.console_lines", static_cast<double>(lines.size()));
    const auto snapshot = t.span("logsim.snapshot", [&] {
      return logsim::take_snapshot(fleet, config.period.end - 1, config.campaign.thermal);
    });
    t.span("analysis.frame_build", [&] {
      return analysis::EventFrame::build(std::span<const xid::Event>{campaign.events},
                                         &fleet.ledger());
    });

    // The text artifacts write_dataset would produce, for the ingest layer.
    for (const auto& line : lines) console_text.append(line).push_back('\n');
    for (const auto& line : logsim::emit_job_log(workload.trace)) {
      jobs_text.append(line).push_back('\n');
    }
    smi_text = logsim::smi_sweep_text(snapshot);
  }
  {
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    const auto console = t.span("ingest.console", [&] {
      return ingest::ingest_console_text(console_text, "console.log",
                                         ingest::IngestPolicy::kStrict, report);
    });
    t.count("ingest.console_lines", static_cast<double>(console.lines));
    t.span("ingest.jobs", [&] {
      return ingest::ingest_job_text(jobs_text, "jobs.log", ingest::IngestPolicy::kStrict,
                                     report);
    });
    t.span("ingest.smi", [&] {
      return ingest::ingest_smi_text(smi_text, "smi_sweep.txt", ingest::IngestPolicy::kStrict,
                                     report);
    });
    console_text = jobs_text = smi_text = std::string{};
  }

  bool decomposes = false;
  {
    const auto context = t.span("study.source_load", [&] {
      return study::SimulatedSource{config}.load();
    });
    decomposes = frame_digest(context.frame) == fault_digest;
    analyse(context, t);
    time_kernels(context, t);
    const auto dir = o.work / "probe-text";
    fs::remove_all(dir);
    t.span("study.write", [&] {
      study::write_dataset(context, dir, study::DatasetFormat::kText);
    });
    fs::remove_all(dir);
  }

  // core + tdf: plan and generate the shards, encode each in memory, then
  // stream every container back through a SegmentReader.
  const auto shard_dir = o.work / "probe-shards";
  fs::remove_all(shard_dir);
  fs::create_directories(shard_dir);
  {
    auto sharded = t.span("core.plan", [&] { return core::ShardedStudy{config, kShards}; });
    std::vector<std::size_t> sizes;
    std::size_t bytes = 0;
    for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
      auto columns = t.span("core.shard", [&] { return sharded.shard_events(s); });
      sizes.push_back(columns.size());
      tdf::TdfDataset data;
      data.period_begin = config.period.begin;
      data.period_end = config.period.end;
      data.accounting_from = config.campaign.timeline.new_driver;
      data.profile_name = std::string{config.profile->name};
      data.profile_hash = config.profile->content_hash();
      data.times = std::move(columns.times);
      data.nodes = std::move(columns.nodes);
      data.kinds = std::move(columns.kinds);
      data.structures = std::move(columns.structures);
      const auto encoded = t.span("tdf.encode", [&] { return tdf::encode_tdf(data); });
      bytes += encoded.size();
      study::write_text(shard_dir / tdf::shard_file_name(s), encoded);
    }
    const double total = std::accumulate(sizes.begin(), sizes.end(), 0.0);
    const double peak = static_cast<double>(*std::max_element(sizes.begin(), sizes.end()));
    t.count("core.shard_skew", peak * static_cast<double>(sizes.size()) / total);
    t.count("tdf.bytes", static_cast<double>(bytes));
  }
  t.span("tdf.stream_decode", [&] {
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    tdf::EventWindow window;
    for (std::size_t s = 0; s < kShards; ++s) {
      tdf::SegmentReader reader{shard_dir / tdf::shard_file_name(s),
                                ingest::IngestPolicy::kStrict, report};
      while (reader.next_window(window) > 0) {
      }
    }
  });
  fs::remove_all(shard_dir);
  return decomposes;
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

struct UnitOutcome {
  double unit_s = 0.0;    ///< wall seconds of the whole unit
  double source_s = 0.0;  ///< wall seconds of the unit's source step
  std::uint64_t digest = 0;
};

UnitOutcome run_unit(const Options& o, Tracer& t, bool first) {
  UnitOutcome out;
  const auto config = core::default_config(o.seed);
  const bool per_kernel = first && t.enabled();
  switch (o.workload) {
    case Workload::kSimStudy:
    case Workload::kDatasetAnalyze: {
      std::optional<study::StudyContext> context;
      const auto t0 = Clock::now();
      t.span("unit", [&] {
        context = t.span("study.source_load", [&] {
          return o.workload == Workload::kSimStudy
                     ? study::SimulatedSource{config}.load()
                     : study::DatasetSource{fixture_dir(o)}.load();
        });
        out.source_s = seconds_since(t0);
        out.digest = analyse(*context, t);
      });
      out.unit_s = seconds_since(t0);
      if (per_kernel) time_kernels(*context, t);
      break;
    }
    case Workload::kShardedRoundtrip: {
      const auto dir = o.work / "roundtrip";
      fs::remove_all(dir);
      std::optional<study::StudyContext> context;
      const auto t0 = Clock::now();
      t.span("unit", [&] {
        t.span("study.write", [&] {
          return study::generate_sharded_dataset(config, kShards, dir);
        });
        out.source_s = seconds_since(t0);
        context = t.span("study.source_load", [&] { return study::DatasetSource{dir}.load(); });
      });
      out.unit_s = seconds_since(t0);
      out.digest = context_digest(*context);
      break;
    }
  }
  return out;
}

/// Untimed cross-check against the set-up's reference sections: the
/// dataset context (text fixture or the last round trip's shards) must
/// reproduce the simulated study's sections byte for byte.
bool cross_check(const Options& o) {
  const auto reference = read_reference(reference_file(o));
  if (reference.empty()) return false;
  const auto dir = o.workload == Workload::kDatasetAnalyze ? fixture_dir(o) : o.work / "roundtrip";
  const auto context = study::DatasetSource{dir}.load();
  std::vector<std::string> names;
  for (const auto& [name, digest] : reference) names.push_back(name);
  return section_digests(study::AnalysisRegistry::standard().run(context, names)) == reference;
}

struct LayerMetric {
  std::string metric;
  std::string span;  ///< empty: a counter of the same name
  std::string unit;
  bool sum = false;  ///< sum the spans (else their median)
};

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> out = {
      {"sched.workload_ms", "sched.workload", "ms"},
      {"sched.trace_index_ms", "sched.trace_index", "ms"},
      {"sched.jobs", "", "count"},
      {"sched.index_entries", "", "count"},
      {"fault.fleet_init_ms", "fault.fleet_init", "ms"},
      {"fault.campaign_ms", "fault.campaign", "ms"},
      {"fault.events", "", "count"},
      {"fault.sbe_strikes", "", "count"},
      {"logsim.console_ms", "logsim.console", "ms"},
      {"logsim.console_lines", "", "count"},
      {"logsim.snapshot_ms", "logsim.snapshot", "ms"},
      {"core.plan_ms", "core.plan", "ms"},
      {"core.shard_ms", "core.shard", "ms"},
      {"core.shard_skew", "", "ratio"},
      {"tdf.encode_ms", "tdf.encode", "ms", true},
      {"tdf.stream_decode_ms", "tdf.stream_decode", "ms"},
      {"tdf.bytes", "", "bytes"},
      {"ingest.console_ms", "ingest.console", "ms"},
      {"ingest.console_lines", "", "count"},
      {"ingest.jobs_ms", "ingest.jobs", "ms"},
      {"ingest.smi_ms", "ingest.smi", "ms"},
      {"analysis.frame_build_ms", "analysis.frame_build", "ms"},
      {"analysis.xid_window_pairs", "", "count"},
      {"study.source_load_ms", "study.source_load", "ms"},
      {"study.write_ms", "study.write", "ms"},
      {"study.sweep_ms", "study.sweep", "ms"},
      {"study.sweep_overlap", "", "ratio"},
      {"render.report_ms", "render.report", "ms"},
      {"render.report_bytes", "", "bytes"},
      {"par.threads", "", "count"},
      {"par.cpu_per_wall", "", "ratio"},
      {"trace.unit_ms", "unit", "ms"},
  };
  for (const auto& kernel : study::AnalysisRegistry::standard().names()) {
    out.push_back({"analysis." + kernel + "_ms", "analysis." + kernel, "ms"});
  }
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int run_measure(const Options& o) {
  fs::create_directories(o.work);
  Tracer t{o.trace};
  t.count("par.threads", static_cast<double>(par::ThreadPool::instance().threads()));
  const bool decomposes = o.trace ? probe_layers(o, t) : true;

  t.set_phase("unit");
  std::vector<std::string> units;
  std::vector<double> cal_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::uint64_t> first_digest;
  const auto start = Clock::now();
  do {
    ++attempted;
    try {
      cal_s.push_back(calibrate_s());
      const auto unit = run_unit(o, t, attempted == 1);
      if (!first_digest) first_digest = unit.digest;
      const bool ok = unit.digest == *first_digest;
      if (!ok) ++failed;
      JsonOut u;
      u.number("unit_s", unit.unit_s);
      u.number("source_s", unit.source_s);
      u.boolean("ok", ok);
      units.push_back(u.str());
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << "studybench: unit " << attempted << " failed: " << e.what() << '\n';
    }
  } while (seconds_since(start) < o.seconds);
  cal_s.push_back(calibrate_s());

  bool cross = o.workload == Workload::kSimStudy;
  if (!cross) {
    try {
      cross = cross_check(o);
    } catch (const std::exception& e) {
      std::cerr << "studybench: cross-check failed: " << e.what() << '\n';
    }
  }

  JsonOut out;
  out.field("units", json_array(units));
  out.number("attempted", static_cast<double>(attempted));
  out.number("failed", static_cast<double>(failed));
  out.field("cal_s", json_numbers(cal_s));
  out.boolean("cross_check", cross);
  out.boolean("decomposes", decomposes);
  if (o.trace) {
    JsonOut layers;
    for (const auto& m : layer_metrics()) {
      double value = 0.0;
      if (m.span.empty()) {
        const auto it = t.counters().find(m.metric);
        if (it != t.counters().end()) value = it->second;
      } else if (const auto d = t.durations_ms(m.span); !d.empty()) {
        value = m.sum ? std::accumulate(d.begin(), d.end(), 0.0) : median(d);
      }
      JsonOut metric;
      metric.number("value", value);
      metric.string("unit", m.unit);
      layers.field(m.metric, metric.str());
    }
    out.field("layers", layers.str());
    const auto trace_path = o.work / "trace.json";
    t.write_chrome(trace_path);
    out.string("trace_file", trace_path.string());
  }
  std::ofstream{o.out} << out.str() << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test of the digest and counting helpers
// ---------------------------------------------------------------------------

int run_selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAILED: " << what << '\n';
    }
  };
  // Published FNV-1a 64 test vectors.
  expect(fnv1a("") == 0xcbf29ce484222325ULL, "fnv1a(\"\")");
  expect(fnv1a("a") == 0xaf63dc4c8601ec8cULL, "fnv1a(\"a\")");
  expect(fnv1a("foobar") == 0x85944171f73967e8ULL, "fnv1a(\"foobar\")");
  expect(fnv1a("bar", fnv1a("foo")) == fnv1a("foobar"), "fnv1a chaining");

  const std::vector<stats::TimeSec> times = {0, 0, 100, 299, 300, 599, 1000, 1000, 1299};
  std::uint64_t brute = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    for (std::size_t j = i + 1; j < times.size(); ++j) brute += times[j] - times[i] < 300;
  }
  expect(window_pairs(times, 300) == brute, "window_pairs matches the pairwise count");
  expect(window_pairs({}, 300) == 0, "window_pairs of an empty column");

  const std::vector<topology::NodeId> nodes = {1, 2};
  const std::vector<xid::ErrorKind> kinds = {xid::ErrorKind::kDoubleBitError,
                                             xid::ErrorKind::kDoubleBitError};
  const std::vector<xid::MemoryStructure> structures(2);
  const std::vector<stats::TimeSec> t2 = {5, 6};
  const std::vector<stats::TimeSec> t2b = {5, 7};
  expect(column_digest(t2, nodes, kinds, structures) != column_digest(t2b, nodes, kinds, structures),
         "column_digest sees a changed time");

  Tracer tracer{true};
  tracer.span("outer", [&] { tracer.span("inner", [] {}); });
  tracer.set_phase("unit");
  tracer.span("outer", [] {});
  expect(tracer.durations_ms("outer").size() == 1, "unit-phase spans take precedence");
  expect(tracer.durations_ms("inner").size() == 1, "probe spans are the fallback");

  std::cout << (failures == 0 ? "selftest ok" : "selftest failed") << '\n';
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (o.mode == "selftest") return run_selftest();
    if (o.mode == "setup") return run_setup(o);
    if (o.mode == "measure") return run_measure(o);
    throw std::invalid_argument{"unknown mode '" + o.mode + "'"};
  } catch (const std::exception& e) {
    std::cerr << "studybench: " << e.what() << '\n';
    return 2;
  }
}
