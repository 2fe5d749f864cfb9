#include "study/source.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "ckpt/study_ckpt.hpp"
#include "faulttest/faulttest.hpp"
#include "logsim/console.hpp"
#include "logsim/smi_text.hpp"
#include "par/parallel.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

/// Job records per parallel task when quantizing a job log (a few
/// hundred nanoseconds each).
constexpr std::size_t kJobGrain = 4096;

/// Record a whole-file finding; under kStrict a fatal code throws
/// IngestError naming the file instead.
void triage_file(IngestPolicy policy, IngestReport& report, std::string_view file,
                 TriageCode code, SalvageAction action, std::string_view detail) {
  if (policy == IngestPolicy::kStrict && ingest::fatal_in_strict(code)) {
    throw ingest::IngestError{std::string{file}, 0, code, detail};
  }
  report.add(file, 0, code, action, detail);
}

/// Resolve which fleet profile a loaded context runs under, validating
/// the dataset's recording (when present) against the profile the load
/// asked for (when given).  Any disagreement -- unknown recorded name,
/// content-hash divergence, or recorded != requested -- is
/// E_PROFILE_MISMATCH: fatal under kStrict, warn-and-adopt under
/// kSalvage (the dataset's own profile wins when it resolves; the
/// requested/default profile is the fallback otherwise).
void resolve_profile(StudyContext& context, std::string_view source_file, bool recorded,
                     std::string_view recorded_name, std::uint64_t recorded_hash,
                     const profile::FleetProfile* expected, IngestPolicy policy,
                     IngestReport& report) {
  const profile::FleetProfile* fallback = expected ? expected : &profile::k20x_titan();
  if (!recorded) {
    context.profile = fallback;
    return;
  }
  const profile::FleetProfile* dataset_profile = profile::find_profile(recorded_name);
  if (dataset_profile == nullptr) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kIgnored,
                "dataset records unknown fleet profile '" + std::string{recorded_name} +
                    "' (this build knows: " + profile::profile_names() + ")");
    context.profile = fallback;
    return;
  }
  if (dataset_profile->content_hash() != recorded_hash) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kRepaired,
                "dataset profile '" + std::string{recorded_name} + "' hash " +
                    ingest::checksum_hex(recorded_hash) +
                    " disagrees with this build's " +
                    ingest::checksum_hex(dataset_profile->content_hash()));
  } else if (expected != nullptr && expected != dataset_profile) {
    triage_file(policy, report, source_file, TriageCode::kProfileMismatch,
                SalvageAction::kRepaired,
                "dataset was written under profile '" + std::string{recorded_name} +
                    "' but the load requested '" + std::string{expected->name} + "'");
  }
  context.profile = dataset_profile;
}

/// Walk the manifest's checksum claims in claim order and triage each
/// verdict: a claimed-but-missing file and a content mismatch are
/// integrity findings (fatal under kStrict).  A v2 container claim costs
/// one header and table read, so it is verified; a present `.tdf` claim
/// of a v1 manifest is presence-checked only, since its whole-file hash
/// would read each container twice (the decode validates every byte it
/// reads against the table).  `checksum(i)` yields claim i's claim value
/// (nullopt = missing); the binary path hashes on demand, the text load
/// hands over what its pool hashed.
template <typename Checksum>
void walk_claims(const fs::path& dir, const ingest::ManifestIngest& manifest,
                 IngestPolicy policy, IngestReport& report, Checksum&& checksum) {
  for (std::size_t i = 0; i < manifest.checksums.size(); ++i) {
    const auto& [name, expected] = manifest.checksums[i];
    if (manifest.version == 1 && name.ends_with(".tdf") && fs::exists(dir / name)) continue;
    if (const auto finding = claim_verdict(name, expected, checksum(i))) {
      triage_file(policy, report, name, finding->code, SalvageAction::kIgnored,
                  finding->detail);
    }
  }
}

/// Study window from the manifest's claims, else the event stream's span
/// (foreign datasets without a manifest).
void adopt_manifest_period(StudyContext& context, const ingest::ManifestIngest& manifest) {
  const auto times = context.frame.times();
  context.period.begin = manifest.have_begin ? manifest.begin : times.front();
  context.period.end = manifest.have_end ? manifest.end : times.back() + 1;
  context.accounting_from =
      manifest.have_accounting ? manifest.accounting : context.period.begin;
}

/// The binary load path, for one container and a shard roster alike:
/// open a streaming SegmentReader per container, k-way merge their
/// windowed event streams by (time, roster index), and build the context
/// from the merged columns.  Container k holds strictly earlier stream
/// positions than container k+1 at equal timestamps, so the merge
/// reproduces the unsharded order exactly, at any roster size.  Once only
/// one container still has rows, its remaining windows append whole --
/// which is all a one-container roster ever does.  Per-container resident
/// decode state is one window, so containers beyond the whole-file read
/// cap stream fine.
StudyContext load_containers(const fs::path& dir, const ingest::ManifestIngest& manifest,
                             const DatasetLayout& layout, IngestPolicy policy,
                             IngestReport& report, const profile::FleetProfile* expected) {
  const bool sharded = layout.kind == LayoutKind::kSharded;
  // No reserve: a damaged `shards` count must end at the first missing
  // shard below, not in one huge allocation.
  std::vector<tdf::SegmentReader> readers;
  for (std::size_t s = 0; s < layout.containers; ++s) {
    const auto name = layout.container(s);
    const auto path = dir / name;
    if (!fs::exists(path)) {
      // Fatal under either policy: a missing slice of the event stream
      // cannot be salvaged around without silently dropping its events.
      throw ingest::IngestError{
          name, 0, sharded ? TriageCode::kPartialShardSet : TriageCode::kFileMissing,
          sharded ? "sharded dataset claims " + std::to_string(manifest.shards) +
                        " shards but shard " + std::to_string(s) + " is missing"
                  : "manifest claims " + name + " but it is missing"};
    }
    readers.emplace_back(path, policy, report);
  }

  // Every container must describe the same study window; the first is
  // the reference and disagreement names the odd one out.
  for (std::size_t s = 1; s < readers.size(); ++s) {
    if (readers[s].period_begin() != readers[0].period_begin() ||
        readers[s].period_end() != readers[0].period_end() ||
        readers[s].accounting_from() != readers[0].accounting_from()) {
      throw ingest::IngestError{readers[s].file_name(), 0, TriageCode::kTdfSegmentCorrupt,
                                "meta study window disagrees with " + readers[0].file_name()};
    }
    if (readers[s].profile_name() != readers[0].profile_name() ||
        readers[s].profile_hash() != readers[0].profile_hash()) {
      throw ingest::IngestError{readers[s].file_name(), 0, TriageCode::kTdfSegmentCorrupt,
                                "meta fleet profile disagrees with " + readers[0].file_name()};
    }
  }

  std::uint64_t total = 0;
  for (const auto& r : readers) total += r.event_count();
  if (total == 0) {
    throw ingest::IngestError{layout.container(0), 0, TriageCode::kNoEvents,
                              "dataset at " + dir.string() + " contains no events"};
  }

  tdf::EventWindow merged;
  merged.times.reserve(static_cast<std::size_t>(total));
  merged.nodes.reserve(static_cast<std::size_t>(total));
  merged.kinds.reserve(static_cast<std::size_t>(total));
  merged.structures.reserve(static_cast<std::size_t>(total));

  struct Cursor {
    tdf::EventWindow window;
    std::size_t pos = 0;
  };
  std::vector<Cursor> cursors(readers.size());
  // True when the cursor points at a decoded row (refilling the window
  // from the reader as needed).
  const auto ready = [&](std::size_t s) -> bool {
    auto& cur = cursors[s];
    if (cur.pos < cur.window.size()) return true;
    cur.pos = 0;
    return readers[s].next_window(cur.window) > 0;
  };

  struct Head {
    stats::TimeSec time = 0;
    std::uint32_t shard = 0;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.shard > b.shard;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heap{later};
  for (std::size_t s = 0; s < readers.size(); ++s) {
    if (ready(s)) {
      heap.push(Head{cursors[s].window.times[0], static_cast<std::uint32_t>(s)});
    }
  }
  while (heap.size() > 1) {
    const Head top = heap.top();
    heap.pop();
    auto& cur = cursors[top.shard];
    merged.times.push_back(cur.window.times[cur.pos]);
    merged.nodes.push_back(cur.window.nodes[cur.pos]);
    merged.kinds.push_back(cur.window.kinds[cur.pos]);
    merged.structures.push_back(cur.window.structures[cur.pos]);
    ++cur.pos;
    if (ready(top.shard)) {
      heap.push(Head{cur.window.times[cur.pos], top.shard});
    }
  }
  if (!heap.empty()) {
    // The last container with rows: nothing left to interleave, so the
    // rest of its current window and every later window append whole.
    const std::uint32_t last = heap.top().shard;
    auto& cur = cursors[last];
    const auto tail = [&cur](auto& out, const auto& column) {
      out.insert(out.end(), column.begin() + static_cast<std::ptrdiff_t>(cur.pos),
                 column.end());
    };
    do {
      tail(merged.times, cur.window.times);
      tail(merged.nodes, cur.window.nodes);
      tail(merged.kinds, cur.window.kinds);
      tail(merged.structures, cur.window.structures);
      cur.pos = 0;
    } while (readers[last].next_window(cur.window) > 0);
  }

  StudyContext context;
  context.frame = analysis::EventFrame::from_columns(merged.times, merged.nodes, merged.kinds,
                                                     merged.structures);
  context.capabilities = kEvents;

  // Study window: the containers' (agreeing) meta segments are
  // authoritative -- they are what the writer recorded, and a manifest
  // claim covers the container bytes.  Containers recording none fall
  // back to the manifest.
  if (readers[0].period_begin() != 0 || readers[0].period_end() != 0) {
    context.period.begin = readers[0].period_begin();
    context.period.end = readers[0].period_end();
    context.accounting_from = readers[0].accounting_from();
  } else {
    adopt_manifest_period(context, manifest);
  }

  // Side artifacts ride in whichever container carries the segment (the
  // sharded writers put them in the last); salvage may have dropped them.
  for (auto& reader : readers) {
    if (std::vector<logsim::JobLogRecord> jobs; reader.read_jobs(jobs)) {
      context.load_stats.job_lines = jobs.size();
      context.job_log = std::move(jobs);
    }
    if (logsim::SmiSnapshot snapshot; reader.read_smi(snapshot)) {
      context.snapshot = std::move(snapshot);
      context.load_stats.smi_blocks = context.snapshot.records.size();
      context.capabilities |= kSnapshot;
    }
  }

  context.load_stats.binary = true;
  context.load_stats.shards = sharded ? readers.size() : 0;
  for (const auto& reader : readers) {
    context.load_stats.tdf_segments += reader.segment_count();
    context.load_stats.tdf_bytes += static_cast<std::size_t>(reader.file_bytes());
  }

  resolve_profile(context, readers[0].file_name(), !readers[0].profile_name().empty(),
                  readers[0].profile_name(), readers[0].profile_hash(), expected, policy,
                  report);
  return context;
}

/// One text artifact of a load: mapped once, after the ingest size cap.
/// A failed size check or open waits in `error` until the load reaches
/// the point where a file-by-file read would have met it.
struct TextArtifact {
  std::optional<tdf::MappedFile> map;
  std::exception_ptr error;
  bool claimed = false;
  /// Claim digests, when claimed and mapped: one per chunk under v2 (see
  /// ingest::claim_chunk_digest), the whole-file checksum under v1.
  std::vector<std::uint64_t> digests;

  void open(const fs::path& path) {
    if (!fs::exists(path)) return;
    try {
      (void)checked_file_size(path);
      map.emplace(path);
    } catch (...) {
      error = std::current_exception();
    }
  }
  /// Whether the file is there to read; a deferred error surfaces here.
  [[nodiscard]] bool present() const {
    if (error) std::rethrow_exception(error);
    return map.has_value();
  }
  [[nodiscard]] std::string_view text() const { return map ? map->bytes() : std::string_view{}; }
};

/// The text load: one mapping per artifact and one pool run of the smi
/// parse (the one long serial task, so it starts first), one hash task
/// per claimed file and claim chunk, and the chunked console and job
/// parses.  Then, in the order a file-by-file load meets them: the
/// manifest verdicts in claim order, the console, the job log, the smi
/// sweep -- so under strict a checksum mismatch still wins over any parse
/// error, and under salvage it is reported first.
StudyContext load_text(const fs::path& dir, const ingest::ManifestIngest& manifest,
                       IngestPolicy policy, IngestReport& report,
                       const profile::FleetProfile* expected) {
  // Claims name the whole dataset: an unclaimed side artifact is another
  // write's leftover.  With no claims to go by, the directory is probed.
  const auto side_artifact = [&](std::string_view name) {
    return manifest.checksums.empty() || manifest.claims(name);
  };
  std::map<std::string, TextArtifact> files;
  const auto open = [&](const std::string& name) -> TextArtifact& {
    const auto [it, added] = files.try_emplace(name);
    if (added) it->second.open(dir / name);
    return it->second;
  };
  for (const auto& [name, checksum] : manifest.checksums) {
    if (!name.ends_with(".tdf")) open(name).claimed = true;  // .tdf: the walk checks presence
  }
  const auto& console = open("console.log");
  const TextArtifact* jobs = side_artifact("jobs.log") ? &open("jobs.log") : nullptr;
  const TextArtifact* smi = side_artifact("smi_sweep.txt") ? &open("smi_sweep.txt") : nullptr;

  // A v2 claim splits into fixed chunks; a v1 claim is one whole-file hash.
  const bool v1 = manifest.version == 1;
  struct ClaimTask {
    TextArtifact* file;
    std::size_t chunk;
  };
  std::vector<ClaimTask> claim_tasks;
  for (auto& [name, file] : files) {
    if (!file.claimed || !file.map) continue;
    file.digests.resize(v1 ? 1 : ingest::claim_chunk_count(file.text().size()));
    for (std::size_t c = 0; c < file.digests.size(); ++c) claim_tasks.push_back({&file, c});
  }
  const auto console_text = console.text();
  const auto jobs_text = jobs ? jobs->text() : std::string_view{};
  const auto smi_text = smi ? smi->text() : std::string_view{};
  const auto console_spans = ingest::load_chunks(console_text);
  const auto job_spans = ingest::load_chunks(jobs_text);
  const std::size_t smi_tasks = smi_text.empty() ? 0 : 1;

  std::vector<ingest::ConsoleChunk> console_parts(console_spans.size());
  std::vector<ingest::JobChunk> job_parts(job_spans.size());
  IngestReport smi_report{policy};
  logsim::SmiSweepParse sweep;
  par::ThreadPool::instance().run(
      smi_tasks + claim_tasks.size() + console_spans.size() + job_spans.size(),
      [&](std::size_t t) {
        if (t < smi_tasks) {
          sweep = ingest::ingest_smi_text(smi_text, "smi_sweep.txt", policy, smi_report);
          return;
        }
        t -= smi_tasks;
        if (t < claim_tasks.size()) {
          const auto [file, chunk] = claim_tasks[t];
          file->digests[chunk] = v1 ? ingest::content_checksum(file->text())
                                    : ingest::claim_chunk_digest(file->text(), chunk);
          return;
        }
        t -= claim_tasks.size();
        if (t < console_spans.size()) {
          console_parts[t] =
              ingest::ingest_console_chunk(console_text, console_spans[t], "console.log", policy);
          return;
        }
        t -= console_spans.size();
        job_parts[t] = ingest::ingest_job_chunk(jobs_text, job_spans[t], "jobs.log", policy);
      });

  walk_claims(dir, manifest, policy, report, [&](std::size_t i) -> std::optional<std::uint64_t> {
    const auto& name = manifest.checksums[i].first;
    if (name.ends_with(".tdf")) return claim_checksum(dir, name, manifest.version);
    const auto it = files.find(name);
    if (it == files.end() || !it->second.present()) return std::nullopt;
    const auto& file = it->second;
    return v1 ? file.digests.front() : ingest::fold_text_claim(file.text().size(), file.digests);
  });

  if (!console.present()) {
    // Fatal under either policy: with no console log there is nothing to
    // salvage a study from.
    throw ingest::IngestError{"console.log", 0, TriageCode::kFileMissing,
                              "no dataset at " + dir.string()};
  }
  StudyContext context;
  {
    // The merged rows live only until the frame is built from them.
    const auto events =
        ingest::merge_console_chunks(console_text, "console.log", policy, console_parts, report);
    context.load_stats.console_lines = events.lines;
    context.load_stats.malformed_lines = events.malformed;
    context.load_stats.unrelated_lines = events.unrelated;
    if (events.events.empty()) {
      throw ingest::IngestError{"console.log", 0, TriageCode::kNoEvents,
                                "dataset at " + dir.string() + " contains no console events"};
    }
    context.frame =
        analysis::EventFrame::build(std::span<const parse::ParsedEvent>{events.events});
  }
  context.capabilities = kEvents;

  adopt_manifest_period(context, manifest);

  if (jobs != nullptr && jobs->present()) {
    auto log = ingest::merge_job_chunks(jobs_text, "jobs.log", job_parts, report);
    context.load_stats.job_lines = log.lines;
    context.load_stats.malformed_job_lines = log.malformed;
    context.job_log = std::move(log.records);
  }

  if (smi != nullptr && smi->present() && !smi_text.empty()) {
    report.append(smi_report, 0);
    context.snapshot.taken_at = sweep.taken_at;
    context.snapshot.records = std::move(sweep.records);
    context.load_stats.smi_blocks = context.snapshot.records.size();
    context.load_stats.malformed_smi_blocks = sweep.malformed_blocks;
    context.capabilities |= kSnapshot;
  }

  resolve_profile(context, "manifest.txt", manifest.have_profile, manifest.profile_name,
                  manifest.profile_hash, expected, policy, report);
  return context;
}

/// Crash-state gate, run before any artifact is parsed.  Two findings:
///
///   * Orphan *.tmp files -- a writer was killed mid-atomic-write.
///     Fatal under kStrict (E_ORPHAN_TMP); under kSalvage each orphan is
///     quarantined (renamed aside with a .quarantined suffix) and
///     recorded, then the load proceeds on the committed artifacts.
///   * A study.ckpt with no manifest.txt -- generation died between
///     artifacts and the commit point.  Fatal under BOTH policies: the
///     artifacts present may be an arbitrary prefix of the dataset, and
///     "salvaging" them would silently study a partial campaign.  The
///     remedy is rerunning the writer, not loading harder.
void gate_crash_state(const fs::path& dir, IngestPolicy policy, IngestReport& report) {
  const auto evidence = scan_crash_state(dir);
  for (const auto& name : evidence.leftovers) {
    if (fs::path{name}.extension() != ".tmp") continue;  // quarantined already
    triage_file(policy, report, name, TriageCode::kOrphanTmp, SalvageAction::kQuarantined,
                "leftover tmp file from an interrupted atomic write; quarantined as " +
                    name + ".quarantined");
    std::error_code ec;
    fs::rename(dir / name, dir / (name + ".quarantined"), ec);
  }
  if (evidence.checkpoint && !evidence.manifest) {
    throw ingest::IngestError{
        std::string{ckpt::kStudyCheckpointFileName}, 0, TriageCode::kCkptIncomplete,
        "write checkpoint present but no committed manifest: the dataset write was "
        "interrupted; rerun the writer instead of loading"};
  }
}

/// Whether a context carries a job log to write (a simulated trace or a
/// loaded one).
bool has_job_log(const StudyContext& context) {
  return context.truth.has_value() || !context.job_log.empty();
}

}  // namespace

StudyContext SimulatedSource::load() const {
  StudyContext context;
  context.truth = core::run_study(config_);
  const auto& truth = *context.truth;

  context.profile = truth.config.profile;
  context.period = truth.config.period;
  context.accounting_from = truth.config.campaign.timeline.new_driver;
  context.frame = analysis::EventFrame::build(std::span<const xid::Event>{truth.events},
                                              &truth.fleet.ledger());
  context.snapshot = truth.final_snapshot;

  // One console line per frame row, once the log is rendered.
  context.load_stats.console_lines = context.frame.size();
  context.load_stats.job_lines = truth.trace.jobs().size();
  context.load_stats.smi_blocks = truth.final_snapshot.records.size();

  context.capabilities = kEvents | kLedger | kSnapshot | kTrace | kGroundTruth | kStrikes;
  return context;
}

StudyContext DatasetSource::load() const {
  IngestReport report{policy_};
  gate_crash_state(dir_, policy_, report);

  // Manifest first: the producer's claims (study window, accounting
  // cutoff, content checksums, layout) gate everything that follows.  The
  // text load walks the claims itself, once its pool has hashed them.
  const auto manifest = read_manifest(dir_, policy_, report);
  const auto layout = dataset_layout(dir_, manifest);
  if (layout.containers != 0) {
    walk_claims(dir_, manifest, policy_, report, [&](std::size_t i) {
      return claim_checksum(dir_, manifest.checksums[i].first, manifest.version);
    });
  }
  StudyContext context =
      layout.containers == 0
          ? load_text(dir_, manifest, policy_, report, expected_profile_)
          : load_containers(dir_, manifest, layout, policy_, report, expected_profile_);

  // Only salvage loads carry the triage record into the report pipeline;
  // a strict load that got this far saw nothing fatal, and omitting the
  // (possibly benign-finding-bearing) report keeps clean-input study
  // reports byte-identical to an ingest-unaware build.
  if (policy_ == IngestPolicy::kSalvage) context.ingest_report = std::move(report);
  return context;
}

std::string DatasetLayout::container(std::size_t index) const {
  return kind == LayoutKind::kBinary ? std::string{tdf::kTdfFileName}
                                      : tdf::shard_file_name(index);
}

std::string_view DatasetLayout::name() const noexcept {
  constexpr std::string_view kNames[] = {"none", "text", "binary", "sharded"};
  return kNames[static_cast<std::size_t>(kind)];
}

DatasetLayout dataset_layout(const fs::path& dir, const ingest::ManifestIngest& manifest) {
  const std::string mono{tdf::kTdfFileName};
  DatasetLayout layout;
  if (manifest.have_shards) {
    layout = {LayoutKind::kSharded, static_cast<std::size_t>(manifest.shards)};
  } else if (manifest.claims(mono)) {
    layout = {LayoutKind::kBinary, 1};
  } else if (!manifest.checksums.empty()) {
    layout.kind = LayoutKind::kText;
  } else if (fs::exists(dir / mono)) {
    layout = {LayoutKind::kBinary, 1};
  } else if (fs::exists(dir / tdf::shard_file_name(0))) {
    layout.kind = LayoutKind::kSharded;
    while (fs::exists(dir / tdf::shard_file_name(layout.containers))) ++layout.containers;
  } else if (fs::exists(dir / "console.log")) {
    layout.kind = LayoutKind::kText;
  }
  return layout;
}

DatasetLayout dataset_layout(const fs::path& dir) {
  IngestReport scratch{IngestPolicy::kSalvage};
  return dataset_layout(dir, read_manifest(dir, IngestPolicy::kSalvage, scratch));
}

ingest::ManifestIngest read_manifest(const fs::path& dir, IngestPolicy policy,
                                     IngestReport& report) {
  const auto path = dir / "manifest.txt";
  if (!fs::exists(path)) return {};
  return ingest::ingest_manifest_text(read_all(path), "manifest.txt", policy, report);
}

namespace detail {

std::vector<std::string> console_lines_of(const StudyContext& context) {
  const auto& frame = context.frame;
  return logsim::emit_console_log(frame.times(), frame.nodes(), frame.kinds(),
                                  frame.structures(), *context.profile);
}

std::vector<std::string> job_lines_of(const StudyContext& context) {
  if (context.truth) return logsim::emit_job_log(context.truth->trace);
  std::vector<std::string> lines;
  lines.reserve(context.job_log.size());
  for (const auto& rec : context.job_log) lines.push_back(logsim::job_log_line(rec));
  return lines;
}

std::vector<logsim::JobLogRecord> quantized_jobs(const sched::JobTrace& trace) {
  const auto& jobs = trace.jobs();
  return par::parallel_map(0, jobs.size(), kJobGrain, [&](std::size_t j) {
    return logsim::quantized(logsim::job_log_record(jobs[j]));
  });
}

std::vector<logsim::JobLogRecord> quantized_jobs(const StudyContext& context) {
  if (context.truth) return quantized_jobs(context.truth->trace);
  const auto& jobs = context.job_log;
  return par::parallel_map(0, jobs.size(), kJobGrain,
                           [&](std::size_t j) { return logsim::quantized(jobs[j]); });
}

std::vector<std::string> begin_write(const fs::path& dir, const stats::StudyPeriod& period,
                                     stats::TimeSec accounting_from,
                                     const profile::FleetProfile& profile,
                                     std::size_t shard_count) {
  fs::create_directories(dir);
  ckpt::StudyCheckpoint intent;
  intent.profile_name = std::string{profile.name};
  intent.profile_hash = profile.content_hash();
  intent.shard_count = shard_count;
  ckpt::save_study_checkpoint(intent, dir);
  // The manifest goes before any artifact: a directory with a checkpoint
  // and no manifest is a named interrupted write whatever else it holds.
  fs::remove(dir / "manifest.txt");
  const auto evidence = scan_crash_state(dir);
  for (const auto& name : evidence.leftovers) {
    std::error_code ec;
    if (fs::is_regular_file(fs::symlink_status(dir / name, ec))) fs::remove(dir / name, ec);
  }
  for (const auto& name : evidence.artifacts) fs::remove(dir / name);
  TITAN_PTP("study/begin/cleared");

  std::vector<std::string> header = {
      std::string{ingest::kDatasetManifestHeader},
      "period_begin " + std::to_string(period.begin),
      "period_end " + std::to_string(period.end),
      "accounting_from " + std::to_string(accounting_from),
      "profile " + std::string{profile.name} + ' ' +
          ingest::checksum_hex(profile.content_hash()),
  };
  if (shard_count > 0) header.push_back("shards " + std::to_string(shard_count));
  return header;
}

std::string claim_line(std::string_view name, std::uint64_t checksum) {
  return "checksum " + std::string{name} + ' ' + ingest::checksum_hex(checksum);
}

void commit_manifest(const fs::path& dir, const std::vector<std::string>& manifest,
                     std::string_view pre_manifest_site, std::string_view committed_site) {
  // Manifest last: until it lands (atomically), a crashed writer leaves a
  // directory without integrity claims rather than one with stale claims.
  TITAN_PTP(pre_manifest_site);
  atomic_write_text(dir / "manifest.txt", join_lines(manifest));
  TITAN_PTP(committed_site);
  ckpt::remove_study_checkpoint(dir);
}

void stamp_meta(tdf::TdfDataset& data, const stats::StudyPeriod& period,
                stats::TimeSec accounting_from, const profile::FleetProfile& profile) {
  data.period_begin = period.begin;
  data.period_end = period.end;
  data.accounting_from = accounting_from;
  data.profile_name = std::string{profile.name};
  data.profile_hash = profile.content_hash();
}

tdf::TdfDataset container_of(const StudyContext& context, std::size_t lo, std::size_t hi,
                             bool side_artifacts) {
  tdf::TdfDataset data;
  stamp_meta(data, context.period, context.accounting_from, *context.profile);
  const auto slice = [&](auto column) {
    const auto part = column.subspan(lo, hi - lo);
    return std::vector(part.begin(), part.end());
  };
  const auto& frame = context.frame;
  data.times = slice(frame.times());
  data.nodes = slice(frame.nodes());
  data.kinds = slice(frame.kinds());
  data.structures = slice(frame.structures());
  if (side_artifacts && has_job_log(context)) {
    data.has_jobs = true;
    data.jobs = quantized_jobs(context);
  }
  if (side_artifacts && context.has(kSnapshot)) {
    data.has_smi = true;
    data.snapshot = logsim::quantized(context.snapshot);
  }
  return data;
}

}  // namespace detail

void write_dataset(const StudyContext& context, const std::filesystem::path& dir,
                   DatasetFormat format) {
  if (format == DatasetFormat::kBinary) {
    detail::write_roster(context, dir, DatasetLayout{LayoutKind::kBinary, 1});
    return;
  }
  auto manifest =
      detail::begin_write(dir, context.period, context.accounting_from, *context.profile, 0);
  // Each artifact is rendered once; its claim hashes the bytes written.
  const auto artifact = [&](std::string_view name, const std::string& bytes) {
    atomic_write_text(dir / name, bytes);
    manifest.push_back(detail::claim_line(name, ingest::text_claim(bytes)));
    TITAN_PTP("study/write/artifact");
  };
  artifact("console.log", join_lines(detail::console_lines_of(context)));
  if (has_job_log(context)) artifact("jobs.log", join_lines(detail::job_lines_of(context)));
  if (context.has(kSnapshot)) artifact("smi_sweep.txt", logsim::smi_sweep_text(context.snapshot));

  detail::commit_manifest(dir, manifest, "study/write/pre-manifest", "study/write/committed");
}

}  // namespace titan::study
