// StudySource: where a study's data comes from.
//
// Two implementations cover the paper's two positions: SimulatedSource
// runs the facility simulator (the "operate Titan for 21 months" stance,
// full ground truth), and DatasetSource ingests the on-disk text
// artifacts a real analyst would start from (console.log, jobs.log,
// smi_sweep.txt, manifest.txt) with no simulator access.  Both produce
// one StudyContext with the EventFrame built exactly once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>

#include "core/facility.hpp"
#include "ingest/triage.hpp"
#include "study/context.hpp"

namespace titan::study {

class StudySource {
 public:
  virtual ~StudySource() = default;

  /// Build the context.  Throws std::runtime_error when the source's
  /// inputs are missing or unusable.
  [[nodiscard]] virtual StudyContext load() const = 0;

  /// Short human label ("simulated", "dataset") for CLI preambles only;
  /// never serialized into a StudyReport (reports must not depend on the
  /// source).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Runs core::run_study and builds the context's one frame from the
/// ground-truth events: the console-recoverable view (SBEs dropped) with
/// the fleet-ledger card join and the job/root attribution columns.
/// Capabilities: events, ledger, snapshot, trace, ground truth, strikes.
class SimulatedSource final : public StudySource {
 public:
  explicit SimulatedSource(core::FacilityConfig config) : config_{config} {}

  [[nodiscard]] StudyContext load() const override;
  [[nodiscard]] std::string name() const override { return "simulated"; }

 private:
  core::FacilityConfig config_;
};

/// Ingests a dataset directory written by write_dataset or the sharded
/// producers (or any producer of the same formats).  manifest.txt is read
/// once, first, and dataset_layout picks the layout from it.  Both binary
/// layouts load through one roster loader: each container (`dataset.tdf`,
/// or the shards in order) streams window by window out of its mapping,
/// k-way merged back into the global event order.  The text layout needs
/// console.log; jobs.log, smi_sweep.txt and manifest.txt are optional
/// (capabilities shrink accordingly; without a manifest the period is
/// inferred from the event stream).  A manifest that claims any artifact
/// decides which side artifacts load: only claimed ones do.  The text
/// layout maps each artifact once and runs one pool pass that hashes the
/// claims beside the chunked parse; the claims' verdicts still surface
/// first, in claim order.  Capabilities: events, plus snapshot when the
/// sweep loads.
///
/// Under IngestPolicy::kStrict (the default) structural corruption --
/// checksum mismatches, manifest damage, NUL/overlong lines, timestamp
/// regressions, a manifest-claimed file gone missing -- throws
/// ingest::IngestError naming file, line and taxonomy code.  Under
/// kSalvage the load repairs what it can, quarantines the rest, and
/// attaches the full ingest::IngestReport to the context.
///
/// Fleet-profile validation: datasets record the profile they were
/// generated under (TDF meta segment, manifest `profile` line).  Passing
/// `expected_profile` asserts the load runs under that profile: a
/// disagreement with the recording -- different profile, unknown name, or
/// a content-hash divergence -- is E_PROFILE_MISMATCH (fatal under
/// kStrict; under kSalvage the load warns and adopts the dataset's
/// recorded profile).  With the default nullptr the recorded profile is
/// adopted silently; pre-profile datasets load as k20x-titan.
class DatasetSource final : public StudySource {
 public:
  explicit DatasetSource(std::filesystem::path dir,
                         ingest::IngestPolicy policy = ingest::IngestPolicy::kStrict,
                         const profile::FleetProfile* expected_profile = nullptr)
      : dir_{std::move(dir)}, policy_{policy}, expected_profile_{expected_profile} {}

  [[nodiscard]] StudyContext load() const override;
  [[nodiscard]] std::string name() const override { return "dataset"; }
  [[nodiscard]] ingest::IngestPolicy policy() const noexcept { return policy_; }

 private:
  std::filesystem::path dir_;
  ingest::IngestPolicy policy_;
  const profile::FleetProfile* expected_profile_;
};

/// How a dataset directory stores its event stream.
enum class LayoutKind : std::uint8_t { kNone, kText, kBinary, kSharded };

/// A dataset directory's layout plus, for the binary layouts, its
/// container roster in merge order.
struct DatasetLayout {
  LayoutKind kind = LayoutKind::kNone;
  std::size_t containers = 0;  ///< roster size; 0 for kNone and kText

  /// File name of roster entry `index`: dataset.tdf, or that shard's.
  [[nodiscard]] std::string container(std::size_t index) const;
  /// "none", "text", "binary" or "sharded".
  [[nodiscard]] std::string_view name() const noexcept;
};

/// Decide `dir`'s layout; the loader, fsck and titan-convert all ask
/// here.  A manifest that names an artifact decides: a `shards N` line
/// means sharded (roster: shards 0..N-1), a dataset.tdf checksum claim
/// means binary, any other claim means text -- so stale containers left
/// beside a fresh dataset are never studied.  With no manifest (an empty
/// `manifest`) or one that claims nothing, the directory is probed:
/// dataset.tdf, then dataset.shard-0.tdf (roster: the contiguous run from
/// shard 0), then console.log.
[[nodiscard]] DatasetLayout dataset_layout(const std::filesystem::path& dir,
                                           const ingest::ManifestIngest& manifest);

/// The same decision on `dir`'s manifest, parsed under salvage (its
/// findings are for the loader and fsck to report).
[[nodiscard]] DatasetLayout dataset_layout(const std::filesystem::path& dir);

/// Parse `dir`'s manifest.txt, or return an empty manifest when there is
/// none.  Findings land in `report`; under kStrict damage throws.
[[nodiscard]] ingest::ManifestIngest read_manifest(const std::filesystem::path& dir,
                                                   ingest::IngestPolicy policy,
                                                   ingest::IngestReport& report);

/// On-disk dataset representation write_dataset produces.
enum class DatasetFormat : std::uint8_t {
  kText,    ///< console.log / jobs.log / smi_sweep.txt / manifest.txt
  kBinary,  ///< dataset.tdf (titan::tdf container) + manifest.txt
};

/// Write the on-disk dataset artifacts for a context.
///
/// kText writes console.log, jobs.log, smi_sweep.txt and manifest.txt;
/// kBinary writes a dataset.tdf container holding the same columns plus a
/// manifest.txt.  Either way the manifest carries the period, the
/// retirement accounting cutoff and FNV-1a content checksums (verified by
/// DatasetSource::load), so a round-trip reproduces the source report
/// bytes.  The events come from the frame's base columns, whatever the
/// source: console.log is rendered from them at write time, under the
/// context's fleet profile.  The smi sweep is written iff the context has
/// kSnapshot.  Doubles (job utilization, smi temperatures) are quantized
/// to the text serialization's precision in both formats, so text and
/// binary datasets of one context load byte-identically.
///
/// Every file is written atomically (tmp + fsync + rename) and claimed
/// with the checksum of the bytes written (never a read-back), with the
/// manifest last, so a crash mid-write can never leave a directory that
/// passes checksum verification with partial content.  The write owns
/// `dir`: before its first artifact it removes the previous manifest and
/// every dataset artifact present, so a rerun over an earlier
/// dataset of any layout (or over an interrupted write) leaves exactly a
/// fresh write's files.  kBinary goes through the same container writer
/// as write_sharded_dataset.
void write_dataset(const StudyContext& context, const std::filesystem::path& dir,
                   DatasetFormat format = DatasetFormat::kText);

}  // namespace titan::study
