// Read-only crash-consistency check for a dataset directory -- the
// `titan-convert --fsck` engine.
//
// fsck_dataset answers one question without mutating anything: is this
// directory a cleanly committed dataset, or does it carry crash state a
// loader would reject?  It reads the same evidence the loaders do (one
// scan_crash_state serves the loader, fsck and every writer's begin
// step) -- orphan *.tmp files, a study.ckpt with no committed manifest,
// manifest checksum claims (hashing the TDF containers too, which the
// load fast path deliberately skips), the shard roster against the
// `shards N` claim, dataset artifacts the manifest does not claim -- and
// reports every finding with its triage code.  The report
// text is byte-stable for a given directory state (no absolute paths,
// deterministic ordering), so it can be golden-tested and diffed across
// runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "ingest/triage.hpp"

namespace titan::study {

/// One fsck finding: the artifact, its triage code, and context.
struct FsckFinding {
  std::string file;
  ingest::TriageCode code = ingest::TriageCode::kFileMissing;
  std::string detail;

  friend bool operator==(const FsckFinding& a, const FsckFinding& b) = default;
};

/// The full read-only check result.
struct FsckResult {
  std::string layout;  ///< "binary", "sharded", "text" or "none"
  std::vector<FsckFinding> findings;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }

  /// Byte-stable plain-text report (suitable for golden tests).
  [[nodiscard]] std::string report_text() const;
};

/// The crash evidence a dataset directory carries, as one read-only scan
/// sees it.  The loader, fsck and the writers' begin step each apply
/// their own policy to it.
struct CrashEvidence {
  /// Sorted names of the *.tmp files interrupted atomic writes left and
  /// the *.quarantined copies salvage loads set aside (every entry with
  /// either extension; a writer's begin step removes the regular files).
  std::vector<std::string> leftovers;
  /// Sorted names of the regular files that carry a dataset artifact
  /// name: console.log, jobs.log, smi_sweep.txt, dataset.tdf and
  /// dataset.shard-K.tdf.  The one list of those names: fsck reports the
  /// ones a manifest does not claim, and a writer's begin step removes
  /// them all before its write.
  std::vector<std::string> artifacts;
  bool checkpoint = false;  ///< study.ckpt present
  bool manifest = false;    ///< manifest.txt present
};

/// Scan `dir` for crash evidence.  Read-only; an unreadable or missing
/// directory yields no evidence.
[[nodiscard]] CrashEvidence scan_crash_state(const std::filesystem::path& dir);

/// The hash step of a manifest claim: the claim a manifest of `version`
/// records for `dir / name` (ingest::artifact_claim), read through one
/// mapping of the file, or nullopt when it is missing.  A v2 container
/// claim reads only the header and segment table, so a container of any
/// size is fine; any other file beyond kMaxIngestFileBytes throws
/// E_FILE_TOO_LARGE.
[[nodiscard]] std::optional<std::uint64_t> claim_checksum(const std::filesystem::path& dir,
                                                          const std::string& name,
                                                          std::uint32_t version);

/// The verdict step, shared by fsck and the loaders' claim-order walk:
/// nullopt when the claim holds, else the finding -- a missing file
/// (`actual` nullopt) or a content mismatch.
[[nodiscard]] std::optional<FsckFinding> claim_verdict(const std::string& name,
                                                       std::uint64_t expected,
                                                       std::optional<std::uint64_t> actual);

/// Check `dir` for crash state and integrity damage.  Read-only: never
/// quarantines, repairs or deletes.  Never throws on dataset damage --
/// damage IS the output (filesystem errors still surface as exceptions).
[[nodiscard]] FsckResult fsck_dataset(const std::filesystem::path& dir);

}  // namespace titan::study
