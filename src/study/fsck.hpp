// Read-only crash-consistency check for a dataset directory -- the
// `titan-convert --fsck` engine.
//
// fsck_dataset answers one question without mutating anything: is this
// directory a cleanly committed dataset, or does it carry crash state a
// loader would reject?  It walks the same evidence the loaders do --
// orphan *.tmp files, a study.ckpt with no committed manifest, manifest
// checksum claims (hashing the TDF containers too, which the load fast
// path deliberately skips), the shard roster against the `shards N`
// claim -- and reports every finding with its triage code.  The report
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

/// Check one manifest checksum claim against the bytes on disk (the
/// loader shares it): nullopt when it holds, else the named finding.
[[nodiscard]] std::optional<FsckFinding> check_claim(const std::filesystem::path& dir,
                                                     const std::string& name,
                                                     std::uint64_t expected);

/// Check `dir` for crash state and integrity damage.  Read-only: never
/// quarantines, repairs or deletes.  Never throws on dataset damage --
/// damage IS the output (filesystem errors still surface as exceptions).
[[nodiscard]] FsckResult fsck_dataset(const std::filesystem::path& dir);

}  // namespace titan::study
