// Durable study-generation checkpoint: the intent record a dataset
// writer leaves next to its artifacts while the write is in flight.
//
// The paper's operational lesson is that interrupted work must finish
// correctly (Sec. V's checkpoint/restart analysis); this module applies
// the same discipline to our own dataset writes.  Every writer saves
// `study.ckpt` in its begin step, before it touches anything else, and
// removes it after the manifest commits.  The committed manifest is the
// commit point: once `manifest.txt` exists the checkpoint is garbage; a
// checkpoint WITHOUT a manifest means a write died mid-flight
// (E_CKPT_INCOMPLETE when loaded as a dataset), and rerunning the writer
// is the remedy.  The record itself carries only the write's fleet
// profile and shard count: nothing resumes from it.
//
// The file is plain text with a trailing FNV-1a self-checksum line, so a
// checkpoint torn by the very crash it guards against is detected --
// decode failures carry named triage codes (E_CKPT_HEADER, E_CKPT_FIELD,
// E_CKPT_CHECKSUM) through the standard strict/salvage policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "ingest/triage.hpp"

namespace titan::ckpt {

/// First line of every study checkpoint.
inline constexpr std::string_view kStudyCheckpointHeader = "titanrel-ckpt v2";

/// File name within the dataset directory.
inline constexpr std::string_view kStudyCheckpointFileName = "study.ckpt";

/// Intent record of an in-flight dataset write.  `shard_count == 0`
/// marks a text or dataset.tdf write.
struct StudyCheckpoint {
  std::string profile_name;
  std::uint64_t profile_hash = 0;
  std::size_t shard_count = 0;

  /// Byte-stable text encoding (header, fields, self-checksum).
  [[nodiscard]] std::string encode() const;

  friend bool operator==(const StudyCheckpoint& a, const StudyCheckpoint& b) = default;
};

/// Decode checkpoint text.  Structural damage yields the E_CKPT_* triage
/// codes: under kStrict an IngestError throws; under kSalvage the finding
/// is recorded in `report` and nullopt returned (a torn checkpoint is
/// never "partially" trusted).
[[nodiscard]] std::optional<StudyCheckpoint> decode_study_checkpoint(
    std::string_view text, std::string_view file, ingest::IngestPolicy policy,
    ingest::IngestReport& report);

/// Atomically write `dir/study.ckpt` (kill point "ckpt/pre-save" on the
/// path).  Throws std::runtime_error on I/O failure.
void save_study_checkpoint(const StudyCheckpoint& ckpt, const std::filesystem::path& dir);

/// Load and decode `dir/study.ckpt`.  A missing file is not a finding --
/// returns nullopt silently (no write was in flight).
[[nodiscard]] std::optional<StudyCheckpoint> load_study_checkpoint(
    const std::filesystem::path& dir, ingest::IngestPolicy policy,
    ingest::IngestReport& report);

/// Best-effort removal of `dir/study.ckpt` (the post-commit cleanup).
void remove_study_checkpoint(const std::filesystem::path& dir) noexcept;

}  // namespace titan::ckpt
