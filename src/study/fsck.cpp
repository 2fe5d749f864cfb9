#include "study/fsck.hpp"

#include <algorithm>
#include <string_view>
#include <system_error>
#include <utility>

#include "ckpt/study_ckpt.hpp"
#include "study/io.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;
using ingest::TriageCode;

void add_finding(FsckResult& out, std::string file, TriageCode code, std::string detail) {
  out.findings.push_back(FsckFinding{std::move(file), code, std::move(detail)});
}

/// Checkpoint state: a study.ckpt must decode, and must not outlive its
/// run (present without a manifest = generation died mid-write).
void check_checkpoint(const fs::path& dir, const CrashEvidence& evidence, FsckResult& out) {
  if (!evidence.checkpoint) return;
  ingest::IngestReport report{ingest::IngestPolicy::kSalvage};
  const auto decoded =
      ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kSalvage, report);
  for (const auto& diag : report.diagnostics()) {
    add_finding(out, diag.file, diag.code, diag.detail);
  }
  if (!evidence.manifest) {
    add_finding(out, std::string{ckpt::kStudyCheckpointFileName},
                TriageCode::kCkptIncomplete,
                "generation checkpoint present but no committed manifest");
  } else if (decoded) {
    add_finding(out, std::string{ckpt::kStudyCheckpointFileName}, TriageCode::kCkptIncomplete,
                "checkpoint lingers beside a committed manifest (harmless; a resumed "
                "or rerun writer removes it)");
  }
}

/// Manifest claims: parse damage, then every checksum against on-disk
/// bytes -- including the TDF containers the load fast path skips.
void check_manifest(const fs::path& dir, const ingest::ManifestIngest& manifest,
                    const ingest::IngestReport& parse_report, FsckResult& out) {
  for (const auto& diag : parse_report.diagnostics()) {
    add_finding(out, diag.file, diag.code, diag.detail);
  }
  for (const auto& [name, expected] : manifest.checksums) {
    if (auto finding = claim_verdict(name, expected, claim_checksum(dir, name))) {
      out.findings.push_back(std::move(*finding));
    }
  }
  // Shard roster vs the `shards N` claim: every shard in [0, N) must be
  // claimed AND present; extra shard files beyond N are orphaned slices.
  if (manifest.have_shards) {
    const auto shard_count = static_cast<std::size_t>(manifest.shards);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const auto name = tdf::shard_file_name(s);
      // A claimed-but-missing shard was already reported by the claim
      // walk above; only the never-claimed hole is new information here.
      if (!manifest.claims(name)) {
        add_finding(out, name, TriageCode::kPartialShardSet,
                    "manifest declares " + std::to_string(shard_count) +
                        " shards but carries no checksum claim for this one");
      }
    }
    for (std::size_t s = shard_count; fs::exists(dir / tdf::shard_file_name(s)); ++s) {
      add_finding(out, tdf::shard_file_name(s), TriageCode::kPartialShardSet,
                  "shard container beyond the manifest's declared count of " +
                      std::to_string(shard_count));
    }
  }
}

}  // namespace

std::string FsckResult::report_text() const {
  std::string text = "titanrel fsck\nlayout: " + layout + '\n';
  text += "findings: " + std::to_string(findings.size()) + '\n';
  for (const auto& finding : findings) {
    text += "  " + finding.file + ' ' + std::string{ingest::code_name(finding.code)} +
            ": " + finding.detail + '\n';
  }
  text += std::string{"verdict: "} + (clean() ? "clean" : "crash-state") + '\n';
  return text;
}

CrashEvidence scan_crash_state(const fs::path& dir) {
  CrashEvidence evidence;
  std::error_code ec;
  for (fs::directory_iterator it{dir, ec}, end; !ec && it != end; it.increment(ec)) {
    const auto ext = it->path().extension();
    if (ext == ".tmp" || ext == ".quarantined") {
      evidence.leftovers.push_back(it->path().filename().string());
    }
  }
  std::sort(evidence.leftovers.begin(), evidence.leftovers.end());
  evidence.checkpoint = fs::exists(dir / ckpt::kStudyCheckpointFileName);
  evidence.manifest = fs::exists(dir / "manifest.txt");
  return evidence;
}

std::optional<std::uint64_t> claim_checksum(const fs::path& dir, const std::string& name) {
  const auto path = dir / name;
  if (!fs::exists(path)) return std::nullopt;
  (void)checked_file_size(path);
  const tdf::MappedFile file{path};
  return ingest::content_checksum(file.bytes());
}

std::optional<FsckFinding> claim_verdict(const std::string& name, std::uint64_t expected,
                                         std::optional<std::uint64_t> actual) {
  if (!actual) {
    // A missing shard container is its own crash-state class: the roster
    // the manifest promised is incomplete, which is what a writer killed
    // between shard commits leaves behind.
    if (name.starts_with("dataset.shard-") && name.ends_with(".tdf")) {
      return FsckFinding{name, TriageCode::kPartialShardSet,
                         "manifest claims this shard container but it is missing"};
    }
    return FsckFinding{name, TriageCode::kFileMissing,
                       "manifest claims a checksum for this file but it is missing"};
  }
  if (*actual == expected) return std::nullopt;
  return FsckFinding{name, TriageCode::kChecksumMismatch,
                     "manifest records " + ingest::checksum_hex(expected) +
                         ", content hashes to " + ingest::checksum_hex(*actual)};
}

FsckResult fsck_dataset(const fs::path& dir) {
  FsckResult out;
  ingest::IngestReport report{ingest::IngestPolicy::kSalvage};
  const auto manifest = read_manifest(dir, ingest::IngestPolicy::kSalvage, report);
  out.layout = std::string{dataset_layout(dir, manifest).name()};

  // Orphan tmp files and the copies a salvage load quarantined: evidence
  // of an interrupted atomic write.
  const auto evidence = scan_crash_state(dir);
  for (const auto& name : evidence.leftovers) {
    add_finding(out, name, TriageCode::kOrphanTmp,
                "leftover file from an interrupted atomic write");
  }
  check_checkpoint(dir, evidence, out);
  check_manifest(dir, manifest, report, out);
  return out;
}

}  // namespace titan::study
