#include "study/fsck.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
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

/// The roster index K of a `dataset.shard-K.tdf` name (K as
/// tdf::shard_file_name spells it), else nullopt.
std::optional<std::uint64_t> shard_index(std::string_view name) {
  constexpr std::string_view kPrefix = "dataset.shard-";
  if (!name.starts_with(kPrefix)) return std::nullopt;
  std::uint64_t index = 0;
  const auto parsed =
      std::from_chars(name.data() + kPrefix.size(), name.data() + name.size(), index);
  if (parsed.ec != std::errc{} || tdf::shard_file_name(static_cast<std::size_t>(index)) != name) {
    return std::nullopt;
  }
  return index;
}

/// Whether `name` is one the dataset format gives an artifact.
bool is_artifact_name(std::string_view name) {
  constexpr std::string_view kNamed[] = {"console.log", "jobs.log", "smi_sweep.txt",
                                         tdf::kTdfFileName};
  return std::find(std::begin(kNamed), std::end(kNamed), name) != std::end(kNamed) ||
         shard_index(name).has_value();
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
                "write checkpoint present but no committed manifest; rerun the writer");
  } else if (decoded) {
    add_finding(out, std::string{ckpt::kStudyCheckpointFileName}, TriageCode::kCkptIncomplete,
                "checkpoint lingers beside a committed manifest (harmless; rerunning the "
                "writer removes it)");
  }
}

/// The first nonzero byte of `bytes` in [from, to), else nullopt.
std::optional<std::uint64_t> nonzero_byte(std::string_view bytes, std::uint64_t from,
                                          std::uint64_t to) {
  for (auto pos = from; pos < to; ++pos) {
    if (bytes[static_cast<std::size_t>(pos)] != '\0') return pos;
  }
  return std::nullopt;
}

/// The bytes of a v2 container its claim covers only through checksums:
/// inspect_tdf checks the table against the header and every segment body
/// against the table, and the padding between segments -- the one region
/// neither the claim nor a segment checksum covers -- must be zero.  Any
/// damage there breaks the claim, so it is named a checksum mismatch.
std::optional<FsckFinding> verify_container(const fs::path& dir, const std::string& name) {
  const auto path = dir / name;
  try {
    auto segments = tdf::inspect_tdf(path).segments;
    const tdf::MappedFile file{path, tdf::kTdfMaxFallbackBytes};
    const auto bytes = file.bytes();
    std::sort(segments.begin(), segments.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    // inspect_tdf has checked the table ends the file and every body lies
    // between the header and the table.
    const std::uint64_t table = bytes.size() - segments.size() * tdf::kTdfEntrySize;
    std::uint64_t pos = tdf::kTdfHeaderSize;
    std::optional<std::uint64_t> dirty;
    for (const auto& segment : segments) {
      if (!dirty) dirty = nonzero_byte(bytes, pos, segment.offset);
      pos = std::max(pos, segment.offset + segment.length);
    }
    if (!dirty) dirty = nonzero_byte(bytes, pos, table);
    if (dirty) {
      return FsckFinding{name, TriageCode::kChecksumMismatch,
                         "nonzero padding byte at offset " + std::to_string(*dirty) +
                             " between segments"};
    }
  } catch (const ingest::IngestError& error) {
    return FsckFinding{name, TriageCode::kChecksumMismatch,
                       "header and table match the claim, but the container fails " +
                           std::string{ingest::code_name(error.code())}};
  }
  return std::nullopt;
}

/// Manifest claims: parse damage, then every claim against on-disk bytes
/// -- and every byte of a v2 container behind a claim that holds.
void check_manifest(const fs::path& dir, const ingest::ManifestIngest& manifest,
                    const ingest::IngestReport& parse_report, FsckResult& out) {
  for (const auto& diag : parse_report.diagnostics()) {
    add_finding(out, diag.file, diag.code, diag.detail);
  }
  for (const auto& [name, expected] : manifest.checksums) {
    auto finding = claim_verdict(name, expected, claim_checksum(dir, name, manifest.version));
    if (!finding && manifest.version != 1 && name.ends_with(".tdf")) {
      finding = verify_container(dir, name);
    }
    if (finding) out.findings.push_back(std::move(*finding));
  }
  // Shard roster vs the `shards N` claim: every shard in [0, N) must be
  // claimed AND present (shards beyond N are unclaimed artifacts).
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
  }
}

/// Dataset artifacts beside a manifest that decides the layout but does
/// not claim them.  Loads ignore them, but they are another study's
/// bytes: once the manifest is lost, a probe would load them again.
void check_unclaimed(const CrashEvidence& evidence, const ingest::ManifestIngest& manifest,
                     FsckResult& out) {
  if (!manifest.have_shards && manifest.checksums.empty()) return;  // probed
  for (const auto& name : evidence.artifacts) {
    const auto shard = shard_index(name);
    const bool in_roster = manifest.have_shards && shard && *shard < manifest.shards;
    if (manifest.claims(name) || in_roster) continue;
    add_finding(out, name, TriageCode::kUnclaimedArtifact,
                "dataset artifact the manifest does not claim (loads ignore it; "
                "rerunning the writer removes it)");
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
    auto name = it->path().filename().string();
    std::error_code type_ec;
    if (ext == ".tmp" || ext == ".quarantined") {
      evidence.leftovers.push_back(std::move(name));
    } else if (is_artifact_name(name) && it->is_regular_file(type_ec)) {
      evidence.artifacts.push_back(std::move(name));
    }
  }
  std::sort(evidence.leftovers.begin(), evidence.leftovers.end());
  std::sort(evidence.artifacts.begin(), evidence.artifacts.end());
  evidence.checkpoint = fs::exists(dir / ckpt::kStudyCheckpointFileName);
  evidence.manifest = fs::exists(dir / "manifest.txt");
  return evidence;
}

std::optional<std::uint64_t> claim_checksum(const fs::path& dir, const std::string& name,
                                            std::uint32_t version) {
  const auto path = dir / name;
  if (!fs::exists(path)) return std::nullopt;
  // A v2 container claim reads the header and table only: no size cap.
  const bool container = version != 1 && name.ends_with(".tdf");
  if (!container) (void)checked_file_size(path);
  const tdf::MappedFile file{path, container ? tdf::kTdfMaxFallbackBytes : 0};
  return ingest::artifact_claim(version, name, file.bytes());
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
  check_unclaimed(evidence, manifest, out);
  return out;
}

}  // namespace titan::study
