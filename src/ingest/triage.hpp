// Ingestion triage: the error taxonomy, structured diagnostics and the
// salvage/strict policy for loading on-disk datasets.
//
// The paper's 21 months of operational data were messy -- console logs
// full of unrelated chatter, double-counted XID 13 reports that had to be
// filtered before Fig. 12, and nvidia-smi sweeps that disagree with the
// console view (Obs. 2).  This layer makes that messiness a first-class
// product of ingestion: every rejected or repaired line yields a
// Diagnostic (file, line, taxonomy code, salvage action) accumulated into
// an IngestReport with a bounded detail budget, and the IngestPolicy
// decides whether corruption is fatal (kStrict: fail fast with an
// actionable multi-line message naming file/line/code) or repaired
// (kSalvage: dedup byte-identical adjacent events, re-sort regressed
// timestamps, quarantine unparseable spans -- and record everything).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "parse/console.hpp"
#include "stats/calendar.hpp"

namespace titan::ingest {

/// How DatasetSource::load treats corrupt input.
enum class IngestPolicy : std::uint8_t {
  kStrict,   ///< fail fast on structural corruption (integrity errors)
  kSalvage,  ///< repair what is repairable, quarantine the rest, record all
};

[[nodiscard]] std::string_view policy_name(IngestPolicy policy) noexcept;

/// The error taxonomy.  Every diagnostic carries exactly one code; codes
/// are stable identifiers (serialized into reports and error messages).
enum class TriageCode : std::uint8_t {
  kFileMissing,       ///< a file the dataset claims (or requires) is absent
  kNoEvents,          ///< console parsed to zero events -- nothing to study
  kLineCrlf,          ///< CRLF line ending (repaired: '\r' stripped)
  kLineNul,           ///< embedded NUL byte (quarantined)
  kLineOverlong,      ///< line beyond kMaxConsoleLineLength (quarantined)
  kFileUnterminated,  ///< no trailing newline (possible truncated write)
  kConsoleMalformed,  ///< GPU-marker line the console grammar rejects
  kEventDuplicate,    ///< byte-identical adjacent event line (double count)
  kEventOutOfOrder,   ///< timestamp regression in the event stream
  kJobMalformed,      ///< unparseable job-accounting line
  kSmiMalformed,      ///< unparseable nvidia-smi block
  kManifestHeader,    ///< manifest present but the header line is wrong
  kManifestField,     ///< manifest key present but its value is malformed
  kManifestUnknown,   ///< manifest line matching no known key
  kChecksumMismatch,  ///< file content disagrees with its manifest checksum
  // Binary (TDF) container damage classes -- see src/tdf/tdf.hpp for the
  // full strict/salvage policy.
  kTdfBadMagic,         ///< magic bytes or endian marker wrong (not a TDF file)
  kTdfVersionMismatch,  ///< container version this reader does not speak
  kTdfTruncated,        ///< file shorter than the header/table claims
  kTdfFooterCorrupt,    ///< segment table mangled (checksum, bounds, duplicates)
  kTdfSegmentChecksum,  ///< segment body disagrees with its table checksum
  kTdfSegmentCorrupt,   ///< segment body fails to decode (bad varint, range)
  kTdfUnknownSegment,   ///< unknown segment kind (skipped; forward compat)
  kFileTooLarge,        ///< file beyond the single-file ingest size cap
  kTdfMmapUnavailable,  ///< mmap failed and the container exceeds the
                        ///< bounded fallback read cap (out-of-core decode
                        ///< needs the mapping)
  kProfileMismatch,     ///< dataset's recorded fleet profile is unknown,
                        ///< hash-divergent, or not the one the load asked
                        ///< for (salvage adopts the dataset's profile)
  // Crash-state classes: what a writer killed mid-flight leaves behind
  // (see src/faulttest and DESIGN.md "Crash consistency").
  kOrphanTmp,          ///< leftover *.tmp from a crashed atomic write
  kPartialShardSet,    ///< sharded roster incomplete (a shard container missing)
  kUnclaimedArtifact,  ///< dataset artifact beside a manifest that does not
                       ///< claim it (loads ignore it; fsck names it)
  kCkptHeader,         ///< study checkpoint header line wrong
  kCkptField,          ///< study checkpoint field/structure malformed
  kCkptChecksum,       ///< study checkpoint self-checksum missing or wrong
  kCkptIncomplete,     ///< checkpoint present but no committed manifest:
                       ///< a dataset write was interrupted
  kCount_,
};

inline constexpr std::size_t kTriageCodeCount =
    static_cast<std::size_t>(TriageCode::kCount_);

/// Stable code identifier ("E_LINE_CRLF", ...).
[[nodiscard]] std::string_view code_name(TriageCode code) noexcept;

/// True when kStrict turns the code into an IngestError instead of a
/// diagnostic.  Benign operational noise (malformed chatter, CRLF,
/// missing optional files without a manifest claim) never trips strict
/// mode -- real console logs are full of it.
[[nodiscard]] bool fatal_in_strict(TriageCode code) noexcept;

/// What the salvage path did about a finding.
enum class SalvageAction : std::uint8_t {
  kRejected,     ///< input dropped, nothing recoverable
  kRepaired,     ///< input transformed into a usable form
  kQuarantined,  ///< input isolated (kept out of the event stream)
  kIgnored,      ///< noted for the record, no effect on the load
  kCount_,
};

inline constexpr std::size_t kSalvageActionCount =
    static_cast<std::size_t>(SalvageAction::kCount_);

[[nodiscard]] std::string_view action_name(SalvageAction action) noexcept;

/// One triage finding: where, what, and what was done about it.
struct Diagnostic {
  std::string file;      ///< dataset-relative file name ("console.log")
  std::size_t line = 0;  ///< 1-based line number; 0 = whole-file finding
  TriageCode code = TriageCode::kConsoleMalformed;
  SalvageAction action = SalvageAction::kRejected;
  std::string detail;  ///< free-form context (kept short)

  friend bool operator==(const Diagnostic& a, const Diagnostic& b) = default;
};

/// Strict-mode failure: std::runtime_error carrying the file, line and
/// taxonomy code, with a multi-line actionable message.
class IngestError : public std::runtime_error {
 public:
  IngestError(std::string file, std::size_t line, TriageCode code, std::string_view detail);

  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] TriageCode code() const noexcept { return code_; }

 private:
  std::string file_;
  std::size_t line_;
  TriageCode code_;
};

/// Accumulated triage record of one dataset load.  Per-code and
/// per-action tallies are always exact; full Diagnostic details are
/// retained only up to kDetailBudget (the bounded error budget), so a
/// pathological input cannot balloon the report.
class IngestReport {
 public:
  static constexpr std::size_t kDetailBudget = 64;

  explicit IngestReport(IngestPolicy policy = IngestPolicy::kSalvage) : policy_{policy} {}

  /// Record a finding.  Detail strings are materialized only while the
  /// budget lasts; counters are updated regardless.
  void add(std::string_view file, std::size_t line, TriageCode code, SalvageAction action,
           std::string_view detail);

  [[nodiscard]] IngestPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t dropped() const noexcept {
    return total_ - retained_.size();
  }
  [[nodiscard]] bool clean() const noexcept { return total_ == 0; }
  [[nodiscard]] std::size_t count(TriageCode code) const noexcept {
    return code_counts_[static_cast<std::size_t>(code)];
  }
  [[nodiscard]] std::size_t count(SalvageAction action) const noexcept {
    return action_counts_[static_cast<std::size_t>(action)];
  }
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return retained_;
  }

  /// Byte-stable plain-text triage summary (policy, tallies per code, the
  /// first findings).  Deterministic: depends only on the add() sequence.
  [[nodiscard]] std::string summary_text() const;

  /// Add `other`'s findings after this report's own, as if its add()
  /// calls had come next: tallies and repair counts sum exactly, details
  /// fill what is left of the budget, and each line-numbered detail moves
  /// down by `line_offset` (a chunk's lines numbered from its own start).
  void append(const IngestReport& other, std::size_t line_offset);

  /// Repair tallies (salvage mode).
  std::size_t duplicates_removed = 0;  ///< byte-identical adjacent events dropped
  std::size_t events_resorted = 0;     ///< timestamp regressions repaired by re-sort
  std::size_t lines_quarantined = 0;   ///< NUL/overlong spans kept out of the stream

 private:
  IngestPolicy policy_;
  std::vector<Diagnostic> retained_;
  std::array<std::size_t, kTriageCodeCount> code_counts_{};
  std::array<std::size_t, kSalvageActionCount> action_counts_{};
  std::size_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Ingestion primitives.  Each consumes one dataset file's raw bytes,
// classifies every line, and feeds the report; under kStrict a
// fatal_in_strict() finding throws IngestError instead.
// ---------------------------------------------------------------------------

/// First line of every manifest the dataset writers write: manifest v2,
/// whose claims split across cores (text_claim, tdf::container_claim).
inline constexpr std::string_view kDatasetManifestHeader = "titanrel-dataset v2";

/// First line of a v1 manifest, which readers still speak: a v1 text
/// claim is the whole-file content_checksum, and a v1 container claim is
/// checked for presence by loads and hashed whole by fsck.
inline constexpr std::string_view kDatasetManifestHeaderV1 = "titanrel-dataset v1";

/// FNV-1a 64 over raw file bytes: a v1 manifest claim.
[[nodiscard]] std::uint64_t content_checksum(std::string_view bytes) noexcept;

/// Bytes per chunk of a v2 text claim, cut at byte offsets.  A constant of
/// the format: never derived from the thread count.
inline constexpr std::size_t kClaimChunkBytes = std::size_t{1} << 20;

/// Byte lanes of a v2 chunk digest (a constant of the format).
inline constexpr std::size_t kClaimLanes = 8;

/// Chunks of a v2 text claim over `bytes` bytes (none for an empty file).
[[nodiscard]] constexpr std::size_t claim_chunk_count(std::size_t bytes) noexcept {
  return (bytes + kClaimChunkBytes - 1) / kClaimChunkBytes;
}

/// Digest of chunk `chunk` of `text` (chunk < claim_chunk_count): lane k
/// runs FNV-1a 64 over the chunk's bytes at offsets = k (mod kClaimLanes),
/// and the digest is FNV-1a 64 over the lane values, each written as 8
/// little-endian bytes.  The lanes are independent multiply chains, so
/// one core hashes several bytes per multiply latency.
[[nodiscard]] std::uint64_t claim_chunk_digest(std::string_view text, std::size_t chunk) noexcept;

/// A v2 text claim from its chunk digests: FNV-1a 64 over the file length,
/// then each digest in chunk order, all as 8 little-endian bytes.
[[nodiscard]] std::uint64_t fold_text_claim(std::size_t bytes,
                                            std::span<const std::uint64_t> digests) noexcept;

/// The v2 text claim of `text`, its chunk digests computed on the pool
/// (the same value at any width).
[[nodiscard]] std::uint64_t text_claim(std::string_view text);

/// The claim a manifest of `version` records for artifact `name` holding
/// `bytes`: under v1 content_checksum; under v2 tdf::container_claim for
/// a `.tdf` container and text_claim for any other artifact.
[[nodiscard]] std::uint64_t artifact_claim(std::uint32_t version, std::string_view name,
                                           std::string_view bytes);

/// Fixed-width (16 digit) lowercase-hex rendering of a checksum.
[[nodiscard]] std::string checksum_hex(std::uint64_t value);

/// Console-log ingestion product.  Counters mirror parse::ParseResult so
/// clean inputs produce identical load statistics.
struct ConsoleIngest {
  std::vector<parse::ParsedEvent> events;  ///< time-sorted after salvage
  std::size_t lines = 0;
  std::size_t malformed = 0;  ///< GPU-marker lines the grammar rejected
  std::size_t unrelated = 0;  ///< well-formed non-GPU chatter
};

/// Split + parse + merge (see "Chunked text ingestion" below): the same
/// events, counts, findings and strict error as one serial walk over the
/// lines.  `chunks` forces the split (tests); 0 takes load_chunks.
[[nodiscard]] ConsoleIngest ingest_console_text(std::string_view text, std::string_view file,
                                                IngestPolicy policy, IngestReport& report,
                                                std::size_t chunks = 0);

/// Job-accounting ingestion product.
struct JobIngest {
  std::vector<logsim::JobLogRecord> records;
  std::size_t lines = 0;
  std::size_t malformed = 0;
};

[[nodiscard]] JobIngest ingest_job_text(std::string_view text, std::string_view file,
                                        IngestPolicy policy, IngestReport& report,
                                        std::size_t chunks = 0);

/// nvidia-smi sweep ingestion: parse_smi_sweep_text plus triage of any
/// malformed blocks.
[[nodiscard]] logsim::SmiSweepParse ingest_smi_text(std::string_view text,
                                                    std::string_view file,
                                                    IngestPolicy policy,
                                                    IngestReport& report);

/// Manifest ingestion product: the study window, accounting cutoff and
/// the content checksums the producer recorded.
struct ManifestIngest {
  /// Manifest format version: 1 under a v1 header, else 2 (a damaged
  /// header that salvage reads past is checked as v2).
  std::uint32_t version = 2;
  bool have_begin = false;
  bool have_end = false;
  bool have_accounting = false;
  stats::TimeSec begin = 0;
  stats::TimeSec end = 0;
  stats::TimeSec accounting = 0;
  bool have_shards = false;
  std::uint64_t shards = 0;  ///< shard container count (sharded datasets)
  /// Fleet profile the producer recorded (`profile <name> <hash-hex>`);
  /// absent in pre-profile manifests.
  bool have_profile = false;
  std::string profile_name;
  std::uint64_t profile_hash = 0;
  /// (file name, checksum) pairs, manifest order.
  std::vector<std::pair<std::string, std::uint64_t>> checksums;

  /// Whether a checksum line claims `file`.
  [[nodiscard]] bool claims(std::string_view file) const;
};

[[nodiscard]] ManifestIngest ingest_manifest_text(std::string_view text,
                                                  std::string_view file,
                                                  IngestPolicy policy,
                                                  IngestReport& report);

// ---------------------------------------------------------------------------
// Chunked text ingestion.  A console or job log is split at line
// boundaries, each chunk is parsed on its own (any thread, any order),
// and the merge walks the chunks in file order.  A console chunk seeds
// its adjacent-duplicate check from the raw line just before its first
// line.  The timestamp-regression check of its first kept event needs
// the last event before the chunk, which may lie any distance back, so
// that one check waits for the merge; every later check is the chunk's
// own.  So every chunk makes exactly the findings the serial walk makes
// on its lines, and no chunk reads further back than one line.  Chunks
// never throw: a strict-fatal finding stops the chunk and is recorded,
// and the merge raises the first one in file order.
// ---------------------------------------------------------------------------

/// Bytes of text per chunk a load parses.
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// A line-aligned slice [begin, end) of one text artifact.
struct TextChunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Split `text` into at most `pieces` line-aligned chunks of about equal
/// size (fewer when lines run longer than a chunk; none for empty text).
/// Each chunk holds at least one whole line; the last takes the rest.
[[nodiscard]] std::vector<TextChunk> split_lines(std::string_view text, std::size_t pieces);

/// The chunks a load parses `text` in: about kChunkBytes each, a count
/// fixed by the size alone, so the split never depends on the pool width.
[[nodiscard]] std::vector<TextChunk> load_chunks(std::string_view text);

/// A strict-fatal finding a chunk stopped at (line numbered from the
/// chunk's first line).
struct ChunkStop {
  std::size_t line = 0;
  TriageCode code = TriageCode::kLineNul;
  std::string detail;
};

/// The regression check of a chunk's first kept event, left to the merge.
struct PendingCheck {
  std::size_t line = 0;  ///< numbered from the chunk's first line
  stats::TimeSec time = 0;
};

/// One parsed console chunk: its product, its own findings (lines
/// numbered from the chunk's first line) split around the pending check
/// -- `head` before it, `tail` after -- and where strict mode stopped it,
/// if it did.
struct ConsoleChunk {
  ConsoleIngest product;
  IngestReport head;
  IngestReport tail;
  std::optional<ChunkStop> stop;
  std::optional<PendingCheck> pending;
  std::optional<stats::TimeSec> last_time;  ///< of the chunk's last event line
};

/// One parsed job-log chunk (no job finding is fatal, so it never stops).
struct JobChunk {
  JobIngest product;
  IngestReport report;
};

/// Parse the console lines of `chunk`, seeded from the line before it.
[[nodiscard]] ConsoleChunk ingest_console_chunk(std::string_view text, TextChunk chunk,
                                                std::string_view file, IngestPolicy policy);

/// Merge console chunks in file order into `report`: line numbers offset,
/// each chunk's pending check run against the last event before it, the
/// first stop raised as IngestError at its real line, the missing-newline
/// note for the whole text, and one stable re-sort when any regression
/// was found.  Consumes the chunks' event vectors.
[[nodiscard]] ConsoleIngest merge_console_chunks(std::string_view text, std::string_view file,
                                                 IngestPolicy policy,
                                                 std::span<ConsoleChunk> chunks,
                                                 IngestReport& report);

/// Parse the job-accounting lines of `chunk`.
[[nodiscard]] JobChunk ingest_job_chunk(std::string_view text, TextChunk chunk,
                                        std::string_view file, IngestPolicy policy);

/// Merge job chunks in file order into `report`.  Consumes the chunks'
/// record vectors.
[[nodiscard]] JobIngest merge_job_chunks(std::string_view text, std::string_view file,
                                         std::span<JobChunk> chunks, IngestReport& report);

}  // namespace titan::ingest
