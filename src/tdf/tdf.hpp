// titan::tdf public API: encode/decode the binary dataset container and
// map it from disk.
//
// A TdfDataset is the StudyContext's column view -- the event stream as
// four parallel columns (ready for EventFrame::from_columns), plus the
// optional job-accounting and nvidia-smi side artifacts.  write_tdf
// serializes it atomically (tmp + fsync + rename); decode_tdf decodes a
// whole container from its bytes (a MappedFile's, say), validating each
// segment's FNV-1a checksum right before that segment's first bytes are
// decoded, and only for segments the load needs.  SegmentReader is the
// file reader the dataset loader uses: it maps the container (mmap with
// a read fallback), validates the same way, and streams the event
// columns window by window.
//
// Damage policy mirrors the text ingest taxonomy:
//   * container damage (bad magic, version mismatch, truncation, mangled
//     segment table) throws ingest::IngestError under BOTH policies --
//     there is nothing to salvage without a trustworthy index;
//   * required-segment damage (meta, node dictionary, event columns)
//     also throws under both policies;
//   * optional-segment damage (jobs, smi) throws under kStrict and is
//     quarantined under kSalvage (the segment is dropped and the triage
//     report says so -- salvage never silently corrupts);
//   * unknown segment kinds are skipped with an ignored diagnostic
//     (forward compatibility, like unknown manifest keys).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/triage.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi.hpp"
#include "stats/calendar.hpp"
#include "tdf/format.hpp"
#include "topology/machine.hpp"
#include "xid/event.hpp"

namespace titan::tdf {

/// The decoded container: event columns + side artifacts.
struct TdfDataset {
  stats::TimeSec period_begin = 0;
  stats::TimeSec period_end = 0;
  stats::TimeSec accounting_from = 0;

  /// Fleet profile the dataset was generated under (meta-segment
  /// extension; empty for containers written before profiles existed).
  std::string profile_name;
  std::uint64_t profile_hash = 0;

  // Event columns, stream order (one entry per event each).
  std::vector<stats::TimeSec> times;
  std::vector<topology::NodeId> nodes;
  std::vector<xid::ErrorKind> kinds;
  std::vector<xid::MemoryStructure> structures;

  bool has_jobs = false;
  std::vector<logsim::JobLogRecord> jobs;

  bool has_smi = false;
  logsim::SmiSnapshot snapshot;

  [[nodiscard]] std::size_t event_count() const noexcept { return times.size(); }
};

/// Cap on the plain-read fallback when mmap is unavailable (4 GiB, the
/// same bound study::io applies to whole-file text reads).  The mapped
/// path is deliberately *uncapped*: streaming readers decode bounded
/// windows straight out of the mapping, so container size never dictates
/// resident memory.  Slurping a larger container into heap memory would
/// silently void that bound, so the fallback refuses with
/// E_TDF_MMAP_UNAVAILABLE instead.
inline constexpr std::uint64_t kTdfMaxFallbackBytes = 4ULL * 1024 * 1024 * 1024;

/// Read-only file mapping (POSIX mmap, PROT_READ/MAP_PRIVATE) with a
/// plain-read fallback for platforms or filesystems without mmap.
/// Throws std::runtime_error when the file cannot be opened, and
/// ingest::IngestError (E_TDF_MMAP_UNAVAILABLE) when the fallback would
/// have to read more than `fallback_cap` bytes (0 = uncapped).
class MappedFile {
 public:
  explicit MappedFile(const std::filesystem::path& path, std::uint64_t fallback_cap = 0);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] std::string_view bytes() const noexcept {
    return {static_cast<const char*>(data_), size_};
  }
  /// False when the fallback read path was used.
  [[nodiscard]] bool mapped() const noexcept { return map_ != nullptr; }

 private:
  void* map_ = nullptr;  ///< mmap base (nullptr on the fallback path)
  const void* data_ = nullptr;
  std::size_t size_ = 0;
  std::string fallback_;
};

/// Serialize to the v1 byte layout (header + aligned segments + table,
/// header patched with the table location and checksum).
[[nodiscard]] std::string encode_tdf(const TdfDataset& data);

/// Encode and write atomically: `path.tmp` + fsync + rename.
void write_tdf(const TdfDataset& data, const std::filesystem::path& path);

/// Decode raw container bytes.  `file` names the source in diagnostics.
/// See the damage policy above; salvage findings land in `report`.
[[nodiscard]] TdfDataset decode_tdf(std::string_view bytes, std::string_view file,
                                    ingest::IngestPolicy policy, ingest::IngestReport& report);

/// Default streaming decode window: rows materialized per next_window
/// call.  64Ki rows is ~1.5 MiB of decoded columns -- small enough that a
/// k-way merge over dozens of shard readers stays bounded, large enough
/// that the per-window overhead vanishes.
inline constexpr std::size_t kTdfStreamWindowRows = 64 * 1024;

/// One decoded window of the event columns (SegmentReader output).
/// Column vectors run parallel, exactly like TdfDataset's.
struct EventWindow {
  std::vector<stats::TimeSec> times;
  std::vector<topology::NodeId> nodes;
  std::vector<xid::ErrorKind> kinds;
  std::vector<xid::MemoryStructure> structures;

  [[nodiscard]] std::size_t size() const noexcept { return times.size(); }
  [[nodiscard]] bool empty() const noexcept { return times.empty(); }
};

/// Out-of-core TDF reader: maps the container, validates the header,
/// segment table and every *required* segment's checksum up front, then
/// decodes the event columns window by window straight out of the mapping
/// -- peak resident memory is one window plus the node dictionary, never
/// the full column set, so containers beyond study::io's 4 GiB whole-file
/// cap stream fine (satellite: the cap is relaxed for this path; only the
/// no-mmap fallback keeps a bound, with its own named triage code).
///
/// Damage policy is identical to decode_tdf (the whole-file decoder runs
/// on this same core): container or required-segment damage throws
/// ingest::IngestError under both policies; optional-segment damage
/// (jobs, smi) throws under kStrict and drops the segment under kSalvage.
/// Column-body decode errors (bad varint, out-of-range value) surface
/// from the next_window call whose window contains the bad row.
///
/// `report` is borrowed for the reader's lifetime and must outlive it.
class SegmentReader {
 public:
  SegmentReader(const std::filesystem::path& path, ingest::IngestPolicy policy,
                ingest::IngestReport& report,
                std::size_t window_rows = kTdfStreamWindowRows);
  ~SegmentReader();
  SegmentReader(SegmentReader&&) noexcept;
  SegmentReader& operator=(SegmentReader&&) noexcept;

  [[nodiscard]] const std::string& file_name() const noexcept;
  [[nodiscard]] std::uint64_t file_bytes() const noexcept;
  /// False when the plain-read fallback was used instead of mmap.
  [[nodiscard]] bool mapped() const noexcept;
  [[nodiscard]] std::uint64_t event_count() const noexcept;
  /// Rows already yielded by next_window.
  [[nodiscard]] std::uint64_t rows_decoded() const noexcept;
  [[nodiscard]] stats::TimeSec period_begin() const noexcept;
  [[nodiscard]] stats::TimeSec period_end() const noexcept;
  [[nodiscard]] stats::TimeSec accounting_from() const noexcept;
  [[nodiscard]] stats::TimeSec smi_taken_at() const noexcept;
  /// Recorded fleet profile; empty name for pre-profile containers.
  [[nodiscard]] const std::string& profile_name() const noexcept;
  [[nodiscard]] std::uint64_t profile_hash() const noexcept;
  [[nodiscard]] bool has_jobs() const noexcept;
  [[nodiscard]] bool has_smi() const noexcept;
  /// Segments present in the container's table (known kinds only).
  [[nodiscard]] std::size_t segment_count() const noexcept;

  /// Decode the next window into `out` (replacing its contents).
  /// Returns the row count; 0 means the stream is exhausted.
  std::size_t next_window(EventWindow& out);

  /// Decode the jobs segment (whole -- job tables are small).  Returns
  /// false when the container carries none or salvage dropped it.
  bool read_jobs(std::vector<logsim::JobLogRecord>& out);

  /// Decode the nvidia-smi segment.  Same contract as read_jobs.
  bool read_smi(logsim::SmiSnapshot& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Container inspection for `titan-convert --info`: header fields plus
/// the segment table, without decoding the columns.
struct TdfInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t event_count = 0;
  stats::TimeSec period_begin = 0;
  stats::TimeSec period_end = 0;
  stats::TimeSec accounting_from = 0;
  std::string profile_name;  ///< empty for pre-profile containers
  std::uint64_t profile_hash = 0;
  bool has_jobs = false;
  bool has_smi = false;

  struct Segment {
    std::uint32_t kind = 0;
    std::string name;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t rows = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Segment> segments;  ///< table order

  /// Byte-stable human rendering (one header block + one row per segment).
  [[nodiscard]] std::string summary_text() const;
};

/// Validate the container (header, table, per-segment checksums) and
/// return its description.  Throws ingest::IngestError on damage.
[[nodiscard]] TdfInfo inspect_tdf(const std::filesystem::path& path);

}  // namespace titan::tdf
