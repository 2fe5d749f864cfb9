// TDF (Titan Dataset Format) v1 on-disk layout: the versioned,
// little-endian, mmap-able binary container DatasetSource loads without
// round-tripping through the text logs.
//
// File layout (all integers little-endian, independent of host order):
//
//   [header, 40 bytes]
//     0  u64  magic            "TITANTDF"
//     8  u32  version          1
//     12 u32  endian marker    0x01020304 (reads back scrambled if a
//                              producer ever wrote native big-endian)
//     16 u64  table_offset     absolute offset of the segment table
//     24 u64  segment_count    entries in the segment table
//     32 u64  table_checksum   FNV-1a 64 over the raw table bytes
//   [segment bodies, each 8-byte aligned, zero padded between]
//   [segment table at table_offset: segment_count x 40-byte entries]
//     0  u32  kind             SegmentKind (unknown kinds are skipped)
//     4  u32  reserved         0
//     8  u64  offset           absolute offset of the segment body
//     16 u64  length           body length in bytes
//     24 u64  rows             decoded row count (events, jobs, ...)
//     32 u64  checksum         FNV-1a 64 over the body bytes
//
// The table lives at the end but is *addressed from the header*, so a
// truncated tail is detectable (file shorter than table_offset +
// 40*segment_count => E_TDF_TRUNCATED) and a mangled table is detectable
// (table_checksum mismatch => E_TDF_FOOTER) -- two different named damage
// classes instead of one silent EOF surprise.
//
// Column encodings (see DESIGN.md section 11):
//   * node dictionary -- sorted unique node ids (zigzag varint) + cname
//     bytes, so event rows store small dictionary indices;
//   * timestamps -- zigzag varint deltas (sorted streams encode in ~1
//     byte/event);
//   * kind/structure -- raw bytes, range-validated on decode;
//   * jobs/smi -- delta+varint integers, doubles as raw IEEE-754 bits.
//
// This header is deliberately dependency-free (stats/rng.hpp only, for
// the FNV-1a primitive shared with the manifest claims) so the ingest
// corruptor can reason about the layout, and compute a container's
// manifest claim, without linking titan_tdf.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "stats/rng.hpp"

namespace titan::tdf {

/// Canonical file name of the binary container inside a dataset dir.
inline constexpr std::string_view kTdfFileName = "dataset.tdf";

/// Canonical file name of shard `k` in a sharded dataset directory
/// ("dataset.shard-0.tdf", ...).  Each shard is a complete, self-checking
/// v1 container holding one contiguous time-ordered slice of the event
/// stream; the manifest's `shards N` key says how many to expect.
[[nodiscard]] inline std::string shard_file_name(std::size_t shard) {
  return "dataset.shard-" + std::to_string(shard) + ".tdf";
}

/// "TITANTDF" read as a little-endian u64 ('T' is the first file byte).
inline constexpr std::uint64_t kTdfMagic = 0x4644544e41544954ULL;

inline constexpr std::uint32_t kTdfVersion = 1;
inline constexpr std::uint32_t kTdfEndianMarker = 0x01020304U;

inline constexpr std::size_t kTdfHeaderSize = 40;
inline constexpr std::size_t kTdfEntrySize = 40;
inline constexpr std::size_t kTdfAlignment = 8;

// Header field offsets (byte positions).
inline constexpr std::size_t kTdfMagicOffset = 0;
inline constexpr std::size_t kTdfVersionOffset = 8;
inline constexpr std::size_t kTdfEndianOffset = 12;
inline constexpr std::size_t kTdfTableOffsetOffset = 16;
inline constexpr std::size_t kTdfSegmentCountOffset = 24;
inline constexpr std::size_t kTdfTableChecksumOffset = 32;

/// Implausibility cap on segment_count: v1 defines 8 segments, and the
/// cap bounds table allocation on adversarial headers.
inline constexpr std::uint64_t kTdfMaxSegments = 4096;

/// Segment kinds of format v1.  Readers skip unknown kinds (forward
/// compatibility); writers emit them in this order.
enum class SegmentKind : std::uint32_t {
  kMeta = 0,            ///< fixed-size study metadata (period, flags)
  kNodeDict = 1,        ///< sorted node-id -> cname dictionary
  kEventTime = 2,       ///< per-event timestamps, zigzag varint deltas
  kEventNode = 3,       ///< per-event node-dictionary indices, varint
  kEventKind = 4,       ///< per-event ErrorKind, raw bytes
  kEventStructure = 5,  ///< per-event MemoryStructure, raw bytes
  kJobs = 6,            ///< job-accounting records (user dictionary + rows)
  kSmi = 7,             ///< nvidia-smi sweep records
};

inline constexpr std::size_t kTdfSegmentKindCount = 8;

/// Stable human name of a segment kind ("meta", ...); "unknown" for
/// kinds this reader does not define.
[[nodiscard]] constexpr std::string_view segment_name(std::uint32_t kind) noexcept {
  constexpr std::string_view kNames[kTdfSegmentKindCount] = {
      "meta", "node_dict", "event_time", "event_node",
      "event_kind", "event_structure", "jobs", "smi",
  };
  return kind < kTdfSegmentKindCount ? kNames[kind] : std::string_view{"unknown"};
}

/// Meta-segment fixed layout: 6 little-endian 64-bit fields.
inline constexpr std::size_t kTdfMetaSize = 48;
inline constexpr std::uint64_t kTdfFlagJobs = 1ULL << 0;
inline constexpr std::uint64_t kTdfFlagSmi = 1ULL << 1;

/// One parsed segment-table entry.
struct SegmentEntry {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t rows = 0;
  std::uint64_t checksum = 0;
};

// -- The byte writer ----------------------------------------------------

/// Longest LEB128 varint of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Pointer-cursor byte writer: the one encoder of TDF integers.  It writes
/// at a raw position and never checks capacity -- callers size the buffer
/// to the encoding's upper bound first (a varint is at most
/// kMaxVarintBytes, a u64 8 bytes).  Integers are stored little-endian
/// byte by byte, independent of host order.  Each put works on a local
/// copy of the position: a char store may alias the cursor itself, so
/// writing through pos_ would reload it after every byte.
class ByteCursor {
 public:
  explicit ByteCursor(char* pos) noexcept : pos_{pos} {}

  /// One past the last byte written.
  [[nodiscard]] char* pos() const noexcept { return pos_; }

  void put_u8(std::uint8_t v) noexcept { *pos_++ = static_cast<char>(v); }

  void put_u32(std::uint32_t v) noexcept {
    char* p = pos_;
    for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    pos_ = p + 4;
  }

  void put_u64(std::uint64_t v) noexcept {
    char* p = pos_;
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xffU);
    pos_ = p + 8;
  }

  void put_i64(std::int64_t v) noexcept { put_u64(static_cast<std::uint64_t>(v)); }

  /// LEB128 unsigned varint (7 bits per byte, high bit = more).
  void put_varint(std::uint64_t v) noexcept {
    char* p = pos_;
    while (v >= 0x80U) {
      *p++ = static_cast<char>((v & 0x7fU) | 0x80U);
      v >>= 7;
    }
    *p++ = static_cast<char>(v);
    pos_ = p;
  }

  void put_bytes(std::string_view bytes) noexcept {
    std::memcpy(pos_, bytes.data(), bytes.size());
    pos_ += bytes.size();
  }

 private:
  char* pos_;
};

// -- std::string appenders (thin wrappers of ByteCursor) ---------------

inline void store_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  ByteCursor{buf}.put_u32(v);
  out.append(buf, sizeof(buf));
}

inline void store_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  ByteCursor{buf}.put_u64(v);
  out.append(buf, sizeof(buf));
}

inline void store_i64(std::string& out, std::int64_t v) {
  store_u64(out, static_cast<std::uint64_t>(v));
}

/// Overwrite 8 bytes at `pos` (header patching after the body is built).
inline void patch_u64(std::string& buf, std::size_t pos, std::uint64_t v) {
  ByteCursor{buf.data() + pos}.put_u64(v);
}

/// LEB128 unsigned varint append.
inline void append_varint(std::string& out, std::uint64_t v) {
  char buf[kMaxVarintBytes];
  ByteCursor cursor{buf};
  cursor.put_varint(v);
  out.append(buf, cursor.pos());
}

// -- Little-endian loads, varint decode, zigzag --------------------------

[[nodiscard]] inline std::uint32_t load_u32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[nodiscard]] inline std::int64_t load_i64(const unsigned char* p) noexcept {
  return static_cast<std::int64_t>(load_u64(p));
}

/// Decode one varint from [p, end).  Returns bytes consumed; 0 on
/// truncation or a value wider than 64 bits (both decode failures).
[[nodiscard]] inline std::size_t read_varint(const unsigned char* p, const unsigned char* end,
                                             std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  std::size_t n = 0;
  int shift = 0;
  while (p + n < end && n < 10) {
    const unsigned char byte = p[n];
    ++n;
    v |= static_cast<std::uint64_t>(byte & 0x7fU) << shift;
    if ((byte & 0x80U) == 0) {
      // The 10th byte may only carry the final bit of a 64-bit value.
      if (n == 10 && (byte & 0x7eU) != 0) return 0;
      out = v;
      return n;
    }
    shift += 7;
  }
  return 0;
}

[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// FNV-1a 64 over raw bytes: the segment/table checksum.  Identical to
/// ingest::content_checksum, so TDF extends the manifest scheme with one
/// hash function end to end.
[[nodiscard]] inline std::uint64_t tdf_checksum(std::string_view bytes) noexcept {
  return stats::hash_label(bytes);
}

/// The manifest v2 claim of a container: FNV-1a 64 over the file length
/// (8 bytes little-endian), the 40-byte header and the segment table.  The
/// header's table checksum covers the table and the table's per-segment
/// checksums cover every segment body, so the claim costs one table read
/// and leaves uncovered only the zero padding between segments (fsck
/// checks that).  Total over any bytes: a short header is hashed as far
/// as it goes, and a table the header places outside the file is left
/// out (the length already tells such a file apart).
[[nodiscard]] inline std::uint64_t container_claim(std::string_view bytes) noexcept {
  std::uint64_t h = stats::hash_extend_u64(stats::kFnv1aBasis, bytes.size());
  h = stats::hash_extend(h, bytes.substr(0, kTdfHeaderSize));
  if (bytes.size() < kTdfHeaderSize) return h;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint64_t offset = load_u64(p + kTdfTableOffsetOffset);
  const std::uint64_t count = load_u64(p + kTdfSegmentCountOffset);
  if (count > kTdfMaxSegments || offset > bytes.size() ||
      count * kTdfEntrySize > bytes.size() - offset) {
    return h;
  }
  return stats::hash_extend(h, bytes.substr(static_cast<std::size_t>(offset),
                                            static_cast<std::size_t>(count * kTdfEntrySize)));
}

}  // namespace titan::tdf
