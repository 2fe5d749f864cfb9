// Unit tests for the TDF v1 container: the varint/zigzag primitives, a
// hand-built encode/decode round trip, and byte-surgery damage fixtures
// proving every corruption class maps to its named triage code under
// both ingest policies.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "faulttest/atomic_file.hpp"
#include "ingest/triage.hpp"
#include "tdf/format.hpp"
#include "tdf/tdf.hpp"
#include "topology/machine.hpp"

namespace titan {
namespace {

namespace fs = std::filesystem;
using ingest::IngestError;
using ingest::IngestPolicy;
using ingest::IngestReport;
using ingest::SalvageAction;
using ingest::TriageCode;

const unsigned char* as_bytes(const std::string& buf) {
  return reinterpret_cast<const unsigned char*>(buf.data());
}

// ---------------------------------------------------------------------------
// Encoding primitives.
// ---------------------------------------------------------------------------

TEST(TdfVarint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,      1,          0x7fULL,     0x80ULL,
                                  0x3fff, 0x4000ULL,  1ULL << 32,  ~0ULL};
  for (const auto v : values) {
    std::string buf;
    tdf::append_varint(buf, v);
    std::uint64_t out = 0;
    const auto* p = as_bytes(buf);
    EXPECT_EQ(tdf::read_varint(p, p + buf.size(), out), buf.size()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(TdfVarint, TruncationAndOverflowReturnZero) {
  std::string buf;
  tdf::append_varint(buf, ~0ULL);  // 10 bytes
  ASSERT_EQ(buf.size(), 10U);
  std::uint64_t out = 0;
  const auto* p = as_bytes(buf);
  EXPECT_EQ(tdf::read_varint(p, p + buf.size() - 1, out), 0U) << "truncated stream";
  EXPECT_EQ(tdf::read_varint(p, p, out), 0U) << "empty stream";

  // A 10th byte carrying more than the final bit encodes > 64 bits.
  std::string wide(9, '\x80');
  wide += '\x7f';
  const auto* w = as_bytes(wide);
  EXPECT_EQ(tdf::read_varint(w, w + wide.size(), out), 0U) << "65-bit value";

  // All-continuation bytes never terminate within the 10-byte cap.
  const std::string runaway(10, '\xff');
  const auto* r = as_bytes(runaway);
  EXPECT_EQ(tdf::read_varint(r, r + runaway.size(), out), 0U) << "runaway continuation";
}

TEST(TdfZigzag, RoundTripsSignedValues) {
  const std::int64_t values[] = {0,  -1, 1,  63, -64, 1234567,
                                 -1234567,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const auto v : values) {
    EXPECT_EQ(tdf::zigzag_decode(tdf::zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the point of the encoding).
  EXPECT_EQ(tdf::zigzag_encode(0), 0U);
  EXPECT_EQ(tdf::zigzag_encode(-1), 1U);
  EXPECT_EQ(tdf::zigzag_encode(1), 2U);
}

TEST(TdfChecksum, MatchesManifestChecksumPrimitive) {
  EXPECT_EQ(tdf::tdf_checksum("console.log"), ingest::content_checksum("console.log"));
}

// ---------------------------------------------------------------------------
// Container round trip on a hand-built fixture.
// ---------------------------------------------------------------------------

tdf::TdfDataset fixture() {
  tdf::TdfDataset d;
  d.period_begin = 100;
  d.period_end = 1000;
  d.accounting_from = 150;
  d.times = {100, 100, 250, 999};
  d.nodes = {5, 12, 5, 42};
  d.kinds = {xid::ErrorKind::kDoubleBitError, xid::ErrorKind::kSingleBitError,
             xid::ErrorKind::kGraphicsEngineException, xid::ErrorKind::kOffTheBus};
  d.structures = {xid::MemoryStructure::kDeviceMemory, xid::MemoryStructure::kNone,
                  xid::MemoryStructure::kL2Cache, xid::MemoryStructure::kNone};

  d.has_jobs = true;
  logsim::JobLogRecord a;
  a.id = 1001;
  a.user = 3;
  a.start = 120;
  a.end = 480;
  a.node_count = 16;
  a.gpu_core_hours = 12.5;
  a.max_memory_gb = 3.25;
  a.total_memory_gb = 41.0;
  logsim::JobLogRecord b;
  b.id = 1002;
  b.user = 7;
  b.start = 90;
  b.end = 990;
  b.node_count = 2;
  b.gpu_core_hours = 0.75;
  b.max_memory_gb = 5.5;
  b.total_memory_gb = 11.0;
  d.jobs = {a, b};

  d.has_smi = true;
  d.snapshot.taken_at = 1000;
  logsim::SmiCardRecord card;
  card.node = 5;
  card.serial = 77;
  card.sbe_total = 12;
  card.dbe_total = 1;
  card.sbe_volatile = 4;
  card.dbe_volatile = 0;
  card.retired_pages_sbe = 2;
  card.retired_pages_dbe = 1;
  card.temperature_f = 85.5;
  d.snapshot.records = {card};
  return d;
}

TEST(TdfContainer, EncodeDecodeRoundTrip) {
  const auto data = fixture();
  const auto bytes = tdf::encode_tdf(data);
  EXPECT_GE(bytes.size(), tdf::kTdfHeaderSize + 8 * tdf::kTdfEntrySize);

  IngestReport report{IngestPolicy::kStrict};
  const auto out = tdf::decode_tdf(bytes, "fixture.tdf", IngestPolicy::kStrict, report);
  EXPECT_EQ(report.total(), 0U);
  EXPECT_EQ(out.period_begin, data.period_begin);
  EXPECT_EQ(out.period_end, data.period_end);
  EXPECT_EQ(out.accounting_from, data.accounting_from);
  EXPECT_EQ(out.times, data.times);
  EXPECT_EQ(out.nodes, data.nodes);
  EXPECT_EQ(out.kinds, data.kinds);
  EXPECT_EQ(out.structures, data.structures);

  ASSERT_TRUE(out.has_jobs);
  ASSERT_EQ(out.jobs.size(), data.jobs.size());
  for (std::size_t i = 0; i < data.jobs.size(); ++i) {
    EXPECT_EQ(out.jobs[i].id, data.jobs[i].id) << i;
    EXPECT_EQ(out.jobs[i].user, data.jobs[i].user) << i;
    EXPECT_EQ(out.jobs[i].start, data.jobs[i].start) << i;
    EXPECT_EQ(out.jobs[i].end, data.jobs[i].end) << i;
    EXPECT_EQ(out.jobs[i].node_count, data.jobs[i].node_count) << i;
    EXPECT_EQ(out.jobs[i].gpu_core_hours, data.jobs[i].gpu_core_hours) << i;
    EXPECT_EQ(out.jobs[i].max_memory_gb, data.jobs[i].max_memory_gb) << i;
    EXPECT_EQ(out.jobs[i].total_memory_gb, data.jobs[i].total_memory_gb) << i;
  }

  ASSERT_TRUE(out.has_smi);
  EXPECT_EQ(out.snapshot.taken_at, data.snapshot.taken_at);
  ASSERT_EQ(out.snapshot.records.size(), 1U);
  const auto& card = out.snapshot.records[0];
  EXPECT_EQ(card.node, 5);
  EXPECT_EQ(card.serial, 77);
  EXPECT_EQ(card.sbe_total, 12U);
  EXPECT_EQ(card.dbe_total, 1U);
  EXPECT_EQ(card.sbe_volatile, 4U);
  EXPECT_EQ(card.retired_pages_sbe, 2U);
  EXPECT_EQ(card.retired_pages_dbe, 1U);
  EXPECT_EQ(card.temperature_f, 85.5);
}

TEST(TdfContainer, EncodeIsDeterministic) {
  EXPECT_EQ(tdf::encode_tdf(fixture()), tdf::encode_tdf(fixture()));
}

TEST(TdfContainer, EventsOnlyContainerSkipsOptionalSegments) {
  auto data = fixture();
  data.has_jobs = false;
  data.jobs.clear();
  data.has_smi = false;
  data.snapshot = {};
  const auto bytes = tdf::encode_tdf(data);

  IngestReport report{IngestPolicy::kStrict};
  const auto out = tdf::decode_tdf(bytes, "fixture.tdf", IngestPolicy::kStrict, report);
  EXPECT_FALSE(out.has_jobs);
  EXPECT_FALSE(out.has_smi);
  EXPECT_EQ(out.times, data.times);
}

TEST(TdfContainer, ColumnLengthMismatchRejectedAtEncode) {
  auto data = fixture();
  data.kinds.pop_back();
  EXPECT_THROW((void)tdf::encode_tdf(data), std::invalid_argument);
}

TEST(TdfContainer, OutOfRangeNodeNamesTheLowestId) {
  auto data = fixture();
  data.nodes = {5, topology::kNodeSlots + 3, -2, 9};
  try {
    (void)tdf::encode_tdf(data);
    FAIL() << "out-of-range node ids must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "encode_tdf: node id out of range: -2");
  }
  data.nodes = {5, topology::kNodeSlots + 3, topology::kNodeSlots, 9};
  try {
    (void)tdf::encode_tdf(data);
    FAIL() << "out-of-range node ids must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string{error.what()},
              "encode_tdf: node id out of range: " + std::to_string(topology::kNodeSlots));
  }
}

// ---------------------------------------------------------------------------
// Byte-surgery damage fixtures -> named triage codes.
// ---------------------------------------------------------------------------

struct FoundSegment {
  tdf::SegmentEntry entry;
  std::size_t index = 0;  ///< position in the segment table
};

FoundSegment find_segment(const std::string& bytes, tdf::SegmentKind kind) {
  const auto* base = as_bytes(bytes);
  const auto table_offset =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfTableOffsetOffset));
  const auto count =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfSegmentCountOffset));
  for (std::size_t i = 0; i < count; ++i) {
    const auto* p = base + table_offset + i * tdf::kTdfEntrySize;
    if (tdf::load_u32(p) != static_cast<std::uint32_t>(kind)) continue;
    FoundSegment found;
    found.entry.kind = tdf::load_u32(p);
    found.entry.offset = tdf::load_u64(p + 8);
    found.entry.length = tdf::load_u64(p + 16);
    found.entry.rows = tdf::load_u64(p + 24);
    found.entry.checksum = tdf::load_u64(p + 32);
    found.index = i;
    return found;
  }
  ADD_FAILURE() << "segment kind " << static_cast<std::uint32_t>(kind) << " not found";
  return {};
}

/// After editing segment `index`'s body, refresh its entry checksum and
/// the table checksum so only the *intended* damage is visible.
void refresh_checksums(std::string& bytes, std::size_t index) {
  const auto* base = as_bytes(bytes);
  const auto table_offset =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfTableOffsetOffset));
  const auto count =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfSegmentCountOffset));
  const auto entry_pos = table_offset + index * tdf::kTdfEntrySize;
  const auto offset = static_cast<std::size_t>(tdf::load_u64(base + entry_pos + 8));
  const auto length = static_cast<std::size_t>(tdf::load_u64(base + entry_pos + 16));
  tdf::patch_u64(bytes, entry_pos + 32,
                 tdf::tdf_checksum(std::string_view{bytes}.substr(offset, length)));
  tdf::patch_u64(bytes, tdf::kTdfTableChecksumOffset,
                 tdf::tdf_checksum(std::string_view{bytes}.substr(
                     table_offset, count * tdf::kTdfEntrySize)));
}

/// Append a segment entry (empty body at the header boundary) and
/// re-patch count + table checksum so the container stays well formed.
std::string with_extra_entry(std::string bytes, std::uint32_t kind) {
  const auto* base = as_bytes(bytes);
  const auto table_offset =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfTableOffsetOffset));
  const auto count =
      static_cast<std::size_t>(tdf::load_u64(base + tdf::kTdfSegmentCountOffset));
  std::string entry;
  tdf::store_u32(entry, kind);
  tdf::store_u32(entry, 0);
  tdf::store_u64(entry, tdf::kTdfHeaderSize);  // degenerate empty body
  tdf::store_u64(entry, 0);
  tdf::store_u64(entry, 0);
  tdf::store_u64(entry, tdf::tdf_checksum(""));
  bytes += entry;
  tdf::patch_u64(bytes, tdf::kTdfSegmentCountOffset, count + 1);
  tdf::patch_u64(bytes, tdf::kTdfTableChecksumOffset,
                 tdf::tdf_checksum(std::string_view{bytes}.substr(
                     table_offset, (count + 1) * tdf::kTdfEntrySize)));
  return bytes;
}

/// Expect decode to throw `code` under both policies (container and
/// required-segment damage is never salvageable).
void expect_fatal_both(const std::string& bytes, TriageCode code, std::string_view what) {
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport report{policy};
    try {
      (void)tdf::decode_tdf(bytes, "fixture.tdf", policy, report);
      FAIL() << what << ": decode succeeded";
    } catch (const IngestError& error) {
      EXPECT_EQ(error.code(), code) << what << ": got " << ingest::code_name(error.code());
      EXPECT_EQ(error.file(), "fixture.tdf") << what;
    }
  }
}

TEST(TdfDamage, BadMagicNamed) {
  auto bytes = tdf::encode_tdf(fixture());
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  expect_fatal_both(bytes, TriageCode::kTdfBadMagic, "flipped magic");
}

TEST(TdfDamage, EndianMarkerNamed) {
  auto bytes = tdf::encode_tdf(fixture());
  bytes[tdf::kTdfEndianOffset] = static_cast<char>(bytes[tdf::kTdfEndianOffset] ^ 0x01);
  expect_fatal_both(bytes, TriageCode::kTdfBadMagic, "scrambled endian marker");
}

TEST(TdfDamage, VersionMismatchNamed) {
  auto bytes = tdf::encode_tdf(fixture());
  bytes[tdf::kTdfVersionOffset] = static_cast<char>(tdf::kTdfVersion + 1);
  expect_fatal_both(bytes, TriageCode::kTdfVersionMismatch, "future version");
}

TEST(TdfDamage, TruncationNamed) {
  const auto bytes = tdf::encode_tdf(fixture());
  auto tail_cut = bytes.substr(0, bytes.size() - 1);
  expect_fatal_both(tail_cut, TriageCode::kTdfTruncated, "one byte short");
  auto stub = bytes.substr(0, tdf::kTdfHeaderSize / 2);
  expect_fatal_both(stub, TriageCode::kTdfTruncated, "header stub");
}

TEST(TdfDamage, MangledTableNamed) {
  auto bytes = tdf::encode_tdf(fixture());
  const auto table_offset =
      static_cast<std::size_t>(tdf::load_u64(as_bytes(bytes) + tdf::kTdfTableOffsetOffset));
  bytes[table_offset] = static_cast<char>(bytes[table_offset] ^ 0x10);
  expect_fatal_both(bytes, TriageCode::kTdfFooterCorrupt, "flipped table byte");
}

TEST(TdfDamage, TrailingBytesNamed) {
  // The table must end exactly at EOF; trailing bytes mean the index no
  // longer describes the file (footer damage, not truncation).
  auto bytes = tdf::encode_tdf(fixture());
  bytes += '\0';
  expect_fatal_both(bytes, TriageCode::kTdfFooterCorrupt, "trailing byte after table");
}

TEST(TdfDamage, DuplicateKnownSegmentNamed) {
  const auto bytes =
      with_extra_entry(tdf::encode_tdf(fixture()),
                       static_cast<std::uint32_t>(tdf::SegmentKind::kMeta));
  expect_fatal_both(bytes, TriageCode::kTdfFooterCorrupt, "duplicate meta entry");
}

TEST(TdfDamage, RequiredSegmentChecksumFatalBothPolicies) {
  auto bytes = tdf::encode_tdf(fixture());
  const auto seg = find_segment(bytes, tdf::SegmentKind::kEventTime);
  ASSERT_GT(seg.entry.length, 0U);
  const auto pos = static_cast<std::size_t>(seg.entry.offset);
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);
  expect_fatal_both(bytes, TriageCode::kTdfSegmentChecksum, "tampered event_time body");
}

TEST(TdfDamage, RequiredSegmentDecodeCorruptionFatalBothPolicies) {
  // Out-of-range ErrorKind byte with *valid* checksums: the range check,
  // not the checksum, must name the damage.
  auto bytes = tdf::encode_tdf(fixture());
  const auto seg = find_segment(bytes, tdf::SegmentKind::kEventKind);
  ASSERT_GT(seg.entry.length, 0U);
  bytes[static_cast<std::size_t>(seg.entry.offset)] = static_cast<char>(0xff);
  refresh_checksums(bytes, seg.index);
  expect_fatal_both(bytes, TriageCode::kTdfSegmentCorrupt, "out-of-range kind byte");
}

TEST(TdfDamage, OptionalSegmentQuarantinedInSalvage) {
  auto bytes = tdf::encode_tdf(fixture());
  const auto seg = find_segment(bytes, tdf::SegmentKind::kJobs);
  ASSERT_GT(seg.entry.length, 0U);
  const auto pos = static_cast<std::size_t>(seg.entry.offset);
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x01);

  // Strict: fatal, like every other checksum failure.
  IngestReport strict_report{IngestPolicy::kStrict};
  try {
    (void)tdf::decode_tdf(bytes, "fixture.tdf", IngestPolicy::kStrict, strict_report);
    FAIL() << "strict decode of a tampered jobs segment succeeded";
  } catch (const IngestError& error) {
    EXPECT_EQ(error.code(), TriageCode::kTdfSegmentChecksum);
  }

  // Salvage: the segment is dropped, the loss is on the record, and the
  // event columns still decode.
  IngestReport report{IngestPolicy::kSalvage};
  const auto out = tdf::decode_tdf(bytes, "fixture.tdf", IngestPolicy::kSalvage, report);
  EXPECT_FALSE(out.has_jobs);
  EXPECT_TRUE(out.jobs.empty());
  EXPECT_TRUE(out.has_smi);
  EXPECT_EQ(out.times, fixture().times);
  EXPECT_EQ(report.count(TriageCode::kTdfSegmentChecksum), 1U);
  EXPECT_GE(report.count(SalvageAction::kQuarantined), 1U);
}

TEST(TdfDamage, UnknownSegmentKindSkippedUnderBothPolicies) {
  const auto bytes = with_extra_entry(tdf::encode_tdf(fixture()), 99);
  for (const auto policy : {IngestPolicy::kStrict, IngestPolicy::kSalvage}) {
    IngestReport report{policy};
    const auto out = tdf::decode_tdf(bytes, "fixture.tdf", policy, report);
    EXPECT_EQ(out.times, fixture().times);
    EXPECT_EQ(report.count(TriageCode::kTdfUnknownSegment), 1U);
    EXPECT_GE(report.count(SalvageAction::kIgnored), 1U);
  }
}

// ---------------------------------------------------------------------------
// File-level API: MappedFile / inspect_tdf.
// ---------------------------------------------------------------------------

TEST(TdfFile, InspectDescribesHeaderAndSegments) {
  const auto dir = fs::path{::testing::TempDir()} / "titanrel_tdf_inspect";
  fs::create_directories(dir);
  const auto path = dir / "dataset.tdf";
  faulttest::atomic_write_file(path, tdf::encode_tdf(fixture()));

  const auto info = tdf::inspect_tdf(path);
  EXPECT_EQ(info.version, tdf::kTdfVersion);
  EXPECT_EQ(info.file_bytes, fs::file_size(path));
  EXPECT_EQ(info.event_count, 4U);
  EXPECT_EQ(info.period_begin, 100);
  EXPECT_EQ(info.period_end, 1000);
  EXPECT_TRUE(info.has_jobs);
  EXPECT_TRUE(info.has_smi);
  ASSERT_EQ(info.segments.size(), 8U);
  EXPECT_EQ(info.segments[0].name, "meta");
  EXPECT_EQ(info.segments[7].name, "smi");

  const auto summary = info.summary_text();
  EXPECT_NE(summary.find("event_time"), std::string::npos);
  EXPECT_NE(summary.find("node_dict"), std::string::npos);

  // Inspection validates every checksum: damage is fatal here too.
  auto bytes = tdf::encode_tdf(fixture());
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  const auto bad = dir / "bad.tdf";
  {
    std::ofstream out{bad, std::ios::binary};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)tdf::inspect_tdf(bad), IngestError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace titan
