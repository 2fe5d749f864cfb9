#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "faulttest/faulttest.hpp"
#include "par/pool.hpp"
#include "tdf/tdf.hpp"

namespace titan::tdf {

namespace {

/// Longest varint of a node-dictionary slot (slots are u32).
constexpr std::size_t kMaxSlotBytes = 5;

[[nodiscard]] constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kTdfAlignment - 1) / kTdfAlignment * kTdfAlignment;
}

/// A segment body's writer: the byte cursor plus the FNV-1a checksum of
/// the bytes written so far.  The row encoders call hash_written() after
/// each row, so the hash's serial multiply chain runs beside the next
/// row's encoding instead of in a second pass over the body.
class BodyWriter : public ByteCursor {
 public:
  explicit BodyWriter(char* begin) noexcept : ByteCursor{begin}, hashed_{begin} {}

  /// Fold the bytes written since the last call into the checksum.
  void hash_written() noexcept {
    checksum_ = stats::hash_extend(
        checksum_, {hashed_, static_cast<std::size_t>(pos() - hashed_)});
    hashed_ = pos();
  }

  /// FNV-1a of the whole body (call hash_written() first).
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  const char* hashed_;
  std::uint64_t checksum_ = stats::kFnv1aBasis;
};

/// One segment of the container.  One pool task builds and hashes its
/// body in a buffer sized to `bound`, the encoding's upper bound.
struct Segment {
  SegmentKind kind = SegmentKind::kMeta;
  std::uint64_t rows = 0;
  std::size_t bound = 0;
  std::function<void(BodyWriter&)> encode;
  std::unique_ptr<char[]> buffer;
  std::size_t length = 0;
  std::uint64_t checksum = 0;
};

void encode_meta(BodyWriter& out, const TdfDataset& data) {
  out.put_i64(data.period_begin);
  out.put_i64(data.period_end);
  out.put_i64(data.accounting_from);
  out.put_u64(data.event_count());
  std::uint64_t flags = 0;
  if (data.has_jobs) flags |= kTdfFlagJobs;
  if (data.has_smi) flags |= kTdfFlagSmi;
  out.put_u64(flags);
  out.put_i64(data.snapshot.taken_at);
  // Fleet-profile extension: appended past the fixed 48-byte prefix so
  // pre-profile readers (which only require >= 48 bytes) stay compatible.
  if (!data.profile_name.empty()) {
    out.put_u64(data.profile_hash);
    out.put_varint(data.profile_name.size());
    out.put_bytes(data.profile_name);
  }
}

/// Sorted unique node ids of the event stream, with their cnames.
void encode_node_dict(BodyWriter& out, const std::vector<topology::NodeId>& dict) {
  out.put_varint(dict.size());
  for (const auto node : dict) {
    out.put_varint(zigzag_encode(node));
    const auto name = topology::cname(node);
    out.put_varint(name.size());
    out.put_bytes(name);
  }
}

void encode_times(BodyWriter& out, const std::vector<stats::TimeSec>& times) {
  stats::TimeSec prev = 0;
  for (const auto t : times) {
    out.put_varint(zigzag_encode(t - prev));
    prev = t;
    out.hash_written();
  }
}

void encode_node_slots(BodyWriter& out, const std::vector<topology::NodeId>& nodes,
                       const std::vector<std::uint32_t>& slot_of) {
  for (const auto node : nodes) {
    out.put_varint(slot_of[static_cast<std::size_t>(node)]);
    out.hash_written();
  }
}

/// One raw byte per event (ErrorKind, MemoryStructure).
template <typename Enum>
void encode_enum_bytes(BodyWriter& out, const std::vector<Enum>& column) {
  for (const auto value : column) out.put_u8(static_cast<std::uint8_t>(value));
}

/// The sorted distinct user ids of a job table and each id's slot among
/// them, from one pass of an open-addressing hash over the jobs: no sort
/// of every job's id and no binary search per job.  A table holds a few
/// hundred distinct users.  Occupancy is its own marker, so any int32 id
/// is a valid key.
class UserDictionary {
 public:
  explicit UserDictionary(const std::vector<logsim::JobLogRecord>& jobs) {
    rehash(kInitialBits);
    for (const auto& job : jobs) {
      Entry& entry = table_[find(job.user)];
      if (entry.slot != kEmpty) continue;
      entry = {job.user, 0};
      users_.push_back(job.user);
      if (2 * users_.size() > table_.size()) rehash(bits_ + 1);
    }
    std::sort(users_.begin(), users_.end());
    for (std::size_t i = 0; i < users_.size(); ++i) {
      table_[find(users_[i])].slot = static_cast<std::uint32_t>(i);
    }
  }

  [[nodiscard]] const std::vector<xid::UserId>& users() const noexcept { return users_; }

  /// Slot of `user`, which must be the id of one of the jobs.
  [[nodiscard]] std::uint32_t slot(xid::UserId user) const noexcept {
    return table_[find(user)].slot;
  }

 private:
  struct Entry {
    xid::UserId user = 0;
    std::uint32_t slot = kEmpty;
  };
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  static constexpr unsigned kInitialBits = 10;

  /// Index of the entry holding `user`, or of the empty entry where it
  /// belongs (linear probing from a Fibonacci hash).
  [[nodiscard]] std::size_t find(xid::UserId user) const noexcept {
    const std::uint64_t key = static_cast<std::uint32_t>(user);
    auto i = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - bits_));
    while (table_[i].slot != kEmpty && table_[i].user != user) i = (i + 1) & mask_;
    return i;
  }

  void rehash(unsigned bits) {
    bits_ = bits;
    table_.assign(std::size_t{1} << bits, Entry{});
    mask_ = table_.size() - 1;
    for (const auto user : users_) table_[find(user)] = {user, 0};
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  unsigned bits_ = 0;
  std::vector<xid::UserId> users_;
};

void encode_jobs(BodyWriter& out, const std::vector<logsim::JobLogRecord>& jobs) {
  out.put_varint(jobs.size());

  // User dictionary: sorted unique user ids, zigzag deltas.
  const UserDictionary users{jobs};
  out.put_varint(users.users().size());
  xid::UserId prev_user = 0;
  for (const auto user : users.users()) {
    out.put_varint(zigzag_encode(static_cast<std::int64_t>(user) - prev_user));
    prev_user = user;
  }

  xid::JobId prev_id = 0;
  stats::TimeSec prev_start = 0;
  for (const auto& job : jobs) {
    out.put_varint(zigzag_encode(job.id - prev_id));
    prev_id = job.id;
    out.put_varint(users.slot(job.user));
    out.put_varint(zigzag_encode(job.start - prev_start));
    prev_start = job.start;
    out.put_varint(zigzag_encode(job.end - job.start));
    out.put_varint(job.node_count);
    out.put_u64(std::bit_cast<std::uint64_t>(job.gpu_core_hours));
    out.put_u64(std::bit_cast<std::uint64_t>(job.max_memory_gb));
    out.put_u64(std::bit_cast<std::uint64_t>(job.total_memory_gb));
    out.hash_written();
  }
}

void encode_smi(BodyWriter& out, const logsim::SmiSnapshot& snapshot) {
  out.put_varint(snapshot.records.size());
  topology::NodeId prev_node = 0;
  xid::CardId prev_serial = 0;
  for (const auto& rec : snapshot.records) {
    out.put_varint(zigzag_encode(static_cast<std::int64_t>(rec.node) - prev_node));
    prev_node = rec.node;
    out.put_varint(zigzag_encode(static_cast<std::int64_t>(rec.serial) - prev_serial));
    prev_serial = rec.serial;
    out.put_varint(rec.sbe_total);
    out.put_varint(rec.dbe_total);
    out.put_varint(rec.sbe_volatile);
    out.put_varint(rec.dbe_volatile);
    out.put_varint(rec.retired_pages_sbe);
    out.put_varint(rec.retired_pages_dbe);
    out.put_u64(std::bit_cast<std::uint64_t>(rec.temperature_f));
    out.hash_written();
  }
}

}  // namespace

std::string encode_tdf(const TdfDataset& data) {
  const std::size_t n = data.event_count();
  if (data.nodes.size() != n || data.kinds.size() != n || data.structures.size() != n) {
    throw std::invalid_argument{"encode_tdf: event columns must have equal lengths"};
  }

  // Node dictionary + per-event dictionary indices.  The range check runs
  // before any table index and names the lowest out-of-range id; then
  // one presence pass over the node slots, an ascending scan that numbers
  // the present nodes, and a node -> dictionary slot lookup per event.
  std::optional<topology::NodeId> lowest_bad;
  for (const auto node : data.nodes) {
    if ((node < 0 || node >= topology::kNodeSlots) && (!lowest_bad || node < *lowest_bad)) {
      lowest_bad = node;
    }
  }
  if (lowest_bad) {
    throw std::invalid_argument{"encode_tdf: node id out of range: " +
                                std::to_string(*lowest_bad)};
  }
  constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot_of(static_cast<std::size_t>(topology::kNodeSlots), kAbsent);
  for (const auto node : data.nodes) slot_of[static_cast<std::size_t>(node)] = 0;
  std::vector<topology::NodeId> dict;
  for (topology::NodeId node = 0; node < topology::kNodeSlots; ++node) {
    auto& slot = slot_of[static_cast<std::size_t>(node)];
    if (slot == kAbsent) continue;
    slot = static_cast<std::uint32_t>(dict.size());
    dict.push_back(node);
  }

  // Table order; each bound is the most bytes its encoder can write.  The
  // buffers come from the calling thread, so no pool worker's malloc
  // arena is left holding their pages.
  std::vector<Segment> segments;
  const auto add = [&](SegmentKind kind, std::uint64_t rows, std::size_t bound,
                       std::function<void(BodyWriter&)> encode) {
    Segment& segment = segments.emplace_back();
    segment.kind = kind;
    segment.rows = rows;
    segment.bound = bound;
    segment.encode = std::move(encode);
    segment.buffer = std::make_unique_for_overwrite<char[]>(bound);
  };
  add(SegmentKind::kMeta, 1, kTdfMetaSize + 8 + kMaxVarintBytes + data.profile_name.size(),
      [&](BodyWriter& out) { encode_meta(out, data); });
  add(SegmentKind::kNodeDict, dict.size(),
      kMaxVarintBytes + dict.size() * (2 * kMaxVarintBytes + topology::kMaxCnameChars),
      [&](BodyWriter& out) { encode_node_dict(out, dict); });
  add(SegmentKind::kEventTime, n, n * kMaxVarintBytes,
      [&](BodyWriter& out) { encode_times(out, data.times); });
  add(SegmentKind::kEventNode, n, n * kMaxSlotBytes,
      [&](BodyWriter& out) { encode_node_slots(out, data.nodes, slot_of); });
  add(SegmentKind::kEventKind, n, n,
      [&](BodyWriter& out) { encode_enum_bytes(out, data.kinds); });
  add(SegmentKind::kEventStructure, n, n,
      [&](BodyWriter& out) { encode_enum_bytes(out, data.structures); });
  if (data.has_jobs) {
    // Count, dictionary size, then per job a dictionary entry, five
    // varints and three doubles.
    add(SegmentKind::kJobs, data.jobs.size(),
        2 * kMaxVarintBytes + data.jobs.size() * (6 * kMaxVarintBytes + 3 * 8),
        [&](BodyWriter& out) { encode_jobs(out, data.jobs); });
  }
  if (data.has_smi) {
    add(SegmentKind::kSmi, data.snapshot.records.size(),
        kMaxVarintBytes + data.snapshot.records.size() * (8 * kMaxVarintBytes + 8),
        [&](BodyWriter& out) { encode_smi(out, data.snapshot); });
  }

  // The largest segments start first.
  std::vector<std::size_t> order(segments.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return segments[a].bound > segments[b].bound;
  });
  par::ThreadPool::instance().run(order.size(), [&](std::size_t task) {
    Segment& segment = segments[order[task]];
    BodyWriter body{segment.buffer.get()};
    segment.encode(body);
    body.hash_written();
    segment.length = static_cast<std::size_t>(body.pos() - segment.buffer.get());
    segment.checksum = body.checksum();
  });
  TITAN_PTP("tdf/segments-encoded");

  // The table and header first, then one pass that appends header,
  // 8-byte aligned bodies (zero padded between) and table in file order.
  std::string table(segments.size() * kTdfEntrySize, '\0');
  ByteCursor entry{table.data()};
  std::size_t offset = kTdfHeaderSize;
  for (const auto& segment : segments) {
    offset = align_up(offset);
    entry.put_u32(static_cast<std::uint32_t>(segment.kind));
    entry.put_u32(0);
    entry.put_u64(offset);
    entry.put_u64(segment.length);
    entry.put_u64(segment.rows);
    entry.put_u64(segment.checksum);
    offset += segment.length;
  }
  const std::size_t table_offset = align_up(offset);
  char header[kTdfHeaderSize];
  ByteCursor field{header};
  field.put_u64(kTdfMagic);
  field.put_u32(kTdfVersion);
  field.put_u32(kTdfEndianMarker);
  field.put_u64(table_offset);
  field.put_u64(segments.size());
  field.put_u64(tdf_checksum(table));

  std::string out;
  out.reserve(table_offset + table.size());
  out.append(header, sizeof(header));
  for (auto& segment : segments) {
    out.append(align_up(out.size()) - out.size(), '\0');
    out.append(segment.buffer.get(), segment.length);
    segment.buffer.reset();
  }
  out.append(table_offset - out.size(), '\0');
  out += table;
  TITAN_PTP("tdf/footer-encoded");
  return out;
}

}  // namespace titan::tdf
