#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "faulttest/faulttest.hpp"
#include "tdf/tdf.hpp"

namespace titan::tdf {

namespace {

/// Pad `out` with zero bytes to the segment alignment.
void align(std::string& out) {
  while (out.size() % kTdfAlignment != 0) out += '\0';
}

struct SegmentBuilder {
  std::string& out;
  std::vector<SegmentEntry> entries;

  /// Append one segment body (already encoded) and record its entry.
  void add(SegmentKind kind, std::string body, std::uint64_t rows) {
    align(out);
    SegmentEntry entry;
    entry.kind = static_cast<std::uint32_t>(kind);
    entry.offset = out.size();
    entry.length = body.size();
    entry.rows = rows;
    entry.checksum = tdf_checksum(body);
    out += body;
    entries.push_back(entry);
  }
};

std::string encode_meta(const TdfDataset& data) {
  std::string body;
  body.reserve(kTdfMetaSize);
  store_i64(body, data.period_begin);
  store_i64(body, data.period_end);
  store_i64(body, data.accounting_from);
  store_u64(body, data.event_count());
  std::uint64_t flags = 0;
  if (data.has_jobs) flags |= kTdfFlagJobs;
  if (data.has_smi) flags |= kTdfFlagSmi;
  store_u64(body, flags);
  store_i64(body, data.snapshot.taken_at);
  // Fleet-profile extension: appended past the fixed 48-byte prefix so
  // pre-profile readers (which only require >= 48 bytes) stay compatible.
  if (!data.profile_name.empty()) {
    store_u64(body, data.profile_hash);
    append_varint(body, data.profile_name.size());
    body += data.profile_name;
  }
  return body;
}

/// Sorted unique node ids of the event stream, with their cnames.
std::string encode_node_dict(const std::vector<topology::NodeId>& dict) {
  std::string body;
  append_varint(body, dict.size());
  for (const auto node : dict) {
    append_varint(body, zigzag_encode(node));
    const auto name = topology::cname(node);
    append_varint(body, name.size());
    body += name;
  }
  return body;
}

std::string encode_times(const std::vector<stats::TimeSec>& times) {
  std::string body;
  stats::TimeSec prev = 0;
  for (const auto t : times) {
    append_varint(body, zigzag_encode(t - prev));
    prev = t;
  }
  return body;
}

std::string encode_jobs(const std::vector<logsim::JobLogRecord>& jobs) {
  std::string body;
  append_varint(body, jobs.size());

  // User dictionary: sorted unique user ids, zigzag deltas.
  std::vector<xid::UserId> users;
  users.reserve(jobs.size());
  for (const auto& job : jobs) users.push_back(job.user);
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  append_varint(body, users.size());
  xid::UserId prev_user = 0;
  for (const auto user : users) {
    append_varint(body, zigzag_encode(static_cast<std::int64_t>(user) - prev_user));
    prev_user = user;
  }

  xid::JobId prev_id = 0;
  stats::TimeSec prev_start = 0;
  for (const auto& job : jobs) {
    append_varint(body, zigzag_encode(job.id - prev_id));
    prev_id = job.id;
    const auto slot = std::lower_bound(users.begin(), users.end(), job.user);
    append_varint(body, static_cast<std::uint64_t>(slot - users.begin()));
    append_varint(body, zigzag_encode(job.start - prev_start));
    prev_start = job.start;
    append_varint(body, zigzag_encode(job.end - job.start));
    append_varint(body, job.node_count);
    store_u64(body, std::bit_cast<std::uint64_t>(job.gpu_core_hours));
    store_u64(body, std::bit_cast<std::uint64_t>(job.max_memory_gb));
    store_u64(body, std::bit_cast<std::uint64_t>(job.total_memory_gb));
  }
  return body;
}

std::string encode_smi(const logsim::SmiSnapshot& snapshot) {
  std::string body;
  append_varint(body, snapshot.records.size());
  topology::NodeId prev_node = 0;
  xid::CardId prev_serial = 0;
  for (const auto& rec : snapshot.records) {
    append_varint(body, zigzag_encode(static_cast<std::int64_t>(rec.node) - prev_node));
    prev_node = rec.node;
    append_varint(body, zigzag_encode(static_cast<std::int64_t>(rec.serial) - prev_serial));
    prev_serial = rec.serial;
    append_varint(body, rec.sbe_total);
    append_varint(body, rec.dbe_total);
    append_varint(body, rec.sbe_volatile);
    append_varint(body, rec.dbe_volatile);
    append_varint(body, rec.retired_pages_sbe);
    append_varint(body, rec.retired_pages_dbe);
    store_u64(body, std::bit_cast<std::uint64_t>(rec.temperature_f));
  }
  return body;
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

  std::string out;
  out.append(kTdfHeaderSize, '\0');
  patch_u64(out, kTdfMagicOffset, kTdfMagic);
  // version + endian marker share one u64 slot (little-endian halves).
  patch_u64(out, kTdfVersionOffset,
            static_cast<std::uint64_t>(kTdfVersion) |
                (static_cast<std::uint64_t>(kTdfEndianMarker) << 32));

  SegmentBuilder builder{out, {}};
  builder.add(SegmentKind::kMeta, encode_meta(data), 1);
  builder.add(SegmentKind::kNodeDict, encode_node_dict(dict), dict.size());
  builder.add(SegmentKind::kEventTime, encode_times(data.times), n);
  {
    std::string body;
    for (const auto node : data.nodes) {
      append_varint(body, slot_of[static_cast<std::size_t>(node)]);
    }
    builder.add(SegmentKind::kEventNode, std::move(body), n);
  }
  {
    std::string body(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      body[i] = static_cast<char>(static_cast<std::uint8_t>(data.kinds[i]));
    }
    builder.add(SegmentKind::kEventKind, std::move(body), n);
  }
  {
    std::string body(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      body[i] = static_cast<char>(static_cast<std::uint8_t>(data.structures[i]));
    }
    builder.add(SegmentKind::kEventStructure, std::move(body), n);
  }
  if (data.has_jobs) {
    builder.add(SegmentKind::kJobs, encode_jobs(data.jobs), data.jobs.size());
  }
  if (data.has_smi) {
    builder.add(SegmentKind::kSmi, encode_smi(data.snapshot), data.snapshot.records.size());
  }
  TITAN_PTP("tdf/segments-encoded");

  align(out);
  const std::uint64_t table_offset = out.size();
  std::string table;
  table.reserve(builder.entries.size() * kTdfEntrySize);
  for (const auto& entry : builder.entries) {
    store_u32(table, entry.kind);
    store_u32(table, 0);
    store_u64(table, entry.offset);
    store_u64(table, entry.length);
    store_u64(table, entry.rows);
    store_u64(table, entry.checksum);
  }
  patch_u64(out, kTdfTableOffsetOffset, table_offset);
  patch_u64(out, kTdfSegmentCountOffset, builder.entries.size());
  patch_u64(out, kTdfTableChecksumOffset, tdf_checksum(table));
  out += table;
  TITAN_PTP("tdf/footer-encoded");
  return out;
}

}  // namespace titan::tdf
