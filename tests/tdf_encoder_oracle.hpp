// The byte-append TDF encoder, kept as the oracle of tdf::encode_tdf: it
// appends every byte to one std::string in table order, with its own
// little-endian and varint appenders (no ByteCursor), a sorted user
// dictionary and a binary search per job.  Slow and obviously right;
// tdf_encoder_test requires the production encoder to write the same
// bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tdf/format.hpp"
#include "tdf/tdf.hpp"
#include "topology/machine.hpp"

namespace titan::tdf::oracle {

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xffU);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xffU);
}

inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80U) {
    out += static_cast<char>((v & 0x7fU) | 0x80U);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

inline void patch(std::string& buf, std::size_t pos, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) buf[pos + i] = static_cast<char>((v >> (8 * i)) & 0xffU);
}

inline void align(std::string& out) {
  while (out.size() % kTdfAlignment != 0) out += '\0';
}

inline std::string encode_meta(const TdfDataset& data) {
  std::string body;
  put_i64(body, data.period_begin);
  put_i64(body, data.period_end);
  put_i64(body, data.accounting_from);
  put_u64(body, data.event_count());
  std::uint64_t flags = 0;
  if (data.has_jobs) flags |= kTdfFlagJobs;
  if (data.has_smi) flags |= kTdfFlagSmi;
  put_u64(body, flags);
  put_i64(body, data.snapshot.taken_at);
  if (!data.profile_name.empty()) {
    put_u64(body, data.profile_hash);
    put_varint(body, data.profile_name.size());
    body += data.profile_name;
  }
  return body;
}

inline std::string encode_jobs(const std::vector<logsim::JobLogRecord>& jobs) {
  std::string body;
  put_varint(body, jobs.size());
  std::vector<xid::UserId> users;
  for (const auto& job : jobs) users.push_back(job.user);
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  put_varint(body, users.size());
  xid::UserId prev_user = 0;
  for (const auto user : users) {
    put_varint(body, zigzag_encode(static_cast<std::int64_t>(user) - prev_user));
    prev_user = user;
  }
  xid::JobId prev_id = 0;
  stats::TimeSec prev_start = 0;
  for (const auto& job : jobs) {
    put_varint(body, zigzag_encode(job.id - prev_id));
    prev_id = job.id;
    const auto slot = std::lower_bound(users.begin(), users.end(), job.user);
    put_varint(body, static_cast<std::uint64_t>(slot - users.begin()));
    put_varint(body, zigzag_encode(job.start - prev_start));
    prev_start = job.start;
    put_varint(body, zigzag_encode(job.end - job.start));
    put_varint(body, job.node_count);
    put_u64(body, std::bit_cast<std::uint64_t>(job.gpu_core_hours));
    put_u64(body, std::bit_cast<std::uint64_t>(job.max_memory_gb));
    put_u64(body, std::bit_cast<std::uint64_t>(job.total_memory_gb));
  }
  return body;
}

inline std::string encode_smi(const logsim::SmiSnapshot& snapshot) {
  std::string body;
  put_varint(body, snapshot.records.size());
  topology::NodeId prev_node = 0;
  xid::CardId prev_serial = 0;
  for (const auto& rec : snapshot.records) {
    put_varint(body, zigzag_encode(static_cast<std::int64_t>(rec.node) - prev_node));
    prev_node = rec.node;
    put_varint(body, zigzag_encode(static_cast<std::int64_t>(rec.serial) - prev_serial));
    prev_serial = rec.serial;
    put_varint(body, rec.sbe_total);
    put_varint(body, rec.dbe_total);
    put_varint(body, rec.sbe_volatile);
    put_varint(body, rec.dbe_volatile);
    put_varint(body, rec.retired_pages_sbe);
    put_varint(body, rec.retired_pages_dbe);
    put_u64(body, std::bit_cast<std::uint64_t>(rec.temperature_f));
  }
  return body;
}

/// The container bytes of `data` (valid node ids and equal column
/// lengths assumed; encode_tdf's own argument checks are not repeated).
inline std::string encode_tdf(const TdfDataset& data) {
  const std::size_t n = data.event_count();
  std::vector<topology::NodeId> dict(data.nodes.begin(), data.nodes.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());

  std::string out(kTdfHeaderSize, '\0');
  patch(out, kTdfMagicOffset, kTdfMagic);
  patch(out, kTdfVersionOffset,
        static_cast<std::uint64_t>(kTdfVersion) |
            (static_cast<std::uint64_t>(kTdfEndianMarker) << 32));
  std::string table;
  std::uint64_t segments = 0;
  const auto add = [&](SegmentKind kind, const std::string& body, std::uint64_t rows) {
    align(out);
    put_u32(table, static_cast<std::uint32_t>(kind));
    put_u32(table, 0);
    put_u64(table, out.size());
    put_u64(table, body.size());
    put_u64(table, rows);
    put_u64(table, tdf_checksum(body));
    out += body;
    ++segments;
  };

  add(SegmentKind::kMeta, encode_meta(data), 1);
  {
    std::string body;
    put_varint(body, dict.size());
    for (const auto node : dict) {
      put_varint(body, zigzag_encode(node));
      const auto name = topology::cname(node);
      put_varint(body, name.size());
      body += name;
    }
    add(SegmentKind::kNodeDict, body, dict.size());
  }
  {
    std::string body;
    stats::TimeSec prev = 0;
    for (const auto t : data.times) {
      put_varint(body, zigzag_encode(t - prev));
      prev = t;
    }
    add(SegmentKind::kEventTime, body, n);
  }
  {
    std::string body;
    for (const auto node : data.nodes) {
      const auto slot = std::lower_bound(dict.begin(), dict.end(), node);
      put_varint(body, static_cast<std::uint64_t>(slot - dict.begin()));
    }
    add(SegmentKind::kEventNode, body, n);
  }
  {
    std::string body;
    for (const auto kind : data.kinds) body += static_cast<char>(kind);
    add(SegmentKind::kEventKind, body, n);
  }
  {
    std::string body;
    for (const auto structure : data.structures) body += static_cast<char>(structure);
    add(SegmentKind::kEventStructure, body, n);
  }
  if (data.has_jobs) add(SegmentKind::kJobs, encode_jobs(data.jobs), data.jobs.size());
  if (data.has_smi) {
    add(SegmentKind::kSmi, encode_smi(data.snapshot), data.snapshot.records.size());
  }

  align(out);
  patch(out, kTdfTableOffsetOffset, out.size());
  patch(out, kTdfSegmentCountOffset, segments);
  patch(out, kTdfTableChecksumOffset, tdf_checksum(table));
  out += table;
  return out;
}

}  // namespace titan::tdf::oracle
