#include "study/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "logsim/joblog.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;

/// Encode and write one container atomically, fold it into `out`, and
/// return its manifest claim.  The claim hashes the encoded bytes
/// directly -- never a read-back -- so writing containers larger than
/// the whole-file read cap stays possible.
std::string write_shard(const fs::path& dir, const std::string& file,
                        const tdf::TdfDataset& data, ShardedWriteStats& out) {
  const auto encoded = tdf::encode_tdf(data);
  TITAN_PTP("study/shard/encoded");
  const auto checksum = ingest::content_checksum(encoded);
  atomic_write_text(dir / file, encoded);
  TITAN_PTP("study/shard/sealed");
  const std::size_t events = data.event_count();
  out.events += events;
  out.peak_shard_events = std::max(out.peak_shard_events, events);
  out.bytes += encoded.size();
  out.jobs += data.jobs.size();
  out.smi_blocks += data.snapshot.records.size();
  return detail::claim_line(file, checksum);
}

}  // namespace

ShardedWriteStats generate_sharded_dataset(const core::FacilityConfig& config,
                                           std::size_t shard_count,
                                           const std::filesystem::path& dir) {
  core::ShardedStudy sharded{config, shard_count};  // throws on shard_count == 0
  const stats::TimeSec accounting_from = config.campaign.timeline.new_driver;
  const DatasetLayout layout{LayoutKind::kSharded, shard_count};
  auto manifest =
      detail::begin_write(dir, config.period, accounting_from, *config.profile, shard_count);

  ShardedWriteStats out;
  out.shards = shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto columns = sharded.shard_events(s);
    tdf::TdfDataset data;
    detail::stamp_meta(data, config.period, accounting_from, *config.profile);
    data.times = std::move(columns.times);
    data.nodes = std::move(columns.nodes);
    data.kinds = std::move(columns.kinds);
    data.structures = std::move(columns.structures);

    if (s + 1 == shard_count) {
      // Side artifacts ride in the last shard: the job trace is resident
      // for the whole campaign anyway, and the smi sweep needs every
      // card's end-of-campaign state (available only after the final
      // shard ran).  Both are quantized to the text serialization's
      // rounding, exactly like write_dataset, so every format of one
      // study carries the same values.
      data.has_jobs = true;
      data.jobs = detail::quantized_jobs(sharded.trace());
      data.has_smi = true;
      data.snapshot = logsim::quantized(sharded.final_snapshot());
    }
    manifest.push_back(write_shard(dir, layout.container(s), data, out));
  }
  detail::commit_manifest(dir, manifest, "study/shard/pre-manifest", "study/shard/committed");
  return out;
}

ShardedWriteStats write_sharded_dataset(const StudyContext& context,
                                        const std::filesystem::path& dir,
                                        std::size_t shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument{"write_sharded_dataset: shard_count must be positive"};
  }
  return detail::write_roster(context, dir, DatasetLayout{LayoutKind::kSharded, shard_count});
}

ShardedWriteStats detail::write_roster(const StudyContext& context,
                                       const std::filesystem::path& dir,
                                       const DatasetLayout& layout) {
  const std::size_t count = layout.containers;
  auto manifest = begin_write(dir, context.period, context.accounting_from, *context.profile,
                              layout.kind == LayoutKind::kSharded ? count : 0);
  ShardedWriteStats out;
  out.shards = count;
  const std::size_t total = context.frame.size();
  for (std::size_t s = 0; s < count; ++s) {
    // Even contiguous split: the stream is time-sorted, so the loader's
    // (time, shard) merge reduces to concatenation and any bounds work.
    // Side artifacts ride in the last container.
    manifest.push_back(write_shard(
        dir, layout.container(s),
        container_of(context, total * s / count, total * (s + 1) / count, s + 1 == count),
        out));
  }
  commit_manifest(dir, manifest, "study/write/pre-manifest", "study/write/committed");
  return out;
}

}  // namespace titan::study
