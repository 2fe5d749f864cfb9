#include "study/sharded.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "ckpt/study_ckpt.hpp"
#include "core/sharded.hpp"
#include "faulttest/faulttest.hpp"
#include "ingest/triage.hpp"
#include "logsim/joblog.hpp"
#include "study/fsck.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "tdf/tdf.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;

/// Encode and write one container (roster entry `shard`, file `file`)
/// atomically, returning its seal record.  The checksum claim hashes the
/// encoded bytes directly -- never a read-back -- so writing containers
/// larger than the whole-file read cap stays possible.
ckpt::ShardSeal write_shard(const fs::path& dir, std::string file, std::size_t shard,
                            const tdf::TdfDataset& data) {
  ckpt::ShardSeal seal;
  seal.shard = shard;
  seal.file = std::move(file);
  const auto encoded = tdf::encode_tdf(data);
  TITAN_PTP("study/shard/encoded");
  seal.checksum = ingest::content_checksum(encoded);
  seal.bytes = encoded.size();
  seal.events = data.event_count();
  seal.jobs = data.jobs.size();
  seal.smi_blocks = data.snapshot.records.size();
  atomic_write_text(dir / seal.file, encoded);
  TITAN_PTP("study/shard/sealed");
  return seal;
}

/// Fold one shard's seal into the summary stats.
void tally(ShardedWriteStats& out, const ckpt::ShardSeal& seal) {
  out.events += seal.events;
  out.peak_shard_events = std::max(out.peak_shard_events, seal.events);
  out.bytes += seal.bytes;
  out.jobs += seal.jobs;
  out.smi_blocks += seal.smi_blocks;
}

/// The checkpoint skeleton pinning this run's identity: seed, profile,
/// and the card-serial fences that are the per-shard RNG stream cursors.
ckpt::StudyCheckpoint checkpoint_plan(const core::FacilityConfig& config,
                                      const core::ShardedStudy& sharded) {
  ckpt::StudyCheckpoint plan;
  plan.seed = config.seed;
  plan.profile_name = std::string{config.profile->name};
  plan.profile_hash = config.profile->content_hash();
  plan.shard_count = sharded.shard_count();
  plan.card_fences.reserve(plan.shard_count + 1);
  for (std::size_t s = 0; s < plan.shard_count; ++s) {
    plan.card_fences.push_back(sharded.shard_card_range(s).first);
  }
  plan.card_fences.push_back(sharded.shard_card_range(plan.shard_count - 1).second);
  return plan;
}

/// Resumed runs must replay the SAME campaign: a checkpoint from a
/// different seed, profile or shard plan would splice streams from two
/// different studies into one dataset.
void require_plan_match(const ckpt::StudyCheckpoint& prior,
                        const ckpt::StudyCheckpoint& plan) {
  const auto fail = [](std::string_view what) {
    throw ingest::IngestError{std::string{ckpt::kStudyCheckpointFileName}, 0,
                              ingest::TriageCode::kCkptMismatch,
                              std::string{what} +
                                  " differs from the interrupted run; resume with the "
                                  "original config or start a fresh directory"};
  };
  if (prior.seed != plan.seed) fail("seed");
  if (prior.profile_name != plan.profile_name || prior.profile_hash != plan.profile_hash) {
    fail("fleet profile");
  }
  if (prior.shard_count != plan.shard_count) fail("shard count");
  if (prior.card_fences != plan.card_fences) fail("shard card-fence plan");
}

}  // namespace

ShardedWriteStats generate_sharded_dataset(const core::FacilityConfig& config,
                                           std::size_t shard_count,
                                           const std::filesystem::path& dir,
                                           bool resume) {
  core::ShardedStudy sharded{config, shard_count};  // throws on shard_count == 0
  fs::create_directories(dir);

  auto state = checkpoint_plan(config, sharded);
  if (resume) {
    // Remove the leftovers of crashed atomic writes and any copies a
    // salvage load quarantined: a tmp is pre-rename by construction, so
    // removal loses nothing.
    const auto evidence = scan_crash_state(dir);
    for (const auto& name : evidence.leftovers) {
      std::error_code ec;
      fs::remove(dir / name, ec);
    }
    if (evidence.manifest) {
      // Already committed: the manifest is the commit point, so there is
      // nothing to redo.  Recover the summary stats from a complete
      // checkpoint if one lingers (salvage decode: stale damage must not
      // fail a finished dataset), then drop it.
      ingest::IngestReport scratch{ingest::IngestPolicy::kSalvage};
      const auto prior =
          ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kSalvage, scratch);
      ckpt::remove_study_checkpoint(dir);
      ShardedWriteStats out;
      out.shards = shard_count;
      if (prior && prior->complete()) {
        for (const auto& seal : prior->sealed) tally(out, seal);
      }
      return out;
    }
    ingest::IngestReport report{ingest::IngestPolicy::kStrict};
    const auto prior =
        ckpt::load_study_checkpoint(dir, ingest::IngestPolicy::kStrict, report);
    if (prior) {
      require_plan_match(*prior, state);
      state.sealed = prior->sealed;
    }
  }
  // Intent first: the checkpoint on disk is what makes an interrupted
  // directory recognizably "mid-write" instead of silently partial.
  ckpt::save_study_checkpoint(state, dir);

  const stats::TimeSec accounting_from = config.campaign.timeline.new_driver;

  ShardedWriteStats out;
  out.shards = shard_count;
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Shards are ALWAYS regenerated, even when their container is already
    // sealed: phase D mutates each card's InfoROM, and the final
    // snapshot (last shard) needs every card's end-of-campaign state.
    auto columns = sharded.shard_events(s);

    if (s < state.sealed.size() && fs::exists(dir / state.sealed[s].file)) {
      tally(out, state.sealed[s]);
      continue;  // committed by the interrupted run; stats from the seal
    }

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
      // shard ran).  Both round-trip the text serialization, exactly
      // like write_dataset, so every format of one study quantizes
      // identically.
      data.has_jobs = true;
      data.jobs = detail::quantized_jobs(logsim::emit_job_log(sharded.trace()));
      data.has_smi = true;
      data.snapshot = detail::quantized_smi(sharded.final_snapshot());
    }

    auto seal = write_shard(dir, tdf::shard_file_name(s), s, data);
    tally(out, seal);
    if (s < state.sealed.size()) {
      state.sealed[s] = std::move(seal);
    } else {
      state.sealed.push_back(std::move(seal));
    }
    ckpt::save_study_checkpoint(state, dir);
    TITAN_PTP("study/shard/checkpoint");
  }

  auto manifest =
      detail::manifest_header(config.period, accounting_from, *config.profile, shard_count);
  for (const auto& seal : state.sealed) {
    manifest.push_back(detail::claim_line(seal.file, seal.checksum));
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
  auto manifest = begin_write(context, dir, layout.kind == LayoutKind::kSharded ? count : 0);
  ShardedWriteStats out;
  out.shards = count;
  const std::size_t total = context.frame.size();
  for (std::size_t s = 0; s < count; ++s) {
    // Even contiguous split: the stream is time-sorted, so the loader's
    // (time, shard) merge reduces to concatenation and any bounds work.
    // Side artifacts ride in the last container.
    const auto seal = write_shard(
        dir, layout.container(s), s,
        container_of(context, total * s / count, total * (s + 1) / count, s + 1 == count));
    tally(out, seal);
    manifest.push_back(claim_line(seal.file, seal.checksum));
  }
  commit_manifest(dir, manifest, "study/write/pre-manifest", "study/write/committed");
  return out;
}

}  // namespace titan::study
