// titan-convert: convert a study dataset between the text artifacts and
// the binary TDF container (optionally re-sharding it), or inspect a
// container.
//
//   titan-convert [--salvage] [--to text|binary] [--shards N] [--profile NAME]
//                 <src_dir> <dst_dir>
//   titan-convert --info <dataset_dir | dataset.tdf>
//   titan-convert --fsck <dataset_dir>
//
// Without --to, the conversion direction is inferred from the source's
// layout (its manifest, else the files present): a binary or sharded
// dataset converts to text, a text dataset converts to binary.  --shards
// N writes the destination as N shard containers (dataset.shard-0.tdf
// ...; implies binary).  --salvage loads the source under
// IngestPolicy::kSalvage (repair/quarantine with a triage report)
// instead of strict.  --profile NAME asserts the source's recorded fleet
// profile (a disagreement is E_PROFILE_MISMATCH).  --info on a sharded
// directory prints one segment table per shard; on a text dataset it
// names the layout, points to --fsck and exits 1.  --fsck runs the
// read-only crash-consistency check (orphan tmp files, checkpoint state,
// full checksum verification, shard roster, dataset artifacts the
// manifest does not claim) and exits 1 when the directory carries crash
// state.  --help prints the usage and exits 0; an
// unknown flag prints it and exits 2.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "profile/fleet_profile.hpp"
#include "study/fsck.hpp"
#include "study/sharded.hpp"
#include "study/source.hpp"
#include "tdf/tdf.hpp"

namespace {

namespace fs = std::filesystem;
using namespace titan;

int usage(std::FILE* out = stderr, int code = 2) {
  std::fprintf(out,
               "usage: titan-convert [--salvage] [--to text|binary] [--shards N] "
               "[--profile NAME] <src_dir> <dst_dir>\n"
               "       titan-convert --info <dataset_dir | dataset.tdf>\n"
               "       titan-convert --fsck <dataset_dir>\n"
               "profiles: %s\n",
               profile::profile_names().c_str());
  return code;
}

int info(const fs::path& arg) {
  fs::path path = arg;
  if (fs::is_directory(path)) {
    const auto layout = study::dataset_layout(path);
    // --info reads TDF containers; a text dataset has none to show.
    if (layout.kind == study::LayoutKind::kText) {
      std::fprintf(stderr,
                   "titan-convert: %s holds a text dataset, which has no TDF container; "
                   "check it with titan-convert --fsck %s\n",
                   path.c_str(), path.c_str());
      return 1;
    }
    if (layout.kind == study::LayoutKind::kNone) {
      std::fprintf(stderr, "titan-convert: %s holds no dataset\n", path.c_str());
      return 1;
    }
    if (layout.kind == study::LayoutKind::kSharded) {
      // Sharded layout: one segment table per shard, in shard order.
      for (std::size_t s = 0; s < layout.containers; ++s) {
        const auto name = layout.container(s);
        const auto summary = tdf::inspect_tdf(path / name).summary_text();
        std::printf("shard %zu: %s\n%s", s, name.c_str(), summary.c_str());
      }
      return 0;
    }
    path /= std::string{tdf::kTdfFileName};
  }
  const auto summary = tdf::inspect_tdf(path).summary_text();
  std::printf("%s", summary.c_str());
  return 0;
}

int fsck(const fs::path& dir) {
  const auto result = study::fsck_dataset(dir);
  std::printf("%s", result.report_text().c_str());
  return result.clean() ? 0 : 1;
}

int convert(const fs::path& src, const fs::path& dst, std::string_view to, bool salvage,
            std::size_t shards, const profile::FleetProfile* expected) {
  const bool src_binary = study::dataset_layout(src).containers > 0;
  study::DatasetFormat format;
  if (to == "binary" || (to.empty() && (shards > 0 || !src_binary))) {
    format = study::DatasetFormat::kBinary;
  } else if (to == "text" || to.empty()) {
    format = study::DatasetFormat::kText;
  } else {
    return usage();
  }
  if (shards > 0 && format == study::DatasetFormat::kText) {
    std::fprintf(stderr, "titan-convert: --shards writes binary containers; "
                         "--to text makes no sense with it\n");
    return 2;
  }

  const study::DatasetSource source{
      src, salvage ? ingest::IngestPolicy::kSalvage : ingest::IngestPolicy::kStrict,
      expected};
  const auto context = source.load();
  const char* dst_kind = "text";
  if (shards > 0) {
    study::write_sharded_dataset(context, dst, shards);
    dst_kind = "sharded binary";
  } else {
    study::write_dataset(context, dst, format);
    if (format == study::DatasetFormat::kBinary) dst_kind = "binary";
  }

  std::printf("converted %s (%s) -> %s (%s)\n", src.string().c_str(),
              src_binary ? "binary" : "text", dst.string().c_str(), dst_kind);
  std::printf("  profile %s\n", std::string{context.profile->name}.c_str());
  std::printf("  events  %zu\n", context.frame.size());
  std::printf("  jobs    %zu\n", context.job_log.size());
  std::printf("  smi     %zu blocks\n", context.snapshot.records.size());
  if (shards > 0) std::printf("  shards  %zu\n", shards);
  if (context.ingest_report && !context.ingest_report->clean()) {
    std::printf("\n%s", context.ingest_report->summary_text().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool salvage = false;
  std::string_view to;
  std::size_t shards = 0;
  const profile::FleetProfile* expected = nullptr;
  fs::path info_path;
  fs::path fsck_path;
  std::vector<fs::path> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(stdout, 0);
    } else if (arg == "--salvage") {
      salvage = true;
    } else if (arg == "--to" && i + 1 < argc) {
      to = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      expected = profile::find_profile(argv[++i]);
      if (expected == nullptr) {
        std::fprintf(stderr, "titan-convert: unknown profile '%s' (%s)\n", argv[i],
                     profile::profile_names().c_str());
        return 2;
      }
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      if (shards == 0) {
        std::fprintf(stderr, "titan-convert: --shards needs a positive count\n");
        return 2;
      }
    } else if (arg == "--info" && i + 1 < argc) {
      info_path = argv[++i];
    } else if (arg == "--fsck" && i + 1 < argc) {
      fsck_path = argv[++i];
    } else if (!arg.starts_with("--")) {
      positional.emplace_back(arg);
    } else {
      return usage();
    }
  }

  try {
    if (!info_path.empty()) {
      if (!positional.empty()) return usage();
      return info(info_path);
    }
    if (!fsck_path.empty()) {
      if (!positional.empty()) return usage();
      return fsck(fsck_path);
    }
    if (positional.size() != 2) return usage();
    return convert(positional[0], positional[1], to, salvage, shards, expected);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "titan-convert: %s\n", e.what());
    return 1;
  }
}
