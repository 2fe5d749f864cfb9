#include "study/crashtest.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "logsim/smi_text.hpp"
#include "study/io.hpp"
#include "study/serialize_detail.hpp"
#include "study/source.hpp"

namespace titan::study {

namespace {

namespace fs = std::filesystem;
using ingest::IngestPolicy;

/// Deterministic digest of a loaded context: the canonical text
/// serializations hashed, plus the window, profile identity and (for
/// salvage loads) the triage summary.  Two contexts digest equally iff
/// a study over them is byte-identical.
std::string context_digest(const StudyContext& context) {
  std::string bytes;
  for (const auto& line : detail::console_lines_of(context)) {
    bytes += line;
    bytes += '\n';
  }
  std::string digest = "console " + ingest::checksum_hex(ingest::content_checksum(bytes));
  bytes.clear();
  for (const auto& line : detail::job_lines_of(context)) {
    bytes += line;
    bytes += '\n';
  }
  digest += " jobs " + ingest::checksum_hex(ingest::content_checksum(bytes));
  digest += " smi " +
            ingest::checksum_hex(ingest::content_checksum(
                logsim::smi_sweep_text(context.snapshot)));
  digest += " period " + std::to_string(context.period.begin) + ':' +
            std::to_string(context.period.end) + ':' +
            std::to_string(context.accounting_from);
  digest += " profile " + std::string{context.profile->name} + ':' +
            ingest::checksum_hex(context.profile->content_hash());
  if (context.ingest_report) {
    digest += " triage " +
              ingest::checksum_hex(
                  ingest::content_checksum(context.ingest_report->summary_text()));
  }
  return digest;
}

std::string load_digest(const fs::path& dir, IngestPolicy policy) {
  return context_digest(DatasetSource{dir, policy}.load());
}

/// Sorted dataset-relative paths of every regular file under `dir`.
std::vector<std::string> file_roster(const fs::path& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) {
      names.push_back(fs::relative(it->path(), dir).generic_string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::string_view crash_outcome_name(CrashOutcome outcome) noexcept {
  switch (outcome) {
    case CrashOutcome::kCleanSalvage: return "clean-salvage";
    case CrashOutcome::kNamedFailure: return "named-failure";
    case CrashOutcome::kSilentCorruption: return "silent-corruption";
  }
  return "?";
}

std::optional<std::string> first_dir_difference(const fs::path& a, const fs::path& b) {
  const auto roster_a = file_roster(a);
  const auto roster_b = file_roster(b);
  for (const auto& name : roster_a) {
    if (!std::binary_search(roster_b.begin(), roster_b.end(), name)) {
      return "file " + name + " exists only in " + a.filename().string();
    }
  }
  for (const auto& name : roster_b) {
    if (!std::binary_search(roster_a.begin(), roster_a.end(), name)) {
      return "file " + name + " exists only in " + b.filename().string();
    }
  }
  for (const auto& name : roster_a) {
    if (read_all(a / name) != read_all(b / name)) {
      return "file " + name + " differs byte-wise";
    }
  }
  return std::nullopt;
}

bool dirs_identical(const fs::path& a, const fs::path& b) {
  return !first_dir_difference(a, b).has_value();
}

bool SweepResult::clean() const noexcept {
  for (const auto& kill : kills) {
    if (kill.outcome == CrashOutcome::kSilentCorruption || !kill.rerun_identical) {
      return false;
    }
  }
  return true;
}

std::string SweepResult::summary_text() const {
  std::size_t counts[3] = {0, 0, 0};
  std::size_t rerun = 0;
  for (const auto& kill : kills) {
    ++counts[static_cast<std::size_t>(kill.outcome)];
    if (kill.rerun_identical) ++rerun;
  }
  std::string text = "crash sweep: " + std::to_string(total_points) +
                     " kill points across " + std::to_string(sites.size()) + " sites\n";
  text += "outcomes: clean-salvage " + std::to_string(counts[0]) + ", named-failure " +
          std::to_string(counts[1]) + ", silent-corruption " + std::to_string(counts[2]) +
          '\n';
  text += "rerun: " + std::to_string(rerun) + '/' + std::to_string(kills.size()) +
          " byte-identical\n";
  text += "codes:\n";
  for (const auto& [code, count] : code_counts) {
    text += "  " + code + ' ' + std::to_string(count) + '\n';
  }
  text += "sites killed:\n";
  for (const auto& [site, count] : sites_killed) {
    text += "  " + site + ' ' + std::to_string(count) + '\n';
  }
  for (const auto& kill : kills) {
    if (kill.outcome == CrashOutcome::kSilentCorruption || !kill.rerun_identical) {
      text += "FAIL kill " + std::to_string(kill.kill_point) + " at " + kill.site + " [" +
              std::string{crash_outcome_name(kill.outcome)} + "]: " + kill.detail + '\n';
    }
  }
  text += std::string{"verdict: "} + (clean() ? "no silent corruption" : "CORRUPTION") +
          '\n';
  return text;
}

SweepResult run_runlength_sweep(const WriteFn& write, const fs::path& scratch) {
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  // Reference run: kNone arms nothing but counts every kill-point hit,
  // which is exactly the sweep's enumeration of what to kill.
  faulttest::FaultTestInit(faulttest::FaultConfig{});
  const auto reference = scratch / "reference";
  write(reference);
  const auto census = faulttest::fault_test_report();

  SweepResult out;
  out.total_points = census.total_hits;
  out.sites = census.sites;

  const auto ref_strict = load_digest(reference, IngestPolicy::kStrict);
  const auto ref_salvage = load_digest(reference, IngestPolicy::kSalvage);

  for (std::size_t k = 1; k <= out.total_points; ++k) {
    const auto dir = scratch / ("kill-" + std::to_string(k));
    fs::remove_all(dir);

    faulttest::FaultConfig config;
    config.mode = faulttest::FaultMode::kRunLength;
    config.run_length = k;
    faulttest::FaultTestInit(config);

    KillOutcome kill;
    kill.kill_point = k;
    kill.site = "(completed)";
    try {
      write(dir);
    } catch (const faulttest::KillPointError& error) {
      kill.site = error.site();
    }
    // Disarm before touching the directory again: loads and the rerun
    // must run kill-free.
    faulttest::FaultTestInit(faulttest::FaultConfig{});
    ++out.sites_killed[kill.site];

    // Classify a COPY, so salvage-side quarantining cannot leak into the
    // rerun the original directory sees.
    if (!fs::exists(dir)) fs::create_directories(dir);  // killed before mkdir
    const auto probe = scratch / "probe";
    fs::remove_all(probe);
    fs::copy(dir, probe, fs::copy_options::recursive);
    try {
      const auto strict = load_digest(probe, IngestPolicy::kStrict);
      const auto salvage = load_digest(probe, IngestPolicy::kSalvage);
      if (strict == ref_strict && salvage == ref_salvage) {
        kill.outcome = CrashOutcome::kCleanSalvage;
      } else {
        kill.outcome = CrashOutcome::kSilentCorruption;
        kill.detail = "loads succeed but digests diverge from the reference";
      }
    } catch (const ingest::IngestError& error) {
      kill.outcome = CrashOutcome::kNamedFailure;
      kill.code = error.code();
      kill.detail = error.file() + ": " + std::string{ingest::code_name(error.code())};
      ++out.code_counts[std::string{ingest::code_name(error.code())}];
    } catch (const std::exception& error) {
      kill.outcome = CrashOutcome::kSilentCorruption;
      kill.detail = std::string{"unnamed load failure: "} + error.what();
    }

    try {
      write(dir);
      if (const auto diff = first_dir_difference(dir, reference)) {
        kill.detail += (kill.detail.empty() ? "" : "; ");
        kill.detail += "rerun not byte-identical: " + *diff;
      } else {
        kill.rerun_identical = true;
      }
    } catch (const std::exception& error) {
      kill.detail += (kill.detail.empty() ? "" : "; ");
      kill.detail += std::string{"rerun failed: "} + error.what();
    }
    out.kills.push_back(std::move(kill));
  }
  faulttest::FaultTestInit(faulttest::FaultConfig{});
  return out;
}

}  // namespace titan::study
