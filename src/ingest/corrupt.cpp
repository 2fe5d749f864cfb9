#include "ingest/corrupt.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "ingest/triage.hpp"
#include "parse/console.hpp"
#include "stats/rng.hpp"
#include "tdf/format.hpp"

namespace titan::ingest {

namespace {

namespace fs = std::filesystem;

constexpr std::string_view kDatasetFiles[] = {"console.log", "jobs.log", "smi_sweep.txt",
                                              "dataset.tdf", "manifest.txt"};
constexpr std::string_view kConsole = "console.log";
constexpr std::string_view kManifest = "manifest.txt";
constexpr std::string_view kTdf = tdf::kTdfFileName;

/// Binary-safe slurp (NULs and CRLF must survive round-trips).
std::string read_file(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::string out;
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    out.append(buf, static_cast<std::size_t>(in.gcount()));
  }
  return out;
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw std::runtime_error{"corrupt_dataset: cannot write " + path.string()};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Text split into lines plus whether the final line carried a '\n'.
struct Lines {
  std::vector<std::string> lines;
  bool terminated = true;

  [[nodiscard]] std::string join() const {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out += lines[i];
      if (i + 1 < lines.size() || terminated) out += '\n';
    }
    return out;
  }
};

Lines split(std::string_view text) {
  Lines out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      out.lines.emplace_back(text.substr(pos));
      out.terminated = false;
      break;
    }
    out.lines.emplace_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Per-line mutation probability clamped so even tiny datasets see at
/// least a fair chance of one mutation.
double clamped(double intensity) {
  return intensity < 0.001 ? 0.001 : (intensity > 1.0 ? 1.0 : intensity);
}

constexpr std::string_view kChatter[] = {
    "smw: heartbeat ok",
    "console[4211]: link inquiry on c0-0c0s0n1",
    "[2014-06-02 04:05:06] c0-0c0s0n1 HSN throttle cleared",
    "ec_node_warm: warm swap initiated by operator",
    "[bad-timestamp] c1-0c0s0n0 GPU DBE missing the colon grammar",
};

std::size_t op_truncate_file(std::string& text, stats::Rng& rng) {
  if (text.size() < 2) return 0;
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(text.size()) * rng.uniform(0.6, 0.95));
  text.resize(keep == 0 ? 1 : keep);
  return 1;
}

std::size_t op_truncate_lines(Lines& doc, stats::Rng& rng, double p) {
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    if (line.empty() || !rng.bernoulli(p)) continue;
    line.resize(static_cast<std::size_t>(rng.below(line.size())));
    ++n;
  }
  return n;
}

std::size_t op_flip_chars(Lines& doc, stats::Rng& rng, double p) {
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    if (line.empty() || !rng.bernoulli(p)) continue;
    const auto pos = static_cast<std::size_t>(rng.below(line.size()));
    line[pos] = static_cast<char>('!' + rng.below(94));  // random printable
    ++n;
  }
  return n;
}

std::size_t op_flip_bits(Lines& doc, stats::Rng& rng, double p) {
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    if (line.empty() || !rng.bernoulli(p)) continue;
    const auto pos = static_cast<std::size_t>(rng.below(line.size()));
    line[pos] = static_cast<char>(
        static_cast<unsigned char>(line[pos]) ^ (1U << rng.below(8)));
    ++n;
  }
  return n;
}

std::size_t op_duplicate_lines(Lines& doc, stats::Rng& rng, double p) {
  std::vector<std::string> out;
  out.reserve(doc.lines.size());
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    out.push_back(line);
    if (!line.empty() && rng.bernoulli(p)) {
      out.push_back(std::move(line));  // the paper's double-counted report
      ++n;
    }
  }
  doc.lines = std::move(out);
  return n;
}

std::size_t op_interleave_chatter(Lines& doc, stats::Rng& rng, double p) {
  std::vector<std::string> out;
  out.reserve(doc.lines.size());
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    if (rng.bernoulli(p)) {
      out.emplace_back(kChatter[rng.below(std::size(kChatter))]);
      ++n;
    }
    out.push_back(std::move(line));
  }
  doc.lines = std::move(out);
  return n;
}

std::size_t op_shuffle_order(Lines& doc, stats::Rng& rng, double p) {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < doc.lines.size(); ++i) {
    if (!rng.bernoulli(p)) continue;
    std::swap(doc.lines[i], doc.lines[i + 1]);
    ++i;  // a swapped pair is not re-swapped
    ++n;
  }
  return n;
}

std::size_t op_crlf(Lines& doc) {
  for (auto& line : doc.lines) line += '\r';
  return doc.lines.size();
}

std::size_t op_inject_nul(Lines& doc, stats::Rng& rng, double p) {
  std::size_t n = 0;
  for (auto& line : doc.lines) {
    if (line.empty() || !rng.bernoulli(p)) continue;
    line.insert(static_cast<std::size_t>(rng.below(line.size() + 1)), 1, '\0');
    ++n;
  }
  return n;
}

std::size_t op_overlong_line(Lines& doc) {
  std::string line = "[2014-06-02 04:05:06] c0-0c0s0n1 GPU DBE: ";
  line.append(parse::kMaxConsoleLineLength * 2, 'A');
  doc.lines.push_back(std::move(line));
  return 1;
}

std::size_t op_drop_optional(const fs::path& dst, stats::Rng& rng, std::string& file) {
  const auto choice = rng.below(3);
  std::size_t n = 0;
  if (choice != 1 && fs::remove(dst / "jobs.log")) {
    file = "jobs.log";
    ++n;
  }
  if (choice != 0 && fs::remove(dst / "smi_sweep.txt")) {
    file = n != 0 ? "jobs.log+smi_sweep.txt" : "smi_sweep.txt";
    ++n;
  }
  return n;
}

std::size_t op_mangle_manifest(Lines& doc, stats::Rng& rng) {
  if (doc.lines.empty()) return 0;
  switch (rng.below(3)) {
    case 0:
      doc.lines[0] = "titanrel-dataset v999";
      return 1;
    case 1:
      for (auto& line : doc.lines) {
        if (line.starts_with("period_begin ")) {
          line = "period_begin twelve";
          return 1;
        }
      }
      return 0;
    default:
      for (auto& line : doc.lines) {
        if (line.starts_with("period_end ")) {
          line += "junk";
          return 1;
        }
      }
      return 0;
  }
}

void flip_bit(std::string& bytes, std::size_t pos, stats::Rng& rng) {
  bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                 (1U << rng.below(8)));
}

std::size_t op_tdf_truncate(std::string& bytes, stats::Rng& rng) {
  if (bytes.size() < tdf::kTdfHeaderSize + 1) return 0;
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(bytes.size()) * rng.uniform(0.5, 0.95));
  bytes.resize(keep == 0 ? 1 : keep);
  return 1;
}

std::size_t op_tdf_header_flip(std::string& bytes, stats::Rng& rng) {
  // The first 16 bytes hold magic, version and the endian marker; any
  // flipped bit there must surface as E_TDF_BAD_MAGIC or E_TDF_VERSION.
  if (bytes.size() < 16) return 0;
  flip_bit(bytes, static_cast<std::size_t>(rng.below(16)), rng);
  return 1;
}

std::size_t op_tdf_footer_mangle(std::string& bytes, stats::Rng& rng) {
  if (bytes.size() < tdf::kTdfHeaderSize) return 0;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto table_offset = tdf::load_u64(p + tdf::kTdfTableOffsetOffset);
  if (table_offset >= bytes.size()) return 0;
  // A flipped table bit must trip the header's table checksum (E_TDF_FOOTER).
  const auto pos = static_cast<std::size_t>(
      table_offset + rng.below(bytes.size() - table_offset));
  flip_bit(bytes, pos, rng);
  return 1;
}

std::size_t op_tdf_checksum_tamper(std::string& bytes, stats::Rng& rng) {
  // Flip a bit inside one segment *body* (never the inter-segment
  // padding, which no checksum covers), so the per-segment FNV-1a must
  // catch it: E_TDF_SEGMENT_CHECKSUM, strict-fatal for required segments
  // and quarantined for optional ones.
  if (bytes.size() < tdf::kTdfHeaderSize) return 0;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto table_offset = tdf::load_u64(p + tdf::kTdfTableOffsetOffset);
  const auto count = tdf::load_u64(p + tdf::kTdfSegmentCountOffset);
  if (table_offset + count * tdf::kTdfEntrySize > bytes.size()) return 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bodies;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto* e = p + table_offset + i * tdf::kTdfEntrySize;
    const auto offset = tdf::load_u64(e + 8);
    const auto length = tdf::load_u64(e + 16);
    if (length != 0 && offset + length <= bytes.size()) bodies.emplace_back(offset, length);
  }
  if (bodies.empty()) return 0;
  const auto& [offset, length] = bodies[rng.below(bodies.size())];
  flip_bit(bytes, static_cast<std::size_t>(offset + rng.below(length)), rng);
  return 1;
}

/// The manifest version a load reads `manifest` as.
std::uint32_t manifest_version(std::string_view manifest) {
  IngestReport scratch{IngestPolicy::kSalvage};
  return ingest_manifest_text(manifest, kManifest, IngestPolicy::kSalvage, scratch).version;
}

/// Re-point the manifest's checksum claim for `name` at `bytes`, as the
/// manifest's own version computes it.  The TDF operators call this after
/// mutating the container so the damage is diagnosed by the TDF layer's
/// own validation (named E_TDF_* codes), not masked by the earlier
/// manifest checksum gate.
void repatch_manifest_checksum(const fs::path& dst, std::string_view name,
                               std::string_view bytes) {
  const auto manifest_path = dst / kManifest;
  if (!fs::exists(manifest_path)) return;
  const auto text = read_file(manifest_path);
  const auto claim = checksum_hex(artifact_claim(manifest_version(text), name, bytes));
  auto doc = split(text);
  const std::string prefix = "checksum " + std::string{name} + ' ';
  for (auto& line : doc.lines) {
    if (line.starts_with(prefix)) line = prefix + claim;
  }
  write_file(manifest_path, doc.join());
}

std::size_t op_checksum_mismatch(Lines& doc, const fs::path& dst) {
  for (auto& line : doc.lines) {
    if (!line.starts_with("checksum ")) continue;
    const auto name = line.substr(9, line.find(' ', 9) - 9);
    if (!fs::exists(dst / name)) {
      // Flip the final hex digit so the claim no longer holds.
      line.back() = line.back() == '0' ? 'f' : '0';
      return 1;
    }
    // The claim the manifest's version computes for the file as it is
    // now, one bit off: it cannot hold whatever earlier operators did.
    const auto claim = artifact_claim(manifest_version(doc.join()), name, read_file(dst / name));
    line = "checksum " + name + ' ' + checksum_hex(claim ^ 1U);
    return 1;
  }
  // Pre-checksum manifest: claim a checksum that cannot match.
  doc.lines.emplace_back("checksum console.log 0000000000000000");
  return 1;
}

}  // namespace

std::string_view op_name(CorruptionOp op) noexcept {
  constexpr std::string_view kNames[kCorruptionOpCount] = {
      "truncate-file", "truncate-lines",     "flip-chars",   "flip-bits",
      "duplicate-lines", "interleave-chatter", "shuffle-order", "crlf-endings",
      "inject-nul",    "overlong-line",      "drop-optional-file",
      "mangle-manifest", "checksum-mismatch",
      "tdf-truncate",  "tdf-header-flip",    "tdf-footer-mangle", "tdf-checksum-tamper",
  };
  return kNames[static_cast<std::size_t>(op)];
}

std::array<CorruptionOp, kCorruptionOpCount> all_corruption_ops() noexcept {
  std::array<CorruptionOp, kCorruptionOpCount> out{};
  for (std::size_t i = 0; i < kCorruptionOpCount; ++i) {
    out[i] = static_cast<CorruptionOp>(i);
  }
  return out;
}

std::size_t CorruptionSummary::total_mutations() const noexcept {
  std::size_t n = 0;
  for (const auto& result : applied) n += result.mutations;
  return n;
}

CorruptionSummary corrupt_dataset(const fs::path& src, const fs::path& dst,
                                  const CorruptionSpec& spec) {
  if (!fs::exists(src / kConsole) && !fs::exists(src / kTdf)) {
    throw std::runtime_error{"corrupt_dataset: no dataset at " + src.string() +
                             " (missing console.log and dataset.tdf)"};
  }
  fs::create_directories(dst);
  for (const auto name : kDatasetFiles) {
    if (fs::exists(src / name)) {
      write_file(dst / name, read_file(src / name));
    } else {
      fs::remove(dst / name);
    }
  }

  const stats::Rng base{spec.seed};
  const double p = clamped(spec.intensity);
  CorruptionSummary summary;

  for (const auto op : spec.ops) {
    // The per-operator stream is keyed by the operator's stable name, a
    // compile-time table lookup -- deterministic, but opaque to the
    // static manifest, so it carries an explicit waiver.
    auto rng = base.fork(op_name(op));  // titanlint: allow(stream-dynamic-label)
    CorruptionSummary::OpResult result{op, std::string{kConsole}, 0};

    // Whole-file and non-console operators first.
    if (op == CorruptionOp::kTruncateFile) {
      if (fs::exists(dst / kConsole)) {
        auto text = read_file(dst / kConsole);
        result.mutations = op_truncate_file(text, rng);
        write_file(dst / kConsole, text);
      }
      summary.applied.push_back(std::move(result));
      continue;
    }
    if (op == CorruptionOp::kDropOptionalFile) {
      result.mutations = op_drop_optional(dst, rng, result.file);
      summary.applied.push_back(std::move(result));
      continue;
    }
    if (op == CorruptionOp::kMangleManifest || op == CorruptionOp::kChecksumMismatch) {
      result.file = std::string{kManifest};
      if (fs::exists(dst / kManifest)) {
        auto doc = split(read_file(dst / kManifest));
        result.mutations = op == CorruptionOp::kMangleManifest
                               ? op_mangle_manifest(doc, rng)
                               : op_checksum_mismatch(doc, dst);
        write_file(dst / kManifest, doc.join());
      }
      summary.applied.push_back(std::move(result));
      continue;
    }
    if (op_targets_tdf(op)) {
      result.file = std::string{kTdf};
      if (fs::exists(dst / kTdf)) {
        auto bytes = read_file(dst / kTdf);
        switch (op) {
          case CorruptionOp::kTdfTruncate:
            result.mutations = op_tdf_truncate(bytes, rng);
            break;
          case CorruptionOp::kTdfHeaderFlip:
            result.mutations = op_tdf_header_flip(bytes, rng);
            break;
          case CorruptionOp::kTdfFooterMangle:
            result.mutations = op_tdf_footer_mangle(bytes, rng);
            break;
          default:
            result.mutations = op_tdf_checksum_tamper(bytes, rng);
            break;
        }
        write_file(dst / kTdf, bytes);
        repatch_manifest_checksum(dst, kTdf, bytes);
      }
      summary.applied.push_back(std::move(result));
      continue;
    }
    if (!fs::exists(dst / kConsole)) {
      // Text operator on a binary-only dataset: nothing to mutate.
      summary.applied.push_back(std::move(result));
      continue;
    }

    auto doc = split(read_file(dst / kConsole));
    switch (op) {
      case CorruptionOp::kTruncateLines:
        result.mutations = op_truncate_lines(doc, rng, p);
        break;
      case CorruptionOp::kFlipChars:
        result.mutations = op_flip_chars(doc, rng, p);
        break;
      case CorruptionOp::kFlipBits:
        result.mutations = op_flip_bits(doc, rng, p);
        break;
      case CorruptionOp::kDuplicateLines:
        result.mutations = op_duplicate_lines(doc, rng, p);
        break;
      case CorruptionOp::kInterleaveChatter:
        result.mutations = op_interleave_chatter(doc, rng, p);
        break;
      case CorruptionOp::kShuffleOrder:
        result.mutations = op_shuffle_order(doc, rng, p);
        break;
      case CorruptionOp::kCrlfEndings:
        result.mutations = op_crlf(doc);
        break;
      case CorruptionOp::kInjectNul:
        result.mutations = op_inject_nul(doc, rng, p);
        break;
      case CorruptionOp::kOverlongLine:
        result.mutations = op_overlong_line(doc);
        break;
      default:
        break;  // handled above
    }
    write_file(dst / kConsole, doc.join());
    summary.applied.push_back(std::move(result));
  }
  return summary;
}

}  // namespace titan::ingest
