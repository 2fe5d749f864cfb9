#include "study/io.hpp"

#include <fstream>
#include <stdexcept>
#include <system_error>

#include "faulttest/atomic_file.hpp"
#include "ingest/triage.hpp"

namespace titan::study {

std::uint64_t checked_file_size(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return 0;  // missing/unreadable: the read yields empty
  if (size > kMaxIngestFileBytes) {
    // Named before any read: a 5 GiB log must not be silently clamped by
    // narrower offsets.
    throw ingest::IngestError{
        path.filename().string(), 0, ingest::TriageCode::kFileTooLarge,
        "file of " + std::to_string(size) + " bytes exceeds the " +
            std::to_string(kMaxIngestFileBytes) + "-byte single-file ingest cap"};
  }
  return size;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  const auto size = checked_file_size(path);
  // Binary mode: '\r' handling is ours, not the stream's, so CRLF files
  // read identically on every platform.
  std::ifstream in{path, std::ios::binary};
  std::vector<std::string> lines;
  // Console lines average well under 128 bytes; an estimate keeps the
  // vector from doubling through a multi-million-line log.
  lines.reserve(static_cast<std::size_t>(size / 64));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  lines.shrink_to_fit();
  return lines;
}

std::string read_all(const std::filesystem::path& path) {
  const auto size = checked_file_size(path);
  std::ifstream in{path, std::ios::binary};
  if (!in) return {};
  std::string out;
  out.resize(static_cast<std::size_t>(size));
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  // The file may have changed between stat and read; trust what we got.
  out.resize(static_cast<std::size_t>(in.gcount()));
  return out;
}

std::string join_lines(std::span<const std::string> lines) {
  std::size_t bytes = 0;
  for (const auto& line : lines) bytes += line.size() + 1;
  std::string text;
  text.reserve(bytes);
  for (const auto& line : lines) (text += line) += '\n';
  return text;
}

void write_text(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot open for writing: " + path.string()};
  out << text;
}

void atomic_write_text(const std::filesystem::path& path, std::string_view text) {
  faulttest::atomic_write_file(path, text, "atomic_write_text");
}

}  // namespace titan::study
