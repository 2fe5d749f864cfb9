// Small file helpers shared by the dataset writer/reader and the example
// CLIs (previously duplicated inside the examples).  All text is plain
// newline-terminated UTF-8; reads never throw on *missing* files (empty
// results -- callers check existence where it matters), but a file beyond
// kMaxIngestFileBytes throws ingest::IngestError with E_FILE_TOO_LARGE:
// silently truncating a 5 GiB log to what size_t/std::streamsize happens
// to hold would be a corruption of its own.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace titan::study {

/// Single-file ingest size cap (4 GiB).  Anything larger than this is not
/// a titanrel dataset artifact and is rejected with a named triage code
/// (E_FILE_TOO_LARGE) instead of being silently clamped.
inline constexpr std::uint64_t kMaxIngestFileBytes = 4ULL * 1024 * 1024 * 1024;

/// Size of `path` if it exists as a regular file, else 0.  Throws
/// IngestError (E_FILE_TOO_LARGE) beyond kMaxIngestFileBytes, before any
/// read or mapping touches the bytes.
[[nodiscard]] std::uint64_t checked_file_size(const std::filesystem::path& path);

/// Read a text file line by line (without terminators; a trailing '\r'
/// from CRLF endings is stripped).  Missing or unreadable files yield an
/// empty vector; files beyond kMaxIngestFileBytes throw IngestError.
[[nodiscard]] std::vector<std::string> read_lines(const std::filesystem::path& path);

/// Slurp a whole file (capacity reserved from the on-disk size).  Missing
/// or unreadable files yield ""; files beyond kMaxIngestFileBytes throw
/// IngestError.
[[nodiscard]] std::string read_all(const std::filesystem::path& path);

/// The lines joined into one text, each terminated with '\n'.
[[nodiscard]] std::string join_lines(std::span<const std::string> lines);

/// Write raw text.  Throws std::runtime_error when the file cannot be
/// opened.
void write_text(const std::filesystem::path& path, std::string_view text);

/// Atomic variant of write_text: write `path.tmp`, fsync, rename (via
/// faulttest::atomic_write_file, which carries the crash kill points).
/// The destination is never observable half-written; on an ordinary
/// failure the tmp file is removed and std::runtime_error thrown, while
/// a faulttest::KillPointError deliberately leaves the orphan tmp behind
/// as the crash evidence loaders must triage (E_ORPHAN_TMP).
void atomic_write_text(const std::filesystem::path& path, std::string_view text);

}  // namespace titan::study
