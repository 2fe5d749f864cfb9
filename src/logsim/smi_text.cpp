#include "logsim/smi_text.hpp"

#include <charconv>
#include <cstdio>
#include <limits>

#include "logsim/quantize.hpp"
#include "stats/calendar.hpp"
#include "topology/machine.hpp"

namespace titan::logsim {

namespace {

constexpr std::string_view kAttachedHeader = "==============NVSMI LOG==============";
/// The block text of smi_query_text without its conversions.
constexpr std::size_t kBlockFixedChars = 403;
/// The longest cname: five ints and five letters or dashes.
constexpr std::size_t kMaxCnameChars = 5 * 11 + 5;
/// The longest serial or counter (a sign and 10 digits, or 20 digits).
constexpr std::size_t kMaxIntChars = 20;
/// The longest double at one fixed decimal: sign, every integer digit of
/// the largest double, point, decimal.
constexpr std::size_t kMaxTemperatureChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + 1;

/// Find "<key> : " in `text` after `from` and parse the remainder of the
/// line.  Returns the value text, or std::nullopt.
std::optional<std::string_view> find_value(std::string_view text, std::string_view key) {
  const auto pos = text.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  auto colon = text.find(':', pos + key.size());
  if (colon == std::string_view::npos) return std::nullopt;
  ++colon;
  while (colon < text.size() && text[colon] == ' ') ++colon;
  auto end = text.find('\n', colon);
  if (end == std::string_view::npos) end = text.size();
  return text.substr(colon, end - colon);
}

template <typename T>
bool parse_number_prefix(std::string_view text, T& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr != begin;
}

}  // namespace

std::string smi_query_text(const SmiCardRecord& record) {
  // Every field has a bounded width, so one buffer holds any block
  // (Quantize.InPlaceMatchesTextRoundTripOnEdgeValues renders the widest
  // record of a valid node).
  char buf[kBlockFixedChars + kMaxCnameChars + kMaxTemperatureChars + 7 * kMaxIntChars + 1];
  std::snprintf(buf, sizeof(buf),
                "GPU %s\n"
                "    Serial Number                   : %d\n"
                "    Temperature\n"
                "        GPU Current Temp            : %.1f F\n"
                "    ECC Errors\n"
                "        Volatile\n"
                "            Single Bit Volatile     : %llu\n"
                "            Double Bit Volatile     : %llu\n"
                "        Aggregate\n"
                "            Single Bit Total        : %llu\n"
                "            Double Bit Total        : %llu\n"
                "    Retired Pages\n"
                "        Single Bit ECC              : %llu\n"
                "        Double Bit ECC              : %llu\n",
                topology::cname(record.node).c_str(), record.serial, record.temperature_f,
                static_cast<unsigned long long>(record.sbe_volatile),
                static_cast<unsigned long long>(record.dbe_volatile),
                static_cast<unsigned long long>(record.sbe_total),
                static_cast<unsigned long long>(record.dbe_total),
                static_cast<unsigned long long>(record.retired_pages_sbe),
                static_cast<unsigned long long>(record.retired_pages_dbe));
  return buf;
}

std::string smi_sweep_text(const SmiSnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.records.size() * 420 + 128);
  out += kAttachedHeader;
  out += "\nTimestamp                           : ";
  out += stats::format_timestamp(snapshot.taken_at);
  out += "\nAttached GPUs                       : ";
  out += std::to_string(snapshot.records.size());
  out += "\n\n";
  for (const auto& record : snapshot.records) {
    out += smi_query_text(record);
    out += '\n';
  }
  return out;
}

SmiSnapshot quantized(SmiSnapshot snapshot) {
  stats::TimeSec taken_at = 0;
  (void)stats::parse_timestamp(stats::format_timestamp(snapshot.taken_at), taken_at);
  snapshot.taken_at = taken_at;
  for (auto& record : snapshot.records) record.temperature_f = quantized(record.temperature_f, 1);
  return snapshot;
}

std::optional<SmiCardRecord> parse_smi_query_text(std::string_view text) {
  SmiCardRecord record;
  if (text.substr(0, 4) != "GPU ") return std::nullopt;
  auto line_end = text.find('\n');
  if (line_end == std::string_view::npos) return std::nullopt;
  const auto loc = topology::parse_cname(text.substr(4, line_end - 4));
  if (!loc) return std::nullopt;
  record.node = topology::node_id(*loc);

  const auto serial = find_value(text, "Serial Number");
  const auto temp = find_value(text, "GPU Current Temp");
  const auto sbe = find_value(text, "Single Bit Total");
  const auto dbe = find_value(text, "Double Bit Total");
  const auto sbe_vol = find_value(text, "Single Bit Volatile");
  const auto dbe_vol = find_value(text, "Double Bit Volatile");
  const auto ret_sbe = find_value(text, "Single Bit ECC");
  const auto ret_dbe = find_value(text, "Double Bit ECC");
  if (!serial || !temp || !sbe || !dbe || !sbe_vol || !dbe_vol || !ret_sbe || !ret_dbe) {
    return std::nullopt;
  }
  if (!parse_number_prefix(*serial, record.serial)) return std::nullopt;
  if (!parse_number_prefix(*temp, record.temperature_f)) return std::nullopt;
  if (!parse_number_prefix(*sbe, record.sbe_total)) return std::nullopt;
  if (!parse_number_prefix(*dbe, record.dbe_total)) return std::nullopt;
  if (!parse_number_prefix(*sbe_vol, record.sbe_volatile)) return std::nullopt;
  if (!parse_number_prefix(*dbe_vol, record.dbe_volatile)) return std::nullopt;
  if (!parse_number_prefix(*ret_sbe, record.retired_pages_sbe)) return std::nullopt;
  if (!parse_number_prefix(*ret_dbe, record.retired_pages_dbe)) return std::nullopt;
  return record;
}

SmiSweepParse parse_smi_sweep_text(std::string_view text) {
  SmiSweepParse out;
  if (const auto ts = find_value(text, "Timestamp")) {
    (void)stats::parse_timestamp(*ts, out.taken_at);
  }
  // Blocks start at each "GPU c..." line.
  std::size_t pos = text.find("\nGPU ");
  while (pos != std::string_view::npos) {
    ++pos;  // skip the newline
    std::size_t next = text.find("\nGPU ", pos);
    const std::size_t end = next == std::string_view::npos ? text.size() : next;
    if (const auto record = parse_smi_query_text(text.substr(pos, end - pos))) {
      out.records.push_back(*record);
    } else {
      ++out.malformed_blocks;
    }
    pos = next;
  }
  return out;
}

}  // namespace titan::logsim
