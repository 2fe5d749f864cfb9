#include "topology/machine.hpp"

#include <algorithm>
#include <charconv>

namespace titan::topology {

namespace {

// Parse a decimal integer starting at `pos`; requires at least one digit.
bool parse_int(std::string_view text, std::size_t& pos, int& out) {
  if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') return false;
  int value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + (text[pos] - '0');
    if (value > 1'000'000) return false;  // reject absurd coordinates early
    ++pos;
  }
  out = value;
  return true;
}

bool expect(std::string_view text, std::size_t& pos, char c) {
  if (pos >= text.size() || text[pos] != c) return false;
  ++pos;
  return true;
}

}  // namespace

int compute_node_count() noexcept {
  int count = 0;
  for (NodeId id = 0; id < kNodeSlots; ++id) {
    if (!is_service_node(id)) ++count;
  }
  return count;
}

void append_cname(std::string& out, const NodeLocation& loc) {
  // Five fields of a tag and an int of at most 11 characters ("-2147483648").
  constexpr std::size_t kField = 12;
  char buf[5 * kField];
  char* pos = buf;
  const auto put = [&](char tag, int value) {
    *pos = tag;
    pos = std::to_chars(pos + 1, pos + kField, value).ptr;
  };
  put('c', loc.cab_x);
  put('-', loc.cab_y);
  put('c', loc.cage);
  put('s', loc.slot);
  put('n', loc.node);
  out.append(buf, std::min(static_cast<std::size_t>(pos - buf), kMaxCnameChars));
}

std::string cname(const NodeLocation& loc) {
  std::string out;
  append_cname(out, loc);
  return out;
}

std::string cname(NodeId id) { return cname(locate(id)); }

std::optional<NodeLocation> parse_cname(std::string_view text) {
  NodeLocation loc;
  std::size_t pos = 0;
  if (!expect(text, pos, 'c')) return std::nullopt;
  if (!parse_int(text, pos, loc.cab_x)) return std::nullopt;
  if (!expect(text, pos, '-')) return std::nullopt;
  if (!parse_int(text, pos, loc.cab_y)) return std::nullopt;
  if (!expect(text, pos, 'c')) return std::nullopt;
  if (!parse_int(text, pos, loc.cage)) return std::nullopt;
  if (!expect(text, pos, 's')) return std::nullopt;
  if (!parse_int(text, pos, loc.slot)) return std::nullopt;
  if (!expect(text, pos, 'n')) return std::nullopt;
  if (!parse_int(text, pos, loc.node)) return std::nullopt;
  if (pos != text.size()) return std::nullopt;
  if (!loc.valid()) return std::nullopt;
  return loc;
}

}  // namespace titan::topology
