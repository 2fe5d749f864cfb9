#include "logsim/console.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "par/parallel.hpp"
#include "stats/calendar.hpp"
#include "topology/machine.hpp"

namespace titan::logsim {

namespace {

void line_into(const xid::Event& event, std::string_view description, std::string& buffer) {
  buffer.clear();
  buffer += '[';
  stats::append_timestamp(buffer, event.time);
  buffer += "] ";
  topology::append_cname(buffer, topology::locate(event.node));
  buffer += " GPU ";
  buffer += xid::token(event.kind);
  buffer += ": ";
  buffer += description;
  if (event.structure != xid::MemoryStructure::kNone) {
    buffer += " (";
    buffer += xid::structure_token(event.structure);
    buffer += ')';
  }
}

/// Serialize `n` lines concurrently: lines are independent and land in
/// their own slot, so the log is identical at any thread count.  Each
/// worker chunk formats into one reused buffer and copies the bytes out,
/// so per-line allocation is exactly the final string.
template <typename EventAt>
std::vector<std::string> render_lines(std::size_t n, const EventAt& event_at,
                                      const profile::FleetProfile& profile) {
  constexpr std::size_t kChunk = 1024;
  std::vector<std::string> lines(n);
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  par::parallel_for(0, chunks, 1, [&](std::size_t c) {
    std::string buffer;
    buffer.reserve(96);
    const std::size_t end = std::min(n, (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) {
      console_line_into(event_at(i), profile, buffer);
      lines[i].assign(buffer);
    }
  });
  return lines;
}

}  // namespace

void console_line_into(const xid::Event& event, std::string& buffer) {
  line_into(event, xid::info(event.kind).name, buffer);
}

void console_line_into(const xid::Event& event, const profile::FleetProfile& profile,
                       std::string& buffer) {
  line_into(event, profile.description(event.kind), buffer);
}

std::string console_line(const xid::Event& event) {
  std::string line;
  line.reserve(96);
  console_line_into(event, line);
  return line;
}

std::vector<std::string> emit_console_log(const std::vector<xid::Event>& events,
                                          const profile::FleetProfile& profile) {
  // Select console-visible events serially (cheap), then render them.
  std::vector<std::uint32_t> visible;
  visible.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == xid::ErrorKind::kSingleBitError) continue;
    visible.push_back(static_cast<std::uint32_t>(i));
  }
  return render_lines(
      visible.size(), [&](std::size_t i) -> const xid::Event& { return events[visible[i]]; },
      profile);
}

std::vector<std::string> emit_console_log(std::span<const stats::TimeSec> times,
                                          std::span<const topology::NodeId> nodes,
                                          std::span<const xid::ErrorKind> kinds,
                                          std::span<const xid::MemoryStructure> structures,
                                          const profile::FleetProfile& profile) {
  if (nodes.size() != times.size() || kinds.size() != times.size() ||
      structures.size() != times.size()) {
    throw std::invalid_argument{"emit_console_log: column lengths differ"};
  }
  return render_lines(
      times.size(),
      [&](std::size_t i) {
        xid::Event event;
        event.time = times[i];
        event.node = nodes[i];
        event.kind = kinds[i];
        event.structure = structures[i];
        return event;
      },
      profile);
}

std::vector<std::string> emit_console_log(const std::vector<xid::Event>& events) {
  return emit_console_log(events, profile::k20x_titan());
}

}  // namespace titan::logsim
