// Console-log emission: the SMW/SEC-processed critical-event stream the
// paper's primary analyses are built on ("more than 280 million node hours
// worth of console logs").
//
// Line format (one event per line):
//
//   [YYYY-MM-DD HH:MM:SS] <cname> GPU <TOKEN>: <description> [(STRUCT)]
//
// where TOKEN is the short error token ("DBE", "OTB", "XID13", ...) and
// the optional STRUCT suffix is the decoded memory structure for ECC
// events ("we did this by decoding the error log for DBE occurrences").
// Single-bit errors never appear here -- "console logs do not capture the
// single bit error information" -- which is why the paper needs nvidia-smi
// at all.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "profile/fleet_profile.hpp"
#include "stats/calendar.hpp"
#include "topology/machine.hpp"
#include "xid/event.hpp"

namespace titan::logsim {

/// Serialize one event to its console line, in the fleet's own
/// description wording (for k20x-titan this is the global taxonomy
/// wording).
[[nodiscard]] std::string console_line(const xid::Event& event,
                                       const profile::FleetProfile& profile);

/// Serialize into `buffer` (cleared first) instead of allocating a fresh
/// string -- the emitter reuses one buffer per worker chunk.
void console_line_into(const xid::Event& event, const profile::FleetProfile& profile,
                       std::string& buffer);

/// Serialize a whole (time-sorted) event stream.  SBE events are skipped,
/// mirroring the real console log's blindness to corrected errors.
[[nodiscard]] std::vector<std::string> emit_console_log(const std::vector<xid::Event>& events,
                                                        const profile::FleetProfile& profile);

/// Serialize an event stream held as columns (an EventFrame's base
/// columns), one line per row: every row is already console-visible.  The
/// spans must have equal lengths.  Same chunked parallel loop and bytes as
/// the event-vector form.
[[nodiscard]] std::vector<std::string> emit_console_log(
    std::span<const stats::TimeSec> times, std::span<const topology::NodeId> nodes,
    std::span<const xid::ErrorKind> kinds, std::span<const xid::MemoryStructure> structures,
    const profile::FleetProfile& profile);

}  // namespace titan::logsim
