// Columnar (SoA) index over the console event stream: a study's one event
// representation.
//
// Every figure in the paper is a scan over the same 21-month event stream
// keyed by kind, location, month, card, or job.  EventFrame derives those
// keys exactly once: one parallel build pass (deterministic at any
// `titan::par` width) produces
//
//   * plain columns  -- time, node, kind, structure,
//   * derived columns -- decoded NodeLocation, absolute calendar-month
//     ordinal (stats::month_ordinal), ledger-joined card serial, job id
//     and root/child flag (ground-truth builds only),
//   * a per-kind CSR index -- for each ErrorKind, the row ids of its
//     events in stream order plus a *contiguous* copy of their
//     timestamps, so "times of kind" is a zero-copy span.
//
// Analyses run as single-pass kernels over these columns, and the dataset
// writers serialize them (the console log is rendered from the base
// columns when it is written).  The frame holds the console-recoverable
// view: building from ground-truth xid::Event streams drops SBEs, which
// never reach the console log.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/frame_guard.hpp"
#include "gpu/fleet.hpp"
#include "parse/console.hpp"
#include "stats/calendar.hpp"
#include "topology/machine.hpp"
#include "xid/event.hpp"

namespace titan::analysis {

class EventFrame {
 public:
  EventFrame() = default;

  /// Build from ground truth, downgrading to the console-recoverable view
  /// (SBEs dropped) but keeping the job/root columns a richer join would
  /// need.  With a ledger, the card column holds the
  /// card installed in the event's node at the event's time.
  [[nodiscard]] static EventFrame build(std::span<const xid::Event> events,
                                        const gpu::FleetLedger* ledger = nullptr);

  /// Build from an already console-recovered stream (jobs unknown: the
  /// job column is kNoJob and every row is a root).
  [[nodiscard]] static EventFrame build(std::span<const parse::ParsedEvent> events,
                                        const gpu::FleetLedger* ledger = nullptr);

  /// Build directly from base columns (the TDF load paths, and subspans of
  /// another frame): the same frame the ParsedEvent overload would produce
  /// from the row view of the same stream.  All four spans must have equal
  /// lengths.
  [[nodiscard]] static EventFrame from_columns(std::span<const stats::TimeSec> times,
                                               std::span<const topology::NodeId> nodes,
                                               std::span<const xid::ErrorKind> kinds,
                                               std::span<const xid::MemoryStructure> structures,
                                               const gpu::FleetLedger* ledger = nullptr);

  /// Rows [offset, offset + count) as their own frame, rebuilt from the
  /// base columns alone: no ledger join, kNoJob jobs, every row a root --
  /// the frame a console log of those rows loads into.
  [[nodiscard]] EventFrame slice(std::size_t offset, std::size_t count) const {
    return from_columns(times().subspan(offset, count), nodes().subspan(offset, count),
                        kinds().subspan(offset, count), structures().subspan(offset, count));
  }

  [[nodiscard]] std::size_t size() const noexcept { return time_.size(); }
  [[nodiscard]] bool empty() const noexcept { return time_.empty(); }

  // Every column accessor checks the thread's FrameGuardScope (if any)
  // before handing out the span -- the runtime half of the capability
  // contract titanlint verifies statically.

  // -- Plain columns (one entry per retained event, stream order) --------
  [[nodiscard]] std::span<const stats::TimeSec> times() const noexcept {
    frame_guard::check(kColumnBase);
    return time_;
  }
  [[nodiscard]] std::span<const topology::NodeId> nodes() const noexcept {
    frame_guard::check(kColumnBase);
    return node_;
  }
  [[nodiscard]] std::span<const xid::ErrorKind> kinds() const noexcept {
    frame_guard::check(kColumnBase);
    return kind_;
  }
  [[nodiscard]] std::span<const xid::MemoryStructure> structures() const noexcept {
    frame_guard::check(kColumnBase);
    return structure_;
  }

  // -- Derived columns ----------------------------------------------------
  /// Decoded physical location (precomputed `topology::locate`).
  [[nodiscard]] std::span<const topology::NodeLocation> locations() const noexcept {
    frame_guard::check(kColumnBase);
    return location_;
  }
  /// Absolute calendar-month ordinal of the event time
  /// (`stats::month_ordinal`); subtract the ordinal of a window origin to
  /// get a monthly-series bucket.
  [[nodiscard]] std::span<const std::int32_t> month_ordinals() const noexcept {
    frame_guard::check(kColumnBase);
    return month_ordinal_;
  }
  /// Ledger-joined card serial (kInvalidCard when built without a ledger
  /// or the slot was empty).
  [[nodiscard]] std::span<const xid::CardId> cards() const noexcept {
    frame_guard::check(kColumnCards);
    return card_;
  }
  /// Job attribution (kNoJob for parsed-stream and column builds).
  [[nodiscard]] std::span<const xid::JobId> jobs() const noexcept {
    frame_guard::check(kColumnJobs);
    return job_;
  }
  /// 1 for root events, 0 for propagated children (parsed-stream and
  /// column builds cannot tell, so every row is a root there).
  [[nodiscard]] std::span<const std::uint8_t> roots() const noexcept {
    frame_guard::check(kColumnJobs);
    return root_;
  }

  // -- Per-kind CSR index -------------------------------------------------
  [[nodiscard]] std::size_t count_of(xid::ErrorKind kind) const noexcept {
    frame_guard::check(kColumnBase);
    const auto k = static_cast<std::size_t>(kind);
    return kind_offsets_[k + 1] - kind_offsets_[k];
  }
  /// Row ids of all events of `kind`, in stream order.
  [[nodiscard]] std::span<const std::uint32_t> rows_of(xid::ErrorKind kind) const noexcept {
    frame_guard::check(kColumnBase);
    const auto k = static_cast<std::size_t>(kind);
    return std::span<const std::uint32_t>{kind_rows_}.subspan(
        kind_offsets_[k], kind_offsets_[k + 1] - kind_offsets_[k]);
  }
  /// Timestamps of all events of `kind`, contiguous and in stream order
  /// (time-sorted when the source stream was).
  [[nodiscard]] std::span<const stats::TimeSec> times_of(xid::ErrorKind kind) const noexcept {
    frame_guard::check(kColumnBase);
    const auto k = static_cast<std::size_t>(kind);
    return std::span<const stats::TimeSec>{kind_times_}.subspan(
        kind_offsets_[k], kind_offsets_[k + 1] - kind_offsets_[k]);
  }

  friend bool operator==(const EventFrame& a, const EventFrame& b) = default;

 private:
  template <typename GetRow>
  static EventFrame build_impl(std::size_t n, const GetRow& get_row,
                               const gpu::FleetLedger* ledger);

  std::vector<stats::TimeSec> time_;
  std::vector<topology::NodeId> node_;
  std::vector<xid::ErrorKind> kind_;
  std::vector<xid::MemoryStructure> structure_;
  std::vector<topology::NodeLocation> location_;
  std::vector<std::int32_t> month_ordinal_;
  std::vector<xid::CardId> card_;
  std::vector<xid::JobId> job_;
  std::vector<std::uint8_t> root_;

  /// CSR: events of kind k are kind_rows_[kind_offsets_[k] ..
  /// kind_offsets_[k+1]), stream order; kind_times_ is the parallel
  /// timestamp array.
  std::array<std::uint32_t, xid::kErrorKindCount + 1> kind_offsets_{};
  std::vector<std::uint32_t> kind_rows_;
  std::vector<stats::TimeSec> kind_times_;
};

}  // namespace titan::analysis
