#include "analysis/event_frame.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "par/parallel.hpp"

namespace titan::analysis {

namespace {

/// Column-fill grain: locate/month/card per row is tens of nanoseconds, so
/// a few thousand rows amortize one pool dispatch.
constexpr std::size_t kGrain = 4096;

/// The row fields shared by both source stream types.
struct SourceRow {
  stats::TimeSec time = 0;
  topology::NodeId node = topology::kInvalidNode;
  xid::ErrorKind kind = xid::ErrorKind::kSingleBitError;
  xid::MemoryStructure structure = xid::MemoryStructure::kNone;
  xid::JobId job = xid::kNoJob;
  bool root = true;
};

}  // namespace

template <typename GetRow>
EventFrame EventFrame::build_impl(std::size_t n, const GetRow& get_row,
                                  const gpu::FleetLedger* ledger) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"EventFrame: stream exceeds 32-bit row ids"};
  }
  EventFrame frame;
  frame.time_.resize(n);
  frame.node_.resize(n);
  frame.kind_.resize(n);
  frame.structure_.resize(n);
  frame.location_.resize(n);
  frame.month_ordinal_.resize(n);
  frame.card_.resize(n);
  frame.job_.resize(n);
  frame.root_.resize(n);
  frame.kind_rows_.resize(n);
  frame.kind_times_.resize(n);

  // Pass 1: fill every column.  Each index writes only its own slots, so
  // the result is identical at any pool width.
  par::parallel_for(0, n, kGrain, [&](std::size_t i) {
    const SourceRow row = get_row(i);
    frame.time_[i] = row.time;
    frame.node_[i] = row.node;
    frame.kind_[i] = row.kind;
    frame.structure_[i] = row.structure;
    frame.location_[i] = topology::locate(row.node);
    frame.month_ordinal_[i] =
        static_cast<std::int32_t>(stats::month_ordinal(stats::to_civil(row.time).date));
    frame.card_[i] = ledger != nullptr ? ledger->card_at(row.node, row.time) : xid::kInvalidCard;
    frame.job_[i] = row.job;
    frame.root_[i] = row.root ? 1 : 0;
  });

  // Pass 2: per-kind CSR via a chunked stable counting sort.  Chunk kind
  // histograms and the derived per-chunk scatter bases depend only on the
  // stream, so the scatter below is deterministic and keeps stream order
  // within each kind.
  constexpr std::size_t K = xid::kErrorKindCount;
  const std::size_t chunks = n == 0 ? 0 : (n - 1) / kGrain + 1;
  std::vector<std::array<std::uint32_t, K>> chunk_counts(chunks);
  par::parallel_for(0, chunks, 1, [&](std::size_t c) {
    auto& counts = chunk_counts[c];
    counts.fill(0);
    const std::size_t lo = c * kGrain;
    const std::size_t hi = std::min(lo + kGrain, n);
    for (std::size_t i = lo; i < hi; ++i) {
      ++counts[static_cast<std::size_t>(frame.kind_[i])];
    }
  });

  std::array<std::uint32_t, K> totals{};
  for (const auto& counts : chunk_counts) {
    for (std::size_t k = 0; k < K; ++k) totals[k] += counts[k];
  }
  frame.kind_offsets_[0] = 0;
  for (std::size_t k = 0; k < K; ++k) {
    frame.kind_offsets_[k + 1] = frame.kind_offsets_[k] + totals[k];
  }

  // Per-chunk scatter base: kind offset plus everything earlier chunks
  // contribute to that kind.  Reuses chunk_counts storage.
  std::array<std::uint32_t, K> running{};
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t k = 0; k < K; ++k) {
      const std::uint32_t count = chunk_counts[c][k];
      chunk_counts[c][k] = frame.kind_offsets_[k] + running[k];
      running[k] += count;
    }
  }
  par::parallel_for(0, chunks, 1, [&](std::size_t c) {
    auto cursor = chunk_counts[c];
    const std::size_t lo = c * kGrain;
    const std::size_t hi = std::min(lo + kGrain, n);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto pos = cursor[static_cast<std::size_t>(frame.kind_[i])]++;
      frame.kind_rows_[pos] = static_cast<std::uint32_t>(i);
      frame.kind_times_[pos] = frame.time_[i];
    }
  });
  return frame;
}

EventFrame EventFrame::build(std::span<const xid::Event> events, const gpu::FleetLedger* ledger) {
  // Select the console-visible rows first (SBEs never reach the console
  // log), so row ids match the rendered console log line for line.
  std::vector<std::uint32_t> visible;
  visible.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == xid::ErrorKind::kSingleBitError) continue;
    visible.push_back(static_cast<std::uint32_t>(i));
  }
  return build_impl(
      visible.size(),
      [&](std::size_t i) {
        const xid::Event& e = events[visible[i]];
        return SourceRow{e.time, e.node, e.kind, e.structure, e.job, !e.is_child()};
      },
      ledger);
}

EventFrame EventFrame::build(std::span<const parse::ParsedEvent> events,
                             const gpu::FleetLedger* ledger) {
  return build_impl(
      events.size(),
      [&](std::size_t i) {
        const parse::ParsedEvent& e = events[i];
        return SourceRow{e.time, e.node, e.kind, e.structure, xid::kNoJob, true};
      },
      ledger);
}

EventFrame EventFrame::from_columns(std::span<const stats::TimeSec> times,
                                    std::span<const topology::NodeId> nodes,
                                    std::span<const xid::ErrorKind> kinds,
                                    std::span<const xid::MemoryStructure> structures,
                                    const gpu::FleetLedger* ledger) {
  if (nodes.size() != times.size() || kinds.size() != times.size() ||
      structures.size() != times.size()) {
    throw std::invalid_argument{"EventFrame::from_columns: column lengths differ"};
  }
  return build_impl(
      times.size(),
      [&](std::size_t i) {
        return SourceRow{times[i], nodes[i], kinds[i], structures[i], xid::kNoJob, true};
      },
      ledger);
}

}  // namespace titan::analysis
