// Temporal re-occurrence (parent/child) analysis between XID kinds
// (Fig. 13, Observation 9).
//
// For an ordered pair (A, B): the fraction of A events that are followed
// by at least one B event within the window (300 s in the paper).  The
// diagonal captures same-type repetition (burstiness / per-job fan-out);
// the paper also shows the matrix with same-type pairs excluded to make
// the cross-type structure visible.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/event_frame.hpp"
#include "stats/histogram.hpp"

namespace titan::analysis {

struct FollowMatrix {
  std::vector<xid::ErrorKind> kinds;  ///< row/col order
  stats::Grid2D fractions;            ///< fractions[a][b] = P(B within window | A)

  FollowMatrix(std::vector<xid::ErrorKind> ks, stats::Grid2D m)
      : kinds{std::move(ks)}, fractions{std::move(m)} {}

  [[nodiscard]] double at(xid::ErrorKind a, xid::ErrorKind b) const;
  [[nodiscard]] std::vector<std::string> labels() const;
};

/// Compute the following-failure matrix over all kinds present in
/// `kinds_of_interest`.  `include_same_type` false zeroes the diagonal's
/// contribution by skipping same-kind followers (the paper's bottom
/// heatmap).  One right-to-left pass over the time/kind columns in
/// O(N*K + N log N) for N rows and K kinds, independent of how many rows
/// share a window.  It keeps the nearest later row of each kind and finds
/// where a forward window scan would break (the first later row at or past
/// `time + window`) by binary search over the suffix's running maxima, so
/// it equals that scan exactly, on an unsorted time column too.
[[nodiscard]] FollowMatrix follow_matrix(const EventFrame& frame,
                                         std::span<const xid::ErrorKind> kinds_of_interest,
                                         double window_s, bool include_same_type);

/// The kind set the paper's Fig. 13 axes use.
[[nodiscard]] std::vector<xid::ErrorKind> fig13_kinds();

/// Kinds whose events are "relatively more isolated in nature" under the
/// matrix: no same-type follower within the window for any occurrence.
[[nodiscard]] std::vector<xid::ErrorKind> isolated_kinds(const FollowMatrix& matrix,
                                                         double threshold = 0.01);

}  // namespace titan::analysis
