#include "analysis/xid_matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace titan::analysis {

double FollowMatrix::at(xid::ErrorKind a, xid::ErrorKind b) const {
  const auto find = [&](xid::ErrorKind k) -> std::size_t {
    const auto it = std::find(kinds.begin(), kinds.end(), k);
    if (it == kinds.end()) throw std::invalid_argument{"FollowMatrix: kind not in matrix"};
    return static_cast<std::size_t>(it - kinds.begin());
  };
  return fractions.at(find(a), find(b));
}

std::vector<std::string> FollowMatrix::labels() const {
  std::vector<std::string> out;
  out.reserve(kinds.size());
  for (const auto k : kinds) out.emplace_back(xid::token(k));
  return out;
}

FollowMatrix follow_matrix(const EventFrame& frame,
                           std::span<const xid::ErrorKind> kinds_of_interest, double window_s,
                           bool include_same_type) {
  const std::size_t n = kinds_of_interest.size();
  // Flat ErrorKind -> matrix-index table (npos marks kinds outside the
  // matrix), replacing the per-event unordered_map probes.
  constexpr std::size_t kNotOfInterest = static_cast<std::size_t>(-1);
  std::array<std::size_t, xid::kErrorKindCount> kind_index;
  kind_index.fill(kNotOfInterest);
  for (std::size_t i = 0; i < n; ++i) {
    kind_index[static_cast<std::size_t>(kinds_of_interest[i])] = i;
  }

  stats::Grid2D followed{std::max<std::size_t>(n, 1), std::max<std::size_t>(n, 1)};
  std::vector<std::uint64_t> occurrences(n, 0);
  const auto window = static_cast<stats::TimeSec>(std::llround(window_s));
  const auto times = frame.times();
  const auto kinds = frame.kinds();
  const std::size_t rows = frame.size();

  // One right-to-left pass.  Row i of kind A is followed by B when the
  // nearest later row of kind B (`next_at[b]`, `rows` when none) comes
  // before stop(i): the first j > i with times[j] >= times[i] + window,
  // where a forward window scan would break.  Every row before stop(i)
  // counts, whatever its time, so this is exact on an unsorted column too.
  //
  // `maxima` holds the strict prefix maxima of the suffix (i, rows), the
  // nearest row last.  The first row reaching a threshold is always one of
  // them, and their times fall strictly towards the back, so stop(i) is
  // the last entry at or above the threshold: one binary search.
  std::vector<std::size_t> next_at(n, rows);
  std::vector<std::size_t> maxima;
  for (std::size_t i = rows; i-- > 0;) {
    const std::size_t a = kind_index[static_cast<std::size_t>(kinds[i])];
    if (a != kNotOfInterest) {
      ++occurrences[a];
      const stats::TimeSec threshold = times[i] + window;
      const auto reach = std::partition_point(
          maxima.begin(), maxima.end(), [&](std::size_t j) { return times[j] >= threshold; });
      const std::size_t stop = reach == maxima.begin() ? rows : *std::prev(reach);
      for (std::size_t b = 0; b < n; ++b) {
        if (next_at[b] < stop && (include_same_type || b != a)) followed.add(a, b);
      }
      next_at[a] = i;
    }
    while (!maxima.empty() && times[maxima.back()] <= times[i]) maxima.pop_back();
    maxima.push_back(i);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      followed.at(a, b) =
          occurrences[a] > 0 ? followed.at(a, b) / static_cast<double>(occurrences[a]) : 0.0;
    }
  }
  return FollowMatrix{std::vector<xid::ErrorKind>(kinds_of_interest.begin(),
                                                  kinds_of_interest.end()),
                      std::move(followed)};
}

std::vector<xid::ErrorKind> fig13_kinds() {
  using xid::ErrorKind;
  return {ErrorKind::kGraphicsEngineException, ErrorKind::kMemoryPageFault,
          ErrorKind::kCorruptedPushBuffer,     ErrorKind::kDriverFirmware,
          ErrorKind::kGpuStoppedProcessing,    ErrorKind::kCtxSwitchFault,
          ErrorKind::kPreemptiveCleanup,       ErrorKind::kDoubleBitError,
          ErrorKind::kUcHaltOldDriver,         ErrorKind::kUcHaltNewDriver,
          ErrorKind::kPageRetirement,          ErrorKind::kOffTheBus};
}

std::vector<xid::ErrorKind> isolated_kinds(const FollowMatrix& matrix, double threshold) {
  std::vector<xid::ErrorKind> out;
  for (std::size_t i = 0; i < matrix.kinds.size(); ++i) {
    if (matrix.fractions.at(i, i) <= threshold) out.push_back(matrix.kinds[i]);
  }
  return out;
}

}  // namespace titan::analysis
