#include "analysis/xid_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "study/context.hpp"
#include "study/registry.hpp"

namespace titan::analysis {
namespace {

using parse::ParsedEvent;
using xid::ErrorKind;

EventFrame frame_of(const std::vector<ParsedEvent>& events) {
  return EventFrame::build(std::span<const ParsedEvent>{events});
}

ParsedEvent ev(stats::TimeSec t, ErrorKind kind) {
  ParsedEvent e;
  e.time = t;
  e.node = 3;
  e.kind = kind;
  return e;
}

TEST(FollowMatrix, DetectsFollowingPairs) {
  // Every DBE followed by a cleanup within 60 s; cleanups never followed.
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(ev(i * 10000, ErrorKind::kDoubleBitError));
    events.push_back(ev(i * 10000 + 60, ErrorKind::kPreemptiveCleanup));
  }
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(frame_of(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kPreemptiveCleanup, ErrorKind::kDoubleBitError), 0.0);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kDoubleBitError), 0.0);
}

TEST(FollowMatrix, WindowBoundaryExclusive) {
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                  ev(300, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(frame_of(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 0.0);
}

TEST(FollowMatrix, DiagonalCapturesBursts) {
  // Five XID 13s in a burst: all but the last see a same-type follower.
  std::vector<ParsedEvent> events;
  for (int i = 0; i < 5; ++i) events.push_back(ev(i, ErrorKind::kGraphicsEngineException));
  const std::vector<ErrorKind> kinds{ErrorKind::kGraphicsEngineException};
  const auto with_same = follow_matrix(frame_of(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(
      with_same.at(ErrorKind::kGraphicsEngineException, ErrorKind::kGraphicsEngineException),
      0.8);
  const auto without_same = follow_matrix(frame_of(events), kinds, 300.0, false);
  EXPECT_DOUBLE_EQ(
      without_same.at(ErrorKind::kGraphicsEngineException, ErrorKind::kGraphicsEngineException),
      0.0);
}

TEST(FollowMatrix, MultipleFollowersCountOnce) {
  // One DBE followed by three cleanups: fraction is still 1.0 (at least
  // one follower), not 3.0.
  std::vector<ParsedEvent> events{
      ev(0, ErrorKind::kDoubleBitError), ev(1, ErrorKind::kPreemptiveCleanup),
      ev(2, ErrorKind::kPreemptiveCleanup), ev(3, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(frame_of(events), kinds, 300.0, true);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
}

TEST(FollowMatrix, KindsOutsideInterestIgnored) {
  std::vector<ParsedEvent> events{ev(0, ErrorKind::kDoubleBitError),
                                  ev(1, ErrorKind::kOffTheBus),
                                  ev(2, ErrorKind::kPreemptiveCleanup)};
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup};
  const auto m = follow_matrix(frame_of(events), kinds, 300.0, true);
  EXPECT_THROW((void)m.at(ErrorKind::kOffTheBus, ErrorKind::kDoubleBitError),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup), 1.0);
}

TEST(FollowMatrix, Fig13KindsCoverPaperAxes) {
  const auto kinds = fig13_kinds();
  EXPECT_EQ(kinds.size(), 12U);
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), ErrorKind::kOffTheBus) != kinds.end());
  EXPECT_TRUE(std::find(kinds.begin(), kinds.end(), ErrorKind::kDoubleBitError) != kinds.end());
}

TEST(FollowMatrix, IsolatedKindsHaveEmptyDiagonal) {
  std::vector<ParsedEvent> events;
  // Bursty 13s; isolated solitary OTBs.
  for (int i = 0; i < 4; ++i) events.push_back(ev(i, ErrorKind::kGraphicsEngineException));
  events.push_back(ev(100000, ErrorKind::kOffTheBus));
  events.push_back(ev(200000, ErrorKind::kOffTheBus));
  const std::vector<ErrorKind> kinds{ErrorKind::kGraphicsEngineException, ErrorKind::kOffTheBus};
  const auto m = follow_matrix(frame_of(events), kinds, 300.0, true);
  const auto isolated = isolated_kinds(m);
  ASSERT_EQ(isolated.size(), 1U);
  EXPECT_EQ(isolated[0], ErrorKind::kOffTheBus);
}

TEST(FollowMatrix, LabelsMatchTokens) {
  const std::vector<ErrorKind> kinds{ErrorKind::kDoubleBitError, ErrorKind::kOffTheBus};
  const auto m = follow_matrix(frame_of({}), kinds, 300.0, true);
  EXPECT_EQ(m.labels(), (std::vector<std::string>{"DBE", "OTB"}));
}

// The forward window scan the frame kernel replaced, kept as its oracle:
// every row of a matrix kind visits each later row until the first one at
// or past `time + window`, marking each matrix kind it meets once.
stats::Grid2D window_scan(std::span<const ParsedEvent> events, std::span<const ErrorKind> kinds,
                          double window_s, bool include_same_type) {
  const std::size_t n = kinds.size();
  const auto index_of = [&](ErrorKind kind) {
    std::size_t found = n;
    for (std::size_t k = 0; k < n; ++k) {
      if (kinds[k] == kind) found = k;
    }
    return found;
  };
  stats::Grid2D followed{std::max<std::size_t>(n, 1), std::max<std::size_t>(n, 1)};
  std::vector<std::uint64_t> occurrences(n, 0);
  const auto window = static_cast<stats::TimeSec>(std::llround(window_s));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::size_t a = index_of(events[i].kind);
    if (a == n) continue;
    ++occurrences[a];
    std::vector<bool> seen(n, false);
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].time - events[i].time >= window) break;
      const std::size_t b = index_of(events[j].kind);
      if (b == n || (!include_same_type && b == a) || seen[b]) continue;
      seen[b] = true;
      followed.add(a, b);
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      followed.at(a, b) =
          occurrences[a] > 0 ? followed.at(a, b) / static_cast<double>(occurrences[a]) : 0.0;
    }
  }
  return followed;
}

void expect_same_grid(const stats::Grid2D& got, const stats::Grid2D& want,
                      const std::string& where) {
  ASSERT_EQ(got.rows(), want.rows()) << where;
  ASSERT_EQ(got.cols(), want.cols()) << where;
  const auto g = got.data();
  const auto w = want.data();
  EXPECT_EQ(std::vector<double>(g.begin(), g.end()), std::vector<double>(w.begin(), w.end()))
      << where;
}

// Bursts of events drawn mostly from `kinds` (a fifth from every kind,
// so some fall outside the matrix), separated by gaps that hit the window
// edges exactly: 0 (equal timestamps), window - 1, window, window + 1.
std::vector<ParsedEvent> bursty_stream(std::uint64_t seed, std::span<const ErrorKind> kinds,
                                       stats::TimeSec window) {
  stats::Rng rng{seed};
  const stats::TimeSec edges[] = {
      0, 1, std::max<stats::TimeSec>(window - 1, 0), window, window + 1, 3 * window, 50000};
  std::vector<ParsedEvent> events;
  stats::TimeSec t = 1000;
  const std::size_t bursts = 20 + rng.below(40);
  for (std::size_t burst = 0; burst < bursts; ++burst) {
    const std::size_t size = 1 + rng.below(rng.bernoulli(0.2) ? 60 : 6);
    for (std::size_t e = 0; e < size; ++e) {
      const auto kind = rng.bernoulli(0.2)
                            ? static_cast<ErrorKind>(rng.below(xid::kErrorKindCount))
                            : kinds[rng.below(kinds.size())];
      events.push_back(ev(t, kind));
      t += rng.bernoulli(0.3) ? 0 : static_cast<stats::TimeSec>(rng.below(5));
    }
    t += edges[rng.below(std::size(edges))];
  }
  return events;
}

TEST(FollowMatrixOracle, MatchesWindowScanOnBurstyStreams) {
  const auto kinds = fig13_kinds();
  const std::span<const ErrorKind> matrix{kinds.data(), 8};  // the other four are outside
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const stats::TimeSec window : {0, 1, 60, 300}) {
      const auto events = bursty_stream(seed, kinds, window);
      const auto frame = EventFrame::build(events);
      for (const bool same : {true, false}) {
        const auto where = "seed " + std::to_string(seed) + " window " +
                           std::to_string(window) + (same ? " with same" : " cross only");
        expect_same_grid(
            follow_matrix(frame, matrix, static_cast<double>(window), same).fractions,
            window_scan(events, matrix, static_cast<double>(window), same), where);
      }
    }
  }
}

TEST(FollowMatrixOracle, MatchesWindowScanOnShuffledTimes) {
  // A binary load may hand the kernel an unsorted time column; the
  // kernel must still break exactly where the forward scan breaks.
  const auto kinds = fig13_kinds();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto events = bursty_stream(seed, kinds, 300);
    stats::Rng rng{seed + 1000};
    if (seed % 2 == 0) {
      for (std::size_t i = events.size(); i > 1; --i) {
        std::swap(events[i - 1], events[rng.below(i)]);
      }
    } else {
      // Mostly sorted: a few swapped row pairs.
      for (int k = 0; k < 10; ++k) {
        std::swap(events[rng.below(events.size())], events[rng.below(events.size())]);
      }
    }
    const auto frame = EventFrame::build(events);
    for (const bool same : {true, false}) {
      expect_same_grid(follow_matrix(frame, kinds, 300.0, same).fractions,
                       window_scan(events, kinds, 300.0, same),
                       "seed " + std::to_string(seed) + (same ? " with same" : " cross only"));
    }
  }
}

TEST(FollowMatrixOracle, EmptyStreamMatches) {
  const auto kinds = fig13_kinds();
  for (const bool same : {true, false}) {
    expect_same_grid(follow_matrix(EventFrame::build(std::span<const ParsedEvent>{}), kinds,
                                   300.0, same)
                         .fractions,
                     window_scan({}, kinds, 300.0, same), same ? "with same" : "cross only");
  }
}

TEST(FollowMatrixOracle, RegistryCrossOnlyIsZeroedDiagonal) {
  // The xid_matrix kernel computes one matrix and zeroes its diagonal for
  // the cross-only view; both must equal the scan's two matrices.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    study::StudyContext context;
    const auto kinds = context.profile->matrix_kinds;
    const auto events = bursty_stream(seed, kinds, 300);
    context.frame = frame_of(events);
    context.capabilities = study::kEvents;
    const std::vector<std::string> selection{"xid_matrix"};
    const auto report = study::AnalysisRegistry::standard().run(context, selection);
    const auto* result = report.find("xid_matrix");
    ASSERT_NE(result, nullptr);
    for (const bool same : {true, false}) {
      const auto want = window_scan(events, kinds, 300.0, same);
      const auto& rows = result->json.at(same ? "fractions" : "fractions_cross_only").elements();
      ASSERT_EQ(rows.size(), want.rows());
      for (std::size_t r = 0; r < want.rows(); ++r) {
        const auto& cols = rows[r].elements();
        ASSERT_EQ(cols.size(), want.cols());
        for (std::size_t c = 0; c < want.cols(); ++c) {
          EXPECT_EQ(cols[c].as_double(), want.at(r, c))
              << "seed " << seed << " cell " << r << "," << c << (same ? "" : " cross only");
        }
      }
    }
  }
}

}  // namespace
}  // namespace titan::analysis
