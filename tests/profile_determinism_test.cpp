// Per-profile determinism sweep: for every built-in fleet profile, the
// full registry report must be byte-identical at any titan::par width.
// The k20x-titan case extends the pre-profile determinism guarantee; the
// a100/h100 cases prove the new fault streams (NVLink, SDC, row
// remapping) and the roster-scaled fleet keep the same property.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "par/pool.hpp"
#include "study/registry.hpp"
#include "study/source.hpp"

namespace titan {
namespace profile {

// Print a profile parameter by its name, not its address, so the listed
// test names (and the CTest names built from them) are stable across runs.
void PrintTo(const FleetProfile* fleet, std::ostream* os) { *os << fleet->name; }

}  // namespace profile

namespace {

constexpr std::uint64_t kSeed = 29;

class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::size_t threads) : saved_{par::thread_count()} {
    par::set_threads(threads);
  }
  ~ThreadsGuard() { par::set_threads(saved_); }
  ThreadsGuard(const ThreadsGuard&) = delete;
  ThreadsGuard& operator=(const ThreadsGuard&) = delete;

 private:
  std::size_t saved_;
};

struct ReportBytes {
  std::string text;
  std::string json;
};

ReportBytes run_under(const profile::FleetProfile& fleet, std::size_t threads) {
  const ThreadsGuard guard{threads};
  const auto context = study::SimulatedSource{core::quick_config(kSeed, fleet)}.load();
  const auto report = study::AnalysisRegistry::standard().run_all(context);
  return {report.text(), report.json()};
}

class ProfileDeterminism : public testing::TestWithParam<const profile::FleetProfile*> {};

TEST_P(ProfileDeterminism, ReportBytesAreWidthInvariant) {
  const auto& fleet = *GetParam();
  const auto serial = run_under(fleet, 1);
  const auto wide = run_under(fleet, 4);
  EXPECT_EQ(serial.text, wide.text);
  EXPECT_EQ(serial.json, wide.json);
  EXPECT_FALSE(serial.text.empty());
}

TEST_P(ProfileDeterminism, RerunsAreByteIdentical) {
  const auto& fleet = *GetParam();
  const auto first = run_under(fleet, 2);
  const auto second = run_under(fleet, 2);
  EXPECT_EQ(first.text, second.text);
  EXPECT_EQ(first.json, second.json);
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, ProfileDeterminism,
                         testing::ValuesIn(profile::builtin_profiles().begin(),
                                           profile::builtin_profiles().end()));

}  // namespace
}  // namespace titan
