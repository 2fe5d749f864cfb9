// tdf::encode_tdf against its byte-append oracle (tdf_encoder_oracle.hpp):
// byte-identical containers over randomized datasets, the edge cases of
// every segment, and a simulated study's container, at pool widths 1, 2
// and 4 (the segments are encoded side by side on the pool).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/facility.hpp"
#include "logsim/joblog.hpp"
#include "logsim/smi_text.hpp"
#include "par/pool.hpp"
#include "stats/rng.hpp"
#include "tdf/tdf.hpp"
#include "tdf_encoder_oracle.hpp"
#include "topology/machine.hpp"

namespace titan {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr xid::UserId kMinUser = std::numeric_limits<xid::UserId>::min();
constexpr xid::UserId kMaxUser = std::numeric_limits<xid::UserId>::max();

class EncoderOracle : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { par::set_threads(GetParam()); }
  void TearDown() override { par::set_threads(par::default_thread_count()); }
};

void expect_oracle_bytes(const tdf::TdfDataset& data, const std::string& what) {
  const std::string expected = tdf::oracle::encode_tdf(data);
  const std::string got = tdf::encode_tdf(data);
  ASSERT_EQ(got.size(), expected.size()) << what;
  if (got == expected) return;
  std::size_t at = 0;
  while (got[at] == expected[at]) ++at;
  FAIL() << what << ": first differing byte at offset " << at << " of " << got.size();
}

void add_event(tdf::TdfDataset& data, stats::TimeSec time, topology::NodeId node,
               xid::ErrorKind kind = xid::ErrorKind::kDoubleBitError,
               xid::MemoryStructure structure = xid::MemoryStructure::kDeviceMemory) {
  data.times.push_back(time);
  data.nodes.push_back(node);
  data.kinds.push_back(kind);
  data.structures.push_back(structure);
}

logsim::JobLogRecord job(xid::JobId id, xid::UserId user, double value = 1.5) {
  logsim::JobLogRecord rec;
  rec.id = id;
  rec.user = user;
  rec.start = 1000 + id;
  rec.end = 5000 + 2 * id;
  rec.node_count = static_cast<std::size_t>(id % 300);
  rec.gpu_core_hours = value;
  rec.max_memory_gb = -value;
  rec.total_memory_gb = value * 3.0;
  return rec;
}

/// A dataset of random shape: events with unsorted times (negative
/// deltas), nodes over the whole slot range, jobs whose users come from a
/// small pool or the whole int32 range, smi records with any counters,
/// and doubles drawn as raw bit patterns (NaNs, infinities, denormals).
tdf::TdfDataset random_dataset(std::uint64_t seed) {
  stats::Rng rng{seed};
  const auto below = [&](std::uint64_t n) { return n == 0 ? 0 : rng() % n; };
  const auto any_double = [&] {
    return rng.bernoulli(0.5) ? rng.uniform(0.0, 1e6) : std::bit_cast<double>(rng());
  };
  tdf::TdfDataset data;
  data.period_begin = static_cast<stats::TimeSec>(below(1ULL << 40)) - (1LL << 39);
  data.period_end = data.period_begin + static_cast<stats::TimeSec>(below(1ULL << 30));
  data.accounting_from = data.period_begin + static_cast<stats::TimeSec>(below(1000));
  if (rng.bernoulli(0.7)) {
    data.profile_name = std::string(below(40), static_cast<char>('a' + below(26)));
    data.profile_hash = rng();
  }

  const std::size_t events = below(4) == 0 ? below(3) : below(6000);
  stats::TimeSec t = data.period_begin;
  const bool sorted = rng.bernoulli(0.5);
  for (std::size_t i = 0; i < events; ++i) {
    t = sorted ? t + static_cast<stats::TimeSec>(below(5000))
               : data.period_begin + static_cast<stats::TimeSec>(below(1ULL << 32)) -
                     (1LL << 31);
    add_event(data, t, static_cast<topology::NodeId>(below(topology::kNodeSlots)),
              static_cast<xid::ErrorKind>(below(xid::kErrorKindCount)),
              static_cast<xid::MemoryStructure>(below(xid::kMemoryStructureCount)));
  }

  data.has_jobs = rng.bernoulli(0.8);
  if (data.has_jobs) {
    const std::size_t jobs = below(3000);
    const bool wide_users = rng.bernoulli(0.3);
    xid::JobId id = static_cast<xid::JobId>(below(1ULL << 20));
    for (std::size_t i = 0; i < jobs; ++i) {
      id += static_cast<xid::JobId>(below(100)) - 10;
      const auto user = wide_users ? static_cast<xid::UserId>(static_cast<std::uint32_t>(rng()))
                                   : static_cast<xid::UserId>(below(400));
      auto rec = job(id, user, any_double());
      rec.start = data.period_begin + static_cast<stats::TimeSec>(below(1ULL << 28));
      rec.end = rec.start + static_cast<stats::TimeSec>(below(1ULL << 20)) - 100;
      rec.node_count = static_cast<std::size_t>(below(1ULL << 15));
      rec.max_memory_gb = any_double();
      rec.total_memory_gb = any_double();
      data.jobs.push_back(rec);
    }
  }

  data.has_smi = rng.bernoulli(0.8);
  if (data.has_smi) {
    data.snapshot.taken_at = data.period_end;
    const std::size_t records = below(500);
    for (std::size_t i = 0; i < records; ++i) {
      logsim::SmiCardRecord rec;
      rec.node = static_cast<topology::NodeId>(below(topology::kNodeSlots));
      rec.serial = static_cast<xid::CardId>(static_cast<std::uint32_t>(rng()));
      for (auto* counter : {&rec.sbe_total, &rec.dbe_total, &rec.sbe_volatile,
                            &rec.dbe_volatile, &rec.retired_pages_sbe,
                            &rec.retired_pages_dbe}) {
        *counter = rng.bernoulli(0.5) ? below(100) : rng();
      }
      rec.temperature_f = any_double();
      data.snapshot.records.push_back(rec);
    }
  }
  return data;
}

TEST_P(EncoderOracle, RandomDatasetsMatchByteForByte) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    expect_oracle_bytes(random_dataset(seed), "seed " + std::to_string(seed));
  }
}

TEST_P(EncoderOracle, EmptyAndSingleEventStreams) {
  tdf::TdfDataset empty;
  expect_oracle_bytes(empty, "empty, no side artifacts");
  empty.has_jobs = true;
  empty.has_smi = true;
  expect_oracle_bytes(empty, "empty, empty side artifacts");

  tdf::TdfDataset single;
  single.period_begin = 10;
  single.period_end = 20;
  add_event(single, 15, 7);
  expect_oracle_bytes(single, "single event");
}

TEST_P(EncoderOracle, NegativeTimeDeltas) {
  tdf::TdfDataset data;
  for (const stats::TimeSec t : {500LL, 100LL, -7LL, -7LL, 1LL << 40, -(1LL << 40), 0LL}) {
    add_event(data, t, 3);
  }
  expect_oracle_bytes(data, "negative deltas");
}

TEST_P(EncoderOracle, JobTablesOfZeroJobsOneUserAndExtremeUsers) {
  tdf::TdfDataset data;
  add_event(data, 1, 1);
  data.has_jobs = true;
  expect_oracle_bytes(data, "has_jobs, zero jobs");

  for (xid::JobId id = 1; id <= 50; ++id) data.jobs.push_back(job(id, 42));
  expect_oracle_bytes(data, "one user");

  data.jobs.clear();
  const xid::UserId users[] = {kMaxUser, kMinUser, 0, -1, kMinUser + 1, kMaxUser - 1, kMinUser};
  xid::JobId id = 100;
  for (const auto user : users) data.jobs.push_back(job(id--, user));
  expect_oracle_bytes(data, "users at INT32_MIN and INT32_MAX");

  // Enough distinct users to grow the dictionary's hash several times.
  data.jobs.clear();
  for (xid::JobId j = 0; j < 20000; ++j) {
    data.jobs.push_back(job(j, static_cast<xid::UserId>((j * 2654435761LL) % 9000 - 4500)));
  }
  expect_oracle_bytes(data, "9000 distinct users");
}

TEST_P(EncoderOracle, NonFiniteDoubles) {
  tdf::TdfDataset data;
  data.has_jobs = true;
  data.has_smi = true;
  xid::JobId id = 0;
  for (const double value : {kNaN, -kNaN, kInf, -kInf, -0.0, 0.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()}) {
    data.jobs.push_back(job(++id, 9, value));
    logsim::SmiCardRecord rec;
    rec.node = static_cast<topology::NodeId>(id);
    rec.serial = static_cast<xid::CardId>(id);
    rec.temperature_f = value;
    data.snapshot.records.push_back(rec);
  }
  expect_oracle_bytes(data, "NaN and infinities");
}

TEST_P(EncoderOracle, LowestAndHighestNodeSlots) {
  tdf::TdfDataset data;
  add_event(data, 1, topology::kNodeSlots - 1);
  add_event(data, 2, 0);
  add_event(data, 3, topology::kNodeSlots - 1);
  data.has_smi = true;
  logsim::SmiCardRecord rec;
  rec.node = 0;
  data.snapshot.records.push_back(rec);
  rec.node = topology::kNodeSlots - 1;
  data.snapshot.records.push_back(rec);
  expect_oracle_bytes(data, "nodes 0 and kNodeSlots - 1");
}

TEST_P(EncoderOracle, MetaWithAndWithoutProfile) {
  tdf::TdfDataset data;
  add_event(data, 5, 5);
  expect_oracle_bytes(data, "no profile");
  data.profile_name = "k20x-titan";
  data.profile_hash = 0xfeedfacecafebeefULL;
  expect_oracle_bytes(data, "profile");
}

TEST_P(EncoderOracle, SimulatedStudyContainer) {
  const auto study = core::run_study(core::quick_config(7));
  tdf::TdfDataset data;
  data.period_begin = study.config.period.begin;
  data.period_end = study.config.period.end;
  data.profile_name = "k20x-titan";
  for (const auto& event : study.events) {
    add_event(data, event.time, event.node, event.kind, event.structure);
  }
  data.has_jobs = true;
  for (const auto& j : study.trace.jobs()) {
    data.jobs.push_back(logsim::quantized(logsim::job_log_record(j)));
  }
  data.has_smi = true;
  data.snapshot = logsim::quantized(study.final_snapshot);
  ASSERT_GT(data.event_count(), 1000U);
  ASSERT_GT(data.jobs.size(), 1000U);
  expect_oracle_bytes(data, "quick_config(7)");
}

std::string width_name(const ::testing::TestParamInfo<std::size_t>& width) {
  return "Threads" + std::to_string(width.param);
}

INSTANTIATE_TEST_SUITE_P(Widths, EncoderOracle,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4}),
                         width_name);

}  // namespace
}  // namespace titan
