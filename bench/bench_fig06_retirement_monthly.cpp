// Fig. 6: monthly frequency of ECC page retirement errors -- a new XID
// that only exists from Jan'2014 (Observation 5).
#include "bench/common.hpp"

#include "analysis/frequency.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  bench::print_header("Fig. 6 -- Monthly frequency of ECC page retirement errors");
  const auto series = analysis::monthly_frequency(frame, xid::ErrorKind::kPageRetirement,
                                                  period.begin, period.end);
  bench::print_block(render::bar_chart(series.labels(), series.counts));
  std::printf("  total retirements logged: %llu\n",
              static_cast<unsigned long long>(series.total()));

  const auto new_driver = study.config.campaign.timeline.new_driver;
  std::uint64_t before = 0;
  for (std::size_t m = 0; m < series.counts.size(); ++m) {
    if (stats::month_start(period.begin, static_cast<int>(m)) < new_driver) {
      before += series.counts[m];
    }
  }
  bench::print_row("retirements before Jan'14", "0 (XID did not exist)",
                   std::to_string(before));
  bench::print_row("retirements after Jan'14", "a few per month",
                   std::to_string(series.total() - before));

  bool ok = true;
  ok &= bench::check("zero retirement events before the new driver", before == 0);
  ok &= bench::check("retirements occur after Jan'14", series.total() > 10);
  ok &= bench::check("rate is a few per month (not hundreds)",
                     series.total() < 200);
  return ok ? 0 : 1;
}
