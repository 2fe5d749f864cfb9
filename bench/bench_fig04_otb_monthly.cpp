// Fig. 4: monthly frequency of Off-the-bus errors -- the 2013 solder
// epidemic and its resolution (Observation 4).
#include "bench/common.hpp"

#include "analysis/frequency.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  bench::print_header("Fig. 4 -- Monthly frequency of Off the bus errors");
  const auto series =
      analysis::monthly_frequency(frame, xid::ErrorKind::kOffTheBus, period.begin, period.end);
  bench::print_block(render::bar_chart(series.labels(), series.counts));

  const auto fix = study.config.campaign.timeline.solder_fix;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for (std::size_t m = 0; m < series.counts.size(); ++m) {
    const auto month_begin = stats::month_start(period.begin, static_cast<int>(m));
    (month_begin < fix ? before : after) += series.counts[m];
  }
  bench::print_row("OTB before Dec'13 rework", "dominant, clustered",
                   std::to_string(before) + " events");
  bench::print_row("OTB after rework", "almost negligible", std::to_string(after) + " events");

  bool ok = true;
  ok &= bench::check("epidemic happened (>= 40 events pre-fix)", before >= 40);
  ok &= bench::check("post-fix share <= 25% of total",
                     static_cast<double>(after) / static_cast<double>(before + after) <=
                         analysis::paper::kOtbPostFixShareAtMost);
  ok &= bench::check("epidemic ramps up toward the rework (last pre-fix month >= first)",
                     series.counts[5] >= series.counts[0]);
  return ok ? 0 : 1;
}
