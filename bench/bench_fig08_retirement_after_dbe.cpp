// Fig. 8: occurrence of ECC page retirement following a DBE.
//
// Paper: 18 retirements within 10 minutes of a DBE (the driver's fast
// path), 1 between 10 minutes and 6 hours, 18 beyond (the two-SBE
// same-page path), and 17 successive-DBE pairs with no retirement logged
// between them.
#include "bench/common.hpp"

#include "analysis/retirement_study.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();

  bench::print_header("Fig. 8 -- ECC page retirement delay since the last DBE");
  const auto result = analysis::retirement_delay_study(
      frame, study.config.campaign.timeline.new_driver);

  const std::vector<std::string> labels{"<= 10 min", "10 min .. 6 h", "> 6 h"};
  const std::vector<std::uint64_t> counts{result.within_10min, result.min10_to_6h,
                                          result.beyond_6h};
  bench::print_block(render::bar_chart(labels, counts));

  bench::print_row("retirements within 10 min of a DBE",
                   std::to_string(analysis::paper::kRetirementsWithin10Min),
                   std::to_string(result.within_10min));
  bench::print_row("retirements in (10 min, 6 h]",
                   std::to_string(analysis::paper::kRetirements10MinTo6h),
                   std::to_string(result.min10_to_6h));
  bench::print_row("retirements beyond 6 h (two-SBE path)",
                   std::to_string(analysis::paper::kRetirementsBeyond6h),
                   std::to_string(result.beyond_6h));
  bench::print_row("successive DBE pairs w/o retirement between",
                   std::to_string(analysis::paper::kDbePairsWithoutRetirement),
                   std::to_string(result.dbe_pairs_without_retirement));

  bool ok = true;
  ok &= bench::check("bimodal shape: fast bucket and slow bucket both populated",
                     result.within_10min >= 5 && result.beyond_6h >= 5);
  ok &= bench::check("the middle bucket is nearly empty (fast/slow separation)",
                     result.min10_to_6h <= result.within_10min / 2 + 2);
  ok &= bench::check("many DBE pairs lack a logged retirement (the paper's puzzle)",
                     result.dbe_pairs_without_retirement >= 5);
  return ok ? 0 : 1;
}
