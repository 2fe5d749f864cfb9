// Fig. 7: spatial and cage distribution of ECC page retirement errors.
#include "bench/common.hpp"

#include "analysis/spatial.hpp"

int main() {
  using namespace titan;
  const auto& frame = bench::full_frame();

  bench::print_header("Fig. 7 -- Spatial distribution of ECC page retirement errors");
  const auto grid = analysis::cabinet_heatmap(frame, xid::ErrorKind::kPageRetirement);
  bench::print_block(render::heatmap(grid));
  std::printf("  total: %.0f retirement events; non-uniform (rare-event statistics)\n",
              grid.total());

  bench::print_header("Fig. 7 (cage view) -- retirements by cage position");
  const auto cages = analysis::cage_distribution(frame, xid::ErrorKind::kPageRetirement);
  const std::vector<std::string> labels{"cage 0 (bottom)", "cage 1", "cage 2 (top)"};
  bench::print_block(render::bar_chart(
      labels, std::vector<std::uint64_t>(cages.event_counts.begin(), cages.event_counts.end())));
  bench::print_row("cage trend", "cards in upper cages slightly more likely",
                   "top/bottom = " + render::fmt_double(cages.top_to_bottom_ratio(), 2));

  bool ok = true;
  ok &= bench::check("retirements exist", grid.total() > 0);
  ok &= bench::check("upper cages at least match lower cages",
                     cages.event_counts[2] + cages.event_counts[1] >= cages.event_counts[0]);
  ok &= bench::check("spatial distribution non-uniform (CoV > 1)",
                     grid.coefficient_of_variation() > 1.0);
  return ok ? 0 : 1;
}
