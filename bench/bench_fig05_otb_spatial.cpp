// Fig. 5: spatial distribution of Off-the-bus errors; thermal sensitivity
// and the all-vs-unique-card near-equality (OTBs do not repeat per card).
#include "bench/common.hpp"

#include "analysis/spatial.hpp"

int main() {
  using namespace titan;
  const auto& frame = bench::full_frame();

  bench::print_header("Fig. 5 -- Spatial distribution of Off the bus errors");
  const auto grid = analysis::cabinet_heatmap(frame, xid::ErrorKind::kOffTheBus);
  bench::print_block(render::heatmap(grid));
  std::printf("  total: %.0f OTB events, fairly distributed across the machine\n",
              grid.total());

  bench::print_header("Fig. 5 (cage view) -- OTB by cage position");
  const auto cages = analysis::cage_distribution(frame, xid::ErrorKind::kOffTheBus);
  const std::vector<std::string> labels{"cage 0 (bottom)", "cage 1", "cage 2 (top)"};
  bench::print_block(render::bar_chart(
      labels, std::vector<std::uint64_t>(cages.event_counts.begin(), cages.event_counts.end())));

  std::uint64_t all_events = cages.total_events();
  std::uint64_t unique_cards =
      cages.distinct_cards[0] + cages.distinct_cards[1] + cages.distinct_cards[2];
  bench::print_row("all occurrences vs unique cards", "small difference (no repeats per card)",
                   std::to_string(all_events) + " vs " + std::to_string(unique_cards));
  bench::print_row("top/bottom cage ratio", "strong thermal sensitivity (> 1)",
                   render::fmt_double(cages.top_to_bottom_ratio(), 2));

  bool ok = true;
  ok &= bench::check("upper cages see more OTBs (ratio >= 1.15)",
                     cages.top_to_bottom_ratio() >= analysis::paper::kCageRatioAtLeast);
  ok &= bench::check("all ~= unique (repeat rate < 10%)",
                     all_events - unique_cards <= all_events / 10);
  ok &= bench::check("errors spread over many cabinets (> 30 nonzero cells)", [&] {
    int nonzero = 0;
    for (const double v : grid.data()) {
      if (v > 0.0) ++nonzero;
    }
    return nonzero > 30;
  }());
  return ok ? 0 : 1;
}
