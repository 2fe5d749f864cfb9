// Observation 2: cross-validation of console logs against nvidia-smi --
// the InfoROM loses DBEs when nodes die fast, and some cards show the
// logically inconsistent "more DBEs than SBEs".
#include "bench/common.hpp"

#include "analysis/reliability_report.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();

  bench::print_header("Observation 2 -- nvidia-smi vs console log DBE accounting");
  const auto cmp = analysis::smi_console_comparison(frame, study.final_snapshot);
  bench::print_row("console log DBE count", "reference (authoritative)",
                   std::to_string(cmp.console_dbe_count));
  bench::print_row("nvidia-smi (InfoROM) DBE count", "fewer than the console logs",
                   std::to_string(cmp.smi_dbe_count) + " (" +
                       render::fmt_percent(cmp.smi_undercount_fraction()) + " lost)");
  bench::print_row("cards with more DBEs than SBEs",
                   "exists (logging inconsistency)",
                   std::to_string(cmp.cards_dbe_exceeds_sbe) + " of " +
                       std::to_string(cmp.cards_with_dbe) + " DBE cards");

  bool ok = true;
  ok &= bench::check("nvidia-smi undercounts DBEs vs console",
                     cmp.smi_dbe_count < cmp.console_dbe_count);
  ok &= bench::check("the loss is partial, not total",
                     cmp.smi_dbe_count > cmp.console_dbe_count / 3);
  ok &= bench::check("DBE > SBE inversion cards exist", cmp.cards_dbe_exceeds_sbe > 0);
  return ok ? 0 : 1;
}
