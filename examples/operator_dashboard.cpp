// Operator dashboard: the OLCF operations workflow over a simulated
// campaign -- SEC alerting on the live console stream, the hot-spare card
// workflow, the node-health policy replayed over the study's EventFrame,
// and a sweep of the DBE pull threshold (with the paper's caveat that
// quantifying avoided errors is hard).
//
//   ./build/examples/operator_dashboard [seed]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "logsim/console.hpp"
#include "ops/health.hpp"
#include "parse/sec.hpp"
#include "render/ascii.hpp"
#include "study/source.hpp"

int main(int argc, char** argv) {
  using namespace titan;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;
  const auto context = study::SimulatedSource{core::quick_config(seed)}.load();
  const auto& truth = *context.truth;

  std::printf("=== SEC alert feed (operator pages) ===\n");
  parse::SimpleEventCorrelator sec{parse::default_gpu_rules()};
  const auto alerts = sec.process(logsim::emit_console_log(truth.events, *context.profile));
  std::map<std::string, int> by_rule;
  for (const auto& a : alerts) ++by_rule[a.rule];
  for (const auto& [rule, count] : by_rule) {
    std::printf("  %-22s %6d alerts\n", rule.c_str(), count);
  }
  std::printf("\n  sample pages:\n");
  int shown = 0;
  for (const auto& a : alerts) {
    if (a.rule.rfind("page-", 0) != 0) continue;
    std::printf("    [%s] %s (x%d in window)\n", a.rule.c_str(),
                stats::format_timestamp(a.time).c_str(), a.match_count);
    if (++shown == 5) break;
  }

  std::printf("\n=== Hot-spare workflow (threshold = %llu DBEs) ===\n",
              static_cast<unsigned long long>(fault::kHotSparePullThreshold));
  std::size_t rma = 0;
  for (const auto& action : truth.hot_spare_actions) {
    std::printf("  %s  card %6d pulled from %-12s -> %s\n",
                stats::format_timestamp(action.pulled_at).c_str(), action.card,
                topology::cname(action.node).c_str(),
                action.failed_stress ? "failed stress test, RMA'd to vendor"
                                     : "passed stress test, returned to shelf");
    if (action.failed_stress) ++rma;
  }
  std::printf("  pulled: %zu   RMA'd: %zu\n", truth.hot_spare_actions.size(), rma);

  std::printf("\n=== Node-health policy replay (frame stream) ===\n");
  {
    ops::NodeHealthMonitor monitor;
    ops::replay_frame(monitor, context.frame);
    std::size_t takedowns = 0;
    for (const auto& a : monitor.log()) {
      if (a.kind == ops::ActionKind::kTakeDown) ++takedowns;
    }
    std::printf("  hardware take-downs: %zu   diagnostics suspects: %zu\n", takedowns,
                monitor.suspects().size());
    for (const auto node : monitor.suspects()) {
      std::printf("    suspect %-12s%s\n", topology::cname(node).c_str(),
                  node == truth.bad_node ? "  <-- the planted hardware-faulty node" : "");
    }
  }

  std::printf("\n=== Pull-threshold sweep (what-if) ===\n");
  std::printf("  threshold | cards pulled | later DBEs on those cards (avoided if pulled at 1)\n");
  // Per-card DBE times straight off the frame's card column.
  std::map<xid::CardId, std::size_t> dbe_counts;
  const auto cards = context.frame.cards();
  for (const auto row : context.frame.rows_of(xid::ErrorKind::kDoubleBitError)) {
    ++dbe_counts[cards[row]];
  }
  for (std::size_t threshold = 1; threshold <= 3; ++threshold) {
    std::size_t pulled = 0;
    std::size_t avoided = 0;
    for (const auto& [card, count] : dbe_counts) {
      if (count >= threshold) {
        ++pulled;
        avoided += count - threshold;
      }
    }
    std::printf("  %9zu | %12zu | %zu\n", threshold, pulled, avoided);
  }
  std::printf("  (Paper: \"accurately quantifying the impact of such replacement is often\n"
              "   very hard, since it is difficult to predict how many errors would have\n"
              "   been avoided\" -- the sweep above counts only *observed* repeats.)\n");
  return 0;
}
