// Shared harness for the figure/table reproduction benches.
//
// Each bench binary regenerates one paper table or figure from a full
// simulated campaign (fixed seed), prints the series/heatmap, and prints
// "paper: / measured:" comparison rows.  Absolute counts are not expected
// to match (the substrate is a simulator); the *shape* criteria are.
#pragma once

#include <cstdio>
#include <span>
#include <string>

#include "analysis/event_frame.hpp"
#include "analysis/paper_expectations.hpp"
#include "core/facility.hpp"
#include "render/ascii.hpp"

namespace titan::bench {

/// The one full-campaign dataset every figure bench shares (built on
/// first use; seconds of work, reused across sections of one binary).
inline const core::StudyDataset& full_study() {
  static const core::StudyDataset data = [] {
    std::fprintf(stderr, "[titanrel] simulating Jun'13-Feb'15 campaign (seed %llu)...\n",
                 static_cast<unsigned long long>(core::default_config().seed));
    return core::run_study(core::default_config());
  }();
  return data;
}

/// The full study's console-recoverable event stream as a frame (SBEs
/// dropped), with the card join and the job/root attribution columns.
inline const analysis::EventFrame& full_frame() {
  static const analysis::EventFrame frame = analysis::EventFrame::build(
      std::span<const xid::Event>{full_study().events}, &full_study().fleet.ledger());
  return frame;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_block(const std::string& text) { std::fputs(text.c_str(), stdout); }

inline void print_row(const std::string& metric, const std::string& paper,
                      const std::string& measured) {
  print_block(render::comparison(metric, paper, measured));
}

/// Shape verdict line: benches print PASS/FAIL per acceptance criterion so
/// EXPERIMENTS.md can cite them directly.
inline bool check(const std::string& criterion, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", criterion.c_str());
  return ok;
}

/// The per-job nvidia-smi framework measurement window: the paper ran it
/// "for the period of over a month"; we use the final 45 days.
inline stats::TimeSec smi_window_begin() {
  return full_study().config.period.end - 45 * stats::kSecondsPerDay;
}

}  // namespace titan::bench
