// Fig. 13: temporal re-occurrence relationship between XID kinds within a
// 300 s window -- with and without same-type pairs (Observation 9) --
// plus a window ablation.
#include "bench/common.hpp"

#include <algorithm>

#include "analysis/xid_matrix.hpp"

int main() {
  using namespace titan;
  using xid::ErrorKind;
  const auto& frame = bench::full_frame();
  const auto kinds = analysis::fig13_kinds();

  bench::print_header("Fig. 13 (top) -- P(following within 300 s), same-type included");
  const auto with_same = analysis::follow_matrix(frame, kinds, 300.0, true);
  bench::print_block(render::labeled_heatmap(with_same.fractions, with_same.labels(),
                                             with_same.labels()));

  bench::print_header("Fig. 13 (bottom) -- same-type pairs excluded");
  const auto no_same = analysis::follow_matrix(frame, kinds, 300.0, false);
  bench::print_block(render::labeled_heatmap(no_same.fractions, no_same.labels(),
                                             no_same.labels()));

  bench::print_row("DBE (48) followed by XID 45", "likely",
                   render::fmt_percent(no_same.at(ErrorKind::kDoubleBitError,
                                                  ErrorKind::kPreemptiveCleanup)));
  bench::print_row("DBE (48) followed by XID 63", "likely",
                   render::fmt_percent(no_same.at(ErrorKind::kDoubleBitError,
                                                  ErrorKind::kPageRetirement)));
  bench::print_row("XID 13 followed by XID 43", "likely",
                   render::fmt_percent(no_same.at(ErrorKind::kGraphicsEngineException,
                                                  ErrorKind::kGpuStoppedProcessing)));
  bench::print_row("XID 13 diagonal (same-type repeats)", "high (job-wide fan-out)",
                   render::fmt_percent(with_same.at(ErrorKind::kGraphicsEngineException,
                                                    ErrorKind::kGraphicsEngineException)));

  const auto isolated = analysis::isolated_kinds(with_same, 0.02);
  std::string isolated_names;
  for (const auto k : isolated) {
    if (!isolated_names.empty()) isolated_names += ", ";
    isolated_names += xid::token(k);
  }
  bench::print_row("isolated kinds (empty diagonal)", "OTB, XID 38, XID 48, XID 63",
                   isolated_names);

  bench::print_header("Ablation -- DBE->45 following probability vs window");
  for (const double w : {1.0, 5.0, 60.0, 300.0}) {
    const auto m = analysis::follow_matrix(frame, kinds, w, false);
    std::printf("  window %5.0f s: %s\n", w,
                render::fmt_percent(
                    m.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup))
                    .c_str());
  }

  const auto contains = [&](ErrorKind k) {
    return std::find(isolated.begin(), isolated.end(), k) != isolated.end();
  };
  bool ok = true;
  ok &= bench::check("DBE -> 45 within 300 s is likely (>= 30%)",
                     no_same.at(ErrorKind::kDoubleBitError, ErrorKind::kPreemptiveCleanup) >=
                         0.30);
  ok &= bench::check("13 -> 43 within 300 s is likely (>= 25%)",
                     no_same.at(ErrorKind::kGraphicsEngineException,
                                ErrorKind::kGpuStoppedProcessing) >= 0.25);
  ok &= bench::check("XID 13 diagonal is high (>= 50%)",
                     with_same.at(ErrorKind::kGraphicsEngineException,
                                  ErrorKind::kGraphicsEngineException) >= 0.50);
  ok &= bench::check("OTB / 38 / 48 / 63 are isolated",
                     contains(ErrorKind::kOffTheBus) && contains(ErrorKind::kDriverFirmware) &&
                         contains(ErrorKind::kDoubleBitError) &&
                         contains(ErrorKind::kPageRetirement));
  return ok ? 0 : 1;
}
