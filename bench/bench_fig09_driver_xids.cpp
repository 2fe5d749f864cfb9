// Fig. 9: error frequency of XID 31, 32, 43, 44 (driver-dominated kinds),
// plus the paper's "<10 occurrences" facts for 32/38 and "never" for 42.
#include "bench/common.hpp"

#include "analysis/frequency.hpp"

int main() {
  using namespace titan;
  const auto& study = bench::full_study();
  const auto& frame = bench::full_frame();
  const auto& period = study.config.period;

  bench::print_header("Fig. 9 -- Driver-related XID frequency (31, 32, 43, 44)");
  const auto count_kind = [&](xid::ErrorKind kind) {
    return static_cast<std::uint64_t>(frame.count_of(kind));
  };
  struct Row {
    xid::ErrorKind kind;
    const char* label;
  };
  const std::vector<Row> rows{{xid::ErrorKind::kMemoryPageFault, "XID 31 (page fault)"},
                              {xid::ErrorKind::kCorruptedPushBuffer, "XID 32 (push buffer)"},
                              {xid::ErrorKind::kGpuStoppedProcessing, "XID 43 (GPU stopped)"},
                              {xid::ErrorKind::kCtxSwitchFault, "XID 44 (ctx switch)"},
                              {xid::ErrorKind::kDriverFirmware, "XID 38 (firmware)"},
                              {xid::ErrorKind::kVideoProcessorDriver, "XID 42 (video proc)"}};
  std::vector<std::string> labels;
  std::vector<std::uint64_t> counts;
  for (const auto& row : rows) {
    labels.emplace_back(row.label);
    counts.push_back(count_kind(row.kind));
  }
  bench::print_block(render::bar_chart(labels, counts));

  const auto xid32 = count_kind(xid::ErrorKind::kCorruptedPushBuffer);
  const auto xid38 = count_kind(xid::ErrorKind::kDriverFirmware);
  const auto xid42 = count_kind(xid::ErrorKind::kVideoProcessorDriver);
  const auto xid43 = count_kind(xid::ErrorKind::kGpuStoppedProcessing);
  const auto xid44 = count_kind(xid::ErrorKind::kCtxSwitchFault);
  bench::print_row("XID 32 total", "< 10", std::to_string(xid32));
  bench::print_row("XID 38 total", "< 10", std::to_string(xid38));
  bench::print_row("XID 42 total", "0 (never observed)", std::to_string(xid42));

  const double d43 = analysis::daily_dispersion_index(
      frame, xid::ErrorKind::kGpuStoppedProcessing, period.begin, period.end);
  bench::print_row("XID 43 daily dispersion index", "not bursty (near Poisson)",
                   render::fmt_double(d43, 2));

  bool ok = true;
  ok &= bench::check("XID 32 occurred fewer than 10 times",
                     xid32 < static_cast<std::uint64_t>(analysis::paper::kXid32AtMost));
  ok &= bench::check("XID 38 occurred fewer than 10 times",
                     xid38 < static_cast<std::uint64_t>(analysis::paper::kXid38AtMost));
  ok &= bench::check("XID 42 never occurred", xid42 == 0);
  ok &= bench::check("XID 43/44 are the frequent driver errors",
                     xid43 > xid32 * 5 && xid44 > xid32 * 3);
  return ok ? 0 : 1;
}
