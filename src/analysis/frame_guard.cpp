#include "analysis/frame_guard.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace titan::analysis::frame_guard {

namespace {

void default_handler(unsigned column, unsigned allowed) noexcept {
  std::fprintf(stderr,
               "titanrel: frame guard violation: kernel read EventFrame column group "
               "'%s' but its capability mask allows 0x%x -- fix the registry "
               "declaration (titanlint's cap-undeclared rule catches this statically)\n",
               column_name(column), allowed);
  std::abort();
}

std::atomic<Handler> g_handler{&default_handler};

}  // namespace

Handler set_handler(Handler handler) noexcept {
  return g_handler.exchange(handler == nullptr ? &default_handler : handler);
}

const char* column_name(unsigned column) noexcept {
  switch (column) {
    case kColumnBase:
      return "base";
    case kColumnCards:
      return "cards";
    case kColumnJobs:
      return "jobs";
    default:
      return "?";
  }
}

void violation(unsigned column) noexcept {
  g_handler.load()(column, tl_allowed);
}

}  // namespace titan::analysis::frame_guard
