// Runtime counterpart of titanlint's static capability cross-check.
//
// Registry kernels declare the StudyContext capabilities they read;
// titanlint proves the declaration against the kernel's source.  The
// frame guard closes the loop at runtime: while a FrameGuardScope is
// active on a thread, every EventFrame column accessor checks that its
// column group is in the scope's allowed mask, so a kernel that reaches a
// column its capability mask never declared trips the guard on the very
// first read -- before a wrong join can leak into a study report.
//
// The study layer installs one scope per kernel invocation (translating
// the registry capability mask into column bits); outside any scope
// everything is allowed, so ad-hoc frame users pay one thread-local test
// per accessor call and nothing else.  On violation the installed handler
// runs: the default prints the offending column and aborts (a debug
// assertion, not a recoverable error); tests install a recording handler.
#pragma once

namespace titan::analysis {

/// Column groups of an EventFrame, as guard bits.
enum FrameColumn : unsigned {
  /// time/node/kind/structure, the derived location/month columns and the
  /// per-kind CSR index -- present in every frame (capability kEvents).
  kColumnBase = 1U << 0,
  /// Ledger-joined card serials (capability kLedger).
  kColumnCards = 1U << 1,
  /// Job ids and root flags (ground-truth builds; capability kGroundTruth).
  kColumnJobs = 1U << 2,

  kColumnAll = kColumnBase | kColumnCards | kColumnJobs,
};

namespace frame_guard {

/// Thread-local allowed-column mask; ~0U (everything) outside any scope.
inline thread_local unsigned tl_allowed = ~0U;

/// Violation handler: receives the offending column bit and the active
/// mask.  Must be noexcept; a handler that returns lets the access
/// proceed (used by tests to record instead of die).
using Handler = void (*)(unsigned column, unsigned allowed) noexcept;

/// Install a handler, returning the previous one.  The default prints
/// the column name to stderr and aborts.
Handler set_handler(Handler handler) noexcept;

/// Human-readable name of a single column bit.
[[nodiscard]] const char* column_name(unsigned column) noexcept;

/// Out-of-line slow path: dispatch to the installed handler.
void violation(unsigned column) noexcept;

/// The accessor-side check: one thread-local load and a branch.
inline void check(unsigned column) noexcept {
  if ((tl_allowed & column) == 0U) violation(column);
}

}  // namespace frame_guard

/// RAII: restrict this thread's EventFrame column accesses to `allowed`
/// for the scope's lifetime.  Nests (inner scopes shadow, destructors
/// restore), and is what AnalysisRegistry::run wraps around each kernel.
class FrameGuardScope {
 public:
  explicit FrameGuardScope(unsigned allowed) noexcept
      : previous_{frame_guard::tl_allowed} {
    frame_guard::tl_allowed = allowed;
  }
  ~FrameGuardScope() { frame_guard::tl_allowed = previous_; }

  FrameGuardScope(const FrameGuardScope&) = delete;
  FrameGuardScope& operator=(const FrameGuardScope&) = delete;

 private:
  unsigned previous_;
};

}  // namespace titan::analysis
