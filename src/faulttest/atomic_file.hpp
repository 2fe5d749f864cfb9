// The one POSIX atomic-write primitive for durable dataset artifacts:
// write `path.tmp`, fsync, rename over `path`.  study::io's atomic
// writers (every dataset artifact, TDF containers included) and the study
// checkpoint both reach it, so the crash-consistency kill points
// instrument every durable write in the tree through a single code path.
//
// Kill-point stages (see faulttest.hpp), in protocol order:
//   io/atomic/pre-tmp      nothing written yet (clean abort)
//   io/atomic/post-tmp     tmp populated but not yet durable
//   io/atomic/pre-rename   tmp durable, destination still old/absent
//   io/atomic/post-rename  destination committed
//
// Failure semantics: on an ordinary error (open/write/fsync/rename) the
// tmp file is best-effort unlinked and std::runtime_error thrown.  A
// KillPointError is the simulated power pull: it propagates WITHOUT
// cleanup, deliberately leaving the half-state (orphan tmp, missing
// destination) on disk for the loader/fsck to detect.
#pragma once

#include <filesystem>
#include <string_view>

namespace titan::faulttest {

/// Atomically replace `path` with `bytes` (tmp + fsync + rename).
/// `what` prefixes error messages ("atomic_write_text", "study.ckpt", ...).
void atomic_write_file(const std::filesystem::path& path, std::string_view bytes,
                       std::string_view what = "atomic_write");

}  // namespace titan::faulttest
