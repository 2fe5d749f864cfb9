#!/usr/bin/env bash
# CI-style gate: one command that reproduces what the repo considers
# "green".  Stages:
#
#   1. configure + build with -DTITANREL_WERROR=ON (the strict
#      -Wall/-Wextra/-Wconversion/-Wsign-conversion wall, warnings fatal)
#   2. the full ctest suite -- unit/integration tests, the titanlint
#      rule-engine tests, and the titanlint_tree lint gate over the tree
#   3. an explicit titanlint run, so lint findings print even when ctest
#      output is folded away
#
# Optional stages:
#
#   --ubsan      add a second build under TITANREL_SANITIZE=undefined
#                (-fno-sanitize-recover=all) and run ctest under it
#   --tsan       add a build under TITANREL_SANITIZE=thread and run the
#                concurrency-bearing suites (titan::par pool, the workload
#                and JobTrace index, the allocator's shared node order, the
#                fault campaign's pool workers reading shared job node
#                lists, the study pipeline, the sharded out-of-core
#                generator, the tdf encoder's side-by-side segment tasks,
#                and the determinism gates) under it
#   --asan       add a whole-tree build under TITANREL_SANITIZE=address
#                with -D_GLIBCXX_ASSERTIONS (checked operator[]) and run
#                the full ctest under it
#   --release    add a whole-tree Release build (-O3, warnings fatal) in
#                build-release and run the full ctest under it: studybench
#                measures Release code, and -O3 inlining raises warnings
#                (-Wstringop-overflow, say) the default RelWithDebInfo
#                build never sees
#   --corrupt    run the ingest robustness gate: generate a dataset, apply
#                every corruption operator, and run the salvage sweep
#                (bench_ingest_robustness); run the corruption and chunked
#                ingest differential tests at TITANREL_THREADS=1 and at the
#                default width; plus an explicit titanlint det-* pass over
#                src/ingest, src/tdf and the loaders
#   --crash      run the crash-consistency gate: the differential
#                kill-point sweep over every dataset writer
#                (bench_faulttest_crash: each kill must end in clean
#                salvage or a named failure, each resume byte-identical),
#                an fsck of every layout the shipped CLIs write (text,
#                binary, 3 shards, re-sharded 3 -> 2: each must report
#                `verdict: clean`), plus an explicit titanlint io-atomic
#                pass over the durable-write layers
#   --profiles   run the cross-fleet profile sweep: the profile unit /
#                golden-equivalence / determinism / mismatch test
#                binaries, the profile-matrix bench (full registry under
#                every built-in FleetProfile), and an explicit titanlint
#                det-* pass over the profile layer
#   --bench-json refresh every committed BENCH_*.json perf-trajectory
#                record: bench_tdf_load -> BENCH_dataset.json,
#                bench_campaign_scale -> BENCH_campaign.json and
#                bench_profile_matrix -> BENCH_profile.json
#   --jobs N     parallelism (default: nproc)
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
UBSAN=0
TSAN=0
ASAN=0
RELEASE=0
CORRUPT=0
CRASH=0
PROFILES=0
BENCH_JSON=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --ubsan) UBSAN=1 ;;
    --tsan) TSAN=1 ;;
    --asan) ASAN=1 ;;
    --release) RELEASE=1 ;;
    --corrupt) CORRUPT=1 ;;
    --crash) CRASH=1 ;;
    --profiles) PROFILES=1 ;;
    --bench-json) BENCH_JSON=1 ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "usage: scripts/check.sh [--ubsan] [--tsan] [--asan] [--release] [--corrupt] [--crash] [--profiles] [--bench-json] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done

echo "== configure + build (WERROR) =="
cmake -B build -S . -DTITANREL_WERROR=ON
cmake --build build -j "$JOBS"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== titanlint =="
./build/tools/titanlint --root .

echo "== STREAMS.md freshness (regenerate + diff) =="
./build/tools/titanlint --root . --streams > STREAMS.md
git diff --exit-code -- STREAMS.md

if [[ "$CORRUPT" == 1 ]]; then
  echo "== ingest robustness gate (every corruption operator + salvage sweep) =="
  ./build/bench/bench_ingest_robustness
  echo "== ingest differential tests at one thread and at the default width =="
  for threads in 1 ""; do
    TITANREL_THREADS="$threads" ./build/tests/ingest_corruption_test
    TITANREL_THREADS="$threads" ./build/tests/ingest_chunked_test
  done
  echo "== titanlint det-* sweep over src/ingest, src/tdf and the sharding layer =="
  ./build/tools/titanlint --root . src/ingest/triage.hpp src/ingest/triage.cpp \
    src/ingest/corrupt.hpp src/ingest/corrupt.cpp \
    src/tdf/format.hpp src/tdf/tdf.hpp src/tdf/writer.cpp src/tdf/reader.cpp \
    src/core/sharded.hpp src/core/sharded.cpp src/fault/campaign.hpp \
    src/fault/campaign.cpp src/study/sharded.hpp src/study/sharded.cpp \
    src/study/source.cpp src/study/fsck.cpp
fi

if [[ "$CRASH" == 1 ]]; then
  echo "== crash-consistency gate (kill-point sweep over every dataset writer) =="
  ./build/bench/bench_faulttest_crash
  echo "== fsck of every layout the CLIs write (claims re-hashed from disk) =="
  FSCK_DIR="$(mktemp -d)"
  trap 'rm -rf "$FSCK_DIR"' EXIT
  ./build/examples/generate_dataset "$FSCK_DIR/text" 29 --format text > /dev/null
  ./build/examples/generate_dataset "$FSCK_DIR/binary" 29 --format binary > /dev/null
  ./build/examples/generate_dataset "$FSCK_DIR/shards3" 29 --shards 3 > /dev/null
  ./build/tools/titan-convert --shards 2 "$FSCK_DIR/shards3" "$FSCK_DIR/shards2" > /dev/null
  for layout in text binary shards3 shards2; do
    report="$(./build/tools/titan-convert --fsck "$FSCK_DIR/$layout")" || true
    if ! grep -qx 'verdict: clean' <<<"$report"; then
      echo "fsck of the $layout dataset is not clean:" >&2
      echo "$report" >&2
      exit 1
    fi
    echo "  $layout: clean"
  done
  echo "== titanlint io-atomic sweep over the durable-write layers =="
  ./build/tools/titanlint --root . src/faulttest/atomic_file.hpp \
    src/faulttest/atomic_file.cpp src/faulttest/faulttest.hpp \
    src/faulttest/faulttest.cpp src/ckpt/study_ckpt.hpp src/ckpt/study_ckpt.cpp \
    src/study/io.cpp src/study/sharded.cpp src/study/source.cpp \
    src/study/fsck.cpp src/study/crashtest.cpp src/tdf/writer.cpp
fi

if [[ "$PROFILES" == 1 ]]; then
  echo "== fleet-profile sweep (unit, golden-equivalence, determinism, mismatch) =="
  ./build/tests/profile_test
  ./build/tests/profile_golden_test
  ./build/tests/profile_determinism_test
  ./build/tests/profile_mismatch_test
  echo "== profile matrix bench (full registry under every built-in profile) =="
  ./build/bench/bench_profile_matrix --quick
  echo "== titanlint det-* sweep over the profile layer =="
  ./build/tools/titanlint --root . src/profile/fleet_profile.hpp \
    src/profile/fleet_profile.cpp src/study/comparative.hpp \
    src/study/comparative.cpp src/core/facility.cpp src/study/registry.cpp
fi

if [[ "$BENCH_JSON" == 1 ]]; then
  echo "== bench_tdf_load -> BENCH_dataset.json =="
  ./build/bench/bench_tdf_load --json BENCH_dataset.json
  echo "== bench_campaign_scale -> BENCH_campaign.json =="
  ./build/bench/bench_campaign_scale --json BENCH_campaign.json
  echo "== bench_profile_matrix -> BENCH_profile.json =="
  ./build/bench/bench_profile_matrix --json BENCH_profile.json
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-tsan -S . -DTITANREL_SANITIZE=thread -DTITANREL_WERROR=ON
  cmake --build build-tsan -j "$JOBS" --target \
    par_pool_test sched_workload_test sched_allocator_property_test fault_campaign_test \
    study_pipeline_test study_sharded_test determinism_test profile_determinism_test \
    tdf_encoder_test
  ./build-tsan/tests/par_pool_test
  ./build-tsan/tests/sched_workload_test
  ./build-tsan/tests/sched_allocator_property_test
  ./build-tsan/tests/fault_campaign_test
  ./build-tsan/tests/study_pipeline_test
  ./build-tsan/tests/study_sharded_test
  ./build-tsan/tests/determinism_test
  ./build-tsan/tests/profile_determinism_test
  ./build-tsan/tests/tdf_encoder_test
fi

if [[ "$ASAN" == 1 ]]; then
  echo "== ASan build + ctest =="
  cmake -B build-asan -S . -DTITANREL_SANITIZE=address -DTITANREL_WERROR=ON \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$RELEASE" == 1 ]]; then
  echo "== Release build (WERROR) + ctest =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DTITANREL_WERROR=ON
  cmake --build build-release -j "$JOBS"
  ctest --test-dir build-release --output-on-failure -j "$JOBS"
fi

if [[ "$UBSAN" == 1 ]]; then
  echo "== UBSan build + ctest =="
  cmake -B build-ubsan -S . -DTITANREL_SANITIZE=undefined -DTITANREL_WERROR=ON
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
fi

echo "check.sh: all stages green"
