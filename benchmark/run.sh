#!/usr/bin/env bash
# The benchmark's one command. Run it from the repository root.
#
#   benchmark/run.sh                      build, unit tests, then every workload
#                                         in both modes (results in benchmark/out/)
#   benchmark/run.sh --selfcheck          the same twice, the two sets compared
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run, as the driver in BENCHMARK.json
#                                         makes it; the last line is its result
#
# Builds offline with the default release profile — the flags `repro` is
# built with — into $CARGO_TARGET_DIR when that is set, else
# benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

# glibc gives freed heap back to the system when the free space at the top
# of an arena passes a threshold, and takes it again, page fault by page
# fault, on the next pass. Whether the top is free depends on where the
# set-up's last long-lived allocation happened to land, so two set-ups of the
# same code replayed `stress-warm-mem` at 1.3 and 1.7 ms a pass (0 and 290
# page faults). Holding on to the heap takes that coin toss out of every
# workload. Naming either threshold also stops glibc from adapting the other,
# so both are named; 32 MiB is the largest mmap threshold it accepts.
export MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=33554432

# Cargo's own progress goes to stderr; standard output stays the run's.
cargo build --release --offline --manifest-path "$manifest" --target-dir "$target" >&2
if [ "$#" -eq 0 ]; then
    cargo test --release --offline --manifest-path "$manifest" --target-dir "$target" >&2
    set -- --all
fi
exec "$target/release/hsm-benchmark" --out "$here/out" "$@"
