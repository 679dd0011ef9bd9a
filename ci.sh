#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): formatting, release build, full test
# suite, one full-scale figure, chaos/cc-study/recovery-study/spec
# smokes, strict lints, docs, and benchmark/'s build + tests +
# pinned-digest runs.
#
#   ./ci.sh              the gate (`./ci.sh build-test` is the same thing,
#                        the name the CI workflow calls it by)
#
# Speed is measured by benchmark/ (see BENCHMARK.json), not gated here.
# The stage prints its own wall-clock so its timing lands in the CI log.
set -euo pipefail
cd "$(dirname "$0")"

stage_build_test() {
    cargo fmt --all -- --check
    # Deleted on purpose, and each is easy to add back by habit: the
    # campaign option that retained a trace per flow (a second flow body
    # that skipped the cache), the second micro-benchmark set with its
    # vendored stub — benchmark/ is the one benchmark — and the batched
    # model-evaluation twins with the chaos check that compared them to
    # the per-flow path (one evaluation body, one mean D), and the second
    # Eq. (21) algebra with its wrapper and Padhye's exact Q̂, which the
    # Monte-Carlo in tests/model_form.rs rejected (one enhanced model).
    if grep -rniE 'keep_outcomes|criterion|\[\[bench\]\]|eval_batch|full_batch|batch_parity|EnhancedModel|Variant::(AsPublished|Rederived)|q_p_exact' \
        crates src Cargo.toml; then
        echo "a trace-retaining campaign option, a criterion bench target, a batched model twin or a second enhanced-model algebra is back" >&2
        exit 1
    fi
    # --workspace so the release `repro` binary the later steps run is built
    # (the bare root build only covers the facade crate).
    cargo build --release --workspace
    cargo test -q --workspace
    # Queue-vs-model differential: the event queue (indexed timer heap +
    # scanned FIFO lanes) must pop the exact `(time, seq)` stream an
    # ordered-map model pops, over randomized schedule/lane/cancel/pop
    # interleavings. Runs inside the workspace suite too, but an explicit
    # invocation keeps the contract visible in the CI log (and keeps running
    # it even if the workspace test set is ever filtered).
    cargo test -q --test queue_differential
    # The study smokes below write their reports into the working
    # directory: run them from a scratch directory so the 2-flow smoke
    # output never overwrites the full reports committed at the repo root.
    local repro="$PWD/target/release/repro" smoke=target/ci-smoke
    rm -rf "$smoke"
    mkdir -p "$smoke"
    # One full-scale figure: the 255-flow Table-I dataset (≈ 1 s, ≈ 17 MiB
    # now that a dataset is its summaries) through the ordinary campaign
    # body, the path every dataset figure takes.
    (cd "$smoke" && "$repro" table1 --full)
    # Pinned-seed chaos smoke: the fault-injection harness and differential
    # oracle must hold on every push (nightly CI runs the big randomized
    # sweep; see .github/workflows/ci.yml).
    (cd "$smoke" && "$repro" chaos --seed 42 --cases 200)
    # The report the smoke just wrote must match the pinned seed-42 report
    # byte-for-byte once the host's own fields (wall_s timing, worker
    # count = cores) are stripped: scheduler and engine reworks must not
    # move a single simulated byte.
    local host_fields='s/,"wall_s":[^}]*//; s/"workers":[0-9]*,//'
    diff <(sed "$host_fields" "$smoke/CHAOS_report.json") \
         <(sed "$host_fields" tests/fixtures/CHAOS_seed42_200.json) \
        || { echo "chaos smoke: CHAOS_report.json diverged from the pinned seed-42 report" >&2; exit 1; }
    # Congestion-control study smoke: every zoo member must campaign cleanly
    # and produce a non-empty model-deviation row in CC_STUDY.json.
    (cd "$smoke" && "$repro" cc-study --smoke)
    for cc in Reno Veno Cubic Bbr Compound; do
        grep -q "\"label\":\"$cc\"" "$smoke/CC_STUDY.json" \
            || { echo "cc-study: no deviation row for $cc" >&2; exit 1; }
    done
    # Loss-recovery study smoke: every countermeasure must produce a
    # campaign row, a chaos-storm row, and a measured-vs-modeled fit per
    # provider (the command exits non-zero when any slice is empty or the
    # storm never drove the baseline into timeouts).
    (cd "$smoke" && "$repro" recovery-study --smoke)
    for r in None RedundantRto Frto AckRobust; do
        grep -q "\"label\":\"$r\"" "$smoke/RECOVERY_report.json" \
            || { echo "recovery-study: no row for $r" >&2; exit 1; }
    done
    # The committed full-scale report (`repro recovery-study --full` at the
    # repo root) must carry the engine version the tree is at: a bump of
    # ENGINE_VERSION without regenerating it leaves stale numbers behind
    # the README's headline.
    local engine_version
    engine_version=$(sed -n 's/^pub const ENGINE_VERSION: &str = "\(.*\)";$/\1/p' crates/runtime/src/cache.rs)
    grep -q "^{\"engine_version\":\"$engine_version\",\"scale\":\"Full\"," RECOVERY_report.json \
        || { echo "RECOVERY_report.json is stale: not a Full-scale $engine_version report" >&2; exit 1; }
    # Spec-driven campaign smoke: the committed smoke spec, run as one
    # process and as two OS-process shards, must merge to byte-identical
    # reports (the shard/merge path is a results-identity, not a results
    # knob).
    rm -rf target/spec-smoke
    ./target/release/repro run --spec examples/specs/smoke.toml \
        --out target/spec-smoke/p1 --shards 1
    ./target/release/repro run --spec examples/specs/smoke.toml \
        --out target/spec-smoke/p2 --shards 2
    cmp target/spec-smoke/p1/merged.json target/spec-smoke/p2/merged.json \
        || { echo "spec smoke: 2-shard merge not byte-identical to 1-process" >&2; exit 1; }
    # Warm cross-process pass: two fresh OS processes over the cache/ the
    # 1-process run published must find every entry it wrote (a key
    # computed in one process names the file another one wrote), simulate
    # nothing, and merge to the cold runs' exact bytes (p2's merged.json
    # was just shown identical to the cold p1 one this pass overwrites).
    ./target/release/repro run --spec examples/specs/smoke.toml \
        --out target/spec-smoke/p1 --shards 2
    cmp target/spec-smoke/p1/merged.json target/spec-smoke/p2/merged.json \
        || { echo "spec smoke: warm 2-shard merge not byte-identical to the cold run" >&2; exit 1; }
    for k in 0 1; do
        for counter in cache_misses corrupt_entries; do
            grep -Eq "\"$counter\":0[,}]" "target/spec-smoke/p1/shard-$k-of-2.json" \
                || { echo "spec smoke: warm shard $k/2 reports $counter != 0" >&2; exit 1; }
        done
    done
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    # benchmark/ is a workspace of its own that pins the crates' public
    # signatures; nothing above compiles it. Build it, run its unit tests,
    # and make five short driver-form runs. Those runs are also the speed-
    # only-change gate: a pinned seed of a workload must simulate exactly the
    # pinned events into exactly the pinned summary bytes (a PR that means
    # to change the simulation updates the values, as with the chaos
    # fixture above). `table1-cold` is Reno at 300 km/h only — pinned at two
    # seeds, so a change that happens to be neutral on one random stream
    # still shows; `zoo-grid-cold` adds stationary flows (no timeouts, so no
    # recovery phase to exclude) and every controller and recovery strategy
    # — analysis paths the first never takes. `stress-warm-disk` is the one
    # pinned run that goes publish → reopen → decode: every flow of its
    # timed passes is a disk hit, so its digest holds only if each entry
    # decodes to the bytes a fresh simulation encodes. `stress-warm-mem`
    # replays the same inputs (hence the same digest and events) from the
    # memory tier: the run whose every timed flow is a lookup under the key
    # the campaign computed at build, collected by the worker pool on the
    # calling thread (worker 0; one worker spawns nothing), and nothing else.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    benchmark_pin table1-cold 1 461fc511504f307e 19262156
    benchmark_pin table1-cold 77 404247be8dce77f3 18461285
    benchmark_pin zoo-grid-cold 1 5291cb75ee6417f4 17509760
    benchmark_pin stress-warm-disk 1 fe55ff7c588a6c89 4733828
    benchmark_pin stress-warm-mem 1 fe55ff7c588a6c89 4733828
}

# One 1-s untraced run of benchmark workload $1 at seed $2: it must report
# itself correct and print sim_digest $3 and events $4.
benchmark_pin() {
    local workload="$1" seed="$2" digest="$3" events="$4"
    local log="target/ci-smoke/benchmark-$workload-seed$seed.log"
    benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tee "$log"
    tail -n 1 "$log" | grep -q '"correct":true' \
        || { echo "benchmark smoke: $workload seed $seed result line lacks \"correct\":true" >&2; exit 1; }
    grep -Eq "sim_digest += +$digest\$" "$log" \
        && grep -Eq "events += +$events\$" "$log" \
        || { echo "benchmark smoke: $workload seed $seed no longer simulates sim_digest $digest / events $events" >&2; exit 1; }
}

run_timed() {
    local name="$1"
    shift
    local t0=$SECONDS
    "$@"
    echo "ci: stage '$name' took $((SECONDS - t0))s"
}

case "${1:-build-test}" in
    build-test)
        run_timed build-test stage_build_test
        ;;
    *)
        echo "usage: ./ci.sh [build-test]" >&2
        exit 2
        ;;
esac
