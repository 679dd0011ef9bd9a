#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): formatting, release build, full test
# suite, one full-scale figure, the full-scale accuracy ledger (every D,
# every paper number and the §V storm study, compared byte for byte), the
# chaos/spec smokes, strict lints, docs, and benchmark/'s build + tests +
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
    # Also deleted: the scenario run twins (one `runner::run` with a
    # `Keep` argument replaced them), the scratch accessor they folded
    # traces through, and two loss models nothing used.
    if grep -rnE 'try_run_scenario|try_run_storm_scenario_with|try_analyze_scenario_with|ConnectionScratch::trace|TraceDriven|loss_ext::Scripted' \
        crates src tests examples Cargo.toml; then
        echo "a deleted scenario run twin, ConnectionScratch::trace or a dead loss model is back" >&2
        exit 1
    fi
    # Also deleted: the writers of their own `D` and the second science
    # artifact that the accuracy ledger (`repro accuracy` -> ACCURACY.json)
    # replaced.
    if grep -rnE 'LabeledAccuracy|evaluate_labeled|CcStudyReport|run_cc_study|cc-study|CC_STUDY|recovery-study|RECOVERY_report|run_recovery_study|RecoveryStudyReport' \
        crates src tests examples; then
        echo "a deleted per-slice accuracy writer (cc-study, LabeledAccuracy) or recovery-study is back" >&2
        exit 1
    fi
    # Also deleted: the chaos crate's mean-`D` envelope and its floor. The
    # ledger's ACCURACY.json cmp below is the one science gate.
    if grep -rnE 'AggregateOracle|judge_aggregate|CaseOutcome|mean_envelope|min_region_flows|min_region_throughput_sps' \
        crates src tests examples; then
        echo "the deleted chaos accuracy envelope (AggregateOracle, judge_aggregate) is back" >&2
        exit 1
    fi
    # Also deleted: the last writers of their own paper-vs-ours numbers —
    # the global `q` fit with its fixed-`q` source, the improvement-in-pp
    # figure and the `headline` experiment — and a knob nothing turned.
    # The ledger's ablation rows replace the fit.
    if grep -rnE 'fit_global|FitConfig|fit_score|QSource::Fixed|prefer_measured_burst|improvement_pp|experiments::headline' \
        crates src tests examples; then
        echo "a deleted paper-vs-ours writer (core::fit, improvement_pp, repro headline) or prefer_measured_burst is back" >&2
        exit 1
    fi
    # Also deleted: the after-the-run reader of a flow's arena rows. A
    # single-flow run drains its landed rows into the analysis fold as it
    # goes (`Engine::drain_settled` -> `capture::flow_records`), so
    # nothing reads a whole run's rows back.
    if grep -rnE 'arena_records' crates src tests examples; then
        echo "the deleted after-the-run arena reader (arena_records) is back" >&2
        exit 1
    fi
    # Also deleted: settings that only ever held one value (the RTO bounds
    # and initial RTO, the delayed-ACK deadline: constants in `tcp::rtt`
    # and `tcp::receiver`), the MSS label that set no packet's size (the
    # segment size is `Packet::DATA_BYTES`), and public items nothing
    # read, or only their own file's tests.
    if grep -rnE '(initial_rto|min_rto|max_rto): |mss_bytes|delack_timeout|goodput_bps|delay_timeline|DelayBin|mean_ci95|MeanCi|spearman|Histogram|std_dev|mean_first_rto|recovery_durations_s|q_indication_fraction|traces_from_events\(|try_par_map_workers|events_per_sec|RelayAgent|range_f64|saturating_double|in_bad_state|observed_rate|partial_trip|TRIP_MINUTES|as_millis_f64|within_factor|\.(start_m|peak_ms|current_b)\(' \
        crates src tests examples; then
        echo "a deleted one-value setting (RTO bounds, delack_timeout, mss_bytes) or an unread public item is back" >&2
        exit 1
    fi
    # Also deleted: the controllers' settable parameters and their spec
    # form (each controller runs at its published constants,
    # `Algorithm::constants`), and two analyses that no result read: the
    # throughput/stall timeline and Padhye's square-root approximation.
    if grep -rnE 'Algorithm::(veno|cubic|compound)\(|\{ *Veno *= *\{ *beta|analysis::timeline|throughput_timeline|TimelineBin|detect_stalls|stall_time_fraction|\bStall\b|padhye_simple|padhye::simple' \
        crates src tests examples; then
        echo "a deleted controller parameter, the timeline analysis or padhye::simple is back" >&2
        exit 1
    fi
    # Also deleted: the §V strategy-object layer (the sender matches on the
    # closed `Recovery` label), the second spurious-timeout snapshot (one
    # undo slot serves both detectors) and the adaptive delayed-ACK
    # policy's one-value settings (private constants in `tcp::receiver`).
    if grep -rnE 'LossRecovery|TimeoutPlan|NoRecovery|Recovery::build|RtoUndo|frto_cwnd|AdaptiveDelAck' \
        crates src tests examples; then
        echo "a deleted recovery strategy object (LossRecovery, TimeoutPlan), a second undo snapshot or AdaptiveDelAck is back" >&2
        exit 1
    fi
    # Also deleted: the controller trait object (every sender runs the one
    # `Cwnd` machine, each controller a `Law` arm of it), its boxed clone,
    # the constructor that built it, the test hook that corrupted a window
    # from outside, and a one-method wrapper around `cwnd_log`.
    if grep -rnE 'CongestionControl|clone_box|Algorithm::build|inject_invariant_violation|MetricsCwnd|metrics_cwnd' \
        crates src tests examples; then
        echo "a deleted controller trait object (CongestionControl, clone_box, Algorithm::build), inject_invariant_violation or MetricsCwnd is back" >&2
        exit 1
    fi
    # Also deleted: the second description of a link's loss (tcp's
    # `LossSpec` and its bridge to simnet), the loss-model trait object, the
    # module that held the periodic outage apart, and the steady-state chain
    # only tests read. One closed `LossModel` enum is all of them.
    if grep -rnE 'LossSpec|loss_ext|dyn LossModel|LossModel for|steady_state_rate|base_steady_state' \
        crates src tests examples; then
        echo "a deleted loss description (LossSpec, loss_ext), the LossModel trait object or its steady-state chain is back" >&2
        exit 1
    fi
    # Also deleted: the reference-counted flow labels (a `Label` is a
    # `&'static str`, so a summary is plain data and a warm hit touches no
    # counter) and the channel's own offered/lost counters, which
    # `Link::channel_drops` already keeps.
    if grep -rnE '(provider|scenario): Arc<str>|loss\.(offered|lost)' \
        crates src tests examples; then
        echo "a reference-counted flow label (Arc<str>) or ChannelLoss::{offered, lost} is back" >&2
        exit 1
    fi
    # Also deleted: the agents that wrote a link while a flow ran (the
    # ticking channel process and the save-and-restore storm injector),
    # the mutable overlay/extra state they wrote, the link writers they
    # wrote it through and the refusal their clash forced. A link's
    # impairments are its timeline, written before the run.
    if grep -rnE 'ChannelProcess|StormInjector|StormOnMobility|link_mut|set_outage|set_extra|ChannelLoss|extra_delay =' \
        crates src tests examples; then
        echo "a deleted link writer (ChannelProcess, StormInjector, link_mut, ChannelLoss setters) or StormOnMobility is back" >&2
        exit 1
    fi
    # Also deleted: the TOML writer and the checks that only round-tripped
    # it (spec files are written by hand and only ever parsed).
    if grep -rnE 'to_toml|toml::(render|to_string|from_str)|spec_for_case|spec-roundtrip' \
        crates src tests examples vendor; then
        echo "the deleted TOML writer (to_toml, toml::render), the spec fuzzer or the spec-roundtrip drill is back" >&2
        exit 1
    fi
    # Also deleted: trace persistence (a trace is a function of its config:
    # re-simulate the flow with `runner::run(.., Keep::Trace)`), with its
    # error type, FlowTrace's JSON methods and the example that used them,
    # and the absolute-time timer that no agent scheduled.
    if grep -rnE 'save_traces|load_traces|ReadDatasetError|FlowTrace::(to|from)_json|\btrace_lab\b|\bschedule_at\b' \
        crates src tests examples \
        || grep -nE 'fn (to|from)_json\b' crates/trace/src/record.rs \
        || grep -nE '\bmod store\b' crates/trace/src/lib.rs; then
        echo "deleted trace persistence (hsm-trace::store, save_traces, load_traces, FlowTrace::{to,from}_json, trace_lab) or Ctx::schedule_at is back" >&2
        exit 1
    fi
    # Also deleted: the packet recorder, its engine slot and the event folds
    # that read it. The packet arena is the one packet log.
    if grep -rnE '\bVecRecorder\b|\badd_recorder\b|\bPacketEvent\b|\bPacketEventKind\b|\bDropCause\b|\btraces_from_events_filtered\b|\bsingle_flow_trace\b|\b(hsm_)?simnet::observer\b' \
        crates src tests examples benchmark/src \
        || grep -nE '\bmod observer\b' crates/simnet/src/lib.rs; then
        echo "the deleted packet recorder (simnet::observer, VecRecorder, add_recorder, PacketEvent, PacketEventKind, DropCause) or its folds (traces_from_events_filtered, single_flow_trace) are back" >&2
        exit 1
    fi
    # Also deleted: the other statements of a flow's fields — the config
    # builder, the spec's resolved axes and grid point with their
    # seven-deep loop — and the spec's copies of the flow checks. A spec
    # base is a `ScenarioConfig`, checked by `ScenarioConfig::validate`, so
    # each check's message is written once.
    if grep -rnE '\bScenarioConfigBuilder\b|ScenarioConfig::builder|\bResolvedAxes\b|\bfor_each_point\b|\bvalidate_base\b|\bvalidate_axis\b' \
        crates src tests examples; then
        echo "a deleted statement of a flow's fields (ScenarioConfigBuilder, ResolvedAxes, for_each_point) or a spec copy of its checks (validate_base, validate_axis) is back" >&2
        exit 1
    fi
    checks="$(grep -rhoF 'advertised window w_m must be >= 1 segment' crates/*/src | wc -l)"
    if [ "$checks" -ne 1 ]; then
        echo "the zero-window message is written $checks times in crates/*/src, not once: a second copy of ScenarioConfig::validate is back" >&2
        exit 1
    fi
    # DESIGN.md's budget, which ROADMAP sets: at most 1,000 lines.
    if [ "$(wc -l < DESIGN.md)" -gt 1000 ]; then
        echo "DESIGN.md has $(wc -l < DESIGN.md) lines, over its 1,000-line budget" >&2
        exit 1
    fi
    # --workspace so the release `repro` binary the later steps run is built
    # (the bare root build only covers the facade crate).
    cargo build --release --workspace
    # benchmark/ compiles against the crates' public signatures and is its
    # own workspace: build it here, so an API change that breaks it fails
    # the gate at once instead of after the suite.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo test -q --workspace
    # Queue-vs-model differential: the event queue (indexed timer heap +
    # scanned FIFO lanes) must pop the exact `(time, seq)` stream an
    # ordered-map model pops, over randomized schedule/lane/cancel/pop
    # interleavings. Runs inside the workspace suite too, but an explicit
    # invocation keeps the contract visible in the CI log (and keeps running
    # it even if the workspace test set is ever filtered).
    cargo test -q --test queue_differential
    # Arena-vs-model differential, for the same reason: the chunked packet
    # arena (32-byte rows, wide values escaped to a side table, chunks kept
    # across a clear and recycled by a drain) must give back exactly what a
    # `Vec` of packets and arrivals holds, over randomized
    # push/deliver/drop/drain/clear interleavings.
    cargo test -q --test arena_differential
    # The studies below write their reports into the working directory:
    # run them from a scratch directory so their output never overwrites
    # the reports committed at the repo root.
    local repro="$PWD/target/release/repro" smoke=target/ci-smoke
    rm -rf "$smoke"
    mkdir -p "$smoke"
    # One full-scale figure: the 255-flow Table-I dataset (≈ 1.3 s, ≈ 10 MiB
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
    # The accuracy ledger at full scale (≈ 25 s on 2 cores): every slice's
    # D, every paper number and the §V storm study. Its JSON must be the
    # committed ACCURACY.json byte for byte (which also pins its
    # engine_version and scale stamp), and its stdout the block
    # EXPERIMENTS.md quotes. `repro accuracy` exits non-zero when a storm
    # slice is empty, the storm never drove `None` into a timeout, or a fit
    # is missing.
    (cd "$smoke" && "$repro" accuracy --full > accuracy.md)
    cmp "$smoke/ACCURACY.json" ACCURACY.json \
        || { echo "ACCURACY.json is stale: regenerate it with \`repro accuracy --full\` at the repo root" >&2; exit 1; }
    diff "$smoke/accuracy.md" \
         <(sed -n '/^<!-- accuracy:begin -->$/,/^<!-- accuracy:end -->$/{//!p}' EXPERIMENTS.md) \
        || { echo "EXPERIMENTS.md's accuracy block is not \`repro accuracy --full\`'s stdout" >&2; exit 1; }
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
    # The leaf-IP sampler that DESIGN's profiles were taken with
    # (tools/leafprof): build it and byte-compile its symbolizer, so
    # neither rots unnoticed.
    cc -O2 -shared -fPIC -o "$smoke/leafprof.so" tools/leafprof/sampler.c
    PYTHONPYCACHEPREFIX="$smoke/pycache" python3 -m py_compile tools/leafprof/symbolize.py
    # benchmark/ is a workspace of its own that pins the crates' public
    # signatures; it was built right after the workspace. Run its unit tests,
    # and make six short driver-form runs. Those runs are also the speed-
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
    # the campaign computed at build, written by its job straight into the
    # result vector of the calling thread (worker 0; one worker spawns
    # nothing), and nothing else.
    # The event counts fell once, with the digests unchanged, when a ride's
    # handoffs and a storm's episodes became link timelines written before
    # the run: each by exactly the channel-tick, outage-end and
    # storm-boundary timer events the agents that did that work had
    # processed (counted on the commit before): table1-cold seed 1
    # 19,262,156 − 307,545; seed 77 18,461,285 − 307,555; zoo-grid-cold
    # 17,509,760 − 72,359; stress-warm-* 4,733,828 − 40,822.
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    benchmark_pin table1-cold 1 461fc511504f307e 18954611
    benchmark_pin table1-cold 77 404247be8dce77f3 18153730
    benchmark_pin zoo-grid-cold 1 5291cb75ee6417f4 17437401
    benchmark_pin stress-warm-disk 1 fe55ff7c588a6c89 4693006
    benchmark_pin stress-warm-mem 1 fe55ff7c588a6c89 4693006
    # The same replay traced: its passes go through the benchmark's own
    # per-layer flow body, which builds each `FlowRun` itself, and must
    # still simulate the untraced run's exact bytes and events.
    benchmark_pin stress-warm-mem 1 fe55ff7c588a6c89 4693006 1
}

# One 1-s run of benchmark workload $1 at seed $2, untraced unless $5 is
# 1: it must report itself correct and print sim_digest $3 and events $4.
benchmark_pin() {
    local workload="$1" seed="$2" digest="$3" events="$4" trace="${5:-0}"
    local log="target/ci-smoke/benchmark-$workload-seed$seed-trace$trace.log"
    benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace "$trace" | tee "$log"
    tail -n 1 "$log" | grep -q '"correct":true' \
        || { echo "benchmark smoke: $workload seed $seed trace $trace result line lacks \"correct\":true" >&2; exit 1; }
    grep -Eq "sim_digest += +$digest\$" "$log" \
        && grep -Eq "events += +$events\$" "$log" \
        || { echo "benchmark smoke: $workload seed $seed trace $trace no longer simulates sim_digest $digest / events $events" >&2; exit 1; }
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
