//! Cross-crate property tests on the model and analysis invariants.

use hsm::model::prelude::*;
use hsm::trace::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ModelParams> {
    (
        0.02f64..0.3, // rtt_s
        0.2f64..2.0,  // t_rto_s
        1e-4f64..0.2, // p_d
        0.0f64..0.5,  // p_a_burst
        0.0f64..0.9,  // q
        prop_oneof![Just(1.0f64), Just(2.0), Just(4.0)],
        4.0f64..512.0, // w_m
    )
        .prop_map(|(rtt_s, t_rto_s, p_d, p_a_burst, q, b, w_m)| ModelParams {
            rtt_s,
            t_rto_s,
            p_d,
            p_a_burst,
            q,
            b,
            w_m,
        })
}

proptest! {
    #[test]
    fn enhanced_model_total_on_valid_domain(params in arb_params()) {
        let bd = enhanced_breakdown(&params).unwrap();
        prop_assert!(bd.throughput_sps.is_finite());
        prop_assert!(bd.throughput_sps >= 0.0);
        prop_assert!(bd.e_x > 0.0);
        prop_assert!((0.0..=1.0).contains(&bd.q_timeout));
        // Throughput can never exceed one window per RTT (generous slack
        // for the model's continuous approximations).
        prop_assert!(bd.throughput_sps <= params.w_m / params.rtt_s * 2.0);
    }

    #[test]
    fn rederived_variant_also_total(params in arb_params()) {
        // The throughput entry point of the rederived `(2/b)E[X] − 2`
        // algebra is total and agrees bit-for-bit with its breakdown.
        let tp = enhanced_throughput(&params).unwrap();
        prop_assert!(tp.is_finite() && tp >= 0.0);
        let bd = enhanced_breakdown(&params).unwrap();
        prop_assert_eq!(tp.to_bits(), bd.throughput_sps.to_bits());
    }

    #[test]
    fn enhanced_never_exceeds_padhye_at_paper_b(params in arb_params()) {
        // The paper's own evaluation setting b = 2, where the printed
        // and rederived E[W] coincide. Both models are round-based
        // approximations, so the comparison is confined to the regime
        // they were built for: loss events rare per round, non-degenerate
        // windows.
        let params = params.with_b(2.0).with_p_d(params.p_d.min(0.08)).with_w_m(params.w_m.max(8.0));
        let enhanced = enhanced_throughput(&params).unwrap();
        let padhye = padhye_full(&params).unwrap();
        prop_assert!(enhanced <= padhye * 1.05, "enhanced {enhanced} padhye {padhye}");
    }

    #[test]
    fn rederived_enhanced_never_exceeds_padhye(params in arb_params()) {
        // Padhye ignores P_a and q; the enhanced model only adds
        // impairments on top of the same CA-phase core, so the rederived
        // algebra stays below Padhye at every b (same modelling-regime
        // restriction as above).
        let params = params.with_p_d(params.p_d.min(0.08)).with_w_m(params.w_m.max(8.0));
        let enhanced = enhanced_throughput(&params).unwrap();
        let padhye = padhye_full(&params).unwrap();
        prop_assert!(enhanced <= padhye * 1.05, "enhanced {enhanced} padhye {padhye}");
    }

    #[test]
    fn e_x_equals_distribution_mean(p_a in 0.001f64..0.99, xp in 1u32..200) {
        let dist = round_distribution(p_a, f64::from(xp));
        let mass: f64 = dist.iter().map(|r| r.probability).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "distribution mass {mass}");
        let mean: f64 = dist.iter().map(|r| f64::from(r.rounds) * r.probability).sum();
        let formula = e_x(p_a, f64::from(xp));
        prop_assert!((mean - formula).abs() < 1e-6, "{mean} vs {formula}");
    }

    #[test]
    fn q_enhanced_bounded_and_monotone(qp in 0.0f64..1.0, pa in 0.0f64..1.0, xp in 1.0f64..100.0) {
        let q = q_enhanced(qp, pa, xp);
        prop_assert!((0.0..=1.0).contains(&q));
        prop_assert!(q >= qp - 1e-12, "Q can only grow above Q_P");
        // More ACK burst loss, more timeouts.
        let q_more = q_enhanced(qp, (pa + 0.1).min(1.0), xp);
        prop_assert!(q_more >= q - 1e-12);
    }

    #[test]
    fn deviation_is_symmetric_around_the_measurement(model in 0.1f64..1e4, trace in 0.1f64..1e4) {
        let d = deviation(model, trace);
        prop_assert!(d >= 0.0);
        prop_assert!((deviation(model, trace) - (model - trace).abs() / trace).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let mut prev = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 1e5;
            let v = cdf.at(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(cdf.at(f64::MAX), 1.0);
    }

    #[test]
    fn pearson_bounded(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn p_a_from_ack_loss_in_unit_interval(p in 0.0f64..1.0, n in 0.1f64..100.0) {
        let pa = p_a_from_ack_loss(p, n);
        prop_assert!((0.0..=1.0).contains(&pa));
        // More ACKs per round can only reduce the burst probability.
        let pa_more = p_a_from_ack_loss(p, n + 1.0);
        prop_assert!(pa_more <= pa + 1e-12);
    }

    /// The event queue's determinism contract: events sharing a firing
    /// time dequeue in insertion order (FIFO), for ANY interleaving of
    /// schedules across timestamps and any pattern of cancellations.
    #[test]
    fn event_queue_fifo_for_equal_times(
        ops in prop::collection::vec((0u64..8, 0u64..2), 1..200)
    ) {
        use hsm::simnet::agent::AgentId;
        use hsm::simnet::event::{Event, EventKind, EventQueue};
        use hsm::simnet::time::SimTime;

        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        let mut expected: Vec<(u64, u64)> = Vec::new(); // (at, tag) surviving
        let mut cancelled = std::collections::HashSet::new();
        for (tag, &(at_ms, cancel_one)) in ops.iter().enumerate() {
            let tag = tag as u64;
            let cancel_one = cancel_one == 1;
            let id = q.schedule(Event {
                at: SimTime::from_millis(at_ms),
                dst: AgentId::from_raw(0),
                kind: EventKind::Timer { tag },
            });
            ids.push((id, at_ms, tag));
            if cancel_one && !ids.is_empty() {
                // Cancel a pseudo-random earlier (or current) event.
                let victim = ids[(tag as usize * 7 + 3) % ids.len()];
                if q.cancel(victim.0) {
                    cancelled.insert(victim.2);
                }
            }
        }
        for &(_, at_ms, tag) in &ids {
            if !cancelled.contains(&tag) {
                expected.push((at_ms, tag));
            }
        }
        // Survivors must dequeue sorted by time, FIFO within a time.
        expected.sort_by_key(|&(at, tag)| (at, tag));
        let mut popped = Vec::new();
        while let Some((_, ev)) = q.pop() {
            let EventKind::Timer { tag } = ev.kind else { unreachable!() };
            popped.push((ev.at.as_micros() / 1000, tag));
        }
        prop_assert_eq!(popped, expected);
    }
}

/// Configuration-layer property: `ScenarioConfig::validate` accepts
/// exactly the valid field combinations.
mod scenario_config_properties {
    use super::*;
    use hsm::prelude::Provider;
    use hsm::scenario::runner::{Motion, ScenarioConfig, ScenarioError};
    use hsm::simnet::time::SimDuration;

    fn arb_provider() -> impl Strategy<Value = Provider> {
        prop_oneof![
            Just(Provider::ChinaMobile),
            Just(Provider::ChinaUnicom),
            Just(Provider::ChinaTelecom),
        ]
    }

    fn arb_motion() -> impl Strategy<Value = Motion> {
        prop_oneof![Just(Motion::HighSpeed), Just(Motion::Stationary)]
    }

    proptest! {
        /// Sweeps every field — including the invalid zeros — and checks
        /// `validate`'s verdict against the documented validation order:
        /// window first, then delayed ACK, then duration. A config is
        /// accepted iff no field is invalid.
        #[test]
        fn validate_accepts_exactly_the_valid_combinations(
            provider in arb_provider(),
            motion in arb_motion(),
            seed in 0u64..u64::MAX,
            duration_us in 0u64..10_000_000_000,
            w_m in 0u32..128,
            b in 0u32..6,
            flow in 0u32..2000,
        ) {
            let verdict = ScenarioConfig {
                provider,
                motion,
                seed,
                duration: SimDuration::from_micros(duration_us),
                w_m,
                b,
                flow,
                ..Default::default()
            }
            .validate();
            let expected = if w_m == 0 {
                Err(ScenarioError::ZeroWindow)
            } else if b == 0 {
                Err(ScenarioError::ZeroDelayedAck)
            } else if duration_us == 0 {
                Err(ScenarioError::ZeroDuration)
            } else {
                Ok(())
            };
            prop_assert_eq!(verdict, expected);
        }
    }
}

/// Disk-codec properties: flow summaries — arbitrary field values and
/// real chaos-fuzzer outputs alike — survive the binary round trip
/// bit-for-bit, while any corruption of the encoded bytes is rejected
/// rather than decoded.
mod codec_properties {
    use super::*;
    use hsm::runtime::codec::{decode_entry, encode_entry};
    use hsm::trace::record::Label;
    use hsm::trace::summary::FlowSummary;

    /// Asserts two summaries are the same down to the bit pattern of
    /// every float (`PartialEq` would conflate `-0.0` with `0.0` and
    /// reject equal `NaN`s).
    fn assert_bit_identical(a: &FlowSummary, b: &FlowSummary) {
        assert_eq!(a.flow, b.flow);
        assert_eq!(a.provider, b.provider);
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.data_sent, b.data_sent);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.spurious_timeouts, b.spurious_timeouts);
        assert_eq!(a.timeout_sequences, b.timeout_sequences);
        assert_eq!(a.loss_indications, b.loss_indications);
        assert_eq!(a.fast_retransmissions, b.fast_retransmissions);
        assert_eq!(a.w_m, b.w_m);
        assert_eq!(a.b, b.b);
        for (name, x, y) in [
            ("rtt_s", a.rtt_s, b.rtt_s),
            ("p_d", a.p_d, b.p_d),
            ("p_a", a.p_a, b.p_a),
            ("p_a_burst", a.p_a_burst, b.p_a_burst),
            ("acks_per_round", a.acks_per_round, b.acks_per_round),
            ("q_hat", a.q_hat, b.q_hat),
            ("mean_recovery_s", a.mean_recovery_s, b.mean_recovery_s),
            ("t_rto_s", a.t_rto_s, b.t_rto_s),
            ("throughput_sps", a.throughput_sps, b.throughput_sps),
            ("goodput_sps", a.goodput_sps, b.goodput_sps),
            ("duration_s", a.duration_s, b.duration_s),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
        }
    }

    fn arb_rate() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0f64),
            Just(1.0),
            Just(f64::MIN_POSITIVE),
            0.0f64..1.0
        ]
    }

    fn arb_magnitude() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0f64), Just(-0.0), Just(1e300), 0.0f64..1e9]
    }

    fn arb_label() -> impl Strategy<Value = String> {
        prop_oneof![
            Just(String::new()),
            Just("China Mobile".to_owned()),
            Just("高铁 🚄 300 km/h".to_owned()),
            Just("x".repeat(300)),
        ]
    }

    fn arb_summary() -> impl Strategy<Value = FlowSummary> {
        (
            (0u32..u32::MAX, arb_label(), arb_label(), 0u64..u64::MAX),
            (
                arb_rate(),
                arb_rate(),
                arb_rate(),
                arb_rate(),
                arb_magnitude(),
            ),
            (
                0u32..u32::MAX,
                0u32..u32::MAX,
                0u32..u32::MAX,
                0u32..u32::MAX,
                0u32..u32::MAX,
            ),
            (
                arb_magnitude(),
                arb_magnitude(),
                arb_magnitude(),
                arb_magnitude(),
                arb_magnitude(),
            ),
            (1u32..u32::MAX, 1u32..8),
        )
            .prop_map(
                |(
                    (flow, provider, scenario, data_sent),
                    (p_d, p_a, p_a_burst, q_hat, acks_per_round),
                    (
                        timeouts,
                        spurious_timeouts,
                        timeout_sequences,
                        loss_indications,
                        fast_retransmissions,
                    ),
                    (rtt_s, mean_recovery_s, t_rto_s, throughput_sps, duration_s),
                    (w_m, b),
                )| FlowSummary {
                    flow,
                    provider: Label::intern(&provider).unwrap(),
                    scenario: Label::intern(&scenario).unwrap(),
                    rtt_s,
                    p_d,
                    data_sent,
                    p_a,
                    p_a_burst,
                    acks_per_round,
                    q_hat,
                    timeouts,
                    spurious_timeouts,
                    timeout_sequences,
                    mean_recovery_s,
                    t_rto_s,
                    loss_indications,
                    fast_retransmissions,
                    w_m,
                    b,
                    throughput_sps,
                    goodput_sps: throughput_sps * 0.97,
                    duration_s,
                },
            )
    }

    proptest! {
        /// The binary round trip is lossless to the bit, key echo
        /// included.
        #[test]
        fn binary_encoding_round_trips_bit_exactly(
            summary in arb_summary(),
            key in 0u64..u64::MAX,
        ) {
            let bytes = encode_entry(key, &summary);
            let (back_key, back) = decode_entry(&bytes).expect("fresh entry decodes");
            prop_assert_eq!(back_key, key);
            assert_bit_identical(&summary, &back);
        }

        /// Any single bit flip or truncation of an encoded entry is
        /// rejected outright — never decoded into a different summary.
        #[test]
        fn corrupted_entries_never_decode(
            summary in arb_summary(),
            key in 0u64..u64::MAX,
            bit in 0u64..u64::MAX,
            cut in 0u64..u64::MAX,
        ) {
            let bytes = encode_entry(key, &summary);
            let mut flipped = bytes.clone();
            let bit = (bit % (bytes.len() as u64 * 8)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(decode_entry(&flipped).is_none(), "flipped bit {bit} decoded");
            let cut = (cut % (bytes.len() as u64)) as usize;
            prop_assert!(decode_entry(&bytes[..cut]).is_none(), "truncation at {cut} decoded");
        }
    }

    /// The same round trip over *real* fuzzer-generated flows: expand a
    /// spread of chaos-fuzzer cases, simulate each, and push every
    /// resulting summary through the binary codec.
    #[test]
    fn chaos_fuzzer_summaries_round_trip_through_the_codec() {
        use hsm::chaos::{config_for_case, FuzzRanges};
        use hsm::scenario::runner::{run, Keep, Scratch};
        use hsm::simnet::chaos::StormPlan;

        let ranges = FuzzRanges {
            duration_s: (2, 3),
            region_duration_s: (2, 3),
            ..FuzzRanges::default()
        };
        let mut scratch = Scratch::new();
        for case in 0..32 {
            let config = config_for_case(&ranges, 0xC0DEC, case);
            let out = run(&mut scratch, &config, &StormPlan::default(), Keep::Summary);
            let out = out.expect("fuzzed config runs");
            let summary = out.summary();
            let key = hsm::runtime::cache::CacheKey::of(&config);
            let bytes = encode_entry(key.0, summary);
            let (back_key, back) = decode_entry(&bytes).expect("entry decodes");
            assert_eq!(back_key, key.0, "case {case}");
            assert_bit_identical(summary, &back);
        }
    }
}

/// Explicit replays of the minimal counterexamples recorded in
/// `proptests.proptest-regressions`. The regression file makes proptest
/// itself re-run them, but these hard-coded tests keep the cases alive
/// even if that file is lost or the proptest harness changes, and they
/// document *which* property each case once broke.
mod regression_replays {
    use super::*;

    /// Shrunk counterexample `a440b70a`: `b = 4` with lossless recovery
    /// (`q = 0`, `P_a = 0`). Two historical failure modes meet here: the
    /// printed `E[W] = (b/2)E[X] − 2` slip inverted the b-dependence away
    /// from `b = 2` (`hsm-core` now evaluates only `(2/b)E[X] − 2`), and
    /// an unfloored `q < p_d` priced timeout recovery cheaper than
    /// Padhye's.
    const REGRESSION_B4: ModelParams = ModelParams {
        rtt_s: 0.2901429431962392,
        t_rto_s: 0.2,
        p_d: 0.016783206476965122,
        p_a_burst: 0.0,
        q: 0.0,
        b: 4.0,
        w_m: 152.6617023863769,
    };

    /// Shrunk counterexample `cfeed97d`: heavy loss (`p_d ≈ 0.19`) with a
    /// tiny advertised window (`W_m = 4`) — the degenerate-window corner
    /// outside the round-based models' regime, which the Padhye-bound
    /// properties now exclude via `w_m.max(8.0)` / `p_d.min(0.08)`.
    const REGRESSION_TINY_WINDOW: ModelParams = ModelParams {
        rtt_s: 0.02,
        t_rto_s: 0.2,
        p_d: 0.1887137656191421,
        p_a_burst: 0.0,
        q: 0.0,
        b: 1.0,
        w_m: 4.0,
    };

    fn assert_total_and_bounded(params: &ModelParams) {
        let bd = enhanced_breakdown(params).unwrap();
        assert!(bd.throughput_sps.is_finite() && bd.throughput_sps >= 0.0);
        assert!(bd.e_x > 0.0);
        assert!((0.0..=1.0).contains(&bd.q_timeout));
        assert!(bd.throughput_sps <= params.w_m / params.rtt_s * 2.0);
    }

    #[test]
    fn replay_b4_case_is_total_and_bounded() {
        assert_total_and_bounded(&REGRESSION_B4);
    }

    #[test]
    fn replay_b4_case_respects_padhye_bound_after_q_floor() {
        // The q-floor fix (timeout_sequence_terms lifts q to p_d) is what
        // keeps this case below Padhye today; replay it exactly as the
        // property would evaluate it.
        let params = REGRESSION_B4
            .with_p_d(REGRESSION_B4.p_d.min(0.08))
            .with_w_m(REGRESSION_B4.w_m.max(8.0));
        let enhanced = enhanced_throughput(&params).unwrap();
        let padhye = padhye_full(&params).unwrap();
        assert!(
            enhanced <= padhye * 1.05,
            "enhanced {enhanced} padhye {padhye}"
        );
    }

    #[test]
    fn replay_tiny_window_case_is_total_and_bounded() {
        assert_total_and_bounded(&REGRESSION_TINY_WINDOW);
    }

    #[test]
    fn replay_tiny_window_case_respects_padhye_bound_in_regime() {
        let params = REGRESSION_TINY_WINDOW
            .with_p_d(REGRESSION_TINY_WINDOW.p_d.min(0.08))
            .with_w_m(REGRESSION_TINY_WINDOW.w_m.max(8.0));
        let enhanced = enhanced_throughput(&params).unwrap();
        let padhye = padhye_full(&params).unwrap();
        assert!(
            enhanced <= padhye * 1.05,
            "enhanced {enhanced} padhye {padhye}"
        );
    }
}
