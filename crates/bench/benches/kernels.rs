//! Kernel benches: the hot paths under every experiment — the event
//! engine, a full TCP flow, the trace analyses and the analytic models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Short measurement windows keep `cargo bench` tractable: the slow
/// benches here simulate seconds of TCP per iteration.
fn tune(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    g
}
use hsm_core::enhanced::EnhancedModel;
use hsm_core::padhye;
use hsm_core::params::ModelParams;
use hsm_scenario::runner::{run_scenario, Motion, ScenarioConfig};
use hsm_simnet::loss::{GilbertElliott, LossModel};
use hsm_simnet::prelude::*;
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::summary::analyze_flow;

fn bench_engine(c: &mut Criterion) {
    let mut c = tune(c);
    c.bench_function("engine/10k_packet_events", |b| {
        b.iter(|| {
            let mut eng = Engine::new(1);
            let sink = eng.add_agent(Box::new(NullAgent::new()));
            let link = eng.add_link(LinkSpec::new(sink, "wire"));
            for seq in 0..10_000u64 {
                eng.inject(link, Packet::data(FlowId(0), SeqNo(seq), false));
            }
            eng.run_until_idle();
            black_box(eng.events_processed())
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventKind, EventQueue};
    let mut c = tune(c);
    // Schedule/pop churn at a steady queue depth — the engine's future
    // event list under load. Times mix so same-time FIFO paths get hit.
    c.bench_function("queue/schedule_pop_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let dst = AgentId::from_raw(0);
            for i in 0..1024u64 {
                q.schedule(Event {
                    at: SimTime::from_micros(i % 97),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
            }
            let mut popped = 0u64;
            for i in 0..64 * 1024u64 {
                let (_, ev) = q.pop().expect("queue kept full");
                popped += 1;
                q.schedule(Event {
                    at: ev.at + SimDuration::from_micros(i % 89),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
            }
            black_box(popped)
        });
    });
    // Schedule + cancel: the retransmission-timer pattern (most timers
    // never fire).
    c.bench_function("queue/schedule_cancel_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let dst = AgentId::from_raw(0);
            let mut cancelled = 0u64;
            for i in 0..64 * 1024u64 {
                let id = q.schedule(Event {
                    at: SimTime::from_micros(i),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
                if q.cancel(id) {
                    cancelled += 1;
                }
            }
            black_box(cancelled)
        });
    });
}

/// Ops per criterion iteration of the queue churn benches; depth stays
/// constant across them, so the queue carries steady state between
/// iterations.
const CHURN_OPS: u64 = 4096;

/// Queue churn through a deterministic schedule/cancel/pop mix at steady
/// pending depths of 30 (what a flow really keeps pending), 1k and 100k
/// (how the heap degrades far outside it). Each op is the engine's
/// dominant timer pattern: schedule an RTO ~40ms out, cancel it
/// immediately, then pop the next event and schedule its successor a
/// mixed horizon away (same-instant-ish, near, RTO-scale, far).
fn bench_queue_churn(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventKind, EventQueue};

    /// xorshift64 timer-horizon mix.
    fn dt(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let r = *state;
        match r % 4 {
            0 => r % 64,
            1 => r % 4_000,
            2 => 30_000 + r % 20_000,
            _ => 200_000 + r % 100_000,
        }
    }

    let mut g = tune(c);
    for depth in [30u64, 1_000, 100_000] {
        g.bench_function(&format!("queue_churn/{depth}"), |b| {
            let dst = AgentId::from_raw(0);
            let mut q = EventQueue::new();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut now = 0u64;
            for tag in 0..depth {
                q.schedule(Event {
                    at: SimTime::from_micros(now + dt(&mut rng)),
                    dst,
                    kind: EventKind::Timer { tag },
                });
            }
            b.iter(|| {
                let mut fired = 0u64;
                for tag in 0..CHURN_OPS {
                    let rto = q.schedule(Event {
                        at: SimTime::from_micros(now + 40_000),
                        dst,
                        kind: EventKind::Timer { tag },
                    });
                    q.cancel(rto);
                    let (_, ev) = q.pop().expect("steady-state churn never empties");
                    now = ev.at.as_micros();
                    q.schedule(Event {
                        at: SimTime::from_micros(now + dt(&mut rng)),
                        dst,
                        kind: EventKind::Timer { tag },
                    });
                    fired += 1;
                }
                black_box(fired)
            });
        });
    }
}

/// The cost the scanned-lanes queue accepts (DESIGN.md §15): a pop reads
/// every lane's head key, so it is O(lanes). Pop + lane-schedule churn —
/// a link's delivery pattern — over 2, 4 and 8 lanes (one link, a
/// campaign flow, a duplex MPTCP world; the largest world the workspace
/// builds has 12) and 64 (where a heap of lanes would start to pay), each
/// lane three entries deep, with six timers in the heap throughout.
fn bench_queue_lanes(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventKind, EventQueue};

    const TIMER: u64 = u64::MAX;

    let mut g = tune(c);
    for lanes in [2usize, 4, 8, 64] {
        g.bench_function(&format!("queue_lanes/{lanes}"), |b| {
            let dst = AgentId::from_raw(0);
            let event = |at: u64, tag: u64| Event {
                at: SimTime::from_micros(at),
                dst,
                kind: EventKind::Timer { tag },
            };
            let mut q = EventQueue::new();
            // Lane tails, staggered so successive pops walk the lanes.
            let mut tails: Vec<u64> = (0..lanes as u64).map(|lane| 7 * lane).collect();
            for _ in 0..3 {
                for (lane, tail) in tails.iter_mut().enumerate() {
                    *tail += 1_000;
                    q.schedule_in_lane(lane, event(*tail, lane as u64));
                }
            }
            for i in 0..6 {
                q.schedule(event(40_000 + i, TIMER));
            }
            b.iter(|| {
                let mut fired = 0u64;
                for _ in 0..CHURN_OPS {
                    let (_, ev) = q.pop().expect("steady-state churn never empties");
                    match ev.kind {
                        EventKind::Timer { tag: TIMER } => {
                            q.schedule(event(ev.at.as_micros() + 40_000, TIMER));
                        }
                        EventKind::Timer { tag: lane } => {
                            let tail = &mut tails[lane as usize];
                            *tail = (*tail + 1_000).max(ev.at.as_micros());
                            q.schedule_in_lane(lane as usize, event(*tail, lane));
                        }
                        _ => unreachable!("only timers are scheduled"),
                    }
                    fired += 1;
                }
                black_box(fired)
            });
        });
    }
}

fn bench_link_offer(c: &mut Criterion) {
    use hsm_simnet::link::Link;
    let mut c = tune(c);
    // offer → complete_tx churn: the dense-handle hand-off on a saturated
    // link (one in flight, one queued).
    c.bench_function("link/offer_complete_64k", |b| {
        b.iter(|| {
            let mut link = Link::from_spec(
                LinkSpec::new(AgentId::from_raw(0), "wire")
                    .bandwidth_bps(12_000_000)
                    .queue_capacity(32),
            );
            let mut delivered = 0u64;
            for id in 0..64 * 1024u64 {
                link.offer(QueuedPacket {
                    id: PacketId(id),
                    size_bytes: 1500,
                });
                if let Some((_done, _next)) = link.try_complete_tx() {
                    delivered += 1;
                }
            }
            black_box(delivered)
        });
    });
}

fn bench_tcp_flow(c: &mut Criterion) {
    let mut c = tune(c);
    c.bench_function("tcp/stationary_flow_10s", |b| {
        b.iter(|| {
            let out = run_scenario(&ScenarioConfig {
                motion: Motion::Stationary,
                duration: SimDuration::from_secs(10),
                seed: 7,
                ..Default::default()
            });
            black_box(out.summary().throughput_sps)
        });
    });
    c.bench_function("tcp/high_speed_flow_10s", |b| {
        b.iter(|| {
            let out = run_scenario(&ScenarioConfig {
                duration: SimDuration::from_secs(10),
                seed: 7,
                ..Default::default()
            });
            black_box(out.summary().timeouts)
        });
    });
}

fn bench_analysis(c: &mut Criterion) {
    let trace_of = |secs| {
        let out = run_scenario(&ScenarioConfig {
            duration: SimDuration::from_secs(secs),
            seed: 11,
            ..Default::default()
        });
        out.outcome.trace
    };
    let mut c = tune(c);
    let trace = trace_of(30);
    c.bench_function("trace/analyze_flow_30s_trace", |b| {
        b.iter(|| black_box(analyze_flow(&trace, &TimeoutConfig::default())));
    });
    // A Table I flow: 63,829 records, 3.6 MB, past L2 — the size the cold
    // benchmark workloads analyse, so ns/iter over the record count lines
    // up with their `trace.analyze.ns_per_record`.
    let trace = trace_of(120);
    println!(
        "trace/analyze_flow_120s_high_speed: {} records",
        trace.records.len()
    );
    c.bench_function("trace/analyze_flow_120s_high_speed", |b| {
        b.iter(|| black_box(analyze_flow(&trace, &TimeoutConfig::default())));
    });
}

fn bench_models(c: &mut Criterion) {
    let params = ModelParams::high_speed_example();
    let mut c = tune(c);
    c.bench_function("model/enhanced_eval", |b| {
        b.iter(|| black_box(EnhancedModel::as_published().throughput(&params).unwrap()));
    });
    c.bench_function("model/padhye_full_eval", |b| {
        b.iter(|| black_box(padhye::full(&params).unwrap()));
    });
}

fn bench_loss_models(c: &mut Criterion) {
    let mut c = tune(c);
    c.bench_function("loss/gilbert_elliott_100k", |b| {
        b.iter(|| {
            let mut ge = GilbertElliott::new(0.001, 0.5, 0.01, 0.2);
            let mut rng = SimRng::seed_from_u64(3);
            let mut lost = 0u32;
            for _ in 0..100_000 {
                if ge.is_lost(SimTime::ZERO, &mut rng) {
                    lost += 1;
                }
            }
            black_box(lost)
        });
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_event_queue,
    bench_queue_churn,
    bench_queue_lanes,
    bench_link_offer,
    bench_tcp_flow,
    bench_analysis,
    bench_models,
    bench_loss_models
);
criterion_main!(benches);
