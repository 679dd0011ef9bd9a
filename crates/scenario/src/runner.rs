//! One-call scenario runner: provider + motion + seed → simulated flow →
//! analysis and model-ready summary, with the trace when the caller wants
//! it. [`run`] is the one body — validate, derive, simulate, analyse the
//! capture where the engine left it, and fold it into a
//! [`FlowTrace`](hsm_trace::record::FlowTrace) under [`Keep::Trace`] — and
//! what campaigns run under [`Keep::Summary`]; [`run_scenario`] is its
//! panicking shorthand.

use crate::fnv::Fnv1a;
use crate::provider::Provider;
use hsm_simnet::chaos::StormPlan;
use hsm_simnet::error::SimError;
use hsm_simnet::mobility::Trajectory;
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_tcp::cc::Algorithm;
use hsm_tcp::connection::{
    try_analyze_connection_with, AnalyzedConnection, ConnectionConfig, ConnectionOutcome,
    MobilityScenario, PathSpec,
};
use hsm_tcp::receiver::ReceiverConfig;
use hsm_tcp::recovery::Recovery;
use hsm_tcp::reno::SenderConfig;
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::summary::FlowAnalysis;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Scenario label used in traces for 300 km/h runs.
const SCENARIO_HIGH_SPEED: &str = "high-speed";
/// Scenario label used in traces for stationary runs.
const SCENARIO_STATIONARY: &str = "stationary";

/// Whether the phone is on the train or on a desk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Motion {
    /// Cruising at 300 km/h along the BTR corridor.
    HighSpeed,
    /// Not moving; benign channel, no handoffs.
    Stationary,
}

impl Motion {
    /// The trace scenario label.
    pub fn label(&self) -> &'static str {
        match self {
            Motion::HighSpeed => SCENARIO_HIGH_SPEED,
            Motion::Stationary => SCENARIO_STATIONARY,
        }
    }
}

/// A configuration the runner refuses to execute, or a simulation run the
/// engine refused to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// The advertised window `w_m` was 0 — the receiver could never open
    /// the flow.
    ZeroWindow,
    /// The delayed-ACK factor `b` was 0 — no ACK would ever be generated.
    ZeroDelayedAck,
    /// The flow duration was zero — nothing would be transmitted.
    ZeroDuration,
    /// The simulation engine detected internal bookkeeping corruption and
    /// aborted the run (see [`SimError`]).
    Engine(SimError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroWindow => write!(f, "advertised window w_m must be >= 1 segment"),
            ScenarioError::ZeroDelayedAck => write!(f, "delayed-ACK factor b must be >= 1"),
            ScenarioError::ZeroDuration => write!(f, "flow duration must be non-zero"),
            ScenarioError::Engine(e) => write!(f, "simulation engine failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Engine(e)
    }
}

/// Full description of one measured flow.
///
/// Write one as a struct literal over [`Default`]; [`run`] checks it with
/// [`ScenarioConfig::validate`] before it simulates, and a campaign spec
/// checks each config it would expand to the same way.
///
/// ```
/// use hsm_scenario::prelude::*;
///
/// let cfg = ScenarioConfig {
///     provider: Provider::ChinaUnicom,
///     motion: Motion::Stationary,
///     seed: 3,
///     ..Default::default()
/// };
/// assert!(cfg.validate().is_ok());
/// let closed = ScenarioConfig { w_m: 0, ..cfg };
/// assert_eq!(closed.validate(), Err(ScenarioError::ZeroWindow));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioConfig {
    /// Which ISP carries the flow.
    pub provider: Provider,
    /// Moving or stationary.
    pub motion: Motion,
    /// Master seed (one flow ↔ one seed).
    pub seed: u64,
    /// How long the sender keeps transmitting.
    pub duration: SimDuration,
    /// Receiver-advertised window, segments.
    pub w_m: u32,
    /// Delayed-ACK factor.
    pub b: u32,
    /// Flow id recorded in packets/traces.
    pub flow: u32,
    /// Congestion-control algorithm the sender runs.
    pub cc: Algorithm,
    /// Loss-recovery countermeasure the sender runs (paper §V).
    pub recovery: Recovery,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            provider: Provider::ChinaMobile,
            motion: Motion::HighSpeed,
            seed: 1,
            duration: SimDuration::from_secs(120),
            w_m: 48,
            b: 2,
            flow: 0,
            cc: Algorithm::Reno,
            recovery: Recovery::None,
        }
    }
}

impl ScenarioConfig {
    /// Checks the configuration against the runner's preconditions.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when `w_m == 0`, `b == 0` or the duration
    /// is zero.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.w_m == 0 {
            return Err(ScenarioError::ZeroWindow);
        }
        if self.b == 0 {
            return Err(ScenarioError::ZeroDelayedAck);
        }
        if self.duration == SimDuration::ZERO {
            return Err(ScenarioError::ZeroDuration);
        }
        Ok(())
    }

    /// Streams this flow's identity into `h`: the canonical encoding that
    /// the campaign cache key and the spec expansion digest both hash.
    ///
    /// Every field is always present, in declaration order: one tag byte
    /// per enum variant, fixed-width little-endian integers, and after a
    /// controller's tag its published constants ([`Algorithm::constants`])
    /// as IEEE-754 bits. The tag fixes the length of what follows it, so
    /// the encoding is prefix-free and a sequence of configs needs no
    /// separator. Nothing is allocated.
    ///
    /// The struct is destructured and every enum matched exhaustively, so
    /// a new field or variant fails to compile until it is keyed. Tags
    /// are part of the identity: never renumber one, and bump
    /// `hsm_runtime::cache::ENGINE_VERSION` with any change here.
    pub fn hash_into(&self, h: &mut Fnv1a) {
        let ScenarioConfig {
            provider,
            motion,
            seed,
            duration,
            w_m,
            b,
            flow,
            cc,
            recovery,
        } = *self;
        h.u8(match provider {
            Provider::ChinaMobile => 0,
            Provider::ChinaUnicom => 1,
            Provider::ChinaTelecom => 2,
        });
        h.u8(match motion {
            Motion::HighSpeed => 0,
            Motion::Stationary => 1,
        });
        h.u64(seed);
        h.u64(duration.as_micros());
        h.u32(w_m);
        h.u32(b);
        h.u32(flow);
        h.u8(match cc {
            Algorithm::Reno => 0,
            Algorithm::Veno => 1,
            Algorithm::Cubic => 2,
            Algorithm::Bbr => 3,
            Algorithm::Compound => 4,
        });
        for &constant in cc.constants() {
            h.f64(constant);
        }
        h.u8(match recovery {
            Recovery::None => 0,
            Recovery::RedundantRto => 1,
            Recovery::Frto => 2,
            Recovery::AckRobust => 3,
        });
    }

    /// The path spec this scenario runs over.
    pub fn path(&self) -> PathSpec {
        match self.motion {
            Motion::HighSpeed => self.provider.high_speed_path(),
            Motion::Stationary => self.provider.stationary_path(),
        }
    }

    /// The mobility attachment (none when stationary).
    pub fn mobility(&self) -> Option<MobilityScenario> {
        match self.motion {
            Motion::Stationary => None,
            Motion::HighSpeed => {
                // Cover whatever distance the flow duration needs at
                // 300 km/h, capped at the full route — and start the ride
                // at a seed-determined point of the line, so a dataset of
                // flows samples the whole corridor (including any
                // provider's coverage holes), as the paper's captures did.
                let km =
                    (self.duration.as_secs_f64() * 83.4 / 1000.0 + 2.0).min(crate::btr::ROUTE_KM);
                let max_start = (crate::btr::ROUTE_KM - km).max(0.0);
                let start_km =
                    max_start * (self.seed.wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0;
                Some(MobilityScenario {
                    trajectory: Trajectory::cruising(km, crate::btr::CRUISE_KMH)
                        .starting_at_km(start_km),
                    layout: self.provider.cell_layout(),
                    handoff: self.provider.handoff_params(),
                })
            }
        }
    }

    /// The TCP connection configuration.
    pub fn connection(&self) -> ConnectionConfig {
        ConnectionConfig {
            flow: self.flow,
            sender: SenderConfig {
                w_m: self.w_m,
                algorithm: self.cc,
                recovery: self.recovery,
                stop_after: Some(self.duration),
                ..Default::default()
            },
            receiver: ReceiverConfig {
                b: self.b,
                ..Default::default()
            },
            provider: self.provider.name().into(),
            scenario: self.motion.label().into(),
            deadline: SimTime::ZERO + self.duration + SimDuration::from_secs(30),
            storm: StormPlan::default(),
        }
    }
}

/// Everything produced by one scenario run, as the benchmark's traced
/// flow (`benchmark/src/layers.rs::traced_flow`) assembles it; it goes
/// once that flow runs the campaign body instead.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The configuration that produced it.
    pub config: ScenarioConfig,
    /// Raw connection results (trace + endpoint ground truth).
    pub outcome: ConnectionOutcome,
    /// Full measurement analysis of the trace.
    pub analysis: FlowAnalysis,
}

/// Reusable working memory for scenario runs: the simulation engine (event
/// queue, link buffers, packet arena) and the analysis fold's columns, so
/// a worker running many flows back to back through [`run`] pays the big
/// allocations once instead of per flow. It carries no run state between
/// flows: runs through a reused or poisoned scratch are bit-identical to
/// fresh ones.
pub use hsm_tcp::connection::ConnectionScratch as Scratch;

/// What [`run`] hands back besides the analysis.
pub use hsm_tcp::connection::Keep;

/// Runs one scenario end to end: [`run`] on a fresh [`Scratch`] with the
/// empty storm, keeping the trace — for tests, examples and figures that
/// have no use for the error.
///
/// # Panics
///
/// Panics with the [`ScenarioError`]'s message when the configuration is
/// invalid (zero window, zero delayed-ACK factor, zero duration) or the
/// engine reports corruption.
pub fn run_scenario(config: &ScenarioConfig) -> AnalyzedConnection {
    let calm = StormPlan::default();
    match run(&mut Scratch::new(), config, &calm, Keep::Trace) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// The one scenario body: validate, derive path / mobility / connection
/// from `config`, simulate, analyze — the analysis taking the flow's
/// packets from the engine's arena as they land, and [`Keep::Trace`] the
/// flow's trace from the same records. `storm` is a chaos-storm schedule
/// written onto the uplink's timeline — the accuracy ledger's §V storm rig:
/// the scenario's provider path and motion stay as configured while the
/// storm superimposes deterministic ACK-delay or ACK-burst episodes (on a
/// moving flow, on top of the ride's handoffs), and the full analysis
/// pipeline still runs, so storm flows yield the same model-ready summary
/// campaign flows do. The empty plan adds nothing to the world.
///
/// # Errors
///
/// Returns [`ScenarioError`] when the configuration fails
/// [`ScenarioConfig::validate`], or [`ScenarioError::Engine`] when the
/// simulation engine reports internal bookkeeping corruption.
pub fn run(
    scratch: &mut Scratch,
    config: &ScenarioConfig,
    storm: &StormPlan,
    keep: Keep,
) -> Result<AnalyzedConnection, ScenarioError> {
    config.validate()?;
    let mobility = config.mobility();
    let conn = ConnectionConfig {
        storm: storm.clone(),
        ..config.connection()
    };
    Ok(try_analyze_connection_with(
        scratch,
        config.seed,
        &config.path(),
        mobility.as_ref(),
        &conn,
        &TimeoutConfig::default(),
        keep,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_flow_is_clean() {
        let cfg = ScenarioConfig {
            motion: Motion::Stationary,
            duration: SimDuration::from_secs(30),
            seed: 3,
            ..Default::default()
        };
        let out = run_scenario(&cfg);
        let s = out.summary();
        assert_eq!(&*s.scenario, SCENARIO_STATIONARY);
        assert!(s.p_d < 0.01, "p_d {}", s.p_d);
        assert!(s.throughput_sps > 100.0, "tp {}", s.throughput_sps);
        assert!(out.channel.is_none());
    }

    #[test]
    fn high_speed_flow_suffers() {
        let hs = run_scenario(&ScenarioConfig {
            duration: SimDuration::from_secs(60),
            seed: 5,
            ..Default::default()
        });
        let st = run_scenario(&ScenarioConfig {
            motion: Motion::Stationary,
            duration: SimDuration::from_secs(60),
            seed: 5,
            ..Default::default()
        });
        assert!(hs.channel.expect("mobility attached").handoffs >= 1);
        assert!(
            hs.summary().throughput_sps < st.summary().throughput_sps,
            "high-speed {} vs stationary {}",
            hs.summary().throughput_sps,
            st.summary().throughput_sps
        );
        assert!(
            hs.summary().p_a > st.summary().p_a * 0.9,
            "ACK loss must rise on the train"
        );
    }

    #[test]
    fn validate_names_each_degenerate_field() {
        assert_eq!(ScenarioConfig::default().validate(), Ok(()));
        let cases = [
            (
                ScenarioConfig {
                    w_m: 0,
                    ..Default::default()
                },
                ScenarioError::ZeroWindow,
            ),
            (
                ScenarioConfig {
                    b: 0,
                    ..Default::default()
                },
                ScenarioError::ZeroDelayedAck,
            ),
            (
                ScenarioConfig {
                    duration: SimDuration::ZERO,
                    ..Default::default()
                },
                ScenarioError::ZeroDuration,
            ),
        ];
        for (cfg, err) in cases {
            assert_eq!(cfg.validate(), Err(err));
        }
    }

    #[test]
    fn run_rejects_invalid_and_matches_run_scenario() {
        let calm = StormPlan::default();
        let bad = ScenarioConfig {
            w_m: 0,
            ..Default::default()
        };
        assert_eq!(
            run(&mut Scratch::new(), &bad, &calm, Keep::Summary).unwrap_err(),
            ScenarioError::ZeroWindow
        );
        let good = ScenarioConfig {
            motion: Motion::Stationary,
            duration: SimDuration::from_secs(5),
            ..Default::default()
        };
        let a = run(&mut Scratch::new(), &good, &calm, Keep::Summary).expect("valid config runs");
        let b = run_scenario(&good);
        assert_eq!(a.summary(), b.summary());
        assert!(a.trace.is_none() && b.trace.is_some());
    }

    #[test]
    #[should_panic(expected = "advertised window")]
    fn run_scenario_names_a_zero_window() {
        run_scenario(&ScenarioConfig {
            w_m: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "delayed-ACK")]
    fn run_scenario_names_a_zero_delayed_ack_factor() {
        run_scenario(&ScenarioConfig {
            b: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn run_scenario_names_a_zero_duration() {
        run_scenario(&ScenarioConfig {
            duration: SimDuration::ZERO,
            ..Default::default()
        });
    }

    #[test]
    fn reused_scratch_matches_fresh_scenario_runs() {
        let mut scratch = Scratch::new();
        // Mix motions and providers so the scratch crosses engine shapes
        // (with/without mobility channel) between runs.
        let configs = [
            ScenarioConfig {
                motion: Motion::Stationary,
                duration: SimDuration::from_secs(5),
                seed: 2,
                ..Default::default()
            },
            ScenarioConfig {
                provider: Provider::ChinaUnicom,
                duration: SimDuration::from_secs(8),
                seed: 9,
                ..Default::default()
            },
            ScenarioConfig {
                motion: Motion::Stationary,
                duration: SimDuration::from_secs(5),
                seed: 2,
                ..Default::default()
            },
        ];
        for cfg in &configs {
            let reused =
                run(&mut scratch, cfg, &StormPlan::default(), Keep::Trace).expect("valid config");
            let fresh = run_scenario(cfg);
            assert_eq!(reused.summary(), fresh.summary(), "seed {}", cfg.seed);
            assert_eq!(reused.trace, fresh.trace);
        }
        assert_eq!(
            run(
                &mut scratch,
                &ScenarioConfig {
                    w_m: 0,
                    ..Default::default()
                },
                &StormPlan::default(),
                Keep::Trace
            )
            .unwrap_err(),
            ScenarioError::ZeroWindow
        );
    }

    #[test]
    fn storm_scenario_summarizes_like_a_campaign_flow() {
        use hsm_simnet::chaos::{StormEpisode, StormKind};
        use hsm_simnet::time::SimTime;

        let config = ScenarioConfig {
            motion: Motion::Stationary,
            duration: SimDuration::from_secs(12),
            seed: 8,
            ..Default::default()
        };
        // Periodic long ACK-delay flaps: timeouts without extra loss.
        let plan = StormPlan {
            episodes: (0..4)
                .map(|i| StormEpisode {
                    at: SimTime::from_millis(600 + 2_500 * i),
                    duration: SimDuration::from_millis(900),
                    kind: StormKind::Flap(SimDuration::from_millis(900)),
                })
                .collect(),
        };
        let mut scratch = Scratch::new();
        let stormy = run(&mut scratch, &config, &plan, Keep::Summary).expect("storm run");
        let calm = run_scenario(&config);
        assert!(
            stormy.summary().timeouts > calm.summary().timeouts,
            "storm must raise timeouts: {} vs {}",
            stormy.summary().timeouts,
            calm.summary().timeouts
        );
        assert!(stormy.summary().throughput_sps > 0.0);
        assert!(stormy.summary().throughput_sps < calm.summary().throughput_sps);

        // Empty plan = identity; reused scratch = fresh run.
        let empty = run(&mut scratch, &config, &StormPlan::default(), Keep::Summary)
            .expect("empty-plan run");
        assert_eq!(empty.summary(), calm.summary());
        let reused = run(&mut scratch, &config, &plan, Keep::Summary).expect("reused");
        assert_eq!(reused.summary(), stormy.summary());
    }

    /// A storm on a moving flow adds its episodes to the ride's handoffs:
    /// it runs, replays bit for bit, and bites; and a storm-free moving
    /// flow keeps the summary the ticking channel process gave it.
    #[test]
    fn a_storm_on_a_moving_flow_runs_on_top_of_the_handoffs() {
        let horizon = SimDuration::from_secs(40);
        let flaps = StormPlan::periodic_flaps(horizon);
        let moving = ScenarioConfig {
            motion: Motion::HighSpeed,
            duration: horizon,
            seed: 8,
            ..Default::default()
        };
        let mut scratch = Scratch::new();
        let stormy = run(&mut scratch, &moving, &flaps, Keep::Trace).expect("moving storm");
        let replay = run(&mut scratch, &moving, &flaps, Keep::Trace).expect("replay");
        assert_eq!(stormy.summary(), replay.summary());
        assert_eq!(stormy.trace, replay.trace);
        let calm =
            run(&mut scratch, &moving, &StormPlan::default(), Keep::Summary).expect("calm ride");
        assert!(
            stormy.sender.timeouts.len() > calm.sender.timeouts.len(),
            "storm {} vs calm {} timeouts",
            stormy.sender.timeouts.len(),
            calm.sender.timeouts.len()
        );
        // The calm ride (one handoff, five timeouts) summarizes to the
        // bytes it had when a channel process agent ticked along it.
        assert_eq!(calm.channel.expect("a ride").handoffs, 1);
        assert_eq!(stormy.channel, calm.channel);
        let json = serde_json::to_string(calm.summary()).expect("serialize");
        assert_eq!(crate::fnv::fnv1a(json.as_bytes()), 0x17ae_c257_dc12_6f17);
    }

    #[test]
    fn hash_into_streams_the_documented_bytes() {
        let cfg = ScenarioConfig {
            provider: Provider::ChinaTelecom,
            motion: Motion::Stationary,
            seed: 0x0102_0304_0506_0708,
            duration: SimDuration::from_micros(9),
            w_m: 48,
            b: 2,
            flow: 7,
            cc: Algorithm::Cubic,
            recovery: Recovery::AckRobust,
        };
        let mut expected = vec![2u8, 1];
        expected.extend_from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]);
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.extend_from_slice(&[48, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0]);
        expected.push(2);
        // CUBIC's `C` and `β`; their values are pinned by the frozen
        // per-controller keys in `hsm-runtime`'s cache tests.
        assert_eq!(Algorithm::Cubic.constants().len(), 2);
        for constant in Algorithm::Cubic.constants() {
            expected.extend_from_slice(&constant.to_bits().to_le_bytes());
        }
        expected.push(3);
        let mut h = Fnv1a::default();
        cfg.hash_into(&mut h);
        assert_eq!(h.finish(), crate::fnv::fnv1a(&expected));
    }

    #[test]
    fn recovery_choice_reaches_the_sender_config() {
        let cfg = ScenarioConfig {
            recovery: Recovery::Frto,
            ..Default::default()
        };
        assert_eq!(cfg.connection().sender.recovery, Recovery::Frto);
        assert_eq!(
            ScenarioConfig::default().connection().sender.recovery,
            Recovery::None
        );
    }

    #[test]
    fn cc_choice_reaches_the_sender_config() {
        let cfg = ScenarioConfig {
            cc: Algorithm::Cubic,
            ..Default::default()
        };
        assert_eq!(cfg.connection().sender.algorithm, Algorithm::Cubic);
        assert_eq!(
            ScenarioConfig::default().connection().sender.algorithm,
            Algorithm::Reno
        );
    }

    #[test]
    fn config_plumbs_labels_and_windows() {
        let cfg = ScenarioConfig {
            w_m: 24,
            b: 1,
            flow: 9,
            ..Default::default()
        };
        let conn = cfg.connection();
        assert_eq!(conn.sender.w_m, 24);
        assert_eq!(conn.receiver.b, 1);
        assert_eq!(conn.flow, 9);
        assert_eq!(&*conn.provider, "China Mobile");
        let out = run_scenario(&ScenarioConfig {
            duration: SimDuration::from_secs(10),
            ..cfg
        });
        let trace = out.trace.expect("run_scenario keeps the trace");
        assert_eq!(trace.meta.w_m, 24);
        assert_eq!(trace.flow, 9);
    }
}
