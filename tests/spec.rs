//! Integration tests for declarative campaign specs: property-based TOML
//! round trips (hand-built strategies plus the chaos spec fuzzer) and
//! golden pins of the committed example specs — the paper's 108-config
//! measurement grid and the 540-config congestion-control grid are
//! frozen by expansion length and digest, so any change to expansion
//! semantics or spec serialization fails loudly here.

use hsm::prelude::{
    expansion_digest, load_spec, CampaignSpec, ScenarioBase, ScenarioGrid, SweepAxis,
};
use hsm::scenario::prelude::{Motion, Provider};
use hsm::tcp::cc::Algorithm;
use hsm::tcp::recovery::Recovery;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/specs")
        .join(name)
}

fn arb_base() -> impl Strategy<Value = ScenarioBase> {
    (
        prop_oneof![
            Just(Provider::ChinaMobile),
            Just(Provider::ChinaUnicom),
            Just(Provider::ChinaTelecom),
        ],
        prop_oneof![Just(Motion::HighSpeed), Just(Motion::Stationary)],
        2u64..30,
        4u32..64,
        1u32..4,
        0u64..1_000_000,
        1u32..4,
        (
            prop_oneof![
                Just(Algorithm::Reno),
                Just(Algorithm::Bbr),
                Just(Algorithm::Veno),
            ],
            prop_oneof![
                Just(Recovery::None),
                Just(Recovery::RedundantRto),
                Just(Recovery::Frto),
                Just(Recovery::AckRobust),
            ],
        ),
    )
        .prop_map(
            |(provider, motion, duration_s, w_m, b, seed_start, seeds, (cc, recovery))| {
                ScenarioBase {
                    provider,
                    motion,
                    duration_s,
                    w_m,
                    b,
                    cc,
                    recovery,
                    seed_start,
                    seeds,
                    scale: 1.0,
                }
            },
        )
}

/// A one-grid spec with an arbitrary base and an arbitrary subset of the
/// integer sweep axes (each with 1–3 values).
fn arb_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        arb_base(),
        prop::collection::vec(2u64..30, 1..4),
        prop::collection::vec(4u32..64, 1..4),
        prop::collection::vec(1u32..4, 1..4),
        0u32..8,
    )
        .prop_map(|(base, durations, windows, delacks, mask)| {
            let mut grid = ScenarioGrid::named("grid-0");
            grid.base = base.clone();
            if mask & 1 != 0 {
                grid.sweep.push(SweepAxis::DurationSecs(durations));
            }
            if mask & 2 != 0 {
                grid.sweep.push(SweepAxis::Window(windows));
            }
            if mask & 4 != 0 {
                grid.sweep.push(SweepAxis::DelayedAck(delacks));
            }
            CampaignSpec {
                name: "prop".to_owned(),
                defaults: base,
                scenarios: vec![grid],
            }
        })
}

proptest! {
    #[test]
    fn any_grid_spec_survives_toml_round_trip(spec in arb_spec()) {
        spec.validate().expect("generated spec is valid");
        let text = spec.to_toml();
        let back = CampaignSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("round trip failed: {e}\n{text}"));
        prop_assert_eq!(&back, &spec);
        let a = spec.expand().expect("expand");
        let b = back.expand().expect("re-expand");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(expansion_digest(&a), expansion_digest(&b));
    }

    #[test]
    fn fuzzed_specs_survive_toml_round_trip(master in 0u64..1_000_000, case in 0u64..1_000) {
        // The chaos fuzzer roams a wider surface: multiple grids, every
        // axis kind (providers, motion, cc), table1 scenarios.
        let spec = hsm::chaos::spec_for_case(master, case);
        let back = CampaignSpec::from_toml(&spec.to_toml()).expect("parse back");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.digest().expect("digest"), spec.digest().expect("digest"));
    }
}

/// The committed paper grid is frozen: 108 configurations (3 providers x
/// 2 motions x 2 durations x 3 windows x 3 delayed-ACK factors) with a
/// pinned expansion digest. A digest change means spec expansion
/// semantics (or the file) changed — bump deliberately or fix the
/// regression.
#[test]
fn paper_grid_expansion_is_pinned() {
    let spec = load_spec(&spec_path("paper_grid.toml")).expect("paper grid loads");
    let configs = spec.expand().expect("expands");
    assert_eq!(configs.len(), 108, "paper grid must stay 108 configs");
    assert!(configs.iter().all(|c| c.cc == Algorithm::Reno));
    assert_eq!(
        expansion_digest(&configs),
        PAPER_GRID_DIGEST,
        "paper grid expansion digest drifted"
    );
}

/// The congestion-control grid: the same 108-point grid crossed with the
/// five-member controller zoo (540 configs), digest-pinned.
#[test]
fn cc_grid_expansion_is_pinned() {
    let spec = load_spec(&spec_path("cc_grid.toml")).expect("cc grid loads");
    let configs = spec.expand().expect("expands");
    assert_eq!(configs.len(), 540, "cc grid must stay 108 x 5 configs");
    let distinct: std::collections::BTreeSet<&str> = configs.iter().map(|c| c.cc.label()).collect();
    assert_eq!(distinct.len(), 5, "cc axis must keep the whole zoo");
    assert_eq!(
        expansion_digest(&configs),
        CC_GRID_DIGEST,
        "cc grid expansion digest drifted"
    );
}

const PAPER_GRID_DIGEST: u64 = 0x28df_e0c3_da2e_cf1d;
const CC_GRID_DIGEST: u64 = 0x0273_a348_3cda_10e3;

/// Every committed spec parses, round-trips exactly, and expands
/// deterministically.
#[test]
fn committed_specs_round_trip() {
    for (file, expected_flows) in [
        ("smoke.toml", Some(6)),
        ("paper_grid.toml", Some(108)),
        ("cc_grid.toml", Some(540)),
        ("trace_lab.toml", None),
    ] {
        let spec = load_spec(&spec_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let back = CampaignSpec::from_toml(&spec.to_toml())
            .unwrap_or_else(|e| panic!("{file}: round trip: {e}"));
        assert_eq!(back, spec, "{file}: TOML round trip changed the spec");
        let configs = spec.expand().unwrap_or_else(|e| panic!("{file}: {e}"));
        if let Some(n) = expected_flows {
            assert_eq!(configs.len(), n, "{file}");
        } else {
            assert!(!configs.is_empty(), "{file}: empty expansion");
        }
    }
}
