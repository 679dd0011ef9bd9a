//! Integration tests for declarative campaign specs: golden pins of the
//! committed example specs — the paper's 108-config measurement grid and
//! the 540-config congestion-control grid are frozen by expansion length
//! and digest, so any change to expansion semantics or spec parsing fails
//! loudly here — a check that every committed file rejects an unknown key
//! by name, a seven-axis grid pinned the same way, and the exact text of
//! the errors `repro chaos --spec` prints.

use hsm::prelude::{
    expansion_digest, load_spec, CampaignSpec, GridKind, Motion, Provider, ScenarioBase,
    ScenarioGrid, SweepAxis,
};
use hsm::tcp::cc::Algorithm;
use hsm::tcp::recovery::Recovery;
use std::path::{Path, PathBuf};

fn spec_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/specs")
        .join(name)
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

/// Every committed spec parses and expands, and the same file with an
/// unknown key appended is rejected with an error naming that key.
#[test]
fn committed_specs_expand_and_reject_unknown_keys() {
    for (file, expected_flows) in [
        ("smoke.toml", 6),
        ("paper_grid.toml", 108),
        ("cc_grid.toml", 540),
    ] {
        let spec = load_spec(&spec_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let text = std::fs::read_to_string(spec_path(file)).expect("committed spec reads");
        match CampaignSpec::from_toml(&format!("{text}\nbogus_knob = 1\n")) {
            Err(e) => assert!(e.key.contains("bogus_knob"), "{file}: {e}"),
            Ok(_) => panic!("{file}: unknown key silently accepted"),
        }
        let configs = spec.expand().unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(configs.len(), expected_flows, "{file}");
    }
}

/// The seven sweep axes of the seven-axis grid, as `[scenario.sweep]`
/// lines in canonical order.
const SEVEN_AXES: [&str; 7] = [
    r#"provider = ["ChinaMobile", "ChinaTelecom"]"#,
    r#"motion = ["HighSpeed", "Stationary"]"#,
    "duration_s = [30, 60]",
    "w_m = [16, 48]",
    "b = [1, 3]",
    r#"cc = ["Reno", "Bbr"]"#,
    r#"recovery = ["None", "Frto"]"#,
];

fn seven_axis_toml(axes: &[&str]) -> String {
    format!(
        "name = \"seven\"\n[defaults]\nseeds = 2\n[[scenario]]\nname = \"all\"\n\
         [scenario.sweep]\n{}\n",
        axes.join("\n")
    )
}

/// A grid that sweeps every axis at once — recovery crossed with
/// duration, window and delayed-ACK factor, which no committed spec does —
/// is pinned by its digest. The same grid with its sweep keys in reverse
/// file order, or written as a struct literal with its axes out of
/// canonical order, expands to the same configs.
#[test]
fn seven_axis_expansion_is_pinned() {
    let spec = CampaignSpec::from_toml(&seven_axis_toml(&SEVEN_AXES)).expect("parses");
    let configs = spec.expand().expect("expands");
    assert_eq!(configs.len(), 2 * 128, "2 seeds x 2^7 grid points");
    assert_eq!(expansion_digest(&configs), SEVEN_AXIS_DIGEST);

    let mut reversed = SEVEN_AXES;
    reversed.reverse();
    let spec = CampaignSpec::from_toml(&seven_axis_toml(&reversed)).expect("parses");
    assert_eq!(spec.digest().expect("expands"), SEVEN_AXIS_DIGEST);

    let base = ScenarioBase {
        seeds: 2,
        ..ScenarioBase::default()
    };
    let literal = CampaignSpec {
        name: "seven".to_owned(),
        defaults: base.clone(),
        scenarios: vec![ScenarioGrid {
            name: "all".to_owned(),
            kind: GridKind::Grid,
            base,
            sweep: vec![
                SweepAxis::Recovery(vec![Recovery::None, Recovery::Frto]),
                SweepAxis::DelayedAck(vec![1, 3]),
                SweepAxis::Provider(vec![Provider::ChinaMobile, Provider::ChinaTelecom]),
                SweepAxis::Cc(vec![Algorithm::Reno, Algorithm::Bbr]),
                SweepAxis::DurationSecs(vec![30, 60]),
                SweepAxis::Motion(vec![Motion::HighSpeed, Motion::Stationary]),
                SweepAxis::Window(vec![16, 48]),
            ],
        }],
    };
    assert_eq!(literal.expand().expect("expands"), configs);
}

const SEVEN_AXIS_DIGEST: u64 = 0xe8b2_f527_a7e6_be0a;

/// The full text of the spec errors a user sees, pinned: a zero window in
/// the defaults, a zero delayed-ACK factor on an axis, a zero duration, an
/// unknown key at each of the three levels (with the whole list of keys it
/// could have been) and an unknown controller label.
#[test]
fn spec_errors_print_their_pinned_text() {
    let scenario = "[[scenario]]\nname = \"a\"\n";
    for (toml, text) in [
        (
            format!("name = \"x\"\n[defaults]\nw_m = 0\n{scenario}"),
            "spec error at `defaults.w_m`: advertised window w_m must be >= 1 segment",
        ),
        (
            format!("name = \"x\"\n{scenario}[scenario.sweep]\nb = [2, 0]\n"),
            "spec error at `scenario[0].sweep.b[1]`: delayed-ACK factor b must be >= 1",
        ),
        (
            format!("name = \"x\"\n{scenario}duration_s = 0\n"),
            "spec error at `scenario[0].duration_s`: flow duration must be non-zero",
        ),
        (
            format!("name = \"x\"\n{scenario}[scenario.sweep]\nduration_s = [5, 0]\n"),
            "spec error at `scenario[0].sweep.duration_s[1]`: flow duration must be non-zero",
        ),
        (
            format!("name = \"x\"\n{scenario}bogus = 1\n"),
            "spec error at `scenario[0].bogus`: unknown key (expected one of: name, kind, \
             sweep, provider, motion, duration_s, w_m, b, cc, recovery, seed_start, seeds, \
             scale)",
        ),
        (
            format!("name = \"x\"\n[defaults]\nbogus = 1\n{scenario}"),
            "spec error at `defaults.bogus`: unknown key (expected one of: provider, motion, \
             duration_s, w_m, b, cc, recovery, seed_start, seeds, scale)",
        ),
        (
            format!("name = \"x\"\n{scenario}[scenario.sweep]\nseeds = [1]\n"),
            "spec error at `scenario[0].sweep.seeds`: unknown key (expected one of: \
             provider, motion, duration_s, w_m, b, cc, recovery)",
        ),
        (
            format!("name = \"x\"\n{scenario}[scenario.sweep]\ncc = [\"Reno\", \"Vegas\"]\n"),
            "spec error at `scenario[0].sweep.cc[1]`: expected one of \"Reno\", \"Veno\", \
             \"Cubic\", \"Bbr\", \"Compound\", got \"Vegas\"",
        ),
    ] {
        let err = CampaignSpec::from_toml(&toml).expect_err(&toml);
        assert_eq!(err.to_string(), text, "{toml}");
    }
}
