//! Integration tests for declarative campaign specs: golden pins of the
//! committed example specs — the paper's 108-config measurement grid and
//! the 540-config congestion-control grid are frozen by expansion length
//! and digest, so any change to expansion semantics or spec parsing fails
//! loudly here — and a check that every committed file rejects an
//! unknown key by name.

use hsm::prelude::{expansion_digest, load_spec, CampaignSpec};
use hsm::tcp::cc::Algorithm;
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
