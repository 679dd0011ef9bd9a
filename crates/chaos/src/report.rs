//! The JSON-serializable outcome of a chaos run: per-case oracle
//! violations (with their shrunk reproductions) and fault-drill results.

use hsm_scenario::runner::ScenarioConfig;
use serde::Serialize;

/// One oracle violation, pinned to the case that produced it.
///
/// `config` reproduces the failure directly
/// (`check_case` on it fails the same check); `shrunk` is the greedy
/// local minimum the shrinker reached, the config to debug first.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Violation {
    /// Case index within the run.
    pub case: u64,
    /// Which oracle check failed (stable machine-readable name).
    pub check: String,
    /// Human-readable specifics.
    pub detail: String,
    /// The config that failed.
    pub config: ScenarioConfig,
    /// The shrunk minimal config still failing the same check.
    pub shrunk: Option<ScenarioConfig>,
}

/// Outcome of one fault-injection drill.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DrillResult {
    /// Drill name (e.g. `worker-death`).
    pub name: String,
    /// Whether the stack handled the fault as specified.
    pub passed: bool,
    /// What happened.
    pub detail: String,
}

/// Everything one `repro chaos` run produces.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Worker threads used (output is identical for any count).
    pub workers: usize,
    /// Per-case oracle violations.
    pub violations: Vec<Violation>,
    /// Fault-drill outcomes.
    pub drills: Vec<DrillResult>,
    /// Wall-clock of the whole run, seconds.
    pub wall_s: f64,
}

impl ChaosReport {
    /// `true` when the run found nothing: no case violations and every
    /// drill passed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.drills.iter().all(|d| d.passed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violation_fails_the_report() {
        let report = ChaosReport {
            seed: 42,
            cases: 3,
            workers: 2,
            violations: vec![Violation {
                case: 1,
                check: "determinism".into(),
                detail: "streams diverged".into(),
                config: ScenarioConfig::default(),
                shrunk: Some(ScenarioConfig::default()),
            }],
            drills: vec![DrillResult {
                name: "worker-death".into(),
                passed: true,
                detail: "WorkerLost surfaced".into(),
            }],
            wall_s: 1.5,
        };
        assert!(!report.ok(), "a violation must fail the report");
    }

    #[test]
    fn ok_requires_clean_drills() {
        let mut report = ChaosReport {
            seed: 0,
            cases: 0,
            workers: 1,
            violations: vec![],
            drills: vec![],
            wall_s: 0.0,
        };
        assert!(report.ok());
        report.drills.push(DrillResult {
            name: "cache-corruption".into(),
            passed: false,
            detail: "served corrupt entry".into(),
        });
        assert!(!report.ok());
    }
}
