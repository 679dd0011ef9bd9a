//! The experiment registry: id → runner, in paper order.

use crate::context::Ctx;
use crate::experiments as ex;
use crate::report::ExperimentResult;

/// A registered experiment.
pub struct Experiment {
    /// Stable id used on the command line (`repro fig10`).
    pub id: &'static str,
    /// Short description.
    pub about: &'static str,
    /// The runner.
    pub run: fn(&Ctx) -> ExperimentResult,
}

/// All experiments, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        about: "Table I — the dataset",
        run: ex::table1::run,
    },
    Experiment {
        id: "fig1",
        about: "Fig. 1 — one-way delay scatter",
        run: ex::fig01_arrival::run,
    },
    Experiment {
        id: "fig2",
        about: "Fig. 2 — timeout recovery detail",
        run: ex::fig02_recovery::run,
    },
    Experiment {
        id: "fig3",
        about: "Fig. 3 — loss-rate CDFs",
        run: ex::fig03_loss_cdf::run,
    },
    Experiment {
        id: "fig4",
        about: "Fig. 4 — ACK loss vs timeouts",
        run: ex::fig04_ack_timeout::run,
    },
    Experiment {
        id: "fig5",
        about: "Fig. 5 — ACK-burst timeout cases",
        run: ex::fig05_burst_cases::run,
    },
    Experiment {
        id: "fig6",
        about: "Fig. 6 — ACK-loss CDFs",
        run: ex::fig06_ack_cdf::run,
    },
    Experiment {
        id: "fig7",
        about: "Fig. 7 — window evolution in CA phases",
        run: ex::window_evolution::run_fig7,
    },
    Experiment {
        id: "fig8",
        about: "Fig. 8 — CA/timeout cycles",
        run: ex::window_evolution::run_fig8,
    },
    Experiment {
        id: "fig9",
        about: "Fig. 9 — window limitation",
        run: ex::window_evolution::run_fig9,
    },
    Experiment {
        id: "table3",
        about: "Table III — CA-phase round distribution",
        run: ex::table3::run,
    },
    Experiment {
        id: "fig10",
        about: "Fig. 10 — model accuracy",
        run: ex::fig10_accuracy::run,
    },
    Experiment {
        id: "fig11",
        about: "Fig. 11 — one surviving ACK",
        run: ex::fig11_single_ack::run,
    },
    Experiment {
        id: "fig12",
        about: "Fig. 12 — MPTCP vs TCP",
        run: ex::fig12_mptcp::run,
    },
    Experiment {
        id: "va_delack",
        about: "§V-A — delayed-ACK analysis",
        run: ex::va_delack::run,
    },
    Experiment {
        id: "vb_qsweep",
        about: "§V-B — reliable retransmission",
        run: ex::vb_qsweep::run,
    },
    Experiment {
        id: "ext_cc",
        about: "extension — Reno/NewReno/Veno ablation",
        run: ex::extensions::run_cc,
    },
    Experiment {
        id: "ext_delack",
        about: "extension — adaptive delayed ACKs (TCP-DCA)",
        run: ex::extensions::run_delack,
    },
    Experiment {
        id: "ext_undo",
        about: "extension — Eifel-style spurious-RTO undo",
        run: ex::extensions::run_undo,
    },
    Experiment {
        id: "ext_mptcp",
        about: "extension — shared-radio vs disjoint MPTCP",
        run: ex::extensions::run_mptcp_variants,
    },
];

/// Finds an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        assert!(EXPERIMENTS.len() >= 17);
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        assert!(find("fig10").is_some());
        assert!(find("nope").is_none());
    }
}
