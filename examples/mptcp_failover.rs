//! MPTCP in high-speed mobility (§V-B): duplex-mode aggregation and
//! backup-mode redundant retransmission, compared against plain TCP on
//! the same channel.
//!
//! ```text
//! cargo run --release --example mptcp_failover
//! ```

use hsm::prelude::*;
use hsm::simnet::time::SimDuration;
use hsm::tcp::prelude::*;
use hsm::trace::prelude::*;

fn main() -> Result<(), hsm::Error> {
    let provider = Provider::ChinaTelecom; // the paper's biggest MPTCP win
    let sc = ScenarioConfig {
        provider,
        duration: SimDuration::from_secs(60),
        seed: 99,
        ..Default::default()
    };
    let path = sc.path();
    let mobility = sc.mobility();
    let conn = sc.connection();

    println!(
        "Provider: {} (3G, poor corridor coverage)\n",
        provider.name()
    );

    // 1. Plain TCP.
    let plain = run_connection(sc.seed, &path, mobility.as_ref(), &conn);
    let plain_a = analyze_flow(&plain.trace, &TimeoutConfig::default());
    println!(
        "plain TCP:        {:7.1} seg/s   ({} timeouts, mean recovery {:.2} s)",
        plain_a.summary.throughput_sps, plain_a.summary.timeouts, plain_a.summary.mean_recovery_s
    );

    // 2. MPTCP duplex mode: two subflows over disjoint carriers.
    let duplex = run_mptcp_duplex(sc.seed, [&path, &path], mobility.as_ref(), &conn);
    let agg = duplex.aggregate_throughput_sps();
    println!(
        "MPTCP duplex:     {:7.1} seg/s   ({:+.1}% vs plain)",
        agg,
        (agg / plain_a.summary.throughput_sps - 1.0) * 100.0
    );

    // 3. MPTCP backup mode: single subflow, but timeout retransmissions
    //    are duplicated over a clean backup path — attacking `q` directly.
    let backup = run_with_backup_path(
        sc.seed,
        &path,
        &PathSpec::default(),
        mobility.as_ref(),
        &conn,
    );
    let backup_a = analyze_flow(&backup.trace, &TimeoutConfig::default());
    println!(
        "MPTCP backup:     {:7.1} seg/s   (q̂ {:.1}% -> {:.1}%, recovery {:.2} s -> {:.2} s)",
        backup_a.summary.throughput_sps,
        plain_a.summary.q_hat * 100.0,
        backup_a.summary.q_hat * 100.0,
        plain_a.summary.mean_recovery_s,
        backup_a.summary.mean_recovery_s
    );

    println!("\nDuplex mode doubles the pipes; backup mode keeps one pipe but");
    println!("makes timeout recovery reliable — the paper's point is that the");
    println!("*retransmission* path is the throughput bottleneck at 300 km/h.");
    Ok(())
}
