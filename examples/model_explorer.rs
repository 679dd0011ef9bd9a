//! Explore the enhanced throughput model: how `p_d`, `P_a`, `q` and `W_m`
//! shape steady-state TCP throughput in high-speed mobility scenarios.
//!
//! ```text
//! cargo run --example model_explorer
//! ```

use hsm::model::prelude::*;

fn print_sweep(title: &str, points: &[SweepPoint]) {
    println!("\n{title}");
    println!("{:>10}  {:>12}", "x", "TP (seg/s)");
    for p in points {
        println!("{:>10.4}  {:>12.1}", p.x, p.throughput_sps);
    }
}

fn main() {
    let base = ModelParams::high_speed_example().with_w_m(10_000.0);
    println!("base parameters (high-speed example): {base:#?}");

    // Every intermediate quantity of one evaluation (Eq. 1 .. Eq. 21).
    let bd = enhanced_breakdown(&base).expect("example parameters are valid");
    println!("\n— model breakdown —");
    println!("  X_P (Eq. 1)            {:.2} rounds", bd.x_p);
    println!("  E[X] (Eq. 2)           {:.2} rounds", bd.e_x);
    println!("  E[W] (Eq. 4)           {:.2} segments", bd.e_w);
    println!("  Q (Eq. 10)             {:.3}", bd.q_timeout);
    println!(
        "  E[R] (Eq. 11)          {:.2} timeouts/sequence",
        bd.to.e_r
    );
    println!(
        "  E[A^TO] (Eq. 13)       {:.2} s per timeout sequence",
        bd.to.e_a_to
    );
    println!("  window-limited branch  {}", bd.window_limited);
    println!(
        "  throughput             {:.1} segments/s",
        bd.throughput_sps
    );

    print_sweep(
        "— throughput vs data loss p_d —",
        &sweep_p_d(&base, &[0.001, 0.0025, 0.005, 0.0075, 0.015, 0.03]),
    );
    print_sweep(
        "— throughput vs ACK-burst loss P_a (the spurious-timeout driver) —",
        &sweep_p_a(&base, &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2]),
    );
    print_sweep(
        "— throughput vs recovery loss q (why MPTCP helps, §V-B) —",
        &sweep_q(&base, &[0.0, 0.1, 0.2726, 0.4, 0.6, 0.8]),
    );
    print_sweep(
        "— throughput vs advertised window W_m —",
        &sweep_w_m(&base, &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    );

    // The §V-A delayed-ACK story.
    println!("\n— delayed ACKs under 10% per-ACK loss (window 16) —");
    println!(
        "{:>4}  {:>11}  {:>9}  {:>12}",
        "b", "ACKs/round", "P_a", "TP (seg/s)"
    );
    for p in delayed_ack_analysis(&base, 16.0, 0.10, &[1.0, 2.0, 4.0, 8.0]) {
        println!(
            "{:>4.0}  {:>11.1}  {:>9.5}  {:>12.1}",
            p.b, p.acks_per_round, p.p_a_burst, p.throughput_sps
        );
    }
    println!("\nLarger delayed-ACK windows concentrate each round's fate into");
    println!("fewer ACKs: P_a = p_a^(w/b) rises and spurious timeouts eat the");
    println!("efficiency gain — the paper's §V-A warning.");
}
