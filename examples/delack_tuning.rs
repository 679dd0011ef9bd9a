//! Delayed-ACK tuning in high-speed mobility (§V-A): simulate the same
//! train ride with different delayed-ACK factors `b` and watch spurious
//! timeouts grow, then cross-check with the model.
//!
//! ```text
//! cargo run --release --example delack_tuning
//! ```

use hsm::model::prelude::*;
use hsm::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;

fn main() -> Result<(), hsm::Error> {
    println!("Simulating the same high-speed ride with b = 1, 2, 4 ...\n");
    println!(
        "{:>3}  {:>11}  {:>9}  {:>9}  {:>10}  {:>13}",
        "b", "TP (seg/s)", "timeouts", "spurious", "ACK loss", "mean P_a obs"
    );
    let mut scratch = Scratch::new();
    for b in [1u32, 2, 4] {
        let (mut tp, mut to, mut sp, mut pa, mut burst) = (0.0, 0u32, 0u32, 0.0, 0.0);
        let reps = 4;
        for seed in 0..reps {
            let config = ScenarioConfig::builder()
                .provider(Provider::ChinaMobile)
                .b(b)
                .seed(777 + seed)
                .duration(SimDuration::from_secs(45))
                .build()?;
            let out = run(&mut scratch, &config, &StormPlan::default(), Keep::Summary)?;
            let s = out.summary();
            tp += s.throughput_sps;
            to += s.timeouts;
            sp += s.spurious_timeouts;
            pa += s.p_a;
            burst += s.p_a_burst;
        }
        let n = f64::from(reps as u32);
        println!(
            "{:>3}  {:>11.1}  {:>9.1}  {:>9.1}  {:>9.3}%  {:>13.5}",
            b,
            tp / n,
            f64::from(to) / n,
            f64::from(sp) / n,
            pa / n * 100.0,
            burst / n
        );
    }

    println!("\nModel view (window 16, 10% per-ACK loss):");
    let base = ModelParams::high_speed_example();
    for p in delayed_ack_analysis(&base, 16.0, 0.10, &[1.0, 2.0, 4.0, 8.0]) {
        println!(
            "  b = {:<2}  ACKs/round = {:<5.1}  P_a = {:<8.5}  TP = {:.1} seg/s",
            p.b, p.acks_per_round, p.p_a_burst, p.throughput_sps
        );
    }
    println!("\nEach extra segment folded into one ACK removes a chance for the");
    println!("round to survive — ACKs are \"precious\" in high-speed mobility.");
    Ok(())
}
