//! Quickstart: simulate one TCP flow on a 300 km/h train, analyze the
//! trace exactly as the paper does, and compare the measured throughput
//! with the enhanced model and the Padhye baseline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hsm::model::prelude::*;
use hsm::prelude::*;
use hsm::scenario::runner::run;
use hsm::simnet::chaos::StormPlan;
use hsm::simnet::time::SimDuration;

fn main() -> Result<(), hsm::Error> {
    // 1. One flow on the Beijing–Tianjin line, China Mobile LTE, 40 s.
    let config = ScenarioConfig::builder()
        .provider(Provider::ChinaMobile)
        .motion(Motion::HighSpeed)
        .seed(42)
        .duration(SimDuration::from_secs(40))
        .build()?;
    // No storm on top of the provider's channel; keep the summary only.
    let calm = StormPlan::default();
    let out = run(&mut Scratch::new(), &config, &calm, Keep::Summary)?;
    let s = out.summary();

    println!("— measured on the (synthetic) train —");
    println!("  provider            {}", s.provider);
    println!("  RTT                 {:.1} ms", s.rtt_s * 1e3);
    println!("  data loss rate      {:.3}%", s.p_d * 100.0);
    println!("  ACK loss rate       {:.3}%", s.p_a * 100.0);
    println!(
        "  timeouts            {} ({} spurious)",
        s.timeouts, s.spurious_timeouts
    );
    println!("  recovery loss q̂     {:.1}%", s.q_hat * 100.0);
    println!("  mean recovery       {:.2} s", s.mean_recovery_s);
    println!("  throughput          {:.1} segments/s", s.throughput_sps);
    if let Some(ch) = out.channel {
        println!(
            "  handoffs            {} ({} failed)",
            ch.handoffs, ch.failed_handoffs
        );
    }

    // 2. Fit the model parameters from the trace and evaluate both models.
    let params = estimate_params(s, &EstimateConfig::default());
    let enhanced = enhanced_throughput(&params).expect("fitted parameters are valid");
    let padhye = padhye_full(&params).expect("fitted parameters are valid");

    println!("\n— model predictions —");
    println!(
        "  enhanced model      {:.1} segments/s  (D = {:.1}%)",
        enhanced,
        deviation(enhanced, s.throughput_sps) * 100.0
    );
    println!(
        "  Padhye baseline     {:.1} segments/s  (D = {:.1}%)",
        padhye,
        deviation(padhye, s.throughput_sps) * 100.0
    );
    println!("\nThe Padhye model assumes ACKs never vanish and retransmissions");
    println!("are lost like ordinary packets; at 300 km/h neither holds, which");
    println!("is exactly what the enhanced model's P_a and q capture.");
    Ok(())
}
