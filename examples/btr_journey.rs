//! A full Beijing–Tianjin journey: ride the train end to end with a bulk
//! download running, and watch throughput, handoffs and timeouts along the
//! route.
//!
//! ```text
//! cargo run --release --example btr_journey
//! ```
//! (release recommended: the full trip simulates ~20 simulated minutes)

use hsm::scenario::prelude::*;
use hsm::simnet::mobility::ms_to_kmh;
use hsm::simnet::time::SimTime;
use hsm::tcp::prelude::*;
use hsm::trace::prelude::*;

fn main() {
    // The real trajectory (acceleration, 300 km/h cruise, braking).
    let trajectory = btr::trajectory();
    let provider = Provider::ChinaUnicom;
    let mobility = MobilityScenario {
        trajectory,
        layout: provider.cell_layout(),
        handoff: provider.handoff_params(),
    };
    let duration = trajectory.duration();
    let conn = ConnectionConfig {
        sender: SenderConfig {
            stop_after: Some(duration.saturating_since(SimTime::ZERO)),
            ..Default::default()
        },
        provider: provider.name().into(),
        scenario: "btr-journey".into(),
        deadline: duration,
        ..Default::default()
    };
    println!(
        "Riding {} km at up to 300 km/h ({:.0} min) on {}...\n",
        btr::ROUTE_KM,
        duration.as_secs_f64() / 60.0,
        provider.name()
    );
    let out = run_connection(2024, &provider.high_speed_path(), Some(&mobility), &conn);

    // Carve the trace into 60 s windows and report per-window throughput.
    let trace = &out.trace;
    let total = trace.duration().as_secs_f64();
    println!("time     position   speed     delivered   notes");
    let window = 60.0;
    let mut t0 = 0.0;
    while t0 < total {
        let t1 = (t0 + window).min(total);
        let delivered = trace
            .data()
            .filter(|r| {
                r.arrived_at.is_some_and(|a| {
                    let s = a.as_secs_f64();
                    s >= t0 && s < t1
                })
            })
            .count();
        let mid = SimTime::from_secs_f64((t0 + t1) / 2.0);
        let pos_km = trajectory.position_m(mid) / 1000.0;
        let speed = ms_to_kmh(trajectory.speed_ms(mid));
        let station = btr::STATIONS
            .iter()
            .find(|(_, km)| (pos_km - km).abs() < 2.0)
            .map(|(name, _)| format!("≈ {name}"))
            .unwrap_or_default();
        println!(
            "{:4.0}min  {:6.1} km  {:4.0} km/h  {:6} seg   {}",
            t0 / 60.0,
            pos_km,
            speed,
            delivered,
            station
        );
        t0 = t1;
    }

    let analysis = analyze_flow(trace, &TimeoutConfig::default());
    let s = &analysis.summary;
    println!("\n— journey summary —");
    println!(
        "  delivered            {:.1} MB",
        s.goodput_sps * s.duration_s * 1460.0 / 1e6
    );
    println!("  mean throughput      {:.1} segments/s", s.throughput_sps);
    println!(
        "  timeouts             {} ({:.0}% spurious)",
        s.timeouts,
        s.spurious_fraction() * 100.0
    );
    println!("  mean recovery phase  {:.2} s", s.mean_recovery_s);
    if let Some(ch) = out.channel {
        println!(
            "  handoffs             {} ({} failed)",
            ch.handoffs, ch.failed_handoffs
        );
    }
}
