//! The untraced run: what a user of the pipeline sees.

use crate::host;
use crate::report::Metric;
use crate::workload::{set_up, Checks, Ready, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Sets the workload up [`SETUPS`] times and, after each set-up, runs
/// timed repetitions for its share of `seconds` (at least one), so that
/// the timed passes are spread over the whole run and a slow spell of a
/// shared host weighs on a run's median as it does on the next run's.
/// Returns the last set-up (for the exact-repeat checks) and the
/// end-to-end metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
    process_start: Instant,
    checks: &mut Checks,
) -> Result<(Ready, Vec<Metric>), String> {
    let budget = Duration::from_secs(seconds) / SETUPS as u32;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut pass_s = Vec::new();
    let mut ready: Option<Ready> = None;
    // Disk tiers of earlier set-ups stay until the run ends: on the
    // sandbox's disk, deleting a populated tier slows the next few
    // thousand file creations, which are the next set-up's publishes.
    let mut retired = Vec::new();
    for k in 0..SETUPS {
        let first_digest = ready.as_ref().map(|r| r.reference.sim_digest);
        retired.extend(ready.take().and_then(|r| r.disk));
        // The first sample runs from process start, as a user's would.
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let r = set_up(workload, seed, out_dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if first_digest.is_some_and(|d| d != r.reference.sim_digest) {
            checks.fail(
                r.flows(),
                format!("set-up {k} produced a different sim_digest than set-up 0"),
            );
        }
        checks.attempted += r.flows();

        let started = Instant::now();
        pass_s.push(r.rep(checks, |_| {})?);
        while started.elapsed() < budget {
            pass_s.push(r.rep(checks, |_| {})?);
        }
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");

    let peak_rss_mb = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    // Events whose results a pass returned: simulated on a cold workload,
    // replayed from the cache on a warm one.
    let events = ready.reference.events as f64;
    let flows = ready.flows() as f64;
    let metrics = metrics(&setup_s, events, flows, &pass_s, peak_rss_mb);
    Ok((ready, metrics))
}

/// The end-to-end metrics: `events` and `flows` are one pass's, `pass_s`
/// the host seconds per pass of every timed repetition.
fn metrics(
    setup_s: &[f64],
    events: f64,
    flows: f64,
    pass_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let per_second = |work: f64| pass_s.iter().map(|s| work / s).collect::<Vec<_>>();
    vec![
        Metric::of("setup_s", "s", setup_s),
        Metric::of("events_per_s", "1/s", &per_second(events)),
        Metric::of("flows_per_s", "1/s", &per_second(flows)),
        Metric::single("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{declared, names_and_units};

    #[test]
    fn emitted_metrics_are_the_declared_end_to_end_ones() {
        let emitted = metrics(&[1.0], 1.0, 1.0, &[1.0], 1.0);
        assert_eq!(names_and_units(&emitted), declared("end_to_end"));
    }

    #[test]
    fn rates_are_medians_over_the_repetitions() {
        let m = metrics(&[3.0, 1.0, 2.0], 12.0, 6.0, &[2.0, 1.0, 4.0], 9.5);
        let value = |i: usize| (m[i].summary.median, m[i].summary.n);
        assert_eq!(value(0), (2.0, 3));
        assert_eq!(value(1), (6.0, 3));
        assert_eq!(value(2), (3.0, 3));
        assert_eq!(value(3), (9.5, 1));
    }
}
