//! Parallel repetition helpers (promoted from `hsm-bench`).
//!
//! Repetition-based experiments (Fig. 12, the extension ablations) average
//! over many independent simulated rides; this fans the rides out over CPU
//! cores, preserving determinism (each ride is a pure function of its
//! index and results are re-assembled in index order — so the numbers are
//! bit-identical for any worker count).

use crate::error::EngineError;

/// Maps `f` over `0..n` in parallel, returning results in index order.
pub fn par_map<T: Send>(n: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4);
    par_map_workers(n, workers, f)
}

/// [`par_map`] with an explicit worker count (≥ 1); the result is the same
/// for every worker count, only the wall-clock changes.
///
/// # Panics
///
/// Panics in the *calling* thread when a worker is lost (see
/// [`try_par_map_workers`] for the fallible twin — workers themselves
/// never panic on a closed channel).
pub fn par_map_workers<T: Send>(n: u64, workers: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    try_par_map_workers(n, workers, f).unwrap_or_else(|e| panic!("parallel map failed: {e}"))
}

/// Fallible [`par_map_workers`]: lost workers surface as an error at the
/// call site instead of a panic inside the worker thread.
///
/// Each result is written straight into its index's pre-allocated slot —
/// the worker claiming index `i` is the only writer of slot `i` — so the
/// output is assembled in order without a channel or a final sort.
/// (A per-slot mutex rather than a write-once cell keeps the bound at
/// `T: Send`; the lock is uncontended by construction.)
///
/// A worker that panics inside `f` counts as lost: the panic is caught
/// in the worker, the remaining workers abort instead of draining the
/// index space, and the call returns [`EngineError::WorkerLost`] — it
/// never re-raises the panic in the calling thread.
///
/// # Errors
///
/// Returns [`EngineError::WorkerLost`] when a slot ends up unfilled — a
/// worker panicked or disappeared without producing its claimed result.
pub fn try_par_map_workers<T: Send>(
    n: u64,
    workers: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Result<Vec<T>, EngineError> {
    let workers = workers.clamp(1, n.max(1) as usize);
    let next = std::sync::atomic::AtomicU64::new(0);
    let abort = std::sync::atomic::AtomicBool::new(false);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let next = &next;
        let abort = &abort;
        let slots = &slots;
        for _ in 0..workers {
            scope.spawn(move || loop {
                if abort.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(value) => {
                        *slots[i as usize].lock().expect("slot lock") = Some(value);
                    }
                    Err(_payload) => {
                        // This worker is dead: leave its slot unfilled
                        // (the collection loop reports WorkerLost) and
                        // stop the others from pulling more work.
                        abort.store(true, std::sync::atomic::Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    let mut results: Vec<T> = Vec::with_capacity(n as usize);
    for slot in slots {
        match slot.into_inner().expect("slot lock") {
            Some(v) => results.push(v),
            None => return Err(EngineError::WorkerLost),
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let out = par_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn fallible_twin_succeeds_on_the_happy_path() {
        let out = try_par_map_workers(10, 3, |i| i + 1).expect("no worker loss");
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    /// A panic on the *last* slot: every other slot is already filled, so
    /// only the unfilled-slot path can catch this — and it must, as a
    /// structured error rather than a propagated panic.
    #[test]
    fn panic_on_the_last_slot_surfaces_as_worker_lost() {
        let err = try_par_map_workers(8, 3, |i| {
            if i == 7 {
                panic!("chaos: worker death on the last slot");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err, EngineError::WorkerLost);
    }

    /// Two workers dying concurrently (different indices, racing abort
    /// stores) must still collapse to the same structured error on every
    /// interleaving.
    #[test]
    fn two_workers_panicking_concurrently_is_deterministically_lost() {
        for round in 0..20 {
            let err = try_par_map_workers(16, 4, |i| {
                if i == 2 || i == 11 {
                    panic!("chaos: concurrent worker death");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err, EngineError::WorkerLost, "round {round}");
        }
    }

    /// When `f` returns `Result`s and two workers *error* concurrently,
    /// the slots still fill in index order, so a caller scanning for the
    /// first failure always sees the lowest index — regardless of which
    /// racing worker stored its error first.
    #[test]
    fn concurrent_worker_errors_resolve_lowest_index_first() {
        for round in 0..20 {
            let out: Vec<Result<u64, u64>> =
                try_par_map_workers(16, 4, |i| if i == 3 || i == 12 { Err(i) } else { Ok(i) })
                    .expect("errors are values, no worker is lost");
            let first_err = out.iter().find_map(|r| r.as_ref().err());
            assert_eq!(first_err, Some(&3), "round {round}");
        }
    }
}
