//! The crate's one worker pool, and the index-ordered parallel map on it.
//!
//! [`Campaign`](crate::engine::Campaign) runs its flows on the pool;
//! repetition-based experiments (Fig. 12, the extension ablations) average
//! over many independent simulated rides with [`par_map`]. Either way each
//! job is a pure function of its index and results are re-assembled in
//! index order, so the numbers are bit-identical for any worker count.

use crate::error::EngineError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

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
/// Panics in the *calling* thread when a worker is lost: a panic inside
/// `f` is caught in its worker, the remaining workers stop instead of
/// draining the index space, and the loss ([`EngineError::WorkerLost`]) is
/// raised here as one panic.
pub fn par_map_workers<T: Send>(n: u64, workers: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let job = |(): &mut (), _, i: usize, slot: Slot<'_, T>| {
        slot.fill(f(i as u64));
        Ok(())
    };
    match run_pool(n as usize, workers, || (), job) {
        Ok(pooled) => pooled.results,
        Err(e) => panic!("parallel map failed: {e}"),
    }
}

/// Where a job of [`run_pool`] writes its result: a one-shot handle over
/// the claiming worker's own result vector. Filling it pushes the value
/// there from inside the job, so the result is not also moved through the
/// job's return value, the unwind guard and the match on both; a job that
/// returns without filling it leaves its index without a result.
pub(crate) struct Slot<'a, T>(&'a mut Vec<T>);

impl<T> Slot<'_, T> {
    /// Records `value` as the job's result.
    #[inline]
    pub(crate) fn fill(self, value: T) {
        self.0.push(value);
    }
}

/// Rounds of the per-worker reserved prefix: worker `w` of `W` alone owns
/// indices `{w, w + W, ...}` for this many rounds before the pool falls
/// back to the shared counter. A disk-cache hit (a file read and a decode)
/// is cheaper than a thread spawn, so a bare counter let the first worker
/// up drain a whole campaign served from disk; the prefix is small enough
/// that an unlucky assignment of expensive jobs cannot meaningfully
/// unbalance a cold one. (Memory hits never reach the pool: the campaign
/// serves them before it starts.)
pub(crate) const RESERVED_ROUNDS: usize = 8;

/// What a drained pool hands back.
pub(crate) struct Pooled<T> {
    /// One result per index, in index order.
    pub results: Vec<T>,
    /// Jobs completed per worker.
    pub worker_jobs: Vec<usize>,
    /// Seconds each worker spent in its claim loop (it never waits there).
    pub worker_busy_s: Vec<f64>,
}

/// What one worker completed: `indices[k]` produced `results[k]`, both
/// ascending because a worker's claims are; `failure` is the first (hence
/// lowest) job of its own that returned an error.
struct Part<T> {
    indices: Vec<usize>,
    results: Vec<T>,
    failure: Option<(usize, EngineError)>,
    busy_s: f64,
}

/// The crate's one worker pool: runs `job(state, worker, i, slot)` for
/// every `i` in `0..n` on `workers` workers (clamped to `1..=n`), each
/// with its own `state()`, and returns the results in index order — the
/// same for every worker count.
///
/// The calling thread is worker 0 and workers `1..W` are scoped threads,
/// so a one-worker pool spawns nothing: a sub-millisecond warm replay
/// would otherwise pay a thread spawn and join on every pass.
///
/// Each worker takes its reserved prefix ([`RESERVED_ROUNDS`]), then pulls
/// from a shared counter; nothing is shared per job but that counter. A
/// job writes its result through its [`Slot`] straight into the worker's
/// own result vector, and the worker records `i` beside it only when the
/// job returned `Ok` *and* filled the slot. One worker's vector is the
/// result as it stands; several are merged by index.
///
/// # Errors
///
/// The failed job with the lowest index, if any job failed: workers keep
/// executing indices at or below the lowest failure seen so far and skip
/// the rest, so every index below the final floor was executed and the
/// answer is the same on every interleaving (aborting outright could leave
/// a lower failing index unexecuted on another worker). Otherwise
/// [`EngineError::WorkerLost`] when an index has no result: a job returned
/// `Ok` without filling its slot, a job panicked (caught in its worker,
/// which stops, as do the others), or a worker's `state()` did (that
/// worker has no part; the caller's included).
pub(crate) fn run_pool<S, T: Send>(
    n: usize,
    workers: usize,
    state: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize, usize, Slot<'_, T>) -> Result<(), EngineError> + Sync,
) -> Result<Pooled<T>, EngineError> {
    let workers = workers.clamp(1, n.max(1));
    let reserved_rounds = (n / workers).min(RESERVED_ROUNDS);
    let next = AtomicUsize::new(reserved_rounds * workers);
    let abort = AtomicBool::new(false);
    let fail_floor = AtomicUsize::new(usize::MAX);
    let (state, job, next, abort, fail_floor) = (&state, &job, &next, &abort, &fail_floor);

    let work = move |worker: usize| {
        let mut state = state();
        // An even share; a worker that outruns the others grows it.
        let share = n.div_ceil(workers);
        let mut part = Part {
            indices: Vec::with_capacity(share),
            results: Vec::with_capacity(share),
            failure: None,
            busy_s: 0.0,
        };
        let started = Instant::now();
        let mut round = 0;
        while !abort.load(Ordering::Relaxed) {
            let i = if round < reserved_rounds {
                worker + round * workers
            } else {
                next.fetch_add(1, Ordering::Relaxed)
            };
            round += 1;
            if i >= n {
                break;
            }
            if i > fail_floor.load(Ordering::Relaxed) {
                // A lower index already failed: this result could never
                // surface, so do not compute it.
                continue;
            }
            let filled = part.results.len();
            let slot = Slot(&mut part.results);
            match catch_unwind(AssertUnwindSafe(|| job(&mut state, worker, i, slot))) {
                Ok(Ok(())) if part.results.len() > filled => part.indices.push(i),
                // Returned without a result: `i` stays a gap.
                Ok(Ok(())) => {}
                // Whatever a failed job wrote never surfaces: the failure
                // is returned before any part is read.
                Ok(Err(e)) => {
                    fail_floor.fetch_min(i, Ordering::Relaxed);
                    part.failure.get_or_insert((i, e));
                }
                // This worker is dead: its index stays without a result,
                // even one its job wrote before panicking, and the others
                // stop pulling work.
                Err(_panic) => {
                    part.results.truncate(filled);
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        part.busy_s = started.elapsed().as_secs_f64();
        part
    };
    let mut parts: Vec<Part<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        // A worker that died outside a job has no part; its indices show
        // up as the gap below. The caller's own death is caught like a
        // spawned worker's, never unwound into it.
        let caller = catch_unwind(AssertUnwindSafe(|| work(0))).ok();
        let spawned = handles.into_iter().filter_map(|h| h.join().ok());
        caller.into_iter().chain(spawned).collect()
    });

    if let Some((_, e)) = parts
        .iter_mut()
        .filter_map(|p| p.failure.take())
        .min_by_key(|(i, _)| *i)
    {
        return Err(e);
    }
    let worker_jobs = parts.iter().map(|p| p.indices.len()).collect();
    let worker_busy_s = parts.iter().map(|p| p.busy_s).collect();
    let results = if let [only] = &mut parts[..] {
        std::mem::take(&mut only.results)
    } else {
        let mut heads: Vec<_> = parts
            .into_iter()
            .map(|p| p.indices.into_iter().zip(p.results).peekable())
            .collect();
        let mut merged = Vec::with_capacity(n);
        // Index `i` is at the head of the worker that claimed it, or lost.
        merged.extend((0..n).map_while(|i| {
            let head = heads.iter_mut().find_map(|h| h.next_if(|(j, _)| *j == i));
            head.map(|(_, result)| result)
        }));
        merged
    };
    if results.len() != n {
        return Err(EngineError::WorkerLost);
    }
    Ok(Pooled {
        results,
        worker_jobs,
        worker_busy_s,
    })
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

    /// The pool under [`par_map_workers`], with its error returned instead
    /// of raised.
    fn map(
        n: usize,
        workers: usize,
        f: impl Fn(usize) -> usize + Sync,
    ) -> Result<Vec<usize>, EngineError> {
        let job = |(): &mut (), _, i, slot: Slot<'_, usize>| {
            slot.fill(f(i));
            Ok(())
        };
        run_pool(n, workers, || (), job).map(|pooled| pooled.results)
    }

    #[test]
    fn a_lost_worker_panics_in_the_caller() {
        let lost = std::panic::catch_unwind(|| {
            par_map_workers(8, 2, |i| {
                if i == 5 {
                    panic!("chaos: worker death");
                }
                i
            })
        });
        assert!(lost.is_err());
    }

    /// A panic on the *last* slot: every other slot is already filled, so
    /// only the unfilled-slot path can catch this — and it must, as a
    /// structured error rather than a propagated panic.
    #[test]
    fn panic_on_the_last_slot_surfaces_as_worker_lost() {
        let err = map(8, 3, |i| {
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
            let err = map(16, 4, |i| {
                if i == 2 || i == 11 {
                    panic!("chaos: concurrent worker death");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err, EngineError::WorkerLost, "round {round}");
        }
    }

    /// The calling thread is worker 0: a one-worker map runs every index
    /// on it, and with 4 workers index 0 — worker 0's reserved index —
    /// runs there too.
    #[test]
    fn the_caller_is_worker_zero() {
        let caller = std::thread::current().id();
        let alone = par_map_workers(16, 1, |_| std::thread::current().id());
        assert_eq!(alone, vec![caller; 16]);
        let pooled = par_map_workers(16, 4, |_| std::thread::current().id());
        assert_eq!(pooled[0], caller);
    }

    /// A job panicking on the caller (index 0 is worker 0's) is
    /// `WorkerLost` for every worker count, never an unwind into it.
    #[test]
    fn a_panic_on_the_caller_is_worker_lost() {
        for workers in [1, 2, 4] {
            for round in 0..20 {
                let err = map(16, workers, |i| {
                    if i == 0 {
                        panic!("chaos: the calling worker dies");
                    }
                    i
                })
                .unwrap_err();
                assert_eq!(
                    err,
                    EngineError::WorkerLost,
                    "{workers} workers, round {round}"
                );
            }
        }
    }

    /// Worker 0's `state()` panicking leaves the caller without a part:
    /// its reserved indices are the gap, whatever the others complete.
    #[test]
    fn a_panic_in_the_callers_state_is_worker_lost() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 4] {
            let state = || {
                if std::thread::current().id() == caller {
                    panic!("chaos: worker 0 cannot build its state");
                }
            };
            let job = |(): &mut (), _, i, slot: Slot<'_, usize>| {
                slot.fill(i);
                Ok(())
            };
            let err = run_pool(16, workers, state, job).err();
            assert_eq!(err, Some(EngineError::WorkerLost), "{workers} workers");
        }
    }

    /// A job that returns `Ok` but never fills its slot leaves its index
    /// without a result — first, middle or last, on any worker count.
    #[test]
    fn a_job_that_returns_ok_without_filling_its_slot_is_worker_lost() {
        for workers in [1, 2, 4] {
            for skipped in [0, 5, 15] {
                let job = |(): &mut (), _, i, slot: Slot<'_, usize>| {
                    if i != skipped {
                        slot.fill(i);
                    }
                    Ok(())
                };
                let err = run_pool(16, workers, || (), job).err();
                assert_eq!(
                    err,
                    Some(EngineError::WorkerLost),
                    "{workers} workers, index {skipped} unfilled"
                );
            }
        }
    }

    /// A job that fills its slot and then panics is lost like any other
    /// panic: on the last index of a lone worker, keeping what it wrote
    /// would complete the vector.
    #[test]
    fn a_job_that_panics_after_filling_its_slot_is_worker_lost() {
        for workers in [1, 2, 4] {
            let job = |(): &mut (), _, i, slot: Slot<'_, usize>| {
                slot.fill(i);
                if i == 15 {
                    panic!("chaos: death after the result is written");
                }
                Ok(())
            };
            let err = run_pool(16, workers, || (), job).err();
            assert_eq!(err, Some(EngineError::WorkerLost), "{workers} workers");
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
                par_map_workers(16, 4, |i| if i == 3 || i == 12 { Err(i) } else { Ok(i) });
            let first_err = out.iter().find_map(|r| r.as_ref().err());
            assert_eq!(first_err, Some(&3), "round {round}");
        }
    }
}
