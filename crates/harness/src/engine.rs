//! The deterministic parallel executor: a self-scheduling worker pool over
//! `std::thread` + channels.
//!
//! Workers steal cell indices from a shared atomic counter (the cheapest
//! possible work-stealing queue: every idle worker grabs the next unclaimed
//! index, so a slow cell never blocks the rest of the grid) and stream
//! `(index, result)` pairs back over an mpsc channel.  The collector slots
//! results by index, so the output order is the enumeration order regardless
//! of which worker finished first.
//!
//! Determinism is by construction, not by locking: a job must be a pure
//! function of its index (the campaign layer derives every cell's RNG seed
//! from `(campaign_seed, cell_index)`), so the result vector is byte-identical
//! at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Number of workers to use when the caller does not pin one: the machine's
/// available parallelism (falling back to 1 when it cannot be queried).
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count a `threads` setting runs on: `0` is [`default_threads`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// The one chunk rule of every runner — the `campaign` and `redteam` CLIs
/// and `campaignd`'s runner: `indices` as contiguous slices of `⌈n / 8⌉`,
/// so at most eight, but never fewer per chunk than the `threads` the engine
/// runs on (resolved, see [`resolve_threads`]), so no chunk of a small run
/// leaves a worker idle.  A chunk is the unit of durability: its lines are
/// appended and fsync'd once it has run.
pub fn chunks(indices: &[usize], threads: usize) -> std::slice::Chunks<'_, usize> {
    indices.chunks(indices.len().div_ceil(8).max(threads).max(1))
}

/// Run `job(0..count)` on `threads` workers and return the results in index
/// order.
///
/// `job` is shared by reference across workers, so it must be `Sync`; each
/// invocation builds whatever per-cell state it needs locally, which is why
/// non-`Send` values (boxed strategies, payload instances) never cross a
/// thread boundary.  With `threads <= 1` (or a single cell) the pool is
/// bypassed entirely and the jobs run inline on the caller's thread — the
/// single-threaded facade and the parallel path share this one entry point.
pub fn run_indexed<T, F>(threads: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    if threads == 1 {
        return (0..count).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let job = &job;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count || tx.send((i, job(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell index was claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_cells_is_fine() {
        let out: Vec<usize> = run_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_job_runs_in_at_most_eight_contiguous_ascending_batches() {
        for (pending, batches, largest) in [(4, 4, 1), (27, 7, 4), (540, 8, 68), (5400, 8, 675)] {
            let cells: Vec<usize> = (0..pending).collect();
            let plan: Vec<&[usize]> = chunks(&cells, 1).collect();
            assert_eq!(plan.len(), batches, "{pending} pending");
            assert_eq!(plan.iter().map(|b| b.len()).max(), Some(largest));
            assert_eq!(plan.concat(), cells, "{pending} pending");
        }
        // A chunk never holds fewer cells than the engine has threads.
        let four: Vec<usize> = (0..4).collect();
        let plan: Vec<&[usize]> = chunks(&four, 2).collect();
        assert_eq!(plan, [&[0, 1][..], &[2, 3][..]]);
        // A resume's sparse pending set: slices of it, in its order.
        let sparse: Vec<usize> = (1..40).step_by(3).collect();
        let plan: Vec<&[usize]> = chunks(&sparse, 1).collect();
        assert_eq!(plan.len(), 7);
        assert_eq!(plan.concat(), sparse);
        assert_eq!(chunks(&[], 1).count(), 0);
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let out = run_indexed(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
