#![deny(missing_docs)]
//! # govhost-par
//!
//! The workspace's parallelism primitives. Every fan-out in the pipeline
//! — the per-country crawl, the dataset build, batch geolocation — uses
//! the same pattern: `std::thread::scope` workers pulling job indices off
//! a work-stealing deque set, sending index-tagged results back over a
//! channel, and the caller reassembling them in input order so parallel
//! and sequential runs produce identical output.
//!
//! Scheduling is work-stealing: jobs are dealt round-robin across one
//! deque per worker, each worker drains its own deque from the front,
//! and a worker that runs dry steals from the *back* of a victim's
//! deque. When job sizes are skewed — one giant country next to sixty
//! small ones — the workers that finish early take over the long tail
//! instead of idling, so a single oversized job no longer serializes
//! the batch. Scheduling never changes *what* is computed: results are
//! reassembled by job index, and the determinism suites pin the output
//! byte-for-byte across thread counts.
//!
//! [`parallel_map`] packages that pattern once, together with the panic
//! handling the ad-hoc copies lacked: a worker panic is caught per job,
//! tagged with a caller-supplied label (e.g. the URL being crawled), and
//! re-raised from the calling thread as a single diagnosable panic
//! instead of cascading into `expect("result channel open")` /
//! `expect("every job completed")` failures on unrelated threads.
//!
//! [`resolve_threads`] is the one place the default worker count is
//! decided: `GOVHOST_THREADS` when set (for CI reproducibility), else
//! [`std::thread::available_parallelism`], clamped to a sane range.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Hard ceiling on worker threads; protects against a runaway
/// `GOVHOST_THREADS` value as well as giant `available_parallelism`
/// readings on large shared machines.
pub const MAX_THREADS: usize = 64;

/// Default clamp applied to [`std::thread::available_parallelism`] when no
/// explicit override is given: more than this buys nothing for a
/// 61-country fan-out.
pub const DEFAULT_THREAD_CAP: usize = 16;

/// The worker-thread count the pipeline should use by default.
///
/// Resolution order:
/// 1. `GOVHOST_THREADS` environment variable, when set to a positive
///    integer (clamped to [`MAX_THREADS`]) — the reproducibility knob for
///    CI and benchmarking environments;
/// 2. [`std::thread::available_parallelism`], clamped to
///    [`DEFAULT_THREAD_CAP`];
/// 3. `1` when parallelism cannot be queried.
///
/// Thread count never changes *what* the pipeline computes (the merge
/// order is fixed), only how fast it computes it, so an override cannot
/// break determinism — see `tests/determinism.rs`.
pub fn resolve_threads() -> usize {
    if let Ok(raw) = std::env::var("GOVHOST_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, DEFAULT_THREAD_CAP)
}

/// One captured worker panic: which job, and the original payload.
struct CapturedPanic {
    job: usize,
    payload: Box<dyn std::any::Any + Send + 'static>,
}

/// The work-stealing job queues: one deque per worker, jobs dealt
/// round-robin at construction (worker `w` owns jobs `w`, `w + n`,
/// `w + 2n`, ...). Owners pop from the front of their own deque;
/// thieves pop from the back of a victim's, so an owner and a thief
/// contend on opposite ends and the lowest-index jobs are executed by
/// their owner whenever it is making progress at all.
struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Deal `jobs` job indices round-robin across `workers` deques.
    fn deal(workers: usize, jobs: usize) -> StealQueues {
        let per_worker = jobs.div_ceil(workers.max(1));
        let mut queues: Vec<VecDeque<usize>> =
            (0..workers).map(|_| VecDeque::with_capacity(per_worker)).collect();
        for job in 0..jobs {
            queues[job % workers].push_back(job);
        }
        StealQueues { queues: queues.into_iter().map(Mutex::new).collect() }
    }

    /// The next job for worker `me`: its own front, else a steal from
    /// the back of the first non-empty victim (scanned in ring order).
    /// `None` means every deque is empty and the batch is drained.
    fn next(&self, me: usize) -> Option<usize> {
        if let Some(job) = self.queues[me].lock().unwrap().pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for step in 1..n {
            let victim = (me + step) % n;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }
}

/// Render a panic payload the way the default panic hook would.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Map `f` over `items` on up to `threads` scoped worker threads,
/// returning results in input order regardless of scheduling.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or one item) the
/// map runs inline on the calling thread with no thread or channel
/// overhead — the sequential and parallel paths are observationally
/// identical, which the determinism suite relies on.
///
/// # Panics
///
/// If a worker panics, the panic is caught, every worker finishes or
/// abandons its remaining jobs, and a single panic is raised from the
/// calling thread naming the failing job via `label` and carrying the
/// original payload's message. When several jobs panic concurrently the
/// lowest job index wins, so the report is deterministic.
pub fn parallel_map<T, R, F, L>(items: &[T], threads: usize, label: L, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    L: Fn(&T) -> String,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        // Inline path: panics propagate natively with their own payload,
        // which is already fully diagnosable.
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let queues = StealQueues::deal(threads, items.len());
    let panics: Mutex<Vec<CapturedPanic>> = Mutex::new(Vec::new());
    let (res_tx, res_rx) = mpsc::channel::<(usize, R)>();

    let mut results: Vec<Option<R>> = std::thread::scope(|scope| {
        for me in 0..threads {
            let queues = &queues;
            let panics = &panics;
            let f = &f;
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                while let Some(i) = queues.next(me) {
                    match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                        Ok(result) => {
                            // The receiver outlives the scope; a send can
                            // only fail after a collector bug, in which
                            // case the panic bookkeeping below still
                            // reports cleanly.
                            if res_tx.send((i, result)).is_err() {
                                break;
                            }
                        }
                        Err(payload) => {
                            panics.lock().unwrap().push(CapturedPanic { job: i, payload });
                            // Abandon remaining jobs: the batch is failing
                            // and the first panic is what gets reported.
                            break;
                        }
                    }
                }
            });
        }
        drop(res_tx);
        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        results.resize_with(items.len(), || None);
        while let Ok((i, result)) = res_rx.recv() {
            results[i] = Some(result);
        }
        results
    });

    let mut captured = panics.into_inner().unwrap();
    if !captured.is_empty() {
        captured.sort_by_key(|c| c.job);
        let first = &captured[0];
        panic!(
            "worker panicked on job {} ({}): {}",
            first.job,
            label(&items[first.job]),
            payload_message(first.payload.as_ref()),
        );
    }
    results
        .iter_mut()
        .map(|slot| slot.take().expect("no panic recorded, so every job completed"))
        .collect()
}

/// One failed job from [`try_parallel_map`]: which job, the
/// caller-supplied label for it, and the typed error it returned.
///
/// Unlike a re-raised panic this is a value — the caller decides whether
/// a failed job aborts the batch or is quarantined and reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError<E> {
    /// Input index of the failing job.
    pub job: usize,
    /// The label the caller's labelling function produced for the item.
    pub label: String,
    /// The error the job returned.
    pub error: E,
}

impl<E: std::fmt::Display> std::fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} ({}): {}", self.job, self.label, self.error)
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for JobError<E> {}

/// Fault-tolerant sibling of [`parallel_map`]: `f` returns
/// `Result<R, E>` and *expected* failures come back as values instead of
/// tearing the batch down.
///
/// Every job runs to completion regardless of how many others fail; the
/// output preserves input order, with each failed job represented by a
/// [`JobError`] carrying its index, label, and error. Panics remain
/// reserved for bugs and propagate exactly as in [`parallel_map`].
pub fn try_parallel_map<T, R, E, F, L>(
    items: &[T],
    threads: usize,
    label: L,
    f: F,
) -> Vec<Result<R, JobError<E>>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
    L: Fn(&T) -> String,
{
    parallel_map(items, threads, &label, |i, item| f(i, item))
        .into_iter()
        .enumerate()
        .map(|(i, result)| {
            result.map_err(|error| JobError { job: i, label: label(&items[i]), error })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * v).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = parallel_map(&items, threads, |v| v.to_string(), |_, v| v * v);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = parallel_map(&[] as &[u32], 4, |v| v.to_string(), |_, v| *v);
        assert!(got.is_empty());
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let got = parallel_map(&items, 2, |s| s.to_string(), |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn panic_carries_label_and_original_message() {
        let items: Vec<u32> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(
                &items,
                4,
                |v| format!("item-{v}"),
                |_, v| {
                    if *v == 7 {
                        panic!("boom at {v}");
                    }
                    *v
                },
            )
        }));
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload_message(payload.as_ref());
        assert!(msg.contains("item-7"), "panic names the failing job: {msg}");
        assert!(msg.contains("boom at 7"), "panic carries the original message: {msg}");
    }

    #[test]
    fn lowest_index_wins_when_several_jobs_panic() {
        let items: Vec<u32> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(
                &items,
                8,
                |v| format!("job{v}"),
                |_, v| {
                    if v % 2 == 1 {
                        panic!("odd {v}");
                    }
                    *v
                },
            )
        }));
        let msg = payload_message(caught.expect_err("panics propagate").as_ref());
        // Every odd job on every worker may panic; the report must still
        // be the smallest failing index actually captured. Round-robin
        // dealing gives every deque jobs of one parity, so job 1 — the
        // front of an odd deque — is always popped by whoever processes
        // that deque, panics there, and is captured.
        assert!(msg.contains("job1)"), "deterministic first-failure report, got: {msg}");
    }

    /// The work-stealing motivation: one job 100× larger than the rest
    /// (the "one giant country" case) must neither stall the batch nor
    /// perturb the output — every job completes and results stay in
    /// input order for every thread count.
    #[test]
    fn skewed_job_sizes_preserve_input_order() {
        // Job 0 is ~100× the others; busy-work keeps the skew real
        // without sleeping.
        let weights: Vec<u64> = std::iter::once(400_000).chain((1..64).map(|_| 4_000)).collect();
        let work = |w: &u64| -> u64 {
            let mut acc = 0u64;
            for i in 0..*w {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let expect: Vec<u64> = weights.iter().map(work).collect();
        for threads in [2, 4, 8] {
            let got = parallel_map(&weights, threads, |w| w.to_string(), |_, w| work(w));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    /// Stealing drains a deque whose owner is stuck on a long job: with
    /// two workers and every even job dealt to worker 0, a giant job 0
    /// leaves the rest of deque 0 to be stolen by worker 1 — the batch
    /// still completes with every result in place.
    #[test]
    fn long_job_does_not_strand_its_deque() {
        let weights: Vec<u64> = std::iter::once(2_000_000).chain((1..32).map(|_| 1)).collect();
        let got = parallel_map(&weights, 2, |w| w.to_string(), |i, w| (i as u64) + *w);
        let expect: Vec<u64> = weights.iter().enumerate().map(|(i, w)| i as u64 + *w).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sequential_path_propagates_native_panics() {
        let items = vec![1u32];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 1, |v| v.to_string(), |_, _| -> u32 { panic!("inline") })
        }));
        let msg = payload_message(caught.expect_err("panics propagate").as_ref());
        assert_eq!(msg, "inline");
    }

    #[test]
    fn try_map_returns_errors_in_place_without_aborting() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 4, 16] {
            let got = try_parallel_map(
                &items,
                threads,
                |v| format!("item-{v}"),
                |_, v| if v % 5 == 0 { Err(format!("bad {v}")) } else { Ok(v * 2) },
            );
            assert_eq!(got.len(), items.len(), "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i % 5 == 0 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.job, i);
                    assert_eq!(e.label, format!("item-{i}"));
                    assert_eq!(e.error, format!("bad {i}"));
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_all_ok_round_trips() {
        let items = vec!["a", "b"];
        let got: Vec<Result<String, JobError<String>>> =
            try_parallel_map(&items, 2, |s| s.to_string(), |i, s| Ok(format!("{i}{s}")));
        assert_eq!(got[0].as_deref().unwrap(), "0a");
        assert_eq!(got[1].as_deref().unwrap(), "1b");
    }

    #[test]
    fn try_map_still_propagates_panics() {
        let items: Vec<u32> = (0..8).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            try_parallel_map(
                &items,
                4,
                |v| format!("job{v}"),
                |_, v| -> Result<u32, String> {
                    if *v == 3 {
                        panic!("bug at {v}");
                    }
                    Ok(*v)
                },
            )
        }));
        let msg = payload_message(caught.expect_err("panics are bugs, not outcomes").as_ref());
        assert!(msg.contains("job3"), "panic names the job: {msg}");
        assert!(msg.contains("bug at 3"), "panic carries the message: {msg}");
    }

    #[test]
    fn job_error_display_names_label_and_error() {
        let e = JobError { job: 7, label: "country BR".to_string(), error: "down".to_string() };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("country BR") && s.contains("down"));
    }

    #[test]
    fn resolve_threads_is_positive_and_bounded() {
        let n = resolve_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
