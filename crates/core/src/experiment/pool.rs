//! Bounded parallel map for experiment sweeps.
//!
//! Experiments fan out over independent configurations (Fig. 12's four
//! kernels, Fig. 13's run matrix, the ablation sweeps). Spawning one OS
//! thread per configuration oversubscribes the machine as soon as a
//! sweep is wider than the core count, so this module provides
//! [`map_bounded`]: a work-stealing map over at most
//! [`worker_cap`] worker threads that preserves input order. Each item
//! still runs exactly once with whatever seed its configuration
//! carries, so results are identical to a sequential map.
//!
//! Each item also runs as if on the calling thread: its worker pins
//! the caller's [`FusionOverride`], and the counts the item
//! [`flush`](afa_sim::metrics::flush)es come back to the caller, which
//! flushes them in turn. So a sweep inside an experiment counts toward
//! that experiment's run manifest, and a sweep under a fusion override
//! runs with it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

use afa_sim::metrics::{self, Counters};

use crate::system::FusionOverride;

/// Maximum worker threads a sweep may occupy: the machine's available
/// parallelism (1 if it cannot be determined).
pub fn worker_cap() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on a bounded worker pool and returns the
/// results **in input order**.
///
/// At most `min(worker_cap(), items.len())` threads run concurrently;
/// idle workers steal the next unclaimed item, so a sweep of 64
/// configurations on a 12-core machine keeps all cores busy without
/// spawning 64 threads. Every item sees the caller's
/// [`FusionOverride`], and its metrics flushes reach the caller's open
/// [`capture`](afa_sim::metrics::capture) (or the process totals).
pub fn map_bounded<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_cap().min(n);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let fusion = FusionOverride::current();
    let (tx, rx) = mpsc::channel::<(usize, R, Counters)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let slots = &slots;
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                let _fusion = FusionOverride::pin(fusion);
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        return;
                    }
                    let item = slots[idx]
                        .lock()
                        .expect("pool slot poisoned")
                        .take()
                        .expect("pool slot claimed twice");
                    let (result, counts) = metrics::capture(|| f(item));
                    let _ = tx.send((idx, result, counts));
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (idx, result, counts) in rx {
            metrics::flush(counts);
            out[idx] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("worker delivered every claimed item"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicIsize;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = map_bounded(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = map_bounded(items, |x| x * 3);
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrency_never_exceeds_the_cap() {
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let out = map_bounded((0..256).collect::<Vec<u64>>(), |x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out.len(), 256);
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak as usize <= worker_cap(),
            "peak concurrency {peak} exceeded cap {}",
            worker_cap()
        );
        assert!(peak >= 1);
    }

    #[test]
    fn single_item_runs_inline_shape() {
        let out = map_bounded(vec![41u64], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn worker_cap_is_positive() {
        assert!(worker_cap() >= 1);
    }

    #[test]
    fn worker_flushes_reach_the_callers_capture() {
        let (out, counts) = metrics::capture(|| {
            map_bounded((1..=64).collect::<Vec<u64>>(), |x| {
                metrics::flush(Counters {
                    events: x,
                    ..Counters::default()
                });
                x
            })
        });
        assert_eq!(out.len(), 64);
        assert_eq!(
            counts,
            Counters {
                events: 64 * 65 / 2,
                ..Counters::default()
            }
        );
    }

    #[test]
    fn workers_see_the_callers_fusion_override() {
        let seen = |n: usize| map_bounded(vec![(); n], |()| FusionOverride::current());
        assert_eq!(seen(16), vec![None; 16]);
        for pinned in [true, false] {
            let _fusion = FusionOverride::set(pinned);
            assert_eq!(seen(16), vec![Some(pinned); 16]);
        }
        assert_eq!(seen(16), vec![None; 16], "the pin outlived its guard");
    }
}
