//! Fault injection, retry/backoff, and re-replication planning.
//!
//! The failover state machine, per array:
//!
//! ```text
//!             kill(t)                    (not modeled: repair)
//!   Healthy ─────────────► Failed ──────────────────────────►
//! ```
//!
//! and per open sub-I/O on a killed array:
//!
//! ```text
//!   InFlight ──array died──► Backoff(attempt n) ──delay──► Retry on
//!   next surviving replica ──success──► settled exactly once
//!                           └─attempts exhausted / no survivor──► shed
//! ```
//!
//! The *attempt* number fences the race between a retry and the dead
//! array's in-flight completions: only events carrying the current
//! attempt may touch the request, so the retry path cannot
//! double-settle.

use afa_sim::SimDuration;

use crate::placement::place_among;

/// Liveness of one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrayHealth {
    /// Serving normally.
    Healthy,
    /// Dead: accepts nothing, completes nothing. In-flight I/O is
    /// lost and must fail over.
    Failed,
}

/// Exponential backoff with bounded attempts for failed-over sub-I/Os.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Backoff multiplier per subsequent attempt.
    pub multiplier: u32,
    /// Total attempts allowed (the original submission is attempt 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The fleet default: 10 ms first backoff (an RPC-timeout's worth
    /// of failure detection + re-route — two orders of magnitude above
    /// the ~100 µs healthy path, and safely above the multi-ms
    /// scheduler-noise tail an untuned host shows), doubling, at most
    /// 4 attempts.
    pub fn fleet_default() -> Self {
        RetryPolicy {
            base: SimDuration::millis(10),
            multiplier: 2,
            max_attempts: 4,
        }
    }

    /// Backoff before attempt `attempt` (2-based: attempt 1 is the
    /// original submission), or `None` when attempts are exhausted.
    pub fn delay(&self, attempt: u32) -> Option<SimDuration> {
        if attempt < 2 || attempt > self.max_attempts {
            return None;
        }
        let mut ns = self.base.as_nanos();
        for _ in 2..attempt {
            ns *= self.multiplier as u64;
        }
        Some(SimDuration::nanos(ns))
    }
}

/// One unit of re-replication work: restore `volume`'s replication
/// factor by copying from a surviving `source` array to a `target`
/// array that was not previously a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealJob {
    /// The under-replicated volume.
    pub volume: u64,
    /// Surviving replica to read from.
    pub source: usize,
    /// New replica to write to.
    pub target: usize,
}

/// Derives the re-replication plan after `dead` fails: every volume in
/// `0..volumes` whose pre-kill placement (over `pre_kill` arrays at
/// replication `r`) included `dead` gets one [`HealJob`] copying from
/// its highest-ranked surviving replica to the array that rendezvous
/// placement newly elects. Volumes with no surviving replica, or with
/// nowhere new to go (`r >= survivors`), yield no job.
///
/// Pure: both the caller and a test can derive the identical plan.
pub fn heal_jobs(volumes: u64, pre_kill: &[usize], dead: usize, r: usize) -> Vec<HealJob> {
    let survivors: Vec<usize> = pre_kill.iter().copied().filter(|&a| a != dead).collect();
    let mut jobs = Vec::new();
    for volume in 0..volumes {
        let before = place_among(volume, pre_kill, r);
        if !before.contains(&dead) {
            continue;
        }
        let Some(&source) = before.iter().find(|&&a| a != dead) else {
            continue; // r == 1 and the sole replica died: data loss, nothing to copy.
        };
        let after = place_among(volume, &survivors, r);
        let Some(&target) = after.iter().find(|a| !before.contains(a)) else {
            continue; // every survivor already held a replica.
        };
        jobs.push(HealJob {
            volume,
            source,
            target,
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_exhausts() {
        let p = RetryPolicy::fleet_default();
        assert_eq!(p.delay(1), None, "the original submission never waits");
        assert_eq!(p.delay(2), Some(SimDuration::millis(10)));
        assert_eq!(p.delay(3), Some(SimDuration::millis(20)));
        assert_eq!(p.delay(4), Some(SimDuration::millis(40)));
        assert_eq!(p.delay(5), None, "attempts exhausted");
    }

    #[test]
    fn heal_plan_covers_exactly_the_dead_arrays_volumes() {
        let pre_kill: Vec<usize> = (0..5).collect();
        let dead = 3;
        let volumes = 400;
        let jobs = heal_jobs(volumes, &pre_kill, dead, 2);
        let affected: u64 = (0..volumes)
            .filter(|&v| place_among(v, &pre_kill, 2).contains(&dead))
            .count() as u64;
        assert_eq!(jobs.len() as u64, affected);
        for job in &jobs {
            let before = place_among(job.volume, &pre_kill, 2);
            assert!(before.contains(&dead));
            assert!(before.contains(&job.source), "source was a replica");
            assert_ne!(job.source, dead);
            assert!(!before.contains(&job.target), "target is a new replica");
            assert_ne!(job.target, dead);
        }
        // Rendezvous spreads ~r/n of the volumes onto each array.
        let expected = volumes * 2 / 5;
        assert!(
            jobs.len() as u64 > expected / 2 && (jobs.len() as u64) < expected * 2,
            "{} jobs for ~{expected} expected affected volumes",
            jobs.len()
        );
    }

    #[test]
    fn unreplicated_volumes_cannot_heal() {
        let jobs = heal_jobs(100, &[0, 1, 2], 1, 1);
        assert!(
            jobs.is_empty(),
            "r=1 has no surviving source for the dead array's volumes"
        );
    }

    #[test]
    fn full_replication_has_nowhere_to_heal_to() {
        let jobs = heal_jobs(100, &[0, 1, 2], 0, 3);
        assert!(jobs.is_empty(), "every survivor already holds a replica");
    }
}
