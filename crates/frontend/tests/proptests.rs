//! Property-based tests for the request book and the per-request
//! ledger, on the first-party [`afa_sim::check`] harness.

use afa_frontend::{RequestBook, RequestLedger, SubCompletion};
use afa_sim::check::run_cases;
use afa_sim::trace::Cause;
use afa_sim::{SimDuration, SimTime};
use afa_volume::SubIo;

/// For random fan-outs settled in random interleaved orders, every
/// request finishes exactly once, on its last sub-I/O, with
/// `finished_at` equal to the latest sub completion time and its
/// identity intact.
#[test]
fn book_finishes_once_at_the_latest_sub() {
    run_cases("book_finishes_once_at_the_latest_sub", 64, |g| {
        let fanouts = g.vec_of(1, 40, |g| g.usize_in(1, 33));
        let mut book = RequestBook::new();
        let mut open = Vec::new();
        for (tenant, &fanout) in fanouts.iter().enumerate() {
            let arrived = SimTime::from_nanos(g.u64_in(0, 1_000));
            let subs: Vec<SubIo> = (0..fanout)
                .map(|m| SubIo {
                    member: m,
                    lba: m as u64,
                    bytes: 4096,
                })
                .collect();
            let id = book.begin(tenant, arrived, arrived, &subs);
            let times: Vec<u64> = (0..fanout)
                .map(|_| arrived.as_nanos() + g.u64_in(1, 1_000_000))
                .collect();
            open.push((id, tenant, arrived, times));
        }
        assert_eq!(book.in_flight(), fanouts.len());
        // Each step settles one random outstanding sub of one random
        // open request.
        let mut pending: Vec<(usize, Vec<usize>)> = open
            .iter()
            .enumerate()
            .map(|(r, (.., times))| (r, (0..times.len()).collect()))
            .collect();
        let mut finishes = vec![0u32; open.len()];
        while !pending.is_empty() {
            let pick = g.usize_in(0, pending.len());
            let (r, subs) = &mut pending[pick];
            let r = *r;
            let sub = subs.swap_remove(g.usize_in(0, subs.len()));
            let last = subs.is_empty();
            let (id, tenant, arrived, times) = &open[r];
            match book.complete_sub(*id, sub, SimTime::from_nanos(times[sub]), false) {
                SubCompletion::Finished(fin) => {
                    assert!(last, "finished before its last sub");
                    finishes[r] += 1;
                    let latest = *times.iter().max().expect("fanout >= 1");
                    assert_eq!(fin.finished_at, SimTime::from_nanos(latest));
                    assert_eq!(fin.tenant, *tenant);
                    assert_eq!(fin.arrived_at, *arrived);
                    assert_eq!(fin.fanout as usize, times.len());
                }
                SubCompletion::Pending => assert!(!last, "last sub left it pending"),
                SubCompletion::Duplicate => panic!("no sub completes twice"),
            }
            if last {
                pending.swap_remove(pick);
            }
        }
        assert!(finishes.iter().all(|&n| n == 1), "each finishes once");
        assert_eq!(book.in_flight(), 0);
    });
}

/// Each tile charge is its own stamp's gap since the stamp before it,
/// zero when the stamp runs backwards, and over non-decreasing stamps
/// the charges sum to the last stamp minus the start.
#[test]
fn tile_charges_each_gap_to_its_cause() {
    run_cases("tile_charges_each_gap_to_its_cause", 128, |g| {
        // Distinct causes, so every charge reads back on its own.
        let mut causes = Cause::ALL.to_vec();
        let n = g.usize_in(1, causes.len() + 1);
        for i in 0..n {
            let j = g.usize_in(i, causes.len());
            causes.swap(i, j);
        }
        let start = SimTime::from_nanos(g.u64_in(0, 1_000_000));
        let monotone = g.bool();
        let mut at = start;
        let stamps: Vec<(Cause, SimTime)> = causes[..n]
            .iter()
            .map(|&cause| {
                at = if monotone || g.bool() {
                    at + SimDuration::nanos(g.u64_in(0, 50_000))
                } else {
                    SimTime::from_nanos(g.u64_in(0, at.as_nanos() + 1))
                };
                (cause, at)
            })
            .collect();
        let ledger = RequestLedger::tile(start, &stamps);
        let mut prev = start;
        for &(cause, at) in &stamps {
            let gap = if at < prev {
                SimDuration::ZERO
            } else {
                SimDuration::nanos(at.as_nanos() - prev.as_nanos())
            };
            assert_eq!(ledger.get(cause), gap, "{cause:?}");
            prev = at;
        }
        if monotone {
            let last = stamps.last().expect("n >= 1").1;
            assert_eq!(
                ledger.total(),
                SimDuration::nanos(last.as_nanos() - start.as_nanos())
            );
        }
    });
}
