//! Property-based tests for the striped-volume layer, on the
//! first-party [`afa_sim::check`] harness.

use afa_sim::check::run_cases;
use afa_volume::{StripeConfig, StripedVolume};

/// The page mapping is injective and stays within bounds for any
/// width/unit combination.
#[test]
fn page_mapping_is_injective() {
    run_cases("page_mapping_is_injective", 64, |g| {
        let width = g.usize_in(1, 16);
        let unit_pages = g.u32_in(1, 32);
        let pages = g.u64_in(100, 2_000);
        let volume = StripedVolume::new((0..width).collect(), StripeConfig::new(unit_pages * 4096));
        let mut seen = std::collections::HashSet::new();
        for p in 0..pages {
            let (member, member_page) = volume.map_page(p);
            assert!(member < width);
            assert!(seen.insert((member, member_page)), "collision at page {p}");
        }
    });
}

/// Splitting a request never loses or duplicates pages: the sub-I/O
/// page sets partition the request exactly.
#[test]
fn map_read_partitions_the_request() {
    run_cases("map_read_partitions_the_request", 128, |g| {
        let width = g.usize_in(1, 16);
        let unit_pages = g.u32_in(1, 16);
        let start = g.u64_in(0, 10_000);
        let req_pages = g.u32_in(1, 64);
        let volume = StripedVolume::new((0..width).collect(), StripeConfig::new(unit_pages * 4096));
        let subs = volume.map_read(start, req_pages * 4096);
        let mut covered = std::collections::HashSet::new();
        for sub in &subs {
            assert!(sub.member < width);
            assert_eq!(sub.bytes % 4096, 0);
            for i in 0..(sub.bytes / 4096) as u64 {
                assert!(
                    covered.insert((sub.member, sub.lba + i)),
                    "duplicate member page"
                );
            }
        }
        assert_eq!(covered.len() as u32, req_pages);
        // Every covered (member, page) must invert to a request page.
        for p in start..start + req_pages as u64 {
            let key = volume.map_page(p);
            assert!(covered.contains(&key), "page {p} lost");
        }
    });
}
