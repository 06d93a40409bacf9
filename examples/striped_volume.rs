//! The §I motivation, hands-on: a RAID-0 volume over the array, where
//! every client request completes at the speed of its *slowest*
//! member — so one SSD's tail becomes everyone's tail.
//!
//! ```sh
//! cargo run --release --example striped_volume
//! ```

use afa::core::experiment::{tail_at_scale, ExperimentResult, ExperimentScale};
use afa::sim::SimDuration;
use afa::volume::{StripeConfig, StripedVolume};

fn main() {
    // The address math itself: a 256 KiB read over an 8-wide volume.
    let volume = StripedVolume::new((0..8).collect(), StripeConfig::new(65_536));
    println!("a 256 KiB read at volume page 0 splits into:");
    for sub in volume.map_read(0, 262_144) {
        println!(
            "  member {} (device {:2}): lba {:4}, {:3} KiB",
            sub.member,
            volume.member_device(sub.member),
            sub.lba,
            sub.bytes / 1024
        );
    }

    // And the consequence: client p99/p99.9 vs stripe width, stock
    // kernel vs the paper's tuned kernel.
    println!("\nrunning the tail-at-scale sweep (this takes a moment)...\n");
    let scale = ExperimentScale::new(SimDuration::millis(800), 16, 42);
    println!("{}", tail_at_scale(scale).to_table());
    println!(
        "the wider the stripe, the more the per-SSD tail amplifies —\n\
         unless the kernel is tuned (the paper's point, quantified)."
    );
}
