//! The paper's story in one run: walk the §IV tuning ladder —
//! default → chrt → isolcpus → irq affinity → experimental firmware —
//! and watch the worst-case latency collapse from milliseconds to
//! double-digit microseconds.
//!
//! ```sh
//! cargo run --release --example tuning_ladder
//! ```

use afa::core::experiment::ExperimentScale;
use afa::core::{AfaSystem, TuningStage};
use afa::sim::SimDuration;
use afa::stats::NinesPoint;

fn main() {
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}",
        "stage", "avg(us)", "p99.9(us)", "p99.999(us)", "max(us)"
    );
    let scale = ExperimentScale::new(SimDuration::secs(2), 16, 42);
    for stage in TuningStage::ALL {
        let result = AfaSystem::run(&scale.config(stage));
        // Worst device decides the array's responsiveness (§I: one
        // slow SSD delays the whole striped request).
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>12.1} {:>10.1}",
            stage.label(),
            result.mean_us(NinesPoint::Average),
            result.worst_us(NinesPoint::Nines3),
            result.worst_us(NinesPoint::Nines5),
            result.worst_us(NinesPoint::Max)
        );
    }
    println!("\npaper: default max ~5000us, chrt ~600us, exp firmware ~90us");
}
