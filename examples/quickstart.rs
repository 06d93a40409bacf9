//! Quickstart: build a small all-flash array, run the paper's 4 KiB
//! random-read workload under the fully tuned kernel, and print
//! fio-style per-device reports.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use afa::core::{AfaConfig, AfaSystem, TuningStage};
use afa::sim::SimDuration;

fn main() {
    // 8 SSDs, 1 simulated second, the §IV-D tuning (chrt + isolcpus +
    // pinned IRQ vectors, production firmware).
    let config = AfaConfig::paper(TuningStage::IrqAffinity)
        .with_ssds(8)
        .with_runtime(SimDuration::secs(1))
        .with_seed(7);

    println!(
        "running {} SSDs for {:.1}s simulated under '{}' tuning...\n",
        config.geometry.ssds(),
        config.runtime.as_secs_f64(),
        config.tuning
    );
    let result = AfaSystem::run(&config);

    for (device, report) in result.reports.iter().enumerate() {
        println!("{}", report.to_fio_style(&format!("nvme{device}")));
    }

    println!(
        "aggregate: {:.0} IOPS, {:.2} GB/s ({} interrupts, {} of them remote)",
        result.aggregate_iops(config.runtime),
        result.aggregate_gbps(config.runtime),
        result.host.stats().irqs,
        result.host.stats().remote_irqs,
    );
}
