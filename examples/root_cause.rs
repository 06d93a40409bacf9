//! Where does the latency go? Attribute every nanosecond of the
//! completion path to its cause — the simulated version of the paper's
//! LTTng analysis — for the stock kernel vs. the fully tuned one.
//!
//! ```sh
//! cargo run --release --example root_cause
//! ```

use afa::core::experiment::{root_cause, ExperimentResult, ExperimentScale};
use afa::core::TuningStage;
use afa::sim::SimDuration;

fn main() {
    let scale = ExperimentScale::new(SimDuration::millis(500), 8, 42);
    for stage in [TuningStage::Default, TuningStage::IrqAffinity] {
        let report = root_cause(stage, scale);
        println!("{}", report.to_table());
        if let Some(dominant) = report.dominant() {
            println!("dominant cause: {dominant}\n");
        }
    }
    println!(
        "expected: under 'default' the scheduler delay and C-state exits add\n\
         microseconds per I/O on average (and milliseconds in the tail);\n\
         under 'irq' the budget is almost pure device service + fabric."
    );
}
