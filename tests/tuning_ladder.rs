//! The paper's headline claim, end to end: each rung of the tuning
//! ladder makes the worst-case latency no worse.
//!
//! Fig. 6–11 walk Default → chrt → isolcpus → IRQ affinity →
//! experimental firmware, and every step cuts (or at worst holds) the
//! maximum read latency. Parameters are pinned — if a model change
//! breaks monotonicity here, either the change is wrong or the new
//! ladder must be re-verified and this test updated in the same
//! commit.

use afa::core::experiment::{run_stage, ExperimentScale};
use afa::core::TuningStage;
use afa::sim::SimDuration;

#[test]
fn ladder_worst_case_latency_is_monotonically_non_increasing() {
    let scale = ExperimentScale::new(SimDuration::millis(300), 8, 42);
    let mut previous: Option<(TuningStage, f64)> = None;
    let mut default_worst = None;
    for stage in TuningStage::ALL {
        let worst = run_stage(stage, scale).worst_max_us();
        assert!(worst > 0.0, "{stage} produced no latency samples");
        if stage == TuningStage::Default {
            default_worst = Some(worst);
        }
        if let Some((prev_stage, prev_worst)) = previous {
            assert!(
                worst <= prev_worst,
                "'{stage}' regressed the worst case: {prev_worst:.1} us \
                 at '{prev_stage}' -> {worst:.1} us"
            );
        }
        previous = Some((stage, worst));
    }
    // The full ladder must deliver a large win, not a wash (the paper
    // reports ~2770 us -> ~35 us at full scale).
    let (_, final_worst) = previous.unwrap();
    let default_worst = default_worst.expect("the ladder starts at the default stage");
    assert!(
        final_worst < default_worst / 10.0,
        "full tuning only got {default_worst:.1} -> {final_worst:.1} us"
    );
}
