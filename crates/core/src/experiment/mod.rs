//! Experiment runners: one per table and figure of the paper's
//! evaluation, plus the ablations from `DESIGN.md`.
//!
//! Every runner takes an [`ExperimentScale`] (run time, device count,
//! seed — `afactl exp` reads them from `--seconds`, `--ssds` and
//! `--seed`) and returns a result object with `to_table()` /
//! `to_csv()` / `to_json()` renderings. All runners are registered in
//! [`registry::registry`], which `afactl` dispatches through;
//! [`registry::run_experiment`] wraps any run with a reproducibility
//! manifest.

mod ablations;
mod characterize;
mod figures;
mod fleet;
mod fleet_failover;
mod frontend;
mod futurework;
mod iotrace;
mod multihost;
pub mod pool;
mod pts;
pub mod registry;
mod rootcause;
mod saturation;
mod scale;
mod tables;
mod tailscale;
mod ull_crossover;

pub use ablations::{
    ablate_coalescing, ablate_cstate, ablate_gc, ablate_numa, ablate_poll, ablate_rcu,
    ablate_smart_period, ablate_tick, AblationResult, GcAblationResult,
};
pub use characterize::{qd_sweep, QdPoint, QdSweepResult};
pub use figures::{
    fig10, fig11, fig12, fig13, fig13_and_14, fig14, fig6, fig7, fig8, fig9, render_fig14,
    run_stage, Fig10Scatter, Fig12Comparison, Fig13Results, Fig14Result, FigureDistributions,
};
pub use fleet::{fleet_arrival, FleetArrivalResult, FleetCell};
pub use fleet_failover::{
    fleet_failover, fleet_failover_probe, fleet_replication, FailoverCell, FleetFailoverResult,
    FleetProbeOutcome, FleetReplicationResult, ReplicationCell,
};
pub use frontend::{
    tailscale_fanout, tailscale_hedge, FrontendServeResult, ServeCell, TenantReport,
};
pub use futurework::{future_schedulers, FutureWorkResult, FutureWorkRow};
pub use iotrace::{io_trace, IoTraceResult};
pub use multihost::{multi_host_isolation, MultiHostResult};
pub use pts::{pts_random_write, PtsRun, SteadyStateDetector};
pub use registry::{
    cause_rows_json, find, registry, run_experiment, ExperimentDef, ExperimentResult,
    ExperimentRun, RunManifest,
};
pub use rootcause::{root_cause, root_cause_ladder, RootCauseLadder, RootCauseReport};
pub use saturation::{uplink_saturation, SaturationResult};
pub use scale::ExperimentScale;
pub use tables::{table1, table2, table2_matrix, Table1Result, Table2Matrix};
pub use tailscale::{tail_at_scale, TailScaleCell, TailScaleResult};
pub use ull_crossover::{ull_crossover, UllCrossoverCell, UllCrossoverResult};

/// Lookahead of the one LP each serving, fleet, volume and multi-host
/// world runs on. It is never read: those worlds have `Cross =
/// Infallible`, so nothing is ever sent between LPs.
const ONE_LP_LOOKAHEAD: afa_sim::SimDuration = afa_sim::SimDuration::nanos(1);

/// The paper's single-host array serving the first `width` SSDs of
/// `geometry`: the dual-socket Xeon host under `tuning`'s kernel (its
/// isolated set is `geometry`'s fio CPUs) with CentOS-7 background
/// noise and each device's MSI-X vector designated to its Fig. 5 CPU,
/// the single-host PCIe fabric, and Table-I SSDs with `tuning`'s
/// firmware. `host_seed` seeds the host; device `d` is seeded
/// `device_seed ^ d * 0x61C8_8646`.
pub(crate) fn paper_array(
    tuning: &crate::Tuning,
    geometry: &crate::CpuSsdGeometry,
    width: usize,
    host_seed: u64,
    device_seed: u64,
) -> afa_fleet::ArrayInstance {
    let mut host = afa_host::HostModel::new(
        afa_host::CpuTopology::xeon_e5_2690_v2_dual(),
        tuning.kernel_config(geometry.io_cpu_set()),
        afa_host::BackgroundConfig::centos7_desktop(),
        host_seed,
    );
    host.init_vectors(
        (0..width).map(|d| geometry.cpu_of_ssd(d)).collect(),
        host_seed,
    );
    let devices = (0..width)
        .map(|d| {
            afa_ssd::SsdDevice::new(
                afa_ssd::SsdSpec::table1(),
                tuning.firmware(),
                device_seed ^ (d as u64).wrapping_mul(0x61C8_8646),
            )
        })
        .collect();
    afa_fleet::ArrayInstance::new(
        host,
        afa_pcie::PcieFabric::paper_single_host(width),
        devices,
    )
}

/// Runs several independent experiment configurations on the bounded
/// worker pool ([`pool::map_bounded`]), preserving input order.
pub(crate) fn run_parallel(configs: Vec<crate::AfaConfig>) -> Vec<crate::RunResult> {
    pool::map_bounded(configs, |config| crate::AfaSystem::run(&config))
}
