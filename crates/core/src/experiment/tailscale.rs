//! Tail-at-scale: client-perceived latency over a striped volume.
//!
//! §I of the paper: "one request from a client is divided into
//! multiple I/Os, which are then distributed to many SSDs in parallel
//! as in RAID ... even if one SSD out of many, say 128 SSDs, shows
//! long tail latency, the entire I/O from the client is delayed by the
//! same amount." This experiment quantifies that amplification: a
//! client read striped over *w* devices completes at the *maximum* of
//! the *w* sub-I/O latencies, so the client's p99 approaches the
//! devices' p99^(1/w) quantile — unless the per-device tail is tamed,
//! which is the paper's whole point.

use std::convert::Infallible;

use afa_host::{BackgroundConfig, CpuId, CpuTopology, HostModel, SchedPolicy};
use afa_pcie::PcieFabric;
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::{NvmeCommand, SsdDevice, SsdSpec};
use afa_stats::{Json, LatencyHistogram, LatencyProfile, NinesPoint};
use afa_volume::{RequestTracker, StripeConfig, StripedVolume};

use crate::experiment::registry::ExperimentResult;
use crate::experiment::{pool, ExperimentScale};
use crate::geometry::CpuSsdGeometry;
use crate::tuning::{Tuning, TuningStage};

/// Client threads driving the volume.
const CLIENTS: usize = 4;
/// io_submit batch cost: base + per-sub-I/O increment.
const SUBMIT_BASE: SimDuration = SimDuration::nanos(1_500);
const SUBMIT_PER_SUB: SimDuration = SimDuration::nanos(500);
const COMPLETE_COST: SimDuration = SimDuration::nanos(1_300);

/// One `(stage, width)` cell of the sweep.
#[derive(Clone, Debug)]
pub struct TailScaleCell {
    /// Tuning stage of the run.
    pub stage: TuningStage,
    /// Stripe width (devices per request).
    pub width: usize,
    /// Client-perceived request-latency profile.
    pub client: LatencyProfile,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct TailScaleResult {
    /// All cells, widths × stages.
    pub cells: Vec<TailScaleCell>,
}

impl TailScaleResult {
    /// The cell for `(stage, width)`.
    pub fn cell(&self, stage: TuningStage, width: usize) -> Option<&TailScaleCell> {
        self.cells
            .iter()
            .find(|c| c.stage == stage && c.width == width)
    }

    /// Renders the sweep: client p99/p99.9/max per width, per stage.
    pub fn to_table(&self) -> String {
        let mut out =
            String::from("Tail at scale — client-perceived latency over a striped volume\n");
        let mut stages: Vec<TuningStage> = self.cells.iter().map(|c| c.stage).collect();
        stages.dedup();
        for stage in stages {
            out.push_str(&format!(
                "\n'{stage}' kernel:\n{:<8} {:>10} {:>10} {:>12} {:>10}\n",
                "width", "avg(us)", "p99(us)", "p99.9(us)", "max(us)"
            ));
            for cell in self.cells.iter().filter(|c| c.stage == stage) {
                out.push_str(&format!(
                    "{:<8} {:>10.1} {:>10.1} {:>12.1} {:>10.1}\n",
                    cell.width,
                    cell.client.get_micros(NinesPoint::Average),
                    cell.client.get_micros(NinesPoint::Nines2),
                    cell.client.get_micros(NinesPoint::Nines3),
                    cell.client.get_micros(NinesPoint::Max),
                ));
            }
        }
        out
    }
}

impl ExperimentResult for TailScaleResult {
    fn to_table(&self) -> String {
        TailScaleResult::to_table(self)
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("stage,width,avg_us,p99_us,p999_us,max_us\n");
        for cell in &self.cells {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{:.3}\n",
                cell.stage.label(),
                cell.width,
                cell.client.get_micros(NinesPoint::Average),
                cell.client.get_micros(NinesPoint::Nines2),
                cell.client.get_micros(NinesPoint::Nines3),
                cell.client.get_micros(NinesPoint::Max)
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "cells",
            Json::arr(self.cells.iter().map(|cell| {
                Json::obj([
                    ("stage", Json::str(cell.stage.label())),
                    ("width", Json::u64(cell.width as u64)),
                    ("client", cell.client.to_json()),
                ])
            })),
        )])
    }

    fn samples(&self) -> u64 {
        self.cells.iter().map(|c| c.client.samples()).sum()
    }

    fn headline_max_us(&self) -> Option<f64> {
        self.cells
            .iter()
            .map(|c| c.client.get_micros(NinesPoint::Max))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Runs the sweep: stripe widths 1/4/8/16 (clamped to the scale's
/// device budget) under the default and fully tuned kernels.
pub fn tail_at_scale(scale: ExperimentScale) -> TailScaleResult {
    let widths: Vec<usize> = [1usize, 4, 8, 16]
        .into_iter()
        .filter(|&w| w <= scale.ssds.max(1))
        .collect();
    let stages = [TuningStage::Default, TuningStage::IrqAffinity];
    let mut jobs = Vec::new();
    for &width in &widths {
        for &stage in &stages {
            jobs.push((stage, width));
        }
    }
    let cells: Vec<TailScaleCell> =
        pool::map_bounded(jobs, |(stage, width)| run_cell(stage, width, scale));
    TailScaleResult { cells }
}

fn run_cell(stage: TuningStage, width: usize, scale: ExperimentScale) -> TailScaleCell {
    let tuning = Tuning::new(stage);
    let geometry = CpuSsdGeometry::paper(width.max(CLIENTS));
    let topo = CpuTopology::xeon_e5_2690_v2_dual();
    let mut host = HostModel::new(
        topo,
        tuning.kernel_config(geometry.io_cpu_set()),
        BackgroundConfig::centos7_desktop(),
        scale.seed ^ 0xA11CE,
    );
    // Vectors designated per device: reuse the paper mapping.
    host.init_vectors(
        (0..width).map(|d| geometry.cpu_of_ssd(d)).collect(),
        scale.seed ^ 0xA11CE,
    );
    let devices: Vec<SsdDevice> = (0..width)
        .map(|d| {
            SsdDevice::new(
                SsdSpec::table1(),
                tuning.firmware(),
                scale.seed ^ (d as u64).wrapping_mul(0x61C8_8646),
            )
        })
        .collect();
    let volume = StripedVolume::new((0..width).collect(), StripeConfig::new(4096));
    // Client CPUs: the first CLIENTS io CPUs.
    let client_cpus: Vec<CpuId> = (0..CLIENTS).map(|c| geometry.io_cpus()[c]).collect();

    let world = VolumeWorld {
        host,
        fabric: PcieFabric::paper_single_host(width),
        devices,
        volume,
        tracker: RequestTracker::new(),
        client_cpus,
        policy: tuning.fio_policy(),
        hist: LatencyHistogram::new(),
        rng: SimRng::from_seed_and_stream(scale.seed, 0x7A11),
        deadline: SimTime::ZERO + scale.runtime,
        horizon: SimTime::ZERO + scale.runtime + SimDuration::millis(50),
        request_pages: 4_000_000,
    };
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    for client in 0..CLIENTS {
        sim.schedule(
            0,
            SimTime::ZERO + SimDuration::micros(client as u64 * 17),
            VolEvent::Issue { client },
        );
    }
    sim.schedule(0, SimTime::ZERO, VolEvent::BgArrival);
    sim.run();
    let world = sim.into_world();
    TailScaleCell {
        stage,
        width,
        client: world.hist.profile(),
    }
}

#[derive(Debug)]
enum VolEvent {
    Issue {
        client: usize,
    },
    SubDeviceDone {
        request: u64,
        device: usize,
        bytes: u32,
    },
    SubDone {
        request: u64,
        device: usize,
    },
    BgArrival,
}

type Ctx<'a> = ShardCtx<'a, VolEvent, Infallible>;

struct VolumeWorld {
    host: HostModel,
    fabric: PcieFabric,
    devices: Vec<SsdDevice>,
    volume: StripedVolume,
    tracker: RequestTracker,
    client_cpus: Vec<CpuId>,
    policy: SchedPolicy,
    hist: LatencyHistogram,
    rng: SimRng,
    deadline: SimTime,
    horizon: SimTime,
    request_pages: u64,
}

impl VolumeWorld {
    /// Issues one striped request for `client` with the thread running
    /// at `now`.
    fn issue(&mut self, client: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        if now >= self.deadline {
            return;
        }
        let cpu = self.client_cpus[client];
        let width = self.volume.width();
        let bytes = 4096 * width as u32;
        let volume_page = self.rng.below(self.request_pages / width as u64) * width as u64;
        let subs = self.volume.map_read(volume_page, bytes);
        let submit_cost = SUBMIT_BASE + SUBMIT_PER_SUB * subs.len() as u64;
        let submit_end = self.host.charge_cpu(cpu, now, submit_cost);
        let request = self.tracker.begin(client, submit_end, subs.len() as u32);
        for sub in subs {
            let device = self.volume.member_device(sub.member);
            let at_device = self.fabric.submit_command(device, submit_end);
            let info =
                self.devices[device].submit(at_device, NvmeCommand::read(sub.lba, sub.bytes));
            // Fabric upstream and interrupt handling happen when their
            // events fire, so shared links and host state mutate in
            // global time order.
            ctx.at(
                info.completes_at,
                VolEvent::SubDeviceDone {
                    request,
                    device,
                    bytes: sub.bytes,
                },
            );
        }
    }
}

impl ShardWorld for VolumeWorld {
    type Local = VolEvent;
    type Cross = Infallible;

    fn handle_local(&mut self, event: VolEvent, ctx: &mut Ctx<'_>) {
        match event {
            VolEvent::Issue { client } => {
                let now = ctx.now();
                self.issue(client, now, ctx);
            }
            VolEvent::SubDeviceDone {
                request,
                device,
                bytes,
            } => {
                let now = ctx.now();
                let at_host = self.fabric.deliver_completion(device, now, bytes as u64);
                ctx.at(at_host, VolEvent::SubDone { request, device });
            }
            VolEvent::SubDone { request, device } => {
                let now = ctx.now();
                let irq = self.host.deliver_irq(device, now);
                if let Some(done) = self.tracker.complete_sub(request) {
                    // Last sub-I/O: wake the client, reap all events,
                    // record, issue the next request.
                    let cpu = self.client_cpus[done.client];
                    let (run_start, _) = self.host.wake_io_task(cpu, irq.wake_ready, self.policy);
                    let reap = COMPLETE_COST + SUBMIT_PER_SUB * self.volume.width() as u64;
                    let end = self.host.charge_cpu(cpu, run_start, reap);
                    self.hist
                        .record(end.saturating_since(done.issued_at).as_nanos());
                    self.issue(done.client, end, ctx);
                }
            }
            VolEvent::BgArrival => {
                let now = ctx.now();
                self.host.spawn_background(now);
                let next = self.host.next_background_arrival(now);
                if next < self.horizon {
                    ctx.at(next, VolEvent::BgArrival);
                }
            }
        }
    }

    fn handle_cross(&mut self, _src: usize, event: Infallible, _ctx: &mut Ctx<'_>) {
        match event {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_stripes_amplify_the_default_tail() {
        let scale = ExperimentScale::new(SimDuration::millis(300), 16, 42);
        let result = tail_at_scale(scale);
        let narrow = result
            .cell(TuningStage::Default, 1)
            .expect("width-1 cell")
            .client
            .get_micros(NinesPoint::Nines2);
        let wide = result
            .cell(TuningStage::Default, 16)
            .expect("width-16 cell")
            .client
            .get_micros(NinesPoint::Nines2);
        assert!(
            wide > narrow,
            "p99 must grow with stripe width: {narrow} -> {wide}"
        );
    }

    #[test]
    fn tuning_tames_the_amplification() {
        let scale = ExperimentScale::new(SimDuration::millis(300), 16, 7);
        let result = tail_at_scale(scale);
        let default_wide = result
            .cell(TuningStage::Default, 16)
            .unwrap()
            .client
            .get_micros(NinesPoint::Nines3);
        let tuned_wide = result
            .cell(TuningStage::IrqAffinity, 16)
            .unwrap()
            .client
            .get_micros(NinesPoint::Nines3);
        assert!(
            tuned_wide < default_wide,
            "tuned p99.9 {tuned_wide} !< default {default_wide}"
        );
        assert!(result.to_table().contains("width"));
    }

    #[test]
    fn every_cell_completes_requests() {
        let scale = ExperimentScale::new(SimDuration::millis(100), 8, 3);
        let result = tail_at_scale(scale);
        for cell in &result.cells {
            assert!(
                cell.client.samples() > 200,
                "{:?} width {} only {} requests",
                cell.stage,
                cell.width,
                cell.client.samples()
            );
        }
    }
}
