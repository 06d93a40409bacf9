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

use afa_fleet::{ArrayInstance, ArrayPath};
use afa_frontend::{RequestBook, SubCompletion};
use afa_host::{CpuId, SchedPolicy};
use afa_sim::metrics::{self, CompletionCounters};
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::NvmeCommand;
use afa_stats::{Json, LatencyHistogram, LatencyProfile, NinesPoint};
use afa_volume::{StripeConfig, StripedVolume};

use crate::experiment::registry::ExperimentResult;
use crate::experiment::{pool, ExperimentScale};
use crate::geometry::CpuSsdGeometry;
use crate::tuning::TuningStage;

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
}

impl ExperimentResult for TailScaleResult {
    /// Renders the sweep: client p99/p99.9/max per width, per stage.
    fn to_table(&self) -> String {
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
}

/// Runs the sweep: stripe widths 1/4/8/16 (clamped to the scale's
/// device budget) under the default and fully tuned kernels.
pub fn tail_at_scale(scale: ExperimentScale) -> TailScaleResult {
    let cells = pool::map_bounded(sweep(scale), |(stage, width)| {
        let world = run_cell(stage, width, scale);
        TailScaleCell {
            stage,
            width,
            client: world.hist.profile(),
        }
    });
    TailScaleResult { cells }
}

/// The sweep's `(stage, width)` cells, in artifact order.
fn sweep(scale: ExperimentScale) -> Vec<(TuningStage, usize)> {
    let mut cells = Vec::new();
    for width in [1usize, 4, 8, 16] {
        if width <= scale.ssds.max(1) {
            for stage in [TuningStage::Default, TuningStage::IrqAffinity] {
                cells.push((stage, width));
            }
        }
    }
    cells
}

/// When `client` issues its first request.
fn first_issue(client: usize) -> SimTime {
    SimTime::ZERO + SimDuration::micros(client as u64 * 17)
}

/// Runs one cell to its end, flushes its counters, and returns the
/// drained world.
fn run_cell(stage: TuningStage, width: usize, scale: ExperimentScale) -> VolumeWorld {
    let geometry = CpuSsdGeometry::paper(width.max(CLIENTS));
    let world = VolumeWorld {
        array: super::paper_array(stage, &geometry, width, scale.seed ^ 0xA11CE, scale.seed),
        volume: StripedVolume::new((0..width).collect(), StripeConfig::new(4096)),
        book: RequestBook::new(),
        // Client CPUs: the first CLIENTS io CPUs.
        clients: (0..CLIENTS)
            .map(|c| Client {
                cpu: geometry.io_cpus()[c],
                submitting: SimDuration::ZERO,
                last_reap: SimTime::ZERO,
            })
            .collect(),
        policy: stage.fio_policy(),
        hist: LatencyHistogram::new(),
        rng: SimRng::from_seed_and_stream(scale.seed, 0x7A11),
        deadline: SimTime::ZERO + scale.runtime,
        horizon: SimTime::ZERO + scale.runtime + SimDuration::millis(50),
        request_pages: 4_000_000,
    };
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    for client in 0..CLIENTS {
        sim.schedule(0, first_issue(client), VolEvent::Issue { client });
    }
    sim.schedule(0, SimTime::ZERO, VolEvent::BgArrival);
    sim.run();
    let world = sim.into_world();
    metrics::flush(metrics::Counters {
        completion: CompletionCounters {
            interrupts: world.array.interrupts(),
            ..CompletionCounters::default()
        },
        ..Default::default()
    });
    world
}

#[derive(Debug)]
enum VolEvent {
    Issue {
        client: usize,
    },
    SubDeviceDone {
        request: u64,
        sub: u32,
        device: u32,
        bytes: u32,
    },
    SubDone {
        request: u64,
        sub: u32,
        device: u32,
    },
    BgArrival,
}

type Ctx<'a> = ShardCtx<'a, VolEvent, Infallible>;

/// One closed-loop client thread: it alternates a submit charge with
/// one outstanding request.
struct Client {
    cpu: CpuId,
    /// Submit charges paid so far.
    submitting: SimDuration,
    /// When its latest reap ended.
    last_reap: SimTime,
}

struct VolumeWorld {
    array: ArrayInstance,
    volume: StripedVolume,
    book: RequestBook,
    clients: Vec<Client>,
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
        let cpu = self.clients[client].cpu;
        let width = self.volume.width();
        let bytes = 4096 * width as u32;
        let volume_page = self.rng.below(self.request_pages / width as u64) * width as u64;
        let subs = self.volume.map_read(volume_page, bytes);
        let submit_cost = SUBMIT_BASE + SUBMIT_PER_SUB * subs.len() as u64;
        let submit_end = self.array.charge(cpu, now, submit_cost);
        self.clients[client].submitting += submit_end.saturating_since(now);
        let request = self.book.begin(client, submit_end, submit_end, &subs);
        for (i, sub) in subs.iter().enumerate() {
            let device = self.volume.member_device(sub.member);
            let path = self
                .array
                .issue(device, submit_end, NvmeCommand::read(sub.lba, sub.bytes));
            // Fabric upstream and interrupt handling happen when their
            // events fire, so shared links and host state mutate in
            // global time order.
            ctx.at(
                path.dev_done,
                VolEvent::SubDeviceDone {
                    request,
                    sub: i as u32,
                    device: device as u32,
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
                sub,
                device,
                bytes,
            } => {
                let mut path = ArrayPath {
                    dev_done: ctx.now(),
                    ..ArrayPath::default()
                };
                self.array.to_host(device as usize, bytes as u64, &mut path);
                ctx.at(
                    path.at_host,
                    VolEvent::SubDone {
                        request,
                        sub,
                        device,
                    },
                );
            }
            VolEvent::SubDone {
                request,
                sub,
                device,
            } => {
                let mut path = ArrayPath {
                    at_host: ctx.now(),
                    ..ArrayPath::default()
                };
                self.array.interrupt(device as usize, &mut path);
                let completion = self
                    .book
                    .complete_sub(request, sub as usize, path.at_host, false);
                if let SubCompletion::Finished(done) = completion {
                    // Last sub-I/O: wake the client, reap all events,
                    // record, issue the next request.
                    let reap = COMPLETE_COST + SUBMIT_PER_SUB * self.volume.width() as u64;
                    let client = &mut self.clients[done.tenant];
                    self.array.reap(client.cpu, self.policy, reap, &mut path);
                    client.last_reap = path.reap_end;
                    self.hist
                        .record(path.reap_end.saturating_since(done.arrived_at).as_nanos());
                    self.issue(done.tenant, path.reap_end, ctx);
                }
            }
            VolEvent::BgArrival => {
                let now = ctx.now();
                let next = self.array.background(now);
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

    /// Exact work of the sweep at 0.25 s × 8 SSDs, seed 42: requests
    /// settled, events popped and completion interrupts delivered (one
    /// per sub-I/O). A change that moves a count updates this pin and
    /// says why.
    #[test]
    fn work_counts_are_pinned() {
        let scale = ExperimentScale::new(SimDuration::millis(250), 8, 42);
        let (result, counts) = metrics::capture(|| tail_at_scale(scale));
        assert_eq!(
            (
                result.samples(),
                counts.events,
                counts.completion.interrupts
            ),
            (135_188, 1_107_478, 553_568),
            "(requests, events, interrupt reaps)"
        );
    }

    /// Little's law for the closed client loop: each client alternates
    /// a submit charge with one outstanding request and issues the
    /// next at its reap, so its submit charges plus the latencies it
    /// recorded tile its loop from its first issue to its last reap,
    /// to the nanosecond. Summed over the clients, `clients × span =
    /// Σ(latency + submit)` with each span's window edges exact.
    #[test]
    fn littles_law_holds_for_the_client_loop() {
        let scale = ExperimentScale::new(SimDuration::millis(250), 8, 42);
        for (stage, width) in sweep(scale) {
            let world = run_cell(stage, width, scale);
            let span: u64 = (0..CLIENTS)
                .map(|c| {
                    let last = world.clients[c].last_reap;
                    assert!(last >= world.deadline, "client {c} stopped early");
                    last.saturating_since(first_issue(c)).as_nanos()
                })
                .sum();
            let submitting: u64 = world.clients.iter().map(|c| c.submitting.as_nanos()).sum();
            // The histogram sums integer samples far below 2^53 exactly;
            // mean × count recovers that sum to well within ½ ns.
            let latency = (world.hist.mean() * world.hist.count() as f64).round() as u64;
            assert_eq!(
                latency + submitting,
                span,
                "{stage}/{width}: {} requests held the loop for {latency} + \
                 {submitting} ns of {span} ns",
                world.hist.count()
            );
        }
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
