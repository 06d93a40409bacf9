//! Request-level tail at scale: the `afa-frontend` serving layer over
//! the striped volume.
//!
//! Where [`tailscale`](crate::experiment::tail_at_scale) drives the
//! volume closed-loop (a client issues its next request when the
//! previous one completes), this experiment serves *open-loop* traffic
//! the way an NVMe-oF target would: three tenants generate Poisson,
//! fixed-rate and bursty arrivals; a token bucket and a bounded
//! admission queue shed overload; weighted deficit round-robin picks
//! whose request dispatches; each request fans out into one sub-I/O
//! per member SSD and completes at the *slowest* one; an optional
//! hedge policy duplicates the straggling sub-I/O after a
//! percentile-tracked delay, reading the mirrored-pair replica on the
//! stripe's buddy member — first completion wins, the loser is
//! cancelled.
//!
//! Two registry entries share this world:
//!
//! * `tailscale-fanout` — request latency vs fan-out width under the
//!   five paper tuning stages (the paper's Fig. 12 trend, lifted from
//!   per-SSD to per-request),
//! * `tailscale-hedge` — hedging on/off at full fan-out.
//!
//! Every finished request is attributed through a
//! [`RequestLedger`] over the shared [`Cause`] vocabulary, and the
//! attribution is *exact*: frontend queueing + submit CPU + (hedge
//! wait) + fabric + device + IRQ + scheduler + reap CPU tile the
//! measured latency to the nanosecond, counted by
//! [`ServeCell::ledger_mismatches`] (always zero). Each cell flushes
//! the sum of its ledgers ([`ServeCell::causes`]) as its budget share.

use std::convert::Infallible;

use afa_fleet::{ArrayInstance, ArrayPath};
use afa_frontend::{
    AdmissionQueue, ArrivalGen, Handle, HedgePolicy, RequestBook, SloReport, SloTracker,
    SubCompletion, TenantSpec, TokenBucket, WeightedScheduler,
};
use afa_host::{CpuId, SchedPolicy};
use afa_sim::metrics::{self, CompletionCounters, FrontendCounters};
use afa_sim::trace::Cause;
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::NvmeCommand;
use afa_stats::{Json, LatencyHistogram, LatencyProfile, NinesPoint};
use afa_volume::{StripeConfig, StripedVolume};
use afa_workload::ArrivalProcess;

use crate::experiment::registry::ExperimentResult;
use crate::experiment::{causes_json, pool, ExperimentScale, RequestCauses};
use crate::geometry::CpuSsdGeometry;
use crate::tuning::TuningStage;

/// io_submit batch cost: base + per-sub-I/O increment.
const SUBMIT_BASE: SimDuration = SimDuration::nanos(1_500);
const SUBMIT_PER_SUB: SimDuration = SimDuration::nanos(500);
/// Completion-reap cost for the finishing sub-I/O.
const COMPLETE_COST: SimDuration = SimDuration::nanos(1_300);
/// The stripe unit. A request reads one unit from every member, so
/// every sub-I/O, and every hedged duplicate, moves this many bytes.
const SUB_BYTES: u32 = 4096;
/// Sub-I/O settle percentile a warm hedge policy duplicates after.
const HEDGE_PERCENTILE: f64 = 95.0;
/// Background write stream of the mixed-load (hedge) experiment:
/// single-member writes that stall one device at a time — the
/// device-local stragglers hedged reads exist to escape.
const WRITE_RATE: f64 = 2_000.0;
const WRITE_BYTES: u32 = 32_768;

/// The serving tenant mix: a latency-sensitive Poisson tenant, a
/// paced fixed-rate tenant, and a bursty tenant whose token bucket
/// sheds during bursts.
fn tenant_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("latency", ArrivalProcess::Poisson { rate: 2_400.0 }, 4),
        TenantSpec::new("steady", ArrivalProcess::FixedRate { rate: 2_400.0 }, 2),
        TenantSpec::new(
            "bursty",
            ArrivalProcess::Bursty {
                on_rate: 6_000.0,
                mean_on_ms: 2.0,
                mean_off_ms: 4.0,
            },
            1,
        )
        .rate_limited(1_500.0, 20.0)
        .queue_capacity(32),
    ]
}

/// One tenant's slice of a cell: its name and SLO verdict.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name from the [`TenantSpec`].
    pub name: &'static str,
    /// Achieved-vs-target SLO report.
    pub slo: SloReport,
}

/// One `(stage, width, hedging)` cell of a serving sweep.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Tuning stage of the run.
    pub stage: TuningStage,
    /// Fan-out width (member SSDs per request).
    pub width: usize,
    /// Whether hedged reads were enabled.
    pub hedging: bool,
    /// All-tenant request-latency profile.
    pub client: LatencyProfile,
    /// Per-tenant SLO reports, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Admission/shed/hedge counters for this cell.
    pub counters: FrontendCounters,
    /// Cross-request cause totals from the per-request ledgers.
    pub causes: Vec<(Cause, SimDuration)>,
    /// Finished requests whose ledger did not tile the measured
    /// latency exactly. Always zero — a non-zero value is a model bug.
    pub ledger_mismatches: u64,
}

impl ServeCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::str(self.stage.label())),
            ("width", Json::u64(self.width as u64)),
            ("hedging", Json::Bool(self.hedging)),
            ("client", self.client.to_json()),
            (
                "tenants",
                Json::arr(
                    self.tenants.iter().map(|t| {
                        Json::obj([("name", Json::str(t.name)), ("slo", t.slo.to_json())])
                    }),
                ),
            ),
            (
                "counters",
                Json::obj([
                    (
                        "requests_admitted",
                        Json::u64(self.counters.requests_admitted),
                    ),
                    ("requests_shed", Json::u64(self.counters.requests_shed)),
                    ("hedges_fired", Json::u64(self.counters.hedges_fired)),
                    ("hedges_won", Json::u64(self.counters.hedges_won)),
                ]),
            ),
            ("causes", causes_json(&self.causes)),
            ("ledger_mismatches", Json::u64(self.ledger_mismatches)),
        ])
    }
}

/// Result of a serving sweep (`tailscale-fanout` / `tailscale-hedge`).
#[derive(Clone, Debug)]
pub struct FrontendServeResult {
    /// Table heading for the sweep.
    pub title: &'static str,
    /// All cells, in sweep order.
    pub cells: Vec<ServeCell>,
}

impl FrontendServeResult {
    /// The cell for `(stage, width, hedging)`.
    pub fn cell(&self, stage: TuningStage, width: usize, hedging: bool) -> Option<&ServeCell> {
        self.cells
            .iter()
            .find(|c| c.stage == stage && c.width == width && c.hedging == hedging)
    }
}

impl ExperimentResult for FrontendServeResult {
    fn to_table(&self) -> String {
        let mut out = format!("{}\n", self.title);
        out.push_str(&format!(
            "{:<12} {:<6} {:<6} {:>9} {:>9} {:>11} {:>9} {:>9} {:>6} {:>7} {:>6}\n",
            "stage",
            "width",
            "hedge",
            "avg(us)",
            "p99(us)",
            "p99.9(us)",
            "max(us)",
            "admitted",
            "shed",
            "hedges",
            "won"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<12} {:<6} {:<6} {:>9.1} {:>9.1} {:>11.1} {:>9.1} {:>9} {:>6} {:>7} {:>6}\n",
                cell.stage.label(),
                cell.width,
                if cell.hedging { "on" } else { "off" },
                cell.client.get_micros(NinesPoint::Average),
                cell.client.get_micros(NinesPoint::Nines2),
                cell.client.get_micros(NinesPoint::Nines3),
                cell.client.get_micros(NinesPoint::Max),
                cell.counters.requests_admitted,
                cell.counters.requests_shed,
                cell.counters.hedges_fired,
                cell.counters.hedges_won,
            ));
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "stage,width,hedging,avg_us,p99_us,p999_us,max_us,admitted,shed,hedges_fired,hedges_won\n",
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{},{},{},{}\n",
                cell.stage.label(),
                cell.width,
                cell.hedging,
                cell.client.get_micros(NinesPoint::Average),
                cell.client.get_micros(NinesPoint::Nines2),
                cell.client.get_micros(NinesPoint::Nines3),
                cell.client.get_micros(NinesPoint::Max),
                cell.counters.requests_admitted,
                cell.counters.requests_shed,
                cell.counters.hedges_fired,
                cell.counters.hedges_won,
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "cells",
            Json::arr(self.cells.iter().map(ServeCell::to_json)),
        )])
    }

    fn samples(&self) -> u64 {
        self.cells.iter().map(|c| c.client.samples()).sum()
    }
}

/// The fan-out widths a scale supports: the paper-style 1→64 ladder
/// clamped to the device budget, always including the widest
/// affordable fan-out.
fn fanout_widths(scale: ExperimentScale) -> Vec<usize> {
    let cap = scale.ssds.clamp(1, 64);
    let mut widths: Vec<usize> = [1usize, 4, 16, 64]
        .into_iter()
        .filter(|&w| w <= cap)
        .collect();
    if !widths.contains(&cap) {
        widths.push(cap);
    }
    widths
}

/// `tailscale-fanout`: request latency vs fan-out width, across all
/// five paper tuning stages, hedging off.
pub fn tailscale_fanout(scale: ExperimentScale) -> FrontendServeResult {
    let mut jobs = Vec::new();
    for &stage in &TuningStage::ALL {
        for &width in &fanout_widths(scale) {
            jobs.push((stage, width));
        }
    }
    let cells = pool::map_bounded(jobs, |(stage, width)| {
        run_cell(stage, width, false, MixedWrites::Off, scale)
    });
    FrontendServeResult {
        title: "Request-level tail at scale — open-loop serving over a striped volume",
        cells,
    }
}

/// `tailscale-hedge`: hedging off vs on at the widest affordable
/// fan-out, tuned kernel, with a background single-member write
/// stream. After the kernel tuning ladder the residual stragglers are
/// device-local (a read stuck behind a write burst on one member) —
/// precisely the tail a hedged read to the buddy member escapes.
pub fn tailscale_hedge(scale: ExperimentScale) -> FrontendServeResult {
    let width = scale.ssds.clamp(1, 64);
    let jobs = vec![(false, width), (true, width)];
    let cells = pool::map_bounded(jobs, |(hedging, width)| {
        run_cell(
            TuningStage::IrqAffinity,
            width,
            hedging,
            MixedWrites::On,
            scale,
        )
    });
    FrontendServeResult {
        title: "Hedged reads at full fan-out, mixed load — duplicate the straggler, first wins",
        cells,
    }
}

/// Whether the serving world runs the background write stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MixedWrites {
    Off,
    On,
}

fn run_cell(
    stage: TuningStage,
    width: usize,
    hedging: bool,
    writes: MixedWrites,
    scale: ExperimentScale,
) -> ServeCell {
    let geometry = CpuSsdGeometry::paper(width);
    let specs = tenant_mix();
    let weights: Vec<u32> = specs.iter().map(|t| t.weight).collect();

    let world = FrontendWorld {
        array: super::paper_array(stage, &geometry, width, scale.seed ^ 0xF30_47E0, scale.seed),
        volume: StripedVolume::new((0..width).collect(), StripeConfig::new(SUB_BYTES)),
        book: RequestBook::new(),
        arrivals: specs
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                ArrivalGen::new(
                    spec.process,
                    SimRng::from_seed_and_stream(scale.seed, 0x0F00 + t as u64),
                )
            })
            .collect(),
        buckets: specs
            .iter()
            .map(|spec| spec.rate_limit.map(|r| TokenBucket::new(r, spec.burst)))
            .collect(),
        queues: specs
            .iter()
            .map(|spec| AdmissionQueue::new(spec.queue_cap))
            .collect(),
        wdrr: WeightedScheduler::new(&weights),
        slos: specs.iter().map(|spec| SloTracker::new(spec.slo)).collect(),
        hedge: hedging.then(|| HedgePolicy::at_percentile(HEDGE_PERCENTILE)),
        write_gaps: (writes == MixedWrites::On).then(|| {
            ArrivalGen::new(
                ArrivalProcess::Poisson { rate: WRITE_RATE },
                SimRng::from_seed_and_stream(scale.seed, 0x0B00),
            )
        }),
        write_rng: SimRng::from_seed_and_stream(scale.seed, 0x0B01),
        dispatching: false,
        cpu: geometry.io_cpus()[0],
        settles: Vec::new(),
        has_work: Vec::with_capacity(specs.len()),
        sub_scratch: Vec::new(),
        policy: stage.fio_policy(),
        hist: LatencyHistogram::new(),
        causes: RequestCauses::default(),
        hedges_fired: 0,
        hedges_won: 0,
        placement: (0..specs.len())
            .map(|t| SimRng::from_seed_and_stream(scale.seed, 0x0A00 + t as u64))
            .collect(),
        deadline: SimTime::ZERO + scale.runtime,
        horizon: SimTime::ZERO + scale.runtime + SimDuration::millis(50),
        request_pages: 4_000_000,
    };
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    for tenant in 0..specs.len() {
        sim.schedule(0, SimTime::ZERO, FeEvent::FirstArrival { tenant });
    }
    if writes == MixedWrites::On {
        sim.schedule(0, SimTime::ZERO, FeEvent::WriteArrival);
    }
    sim.schedule(0, SimTime::ZERO, FeEvent::BgArrival);
    sim.run();
    let world = sim.into_world();

    let counters = FrontendCounters {
        requests_admitted: world.queues.iter().map(AdmissionQueue::admitted).sum(),
        requests_shed: world.queues.iter().map(AdmissionQueue::shed).sum(),
        hedges_fired: world.hedges_fired,
        hedges_won: world.hedges_won,
        // Slab/sketch occupancy is the fleet experiment's story; the
        // tailscale cells leave the fields zero so their committed
        // artifacts keep the original four-key "frontend" object.
        ..FrontendCounters::default()
    };
    metrics::flush(metrics::Counters {
        frontend: counters,
        completion: CompletionCounters {
            interrupts: world.array.interrupts(),
            ..CompletionCounters::default()
        },
        causes: world.causes.table,
        ..Default::default()
    });
    ServeCell {
        stage,
        width,
        hedging,
        client: world.hist.profile(),
        tenants: specs
            .iter()
            .zip(world.slos.iter())
            .map(|(spec, slo)| TenantReport {
                name: spec.name,
                slo: slo.report(),
            })
            .collect(),
        counters,
        causes: world.causes.totals(),
        ledger_mismatches: world.causes.mismatches,
    }
}

#[derive(Debug)]
enum FeEvent {
    /// Bootstraps a tenant's arrival stream at time zero.
    FirstArrival { tenant: usize },
    /// One open-loop request arrives for `tenant`.
    Arrival { tenant: usize },
    /// The dispatch worker looks for queued work.
    TryDispatch,
    /// A sub-I/O finished inside its device; the completion crosses
    /// the fabric next. Its path rides along so the finishing sub can
    /// be attributed exactly (`u16` indices keep the event at 64 B).
    SubDeviceDone {
        request: u64,
        sub: u16,
        device: u16,
        from_hedge: bool,
        path: ArrayPath,
    },
    /// The completion reached the host: IRQ, wake and reap.
    SubHostDone {
        request: u64,
        sub: u16,
        device: u16,
        from_hedge: bool,
        path: ArrayPath,
    },
    /// The hedge timer for `request` fired.
    HedgeFire { request: u64 },
    /// One background single-member write arrives (mixed load only).
    WriteArrival,
    /// Background host noise.
    BgArrival,
}

type Ctx<'a> = ShardCtx<'a, FeEvent, Infallible>;

struct QueuedReq {
    arrived_at: SimTime,
    page: u64,
}

/// One open request's settle state, kept so the finishing request can
/// be attributed exactly: its submit stamps and the path of its
/// latest-reaping sub so far.
#[derive(Clone, Copy, Debug, Default)]
struct Settle {
    /// When the dispatch worker's submit batch retired.
    submit_end: SimTime,
    /// When the hedged duplicate was sent: its clock starts there, not
    /// at the original submit.
    hedged_at: SimTime,
    /// When the latest-reaping sub was sent.
    sent_at: SimTime,
    /// That sub's array path.
    path: ArrayPath,
}

struct FrontendWorld {
    array: ArrayInstance,
    volume: StripedVolume,
    book: RequestBook,
    arrivals: Vec<ArrivalGen>,
    buckets: Vec<Option<TokenBucket>>,
    queues: Vec<AdmissionQueue<QueuedReq>>,
    wdrr: WeightedScheduler,
    slos: Vec<SloTracker>,
    hedge: Option<HedgePolicy>,
    write_gaps: Option<ArrivalGen>,
    write_rng: SimRng,
    /// Whether the dispatch worker is running. One submission reactor
    /// (SPDK-target style) pulls requests off the admission queues:
    /// dispatch serializes, so admission queueing is real and WDRR
    /// arbitration matters.
    dispatching: bool,
    /// The reactor's CPU: it submits every request and reaps every
    /// sub-I/O.
    cpu: CpuId,
    /// Settle state per open request, shadow-indexed by the request
    /// handle's dense slot index ([`afa_frontend::Handle::index`]) —
    /// slots recycle with the book's slab, so this never rehashes or
    /// grows past peak concurrency.
    settles: Vec<Settle>,
    /// Scratch for the WDRR pick (reused across dispatches).
    has_work: Vec<bool>,
    /// Scratch for the striped fan-out mapping (reused across
    /// dispatches).
    sub_scratch: Vec<afa_volume::SubIo>,
    policy: SchedPolicy,
    hist: LatencyHistogram,
    /// Run-wide cause table: each finished request adds one event to
    /// every cause its ledger charged.
    causes: RequestCauses,
    hedges_fired: u64,
    hedges_won: u64,
    placement: Vec<SimRng>,
    deadline: SimTime,
    horizon: SimTime,
    request_pages: u64,
}

impl FrontendWorld {
    /// The settle state of open request `request`.
    fn settle(&mut self, request: u64) -> &mut Settle {
        &mut self.settles[Handle::from_raw(request).index()]
    }

    /// Keeps, per open request, the path of the sub-I/O with the
    /// latest `reap_end` — the one the request's latency is attributed
    /// to.
    fn note_settle(&mut self, request: u64, from_hedge: bool, path: ArrayPath) {
        let settle = self.settle(request);
        if path.reap_end > settle.path.reap_end {
            settle.sent_at = if from_hedge {
                settle.hedged_at
            } else {
                settle.submit_end
            };
            settle.path = path;
        }
    }

    /// Wakes the dispatch worker if it is idle.
    fn kick_worker(&mut self, ctx: &mut Ctx<'_>) {
        if !self.dispatching {
            self.dispatching = true;
            ctx.at(ctx.now(), FeEvent::TryDispatch);
        }
    }

    /// Sends one sub-I/O (original or hedge duplicate) to its device
    /// at `at`.
    fn submit_sub(
        &mut self,
        request: u64,
        sub: usize,
        io: afa_volume::SubIo,
        at: SimTime,
        from_hedge: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let device = self.volume.member_device(io.member);
        let path = self
            .array
            .issue(device, at, NvmeCommand::read(io.lba, io.bytes));
        ctx.at(
            path.dev_done,
            FeEvent::SubDeviceDone {
                request,
                sub: sub as u16,
                device: device as u16,
                from_hedge,
                path,
            },
        );
    }
}

impl ShardWorld for FrontendWorld {
    type Local = FeEvent;
    type Cross = Infallible;

    fn handle_local(&mut self, event: FeEvent, ctx: &mut Ctx<'_>) {
        match event {
            FeEvent::FirstArrival { tenant } => {
                let first = self.arrivals[tenant].next_after(ctx.now());
                if first < self.deadline {
                    ctx.at(first, FeEvent::Arrival { tenant });
                }
            }
            FeEvent::Arrival { tenant } => {
                let now = ctx.now();
                let next = self.arrivals[tenant].next_after(now);
                if next < self.deadline {
                    ctx.at(next, FeEvent::Arrival { tenant });
                }
                // Placement is drawn before admission so the stream's
                // consumption does not depend on shed outcomes.
                let width = self.volume.width() as u64;
                let page = self.placement[tenant].below(self.request_pages / width) * width;
                if let Some(bucket) = &mut self.buckets[tenant] {
                    if !bucket.try_take(now) {
                        self.queues[tenant].count_shed();
                        return;
                    }
                }
                if self.queues[tenant].offer(QueuedReq {
                    arrived_at: now,
                    page,
                }) {
                    self.kick_worker(ctx);
                }
            }
            FeEvent::TryDispatch => {
                let now = ctx.now();
                self.has_work.clear();
                self.has_work
                    .extend(self.queues.iter().map(|q| !q.is_empty()));
                let Some(tenant) = self.wdrr.pick(&self.has_work) else {
                    self.dispatching = false;
                    return;
                };
                let item = self.queues[tenant].pop().expect("picked tenant has work");
                let bytes = SUB_BYTES * self.volume.width() as u32;
                let mut subs = std::mem::take(&mut self.sub_scratch);
                self.volume.map_read_into(item.page, bytes, &mut subs);
                let submit_cost = SUBMIT_BASE + SUBMIT_PER_SUB * subs.len() as u64;
                let submit_end = self.array.charge(self.cpu, now, submit_cost);
                let request = self.book.begin(tenant, item.arrived_at, now, &subs);
                let slot = Handle::from_raw(request).index();
                if slot >= self.settles.len() {
                    self.settles.resize(slot + 1, Settle::default());
                }
                self.settles[slot] = Settle {
                    submit_end,
                    ..Settle::default()
                };
                for (i, &io) in subs.iter().enumerate() {
                    self.submit_sub(request, i, io, submit_end, false, ctx);
                }
                self.sub_scratch = subs;
                if let Some(delay) = self.hedge.as_mut().and_then(HedgePolicy::delay) {
                    ctx.at(submit_end + delay, FeEvent::HedgeFire { request });
                }
                // The worker stays busy until the submit batch retires,
                // then looks for more work.
                ctx.at(submit_end, FeEvent::TryDispatch);
            }
            FeEvent::SubDeviceDone {
                request,
                sub,
                device,
                from_hedge,
                mut path,
            } => {
                self.array
                    .to_host(device as usize, SUB_BYTES as u64, &mut path);
                ctx.at(
                    path.at_host,
                    FeEvent::SubHostDone {
                        request,
                        sub,
                        device,
                        from_hedge,
                        path,
                    },
                );
            }
            FeEvent::SubHostDone {
                request,
                sub,
                device,
                from_hedge,
                mut path,
            } => {
                let now = ctx.now();
                self.array.interrupt(device as usize, &mut path);
                let dispatched = self.book.dispatched_at(request);
                // Every sub completion wakes the serving task on the
                // reactor's CPU (libaio-style: one io_getevents wake
                // per CQE), so per-sub scheduler noise — the paper's
                // default-stage tail — is part of the settle time the
                // max-of-width amplifies.
                self.array
                    .reap(self.cpu, self.policy, COMPLETE_COST, &mut path);
                let reap_end = path.reap_end;
                match self
                    .book
                    .complete_sub(request, sub as usize, reap_end, from_hedge)
                {
                    SubCompletion::Duplicate => {
                        // Hedge loser: cancelled, nothing to account.
                    }
                    SubCompletion::Pending => {
                        if let (Some(policy), Some(d)) = (self.hedge.as_mut(), dispatched) {
                            policy.observe(reap_end.saturating_since(d));
                        }
                        self.note_settle(request, from_hedge, path);
                        // Re-arm when the straggler condition is met:
                        // one sub left and the rest settled — fire at
                        // the policy delay past submit, or now if that
                        // has already passed.
                        if self.book.outstanding(request) == 1 {
                            if let Some(delay) = self.hedge.as_mut().and_then(HedgePolicy::delay) {
                                let submit_end = self.settle(request).submit_end;
                                ctx.at(
                                    (submit_end + delay).max(now),
                                    FeEvent::HedgeFire { request },
                                );
                            }
                        }
                    }
                    SubCompletion::Finished(fin) => {
                        if let Some(policy) = self.hedge.as_mut() {
                            policy.observe(reap_end.saturating_since(fin.dispatched_at));
                        }
                        if fin.hedge_won {
                            self.hedges_won += 1;
                        }
                        self.note_settle(request, from_hedge, path);
                        let best = *self.settle(request);
                        let latency = fin.latency();
                        self.hist.record(latency.as_nanos());
                        self.slos[fin.tenant].record(latency);
                        // Exact attribution of the slowest winning
                        // sub-I/O's path — the charges tile `latency`
                        // to the nanosecond.
                        let [to_device, service, to_host, irq, wake, reap] = best.path.stamps();
                        self.causes.settle(
                            fin.arrived_at,
                            &[
                                (Cause::FrontendQueue, fin.dispatched_at),
                                (Cause::CpuWork, best.submit_end),
                                // Hedge wait: a duplicate's clock starts
                                // when the hedge fired.
                                (Cause::Other, best.sent_at),
                                to_device,
                                service,
                                to_host,
                                irq,
                                wake,
                                reap,
                            ],
                            latency,
                        );
                    }
                }
            }
            FeEvent::HedgeFire { request } => {
                let now = ctx.now();
                if let Some((sub, mut io)) = self.book.hedge_straggler(request) {
                    self.hedges_fired += 1;
                    self.settle(request).hedged_at = now;
                    // The duplicate reads the mirrored-pair replica on
                    // the stripe's buddy member: re-queueing behind the
                    // straggler on its own device could never win.
                    io.member = (io.member + 1) % self.volume.width();
                    self.submit_sub(request, sub, io, now, true, ctx);
                }
            }
            FeEvent::WriteArrival => {
                let now = ctx.now();
                let gaps = self.write_gaps.as_mut().expect("mixed writes enabled");
                let next = gaps.next_after(now);
                if next < self.deadline {
                    ctx.at(next, FeEvent::WriteArrival);
                }
                // Fire-and-forget: the write occupies one member's
                // pipeline (stalling reads queued behind it); its
                // completion interrupt is not modeled.
                let width = self.volume.width();
                let member = self.write_rng.below(width as u64) as usize;
                let lba = self.write_rng.below(self.request_pages);
                let device = self.volume.member_device(member);
                self.array
                    .issue(device, now, NvmeCommand::write(lba, WRITE_BYTES));
            }
            FeEvent::BgArrival => {
                let next = self.array.background(ctx.now());
                if next < self.horizon {
                    ctx.at(next, FeEvent::BgArrival);
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
    fn fanout_amplifies_the_default_tail_and_tuning_tames_it() {
        let scale = ExperimentScale::new(SimDuration::millis(300), 16, 42);
        let result = tailscale_fanout(scale);
        let point = |stage, width, p| {
            result
                .cell(stage, width, false)
                .unwrap_or_else(|| panic!("missing cell {stage:?}/{width}"))
                .client
                .get_micros(p)
        };
        let p99 = |stage, width| point(stage, width, NinesPoint::Nines2);
        assert!(
            p99(TuningStage::Default, 16) > p99(TuningStage::Default, 1),
            "default request p99 must grow with fan-out width: {} -> {}",
            p99(TuningStage::Default, 1),
            p99(TuningStage::Default, 16)
        );
        assert!(
            p99(TuningStage::IrqAffinity, 16) < p99(TuningStage::Default, 16) / 4.0,
            "tuning must cut the wide-fanout request tail"
        );
        // Converged means the tail sits near the body of the
        // distribution even at full width; the default tail does not.
        let tuned_inflation = p99(TuningStage::IrqAffinity, 16)
            / point(TuningStage::IrqAffinity, 16, NinesPoint::Average);
        let default_inflation =
            p99(TuningStage::Default, 16) / point(TuningStage::Default, 16, NinesPoint::Average);
        assert!(
            tuned_inflation < 2.5,
            "irq-tuned p99 must converge to the body: x{tuned_inflation:.2}"
        );
        assert!(
            default_inflation > 4.0,
            "default p99 must stay amplified: x{default_inflation:.2}"
        );
    }

    #[test]
    fn ledgers_tile_latency_exactly_and_bursty_tenant_sheds() {
        let scale = ExperimentScale::new(SimDuration::millis(200), 8, 7);
        let result = tailscale_fanout(scale);
        let mut shed_total = 0;
        for cell in &result.cells {
            assert_eq!(
                cell.ledger_mismatches, 0,
                "{:?}/{} ledger must tile latency exactly",
                cell.stage, cell.width
            );
            assert!(
                cell.client.samples() > 200,
                "{:?}/{} served only {} requests",
                cell.stage,
                cell.width,
                cell.client.samples()
            );
            assert!(cell.counters.requests_admitted > 0);
            assert_eq!(cell.counters.hedges_fired, 0, "fanout sweep never hedges");
            assert!(
                cell.causes.iter().any(|&(c, _)| c == Cause::FrontendQueue),
                "frontend queueing must appear in the cause totals"
            );
            shed_total += cell.counters.requests_shed;
        }
        assert!(
            shed_total > 0,
            "the bursty tenant's token bucket must shed during bursts"
        );
    }

    #[test]
    fn hedging_cuts_the_wide_fanout_tail() {
        let scale = ExperimentScale::new(SimDuration::millis(800), 16, 42);
        let result = tailscale_hedge(scale);
        let unhedged = result
            .cell(TuningStage::IrqAffinity, 16, false)
            .expect("unhedged cell");
        let hedged = result
            .cell(TuningStage::IrqAffinity, 16, true)
            .expect("hedged cell");
        assert!(hedged.counters.hedges_fired > 0, "warm policy must hedge");
        assert!(
            hedged.counters.hedges_won <= hedged.counters.hedges_fired,
            "wins are a subset of fires"
        );
        assert!(hedged.counters.hedges_won > 0, "some duplicates must win");
        let u999 = unhedged.client.get_micros(NinesPoint::Nines3);
        let h999 = hedged.client.get_micros(NinesPoint::Nines3);
        assert!(
            h999 < u999,
            "hedging must cut p99.9 at full fan-out: {h999:.1} !< {u999:.1}"
        );
        assert_eq!(unhedged.counters.hedges_fired, 0);
    }

    #[test]
    fn artifacts_are_deterministic() {
        let scale = ExperimentScale::new(SimDuration::millis(100), 8, 9);
        let a = tailscale_hedge(scale).to_json().to_string();
        let b = tailscale_hedge(scale).to_json().to_string();
        assert_eq!(a, b, "same seed must serialize byte-identically");
    }
}
