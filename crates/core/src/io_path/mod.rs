//! The staged I/O path, partitioned into logical processes (LPs): one
//! module per slice of an I/O's life, glued by the LP event engine
//! ([`afa_sim::shard`]), instrumented through one [`IoLedger`].
//!
//! ```text
//!  worker LP A (owns device d, CPU c, job j)             hub LP
//!  ─────────────────────────────────────────             ──────
//!  submit ─▶ fabric(down,local) ─▶ device ─╮
//!    ╰────────── inline ──────────╯        │ DeviceDone (local)
//!                 fabric(device up-leg) ◀──╯
//!                        │ FabricUp ──────────▶ fabric(shared legs)
//!                                               irq route / coalesce
//!  worker LP V (owns the vector CPU)     ◀───── IrqDeliver
//!  irq handler ──╮
//!                │ WakeReap ──▶ worker LP A: wake ─▶ reap ─▶ next issue
//! ```
//!
//! Matching §III of the paper: the fio thread pays the submit syscall
//! on its pinned CPU (`submit`), the command crosses the switch tree
//! (`fabric`), the SSD serves the read (`device`), data + CQE +
//! MSI cross back, the host routes and runs the interrupt (`irq`),
//! the scheduler wakes the thread (`wake`) and the thread reaps
//! (`complete`).
//!
//! # LP topology
//!
//! One world serves `LP_COUNT` logical processes: `WORKER_LPS`
//! *worker* LPs plus one *hub* LP. Each worker owns whole physical
//! cores (a core and its hyper-sibling always land together), and with
//! them every device, fio job, per-device PCIe link and per-CPU
//! scheduler state mapped to those cores by `lp_of_cpu`. The hub
//! owns everything shared: the upstream leaf/uplink links, the MSI-X
//! vector table and IRQ balancer, interrupt coalescing, and
//! background-daemon placement. The split is part of the model, not an
//! execution detail: the hub reserves the shared down-legs in the
//! order its `SubmitDown` arrivals merge (the FIFO behind Fig. 12's
//! convoys), and background placement sees CPU business through a
//! view that is one worker lookahead stale: workers log their busy
//! reports on the host ([`HostModel::note_io_busy`]) and the hub folds
//! the ones visible at each placement decision, so the view costs no
//! event.
//!
//! Inter-LP hops ride `Cross` events under per-LP lookahead bounds
//! (the smaller of a fabric hop and interrupt entry + handler for
//! workers, hop + MSI latency for the hub), asserted on every send.
//!
//! Every stage writes its timing contribution into the I/O's
//! [`IoLedger`], parked in the *owning worker's* slab for the I/O's
//! whole life (events carry only a `LedgerId`; cross events carry
//! the scalar outcomes of remote stages). The run's cause table and
//! the optional ledger log (the run's one per-I/O capture, blktrace
//! stamps included) both derive from the settled ledger in one place
//! (`IoPathWorld::finish_io`), in place; only a logged I/O's ledger
//! is copied out of the slab.

mod complete;
mod device;
mod fabric;
mod irq;
mod ledger;
mod model;
mod submit;
mod wake;

pub use ledger::{CompletedIo, IoLedger, LedgerLog};

use complete::COMPLETE_COST;
use model::CompletionModel;

use afa_host::{BgPlacement, CpuId, HostModel, IrqDelivery, IrqOutcome};
use afa_pcie::{PcieFabric, SharedLegReservation};
use afa_sim::metrics::{CompletionCounters, FusionCounters};
use afa_sim::trace::{Cause, CauseAccumulator};
use afa_sim::{ShardCtx, ShardWorld, SimDuration, SimTime};
use afa_ssd::SsdDevice;
use afa_workload::{JobState, Op};

use crate::blktrace::IoStage;
use crate::config::IrqCoalescing;
use crate::geometry::CpuSsdGeometry;

/// Worker LPs: each owns a fixed set of whole physical cores.
pub(crate) const WORKER_LPS: usize = 8;

/// The hub LP id: owns the shared uplink, the IRQ balancer and
/// background placement.
pub(crate) const HUB_LP: usize = WORKER_LPS;

/// Total logical processes (workers + hub). Fixed: LP ids are part of
/// the deterministic merge contract.
pub(crate) const LP_COUNT: usize = WORKER_LPS + 1;

/// Physical cores per socket of the paper's dual Xeon E5-2690 v2:
/// logical CPU `c` and its hyper-sibling `c + 20` share core
/// `c % 20`.
const CORES_PER_SOCKET_PAIR: usize = 20;

/// Socket the AFA's PCIe uplink attaches to (the paper's CPU2 =
/// socket 1, §III-A). fio threads on the other socket pay a
/// cross-socket (NUMA) penalty on the completion path.
const AFA_SOCKET: u16 = 1;

/// Hub-to-worker latency of a background-placement decision. Must be
/// at least the hub lookahead; 1 µs keeps bursts effectively at their
/// arrival instant.
const BG_PLACE_LATENCY: SimDuration = SimDuration::micros(1);

/// The worker LP owning logical CPU `cpu` (never [`HUB_LP`]).
/// Hyper-siblings map to the same LP, so whole physical cores — and
/// every device/job pinned to them — stay with one LP.
pub(crate) fn lp_of_cpu(cpu: CpuId) -> usize {
    (cpu.0 as usize % CORES_PER_SOCKET_PAIR) % WORKER_LPS
}

/// Slab handle for an I/O's in-flight [`IoLedger`] (see
/// [`IoPathWorld::ledger_slab`]).
pub(crate) type LedgerId = u32;

/// LP-local events. Kept small (32 bytes): the event queue parks every
/// event once in a slab slot sized for the largest one, so the cold
/// per-I/O ledger lives in an indexed slab on the world and events
/// carry only a [`LedgerId`].
#[derive(Debug)]
pub(crate) enum Local {
    /// Job's thread is running and ready to issue (worker).
    Issue { job: usize },
    /// The device posts the completion; the device-side up-leg is
    /// reserved *now* so per-device FIFOs are used in time order
    /// (worker).
    DeviceDone {
        job: usize,
        issued_at: SimTime,
        ledger: LedgerId,
    },
    /// A coalescing timeout fires for the device's pending
    /// completions (hub).
    Msi { device: usize },
    /// Background workload arrival (hub).
    BgArrival,
    /// Settle a fused macro-event: replay the job's precomputed
    /// polled completion — commit, reap, next issue — in one shot
    /// (worker; see [`IoPathWorld::fuse_submit`]).
    Settle { job: usize },
}

/// One completion riding an interrupt batch. The ledger stays in the
/// origin worker's slab; the entry carries the hub-computed shared-leg
/// fabric time so the owner can accrue it on receipt.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CqEntry {
    issued_at: SimTime,
    ledger: LedgerId,
    /// Shared-leg time (leaf + uplink serialization, MSI, NUMA
    /// penalty) accrued to [`Cause::Fabric`] by the owning worker.
    fabric_shared: SimDuration,
}

/// The completions served by one interrupt. The common un-coalesced
/// path is a single inline entry (no allocation); only the coalescing
/// ablation builds real batches.
#[derive(Debug)]
pub(crate) enum CqBatch {
    One(CqEntry),
    Many(Vec<CqEntry>),
}

impl CqBatch {
    fn as_slice(&self) -> &[CqEntry] {
        match self {
            CqBatch::One(entry) => std::slice::from_ref(entry),
            CqBatch::Many(entries) => entries,
        }
    }

    fn first(&self) -> CqEntry {
        self.as_slice()[0]
    }
}

/// Inter-LP events. Each hop's timestamp respects the sender's
/// lookahead bound (asserted by [`ShardCtx::send`]); payloads are the
/// scalar outcomes of remotely-executed stages, never the ledger
/// itself.
#[derive(Debug)]
pub(crate) enum Cross {
    /// Worker → hub: a command left the host at `start`; the hub
    /// reserves the shared down-legs in global submit order (the FIFO
    /// ordering phase-couples the submitting threads — the coupling
    /// behind the paper's shared-fabric convoys).
    SubmitDown {
        job: usize,
        op: Op,
        ledger: LedgerId,
        start: SimTime,
    },
    /// Hub → device-owner worker: the command reached the leaf egress
    /// at `at_entry`; the owner reserves the device's down-link and
    /// starts device service.
    CommandAtDevice {
        job: usize,
        op: Op,
        ledger: LedgerId,
        issued_at: SimTime,
        at_entry: SimTime,
    },
    /// Worker → hub: the completion payload reached the leaf switch;
    /// the hub reserves the shared legs and routes the interrupt.
    FabricUp {
        job: usize,
        issued_at: SimTime,
        ledger: LedgerId,
        /// The submitting CPU lives on the socket the AFA's uplink
        /// does not attach to (NUMA penalty on the shared legs).
        cross_socket: bool,
        /// How this I/O's completion is discovered; polled models
        /// carry no MSI on the shared legs and skip the IRQ path.
        model: CompletionModel,
    },
    /// Hub → vector-CPU worker: run the interrupt handler.
    IrqDeliver {
        job: usize,
        delivery: IrqDelivery,
        designated: CpuId,
        batch: CqBatch,
    },
    /// Hub → origin worker: a polled completion's data is host-side;
    /// the spinning (or sleeping) thread reaps it directly. Carries
    /// `at_host` explicitly because the event's own timestamp may be
    /// clamped up to the hub lookahead — without an MSI the shared
    /// legs can finish inside the lookahead window for tiny payloads.
    PollComplete {
        job: usize,
        issued_at: SimTime,
        ledger: LedgerId,
        fabric_shared: SimDuration,
        /// When the CQE DMA write landed in host memory.
        at_host: SimTime,
        model: CompletionModel,
    },
    /// Vector worker → origin worker: the handler outcome; the owner
    /// applies the IRQ slices to the ledger, wakes the thread and
    /// reaps.
    WakeReap {
        job: usize,
        irq: IrqOutcome,
        /// When the interrupt reached the host (handler slice base).
        at_host: SimTime,
        batch: CqBatch,
    },
    /// Hub → CPU-owner worker: install a background burst.
    BgPlace { placement: BgPlacement },
}

/// One speculative macro-event: a polled I/O whose entire
/// submit→fabric→device→poll→complete timeline was precomputed at
/// submit time because every resource it touches is provably
/// uncontended over its horizon. The private device-side legs already
/// ran eagerly; the shared-leg reservation is frozen here until the
/// single `Local::Settle` event replays the reap — or contention
/// de-fuses the chain back into per-stage events at the point of
/// divergence.
#[derive(Debug)]
struct FusedChain {
    /// The instant the real `PollComplete` would fire. A chain flushed
    /// early by hook A or de-fused by hook B leaves its `Settle` event
    /// behind; an instant-match guard skips it.
    settle_at: SimTime,
    issued_at: SimTime,
    ledger: LedgerId,
    /// When the completion payload reaches the leaf switch — the
    /// instant the chain's real `FabricUp` would fire, and the replay
    /// point for every de-fuse.
    t_leaf: SimTime,
    /// When the CQE lands host-side.
    at_host: SimTime,
    fabric_shared: SimDuration,
    model: CompletionModel,
    cross_socket: bool,
    /// The previewed shared-leg busy windows; committed lazily — by
    /// hook B the moment a later arrival must queue behind them, or at
    /// settlement, whichever comes first.
    reservation: SharedLegReservation,
    committed: bool,
}

/// The whole-array world: jobs × host × fabric × devices, driven by
/// [`Local`]/[`Cross`] events through the staged I/O path. One value
/// serves every LP; each event mutates only its LP's slice.
pub(crate) struct IoPathWorld {
    pub(crate) host: HostModel,
    pub(crate) fabric: PcieFabric,
    pub(crate) devices: Vec<SsdDevice>,
    pub(crate) jobs: Vec<JobState>,
    /// The run's cause table: every settled ledger folds in.
    pub(crate) causes: CauseAccumulator,
    /// The run's ledger log: the settled ledgers of its first N
    /// reaps, in reap order.
    pub(crate) ledger_log: Option<LedgerLog>,
    /// Completion-model tally of the run (interrupt reaps, poll
    /// reaps, hybrid oversleeps).
    pub(crate) completions: CompletionCounters,
    geometry: CpuSsdGeometry,
    horizon: SimTime,
    /// Owning worker LP of each job (by its device's pinned CPU).
    job_lp: Vec<usize>,
    /// Inverse of `jobs[j].spec().device()` (hub-side batch routing).
    job_of_device: Vec<usize>,
    /// Per-job earliest next issue instant (fio's `rate_iops` pacing).
    next_allowed: Vec<SimTime>,
    coalescing: Option<IrqCoalescing>,
    /// Timed-sleep length for [`CompletionModel::Hybrid`] jobs,
    /// derived by the config from the device profile's nominal read
    /// latency.
    hybrid_sleep: SimDuration,
    /// The device class models per-CPU NVMe SQ/CQ pairs (the ULL
    /// profile): submissions reserve the hub down-FIFOs in
    /// payload-ready order instead of doorbell (wake) order.
    per_cpu_queues: bool,
    /// Per-device completions awaiting a coalesced MSI (hub only).
    pending_cq: Vec<Vec<CqEntry>>,
    /// In-flight [`IoLedger`]s, indexed by [`LedgerId`]; slots recycle
    /// through `ledger_free` and every stage writes the parked entry
    /// in place, so the per-I/O path neither allocates nor copies the
    /// ledger.
    ledger_slab: Vec<IoLedger>,
    ledger_free: Vec<LedgerId>,
    /// Speculative stage-fusion fast path (see
    /// [`fuse_submit`](Self::fuse_submit)); resolved per run from
    /// `AFA_NO_FUSION` / `FusionOverride`. Results are byte-identical
    /// either way — fusion only changes how many events the engine
    /// pops per I/O.
    fusion_enabled: bool,
    /// In-flight fused chains, one slot per job (QD1 is a fuse gate).
    fused: Vec<Option<FusedChain>>,
    /// Live chain count — the hooks' short-circuit.
    fused_live: usize,
    /// Fusion tally of the run: fused and de-fused chains, and the
    /// per-stage events settled chains replaced (3 per chain:
    /// `CommandAtDevice`, `DeviceDone` and `FabricUp` collapse with
    /// `PollComplete` into one `Settle`).
    pub(crate) fusion: FusionCounters,
    /// Jobs targeting each device (fusion requires a private device).
    device_job_count: Vec<u32>,
    /// Jobs owned by each worker LP (fusion requires a private LP:
    /// no foreign job's wake or reap can interleave with the
    /// settlement on the reaping core pair).
    lp_job_count: [u32; WORKER_LPS],
}

/// The scheduling context every handler receives.
type Ctx<'a> = ShardCtx<'a, Local, Cross>;

impl IoPathWorld {
    /// Assembles a world from its parts (see `AfaSystem::run` for the
    /// construction of each).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        host: HostModel,
        fabric: PcieFabric,
        devices: Vec<SsdDevice>,
        jobs: Vec<JobState>,
        geometry: CpuSsdGeometry,
        horizon: SimTime,
        ledger_log: Option<LedgerLog>,
        coalescing: Option<IrqCoalescing>,
        hybrid_sleep: SimDuration,
        per_cpu_queues: bool,
    ) -> Self {
        let n = devices.len();
        let job_lp: Vec<usize> = jobs
            .iter()
            .map(|j| lp_of_cpu(geometry.cpu_of_ssd(j.spec().device())))
            .collect();
        let mut job_of_device = vec![usize::MAX; n];
        for (j, job) in jobs.iter().enumerate() {
            job_of_device[job.spec().device()] = j;
        }
        let jobs_len = jobs.len();
        let mut device_job_count = vec![0u32; n];
        for job in &jobs {
            device_job_count[job.spec().device()] += 1;
        }
        let mut lp_job_count = [0u32; WORKER_LPS];
        for &lp in &job_lp {
            lp_job_count[lp] += 1;
        }
        IoPathWorld {
            host,
            fabric,
            devices,
            jobs,
            geometry,
            horizon,
            causes: CauseAccumulator::new(),
            ledger_log,
            completions: CompletionCounters::default(),
            job_lp,
            job_of_device,
            next_allowed: vec![SimTime::ZERO; jobs_len],
            coalescing,
            hybrid_sleep,
            per_cpu_queues,
            pending_cq: vec![Vec::new(); n],
            ledger_slab: Vec::with_capacity(2 * n),
            ledger_free: Vec::with_capacity(2 * n),
            fusion_enabled: false,
            fused: (0..jobs_len).map(|_| None).collect(),
            fused_live: 0,
            fusion: FusionCounters::default(),
            device_job_count,
            lp_job_count,
        }
    }

    /// Enables the fusion fast path (the run driver resolves the knob
    /// once per run).
    pub(crate) fn set_fusion(&mut self, enabled: bool) {
        self.fusion_enabled = enabled;
    }

    /// Worker lookahead: the minimum delay any worker send adds — a
    /// fabric hop for `FabricUp`, interrupt entry + handler floor for
    /// `WakeReap`.
    pub(crate) fn worker_lookahead(&self) -> SimDuration {
        let costs = self.host.costs();
        self.fabric
            .hop_latency()
            .min(costs.irq_entry + costs.irq_handler)
    }

    /// Hub lookahead: every hub send crosses the shared legs (≥ one
    /// hop) and an MSI write.
    pub(crate) fn hub_lookahead(&self) -> SimDuration {
        self.fabric.hop_latency() + self.fabric.msi_latency()
    }

    /// The completion model governing `job`'s I/Os — the one typed
    /// dispatch point every stage branches through.
    fn model_of(&self, job: usize) -> CompletionModel {
        CompletionModel::resolve(self.jobs[job].spec().engine(), self.hybrid_sleep)
    }

    /// Parks a fresh ledger for the I/O at `lba` in the slab, reusing
    /// a settled slot when one is free. The slot is written exactly
    /// once here; every stage mutates it in place through the slab.
    fn alloc_ledger(&mut self, queued_at: SimTime, lba: u64) -> LedgerId {
        match self.ledger_free.pop() {
            Some(id) => {
                self.ledger_slab[id as usize] = IoLedger::for_lba(queued_at, lba);
                id
            }
            None => {
                self.ledger_slab.push(IoLedger::for_lba(queued_at, lba));
                (self.ledger_slab.len() - 1) as LedgerId
            }
        }
    }

    /// Issues as many operations as the queue depth allows, starting
    /// with the thread running on its CPU at `now`. Each issue runs
    /// stages 1–3 inline and schedules the [`Local::DeviceDone`] that
    /// resumes the path. Runs only on the job's owning worker.
    fn issue_burst(&mut self, job: usize, mut now: SimTime, ctx: &mut Ctx<'_>) {
        let cpu = self.geometry.cpu_of_ssd(self.jobs[job].spec().device());
        let issue_gap = self.jobs[job].spec().min_issue_gap();
        let mut busy_until = None;
        while self.jobs[job].can_issue(now) {
            // fio's rate_iops pacing: defer the issue if the job is
            // ahead of its rate budget.
            if now < self.next_allowed[job] {
                ctx.at(self.next_allowed[job], Local::Issue { job });
                break;
            }
            if !issue_gap.is_zero() {
                self.next_allowed[job] = now + issue_gap;
            }
            let op = self.jobs[job].issue(now);
            let id = self.alloc_ledger(now, op.lba);
            let ledger = &mut self.ledger_slab[id as usize];
            let submit_end = submit::run(&mut self.host, cpu, now, ledger);
            busy_until = Some(submit_end);
            // The doorbell slot on the shared down-legs is claimed
            // the moment the thread is *woken* (the driver's
            // submission pipeline commits its arbitration slot at CQ
            // time), while the SQE payload is only ready at
            // `submit_end`. The hub therefore reserves the hub-owned
            // down-FIFOs in wake order with payload-ready start
            // times: a thread delayed between wake and submit (CFS
            // queueing behind a daemon, C-state exit, tick preempts)
            // holds its committed slot back, and every later-claimed
            // slot queues behind it. That inversion push is the
            // µs-scale phase coupling behind the paper's
            // shared-fabric convoys — and it is fed by exactly the
            // delays chrt/isolcpus remove.
            //
            // Per-CPU NVMe SQ/CQ pairs (the ULL device class) have no
            // shared arbitration slot to commit early: each thread
            // rings a private doorbell, so the down-FIFOs are
            // reserved in payload-ready order and the wake-order
            // convoy coupling disappears. `submit_end >= now` keeps
            // the lookahead bound sound.
            let t_send = if self.per_cpu_queues {
                submit_end + self.worker_lookahead()
            } else {
                ctx.now() + self.worker_lookahead()
            };
            ctx.send(
                HUB_LP,
                t_send,
                Cross::SubmitDown {
                    job,
                    op,
                    ledger: id,
                    start: submit_end,
                },
            );
            if self.model_of(job).parks_thread() {
                // The thread parks on the CQ (spinning, or sleeping
                // then spinning) until the completion chain reaps it;
                // stop issuing here.
                break;
            }
            now = submit_end;
        }
        // Tell the hub how long this burst keeps the CPU busy, so
        // background placement stops seeing it as idle (§IV-C: a CPU
        // whose I/O task *sleeps* must look idle — one that is still
        // submitting must not). The report becomes visible one worker
        // lookahead from now, when a hub message sent now would land.
        if let Some(until) = busy_until {
            let now = ctx.now();
            self.host
                .note_io_busy(cpu, until, now, now + self.worker_lookahead());
        }
    }

    /// The device posted a completion: reserve the device-side up-leg
    /// locally and hand the payload to the hub at the instant it
    /// reaches the leaf switch (one fabric hop of lookahead).
    fn on_device_done(&mut self, job: usize, issued_at: SimTime, id: LedgerId, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let device = self.jobs[job].spec().device();
        let cpu = self.geometry.cpu_of_ssd(device);
        let bytes = self.jobs[job].spec().block_size() as u64;
        let cross_socket = self.host.topology().socket_of(cpu) != AFA_SOCKET;
        let model = self.model_of(job);
        let ledger = &mut self.ledger_slab[id as usize];
        ledger.stamp(IoStage::DeviceComplete, now);
        let t_leaf = fabric::device_leg(&mut self.fabric, device, now, bytes, model, ledger);
        ctx.send(
            HUB_LP,
            t_leaf,
            Cross::FabricUp {
                job,
                issued_at,
                ledger: id,
                cross_socket,
                model,
            },
        );
    }

    /// Hub: the payload reached the leaf switch. Reserve the shared
    /// legs in arrival order (they are FIFO resources — this is why
    /// the hub owns them), then route the interrupt — immediately, or
    /// held by the MSI coalescer.
    #[allow(clippy::too_many_arguments)]
    fn on_fabric_up(
        &mut self,
        src: usize,
        job: usize,
        issued_at: SimTime,
        id: LedgerId,
        cross_socket: bool,
        model: CompletionModel,
        ctx: &mut Ctx<'_>,
    ) {
        let t_leaf = ctx.now();
        // Hook B, pre-claim: settle the ordering between this arrival
        // and every pending fused reservation before touching the
        // legs.
        if self.fused_live > 0 {
            self.sync_fused_before_claim(src, t_leaf, ctx);
        }
        let device = self.jobs[job].spec().device();

        let bytes = self.jobs[job].spec().block_size() as u64;
        let at_host =
            fabric::shared_legs(&mut self.fabric, device, t_leaf, bytes, cross_socket, model);
        let fabric_shared = at_host.saturating_since(t_leaf);
        // Hook B, post-claim: de-fuse any pending reservation this
        // claim just stomped.
        if self.fused_live > 0 {
            self.defuse_stomped_after_claim(t_leaf, ctx);
        }
        if model.parks_thread() {
            // Without the MSI's trailing latency a tiny payload can
            // clear the shared legs inside the hub lookahead; the
            // event timestamp is clamped but the reap works off the
            // carried `at_host`.
            let at = at_host.max(ctx.now() + self.hub_lookahead());
            ctx.send(
                self.job_lp[job],
                at,
                Cross::PollComplete {
                    job,
                    issued_at,
                    ledger: id,
                    fabric_shared,
                    at_host,
                    model,
                },
            );
            return;
        }
        let entry = CqEntry {
            issued_at,
            ledger: id,
            fabric_shared,
        };
        match self.coalescing {
            None => self.fire_irq(job, device, at_host, CqBatch::One(entry), ctx),
            Some(c) => {
                // Hold the CQE; the MSI fires on batch-full or timeout
                // from the first pending completion.
                self.pending_cq[device].push(entry);
                let len = self.pending_cq[device].len();
                if len as u32 >= c.max_batch {
                    let batch = std::mem::take(&mut self.pending_cq[device]);
                    self.fire_irq(job, device, at_host, CqBatch::Many(batch), ctx);
                } else if len == 1 {
                    ctx.at(at_host + c.timeout, Local::Msi { device });
                }
            }
        }
    }

    /// Hub: routes one interrupt through the vector table and hands
    /// the batch to the worker owning the effective vector CPU.
    fn fire_irq(
        &mut self,
        job: usize,
        device: usize,
        at: SimTime,
        batch: CqBatch,
        ctx: &mut Ctx<'_>,
    ) {
        let (delivery, designated) = self.host.route_irq(device, at);
        ctx.send(
            lp_of_cpu(delivery.vector_cpu),
            at,
            Cross::IrqDeliver {
                job,
                delivery,
                designated,
                batch,
            },
        );
    }

    /// Hub: a coalescing timeout fired. Stale timers (the batch
    /// already fired full) find the queue empty and do nothing. The
    /// interrupt itself lands one hub-lookahead later — the MSI still
    /// has to cross the fabric to the host.
    fn on_msi(&mut self, device: usize, ctx: &mut Ctx<'_>) {
        if self.pending_cq[device].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending_cq[device]);
        let job = self.job_of_device[device];
        let at = ctx.now() + self.hub_lookahead();
        self.fire_irq(job, device, at, CqBatch::Many(batch), ctx);
    }

    /// Vector-CPU worker: execute the handler on the effective vector
    /// CPU (this LP owns its state) and hand the outcome to the
    /// origin worker at the wake-ready instant (≥ interrupt entry +
    /// handler floor of lookahead).
    fn on_irq_deliver(
        &mut self,
        job: usize,
        delivery: IrqDelivery,
        designated: CpuId,
        batch: CqBatch,
        ctx: &mut Ctx<'_>,
    ) {
        let at_host = ctx.now();
        let irq = self.host.deliver_irq_routed(delivery, designated, at_host);
        ctx.send(
            self.job_lp[job],
            irq.wake_ready,
            Cross::WakeReap {
                job,
                irq,
                at_host,
                batch,
            },
        );
    }

    /// Origin worker: the handler ran remotely; apply its slices to
    /// the parked ledgers, wake the fio thread and reap the batch.
    /// The shared IRQ + wake slices credit the first entry's ledger
    /// (that I/O is the one whose critical path they sit on); each
    /// entry then pays its own reap slice.
    fn on_wake_reap(
        &mut self,
        job: usize,
        irq: IrqOutcome,
        at_host: SimTime,
        batch: CqBatch,
        ctx: &mut Ctx<'_>,
    ) {
        debug_assert!(
            self.model_of(job).uses_irq_path(),
            "interrupt batch for a polled job"
        );
        let device = self.jobs[job].spec().device();
        let cpu = self.geometry.cpu_of_ssd(device);
        let policy = self.jobs[job].spec().policy();
        let work = COMPLETE_COST + self.jobs[job].spec().logging_cpu_overhead();
        self.completions.interrupts += batch.as_slice().len() as u64;
        let first = batch.first();
        let run_start = {
            let led = &mut self.ledger_slab[first.ledger as usize];
            led.accrue(Cause::Fabric, first.fabric_shared);
            irq::apply(&irq, at_host, led);
            wake::run(&mut self.host, cpu, irq.wake_ready, policy, led)
        };
        let mut t = run_start;
        for (i, entry) in batch.as_slice().iter().enumerate() {
            {
                let led = &mut self.ledger_slab[entry.ledger as usize];
                if i > 0 {
                    // Later batch entries share the first I/O's
                    // handler instant (one MSI served them all).
                    led.accrue(Cause::Fabric, entry.fabric_shared);
                    led.stamp(IoStage::IrqHandled, irq.handler_done);
                }
                t = complete::reap(&mut self.host, cpu, t, work, led);
            }
            self.finish_io(job, entry.issued_at, t, entry.ledger);
        }
        self.issue_burst(job, t, ctx);
    }

    /// Origin worker: a polled completion's data is host-side; the
    /// parked thread (spinning, or sleeping then spinning) reaps it
    /// directly and keeps going.
    #[allow(clippy::too_many_arguments)]
    fn on_poll_complete(
        &mut self,
        job: usize,
        issued_at: SimTime,
        id: LedgerId,
        fabric_shared: SimDuration,
        at_host: SimTime,
        model: CompletionModel,
        ctx: &mut Ctx<'_>,
    ) {
        let device = self.jobs[job].spec().device();
        let cpu = self.geometry.cpu_of_ssd(device);
        let work = COMPLETE_COST + self.jobs[job].spec().logging_cpu_overhead();
        let done = {
            let led = &mut self.ledger_slab[id as usize];
            led.accrue(Cause::Fabric, fabric_shared);
            complete::poll_reap(&mut self.host, cpu, model, issued_at, at_host, work, led)
        };
        self.completions.polls += 1;
        if let CompletionModel::Hybrid { sleep } = model {
            if issued_at + sleep > at_host {
                self.completions.hybrid_sleeps += 1;
            }
        }
        self.finish_io(job, issued_at, done, id);
        self.issue_burst(job, done, ctx);
    }

    // ------------------------------------------------------------------
    // Macro-event fusion of polled chains (see DESIGN.md §6.2)
    // ------------------------------------------------------------------

    /// The cheap, declinable half of the fusion gate: conditions under
    /// which `job`'s new I/O *might* fuse, checkable before any state
    /// beyond the (already claimed) shared down-legs is touched.
    /// Failing any of these takes the plain per-stage path.
    fn fusion_candidate(&self, job: usize, device: usize) -> bool {
        self.fusion_enabled
            // Polled and hybrid chains only: fusing an interrupt chain
            // would mean freezing its MSI-X route and handler timing,
            // and no measured workload paid for that (DESIGN.md §6.2).
            && self.model_of(job).parks_thread()
            // Coalescing batches completions across I/Os on the hub.
            && self.coalescing.is_none()
            // The ledger log admits in reap order: a fused chain
            // settles on a plain event where the per-stage path reaps
            // on a keyed one, so same-instant reaps could enter the
            // log in a different order.
            && self.ledger_log.is_none()
            // QD1: no sibling I/O of the same job can interleave with
            // the frozen timeline.
            && self.jobs[job].spec().iodepth() == 1
            // Private device: its FIFO order and RNG stream are this
            // chain's alone.
            && self.device_job_count[device] == 1
            // Private worker LP: no foreign job's submit/wake/reap can
            // interleave with the reaping CPU's state.
            && self.lp_job_count[self.job_lp[job]] == 1
            && self.fused[job].is_none()
    }

    /// The speculative fast path (hub, at `SubmitDown` time, after the
    /// real shared down-leg claim): run the private device-side legs
    /// eagerly, then — if the completion side is provably uncontended —
    /// freeze the rest of the polled timeline into a [`FusedChain`] and
    /// book one [`Local::Settle`] macro-event in place of the 3
    /// per-stage events.
    ///
    /// The private legs are exact regardless of what the completion
    /// side decides: the device, its links and the parked ledger are
    /// this I/O's alone (QD1 + private device), and the full event
    /// drain guarantees the chain completes in every run. A
    /// completion-side decline therefore cannot back out — it falls
    /// back *partially*, replaying the real [`Cross::FabricUp`] at the
    /// leaf-arrival instant with the job's own channel sequence (the
    /// same relative order the un-fused send would have had), eliding
    /// just the two device-side events.
    fn fuse_submit(
        &mut self,
        job: usize,
        op: Op,
        id: LedgerId,
        start: SimTime,
        at_entry: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        let device = self.jobs[job].spec().device();
        let job_lp = self.job_lp[job];
        let cpu = self.geometry.cpu_of_ssd(device);
        let bytes = self.jobs[job].spec().block_size();
        let model = self.model_of(job);
        // Eager private legs — verbatim the CommandAtDevice and
        // DeviceDone handler bodies, minus the two events.
        let led = &mut self.ledger_slab[id as usize];
        let at_device =
            fabric::downstream_device_leg(&mut self.fabric, device, start, at_entry, led);
        let completes_at = device::serve(&mut self.devices[device], at_device, op, bytes, led);
        led.stamp(IoStage::DeviceComplete, completes_at);
        let t_leaf = fabric::device_leg(
            &mut self.fabric,
            device,
            completes_at,
            bytes as u64,
            model,
            led,
        );
        let cross_socket = self.host.topology().socket_of(cpu) != AFA_SOCKET;
        // Completion-side gate: every check is against state frozen
        // until the settlement by construction (the gates themselves
        // plus hooks A and B), so a pass makes the precomputed
        // timeline exact.
        let fused = 'gate: {
            let Some(r) = self
                .fabric
                .preview_completion_shared_legs(device, t_leaf, bytes as u64)
            else {
                break 'gate None;
            };
            // The shared up-legs must also clear every *pending*
            // reservation (their windows reach `free_at` only when
            // they commit). Busy windows may touch at a boundary but
            // not intersect.
            for other in self.fused.iter().flatten() {
                let o = &other.reservation;
                if (o.leaf == r.leaf
                    && o.leaf_start < r.leaf_busy_end
                    && r.leaf_start < o.leaf_busy_end)
                    || (o.spine == r.spine
                        && o.up_start < r.up_busy_end
                        && r.up_start < o.up_busy_end)
                {
                    break 'gate None;
                }
            }
            let mut at_host = r.at_host;
            if cross_socket {
                at_host += fabric::NUMA_CROSS_SOCKET;
            }
            let fabric_shared = at_host.saturating_since(t_leaf);
            let Some(vt) = self.host.vectors() else {
                break 'gate None;
            };
            // No interrupt-driven device may point its effective
            // vector at the reap core pair: a foreign handler there is
            // a keyed cross event, so at the settlement instant it
            // would always run before the plain `Settle` event, while
            // the real keyed `PollComplete` could sort ahead of it —
            // the reaping CPU's state would diverge.
            let sib_c = self.host.topology().sibling_of(cpu);
            for d2 in 0..self.devices.len() {
                if d2 == device {
                    continue;
                }
                let j2 = self.job_of_device[d2];
                if j2 == usize::MAX || !self.model_of(j2).uses_irq_path() {
                    continue;
                }
                let eff = vt.effective(d2);
                if eff == cpu || eff == sib_c {
                    break 'gate None;
                }
            }
            Some(FusedChain {
                // The instant the real `PollComplete` event would
                // fire (its handler works off the carried `at_host`).
                settle_at: at_host.max(t_leaf + self.hub_lookahead()),
                issued_at: start,
                ledger: id,
                t_leaf,
                at_host,
                fabric_shared,
                model,
                cross_socket,
                reservation: r,
                committed: false,
            })
        };
        match fused {
            Some(chain) => {
                let settle_at = chain.settle_at;
                self.fused[job] = Some(chain);
                self.fused_live += 1;
                self.fusion.fused_chains += 1;
                ctx.at_lp(job_lp, settle_at, Local::Settle { job });
            }
            None => {
                // Partial fallback: re-enter the plain path at the
                // leaf switch, exactly where the real `FabricUp`
                // would fire.
                ctx.send_from(
                    job_lp,
                    HUB_LP,
                    t_leaf,
                    Cross::FabricUp {
                        job,
                        issued_at: start,
                        ledger: id,
                        cross_socket,
                        model,
                    },
                );
            }
        }
    }

    /// Worker: a settlement macro-event fired. The instant guard
    /// drops stale pops — a background install flushed the chain
    /// early, or contention de-fused it.
    fn on_settle(&mut self, job: usize, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.fused[job].as_ref().is_none_or(|c| c.settle_at != now) {
            return;
        }
        self.settle_fused(job, ctx);
    }

    /// Replays a fused chain's completion side in one shot: commit the
    /// shared legs (if hook B hasn't already), then run the verbatim
    /// poll-reap handler.
    fn settle_fused(&mut self, job: usize, ctx: &mut Ctx<'_>) {
        let chain = self.fused[job].take().expect("settling job has a chain");
        self.fused_live -= 1;
        if !chain.committed {
            self.fabric
                .commit_completion_shared_legs(&chain.reservation);
        }
        self.fusion.elided_events += 3;
        self.on_poll_complete(
            job,
            chain.issued_at,
            chain.ledger,
            chain.fabric_shared,
            chain.at_host,
            chain.model,
            ctx,
        );
    }

    /// Tears a pending chain back into per-stage events at the point
    /// of divergence: drop its (uncommitted) reservation and replay
    /// the real `FabricUp` at the leaf-arrival instant, on the job's
    /// own channel. The stale `Settle` pop is skipped by the instant
    /// guard.
    fn defuse(&mut self, job: usize, ctx: &mut Ctx<'_>) {
        let c = self.fused[job].take().expect("de-fusing a live chain");
        debug_assert!(!c.committed, "cannot de-fuse a committed chain");
        self.fused_live -= 1;
        self.fusion.defused_chains += 1;
        ctx.send_from(
            self.job_lp[job],
            HUB_LP,
            c.t_leaf,
            Cross::FabricUp {
                job,
                issued_at: c.issued_at,
                ledger: c.ledger,
                cross_socket: c.cross_socket,
                model: c.model,
            },
        );
    }

    /// Hook B, pre-claim: every pending reservation whose window opens
    /// before this arrival was — in real time order — claimed first,
    /// so commit it and let the incoming claim queue behind it. A tie
    /// at the same leaf instant resolves by the merge key's source LP;
    /// a tie the chain loses de-fuses it (the replay, sent here with a
    /// later per-channel sequence, sorts exactly where the real event
    /// would).
    fn sync_fused_before_claim(&mut self, src: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut defuse: Vec<usize> = Vec::new();
        for (job, chain) in self.fused.iter_mut().enumerate() {
            let Some(c) = chain else { continue };
            if c.committed {
                continue;
            }
            if c.t_leaf < now || (c.t_leaf == now && self.job_lp[job] < src) {
                self.fabric.commit_completion_shared_legs(&c.reservation);
                c.committed = true;
            } else if c.t_leaf == now {
                defuse.push(job);
            }
        }
        for job in defuse {
            self.defuse(job, ctx);
        }
    }

    /// Hook B, post-claim: the claim just made may have pushed a
    /// shared leg's free instant into a pending reservation's window,
    /// invalidating the preview. De-fuse those chains — their replayed
    /// `FabricUp` re-queues through the real path. Because every claim
    /// runs this probe, surviving reservations are always valid.
    fn defuse_stomped_after_claim(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut stomped: Vec<usize> = Vec::new();
        for (job, chain) in self.fused.iter().enumerate() {
            let Some(c) = chain else { continue };
            if c.committed {
                continue;
            }
            debug_assert!(c.t_leaf > now, "pre-claim sync left a stale window");
            let r = &c.reservation;
            let (leaf_free, up_free) = self.fabric.shared_leg_free_at(r.leaf, r.spine);
            if leaf_free > r.leaf_start || up_free > r.up_start {
                stomped.push(job);
            }
        }
        for job in stomped {
            self.defuse(job, ctx);
        }
    }

    /// Hook A, pre-install: a background burst is about to land on a
    /// CPU owned by `p_lp`. Chains settling at exactly this instant
    /// whose real `PollComplete` precedes the keyed `BgPlace` in the
    /// merge order are settled now, acting as their owning LP. Both
    /// events are sent by the hub, so the real completion precedes the
    /// install iff its destination LP is lower, or — same channel — iff
    /// it was sent (at `t_leaf`) no later than the `BgPlace`.
    fn flush_fused_before_install(&mut self, p_lp: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        let mut flush: Vec<(usize, usize)> = Vec::new();
        for (job, chain) in self.fused.iter().enumerate() {
            let Some(c) = chain else { continue };
            if c.settle_at != now {
                continue;
            }
            let dst = self.job_lp[job];
            if dst < p_lp || (dst == p_lp && c.t_leaf + BG_PLACE_LATENCY <= now) {
                flush.push((dst, job));
            }
        }
        // One fused job per LP (the private-LP gate): destination
        // order is the hub channels' merge order.
        flush.sort_unstable();
        for (dst, job) in flush {
            let prev = ctx.set_acting_lp(dst);
            self.settle_fused(job, ctx);
            ctx.set_acting_lp(prev);
        }
    }
}

impl ShardWorld for IoPathWorld {
    type Local = Local;
    type Cross = Cross;

    fn handle_local(&mut self, event: Local, ctx: &mut Ctx<'_>) {
        match event {
            Local::Issue { job } => {
                let now = ctx.now();
                self.issue_burst(job, now, ctx);
            }
            Local::DeviceDone {
                job,
                issued_at,
                ledger,
            } => {
                self.on_device_done(job, issued_at, ledger, ctx);
            }
            Local::Msi { device } => {
                self.on_msi(device, ctx);
            }
            Local::Settle { job } => {
                self.on_settle(job, ctx);
            }
            Local::BgArrival => {
                let now = ctx.now();
                let start = now + BG_PLACE_LATENCY;
                if let Some(placement) = self.host.decide_background_remote(now, start) {
                    // Mirror the install on the hub-owned placement
                    // view so the next decision's idle test sees this
                    // burst; the CPU's owner performs the
                    // authoritative install at the same instant.
                    self.host.mirror_background(&placement, start);
                    ctx.send(
                        lp_of_cpu(placement.cpu),
                        start,
                        Cross::BgPlace { placement },
                    );
                }
                let next = self.host.next_background_arrival(now);
                if next < self.horizon {
                    ctx.at(next, Local::BgArrival);
                }
            }
        }
    }

    fn handle_cross(&mut self, src: usize, event: Cross, ctx: &mut Ctx<'_>) {
        match event {
            Cross::SubmitDown {
                job,
                op,
                ledger,
                start,
            } => {
                let device = self.jobs[job].spec().device();
                let at_entry = fabric::downstream_shared(&mut self.fabric, device, start);
                if self.fusion_candidate(job, device) {
                    self.fuse_submit(job, op, ledger, start, at_entry, ctx);
                    return;
                }
                let at = at_entry.max(ctx.now() + self.hub_lookahead());
                ctx.send(
                    self.job_lp[job],
                    at,
                    Cross::CommandAtDevice {
                        job,
                        op,
                        ledger,
                        issued_at: start,
                        at_entry,
                    },
                );
            }
            Cross::CommandAtDevice {
                job,
                op,
                ledger,
                issued_at,
                at_entry,
            } => {
                let device = self.jobs[job].spec().device();
                let bytes = self.jobs[job].spec().block_size();
                let led = &mut self.ledger_slab[ledger as usize];
                let at_device = fabric::downstream_device_leg(
                    &mut self.fabric,
                    device,
                    issued_at,
                    at_entry,
                    led,
                );
                let completes_at =
                    device::serve(&mut self.devices[device], at_device, op, bytes, led);
                ctx.at(
                    completes_at,
                    Local::DeviceDone {
                        job,
                        issued_at,
                        ledger,
                    },
                );
            }
            Cross::FabricUp {
                job,
                issued_at,
                ledger,
                cross_socket,
                model,
            } => {
                self.on_fabric_up(src, job, issued_at, ledger, cross_socket, model, ctx);
            }
            Cross::IrqDeliver {
                job,
                delivery,
                designated,
                batch,
            } => {
                self.on_irq_deliver(job, delivery, designated, batch, ctx);
            }
            Cross::PollComplete {
                job,
                issued_at,
                ledger,
                fabric_shared,
                at_host,
                model,
            } => {
                self.on_poll_complete(job, issued_at, ledger, fabric_shared, at_host, model, ctx);
            }
            Cross::WakeReap {
                job,
                irq,
                at_host,
                batch,
            } => {
                self.on_wake_reap(job, irq, at_host, batch, ctx);
            }
            Cross::BgPlace { placement } => {
                let now = ctx.now();
                // Hook A: settle what the real order puts before the
                // install.
                if self.fused_live > 0 {
                    self.flush_fused_before_install(lp_of_cpu(placement.cpu), now, ctx);
                }
                self.host.install_background(placement, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_events_stay_small() {
        // The wheel moves 16-byte handles; each event is parked once,
        // in a queue slab slot as large as the larger of `Local` and
        // `Cross`. The cold IoLedger payload must stay in the world's
        // ledger slab, not the event, or it would size that slot.
        assert!(
            std::mem::size_of::<Local>() <= 32,
            "Local grew to {} bytes",
            std::mem::size_of::<Local>()
        );
    }

    #[test]
    fn cross_events_stay_bounded() {
        // `Cross` sets the size of every slab slot the queue parks an
        // event in. Each event is parked once, so the budget is looser
        // than `Local`'s — but a regression to a by-value ledger
        // (~250 bytes) must still fail loudly.
        assert!(
            std::mem::size_of::<Cross>() <= 112,
            "Cross grew to {} bytes",
            std::mem::size_of::<Cross>()
        );
    }

    #[test]
    fn cpu_to_lp_map_keeps_cores_whole() {
        // Hyper-siblings (c, c+20) must land on the same worker LP,
        // and no CPU may map to the hub.
        for c in 0..40u16 {
            let lp = lp_of_cpu(CpuId(c));
            assert!(lp < WORKER_LPS, "cpu {c} mapped to the hub");
            assert_eq!(lp, lp_of_cpu(CpuId((c + 20) % 40)), "siblings split");
        }
        // All workers get work under the paper geometry.
        let owners: std::collections::BTreeSet<usize> =
            (0..40u16).map(|c| lp_of_cpu(CpuId(c))).collect();
        assert_eq!(owners.len(), WORKER_LPS);
    }
}
