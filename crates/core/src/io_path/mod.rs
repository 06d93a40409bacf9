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
//! execution detail: an event's LP names its merge key and bounds its
//! send by that LP's lookahead, so the split decides event order. The
//! hub reserves the shared down-legs in the order its `SubmitDown`
//! arrivals merge (the FIFO behind Fig. 12's convoys), and background
//! placement sees CPU business through a view that is one worker
//! lookahead stale: workers log their busy reports on the host
//! ([`HostModel::note_io_busy`]) and the hub folds the ones visible at
//! each placement decision, so the view costs no event.
//!
//! Inter-LP hops ride `Cross` events under per-LP lookahead bounds
//! (the smaller of a fabric hop and interrupt entry + handler for
//! workers, hop + MSI latency for the hub), asserted on every send.
//! A QD1 job alone on its worker LP skips two of them (one job per
//! device is asserted at run): the hub runs its device legs inline at
//! `SubmitDown` (`IoPathWorld::run_device_legs`, DESIGN.md §6.2).
//!
//! # One record per in-flight I/O
//!
//! No LP owns an I/O's data. Each in-flight I/O is one slot of the
//! world's slab (`InFlight`): its [`IoLedger`], its job and op, its
//! doorbell instant and the two instants a later event reads back.
//! Every I/O-path event carries only the slot's id (`IoId`), and each
//! stage writes its outcome into the ledger at the event that computes
//! it, on whichever LP runs it: the hub accrues the shared-leg fabric
//! time at `FabricUp`, the vector CPU's worker books the handler's
//! slices at `IrqDeliver`. Per-job facts (the completion model, the
//! submitting CPU's socket) are read from the job where they are used.
//! The run's cause table and the optional ledger log (the run's one
//! per-I/O capture, blktrace stamps included) both derive from the
//! settled ledger in one place (`IoPathWorld::finish_io`), in place;
//! only a logged I/O's ledger is copied out of the slab.

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

use afa_host::{BgPlacement, CpuId, HostModel, IrqDelivery};
use afa_pcie::PcieFabric;
use afa_sim::metrics::{CompletionCounters, FusionCounters};
use afa_sim::trace::CauseAccumulator;
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

/// Slab handle of an in-flight I/O (see `InFlight`): the one payload
/// the I/O path's events carry.
pub(crate) type IoId = u32;

/// The whole in-flight record of one I/O, parked in one slab slot from
/// issue to reap. Stages write their outcomes into `ledger` where they
/// run; the instants are the ones a later event reads back.
struct InFlight {
    ledger: IoLedger,
    job: usize,
    op: Op,
    /// Doorbell ring: the I/O's latency clock starts here.
    issued_at: SimTime,
    /// When the command reached the leaf egress (written at
    /// `SubmitDown`; `CommandAtDevice` may land later, clamped up to
    /// the hub lookahead).
    at_entry: SimTime,
    /// When the completion's CQE landed in host memory (written at
    /// `FabricUp`). A polled reap works off it (`PollComplete` may land
    /// later, clamped up to the hub lookahead — without an MSI the
    /// shared legs can finish inside the lookahead window for tiny
    /// payloads); the MSI coalescer times a batch from its first
    /// completion's.
    at_host: SimTime,
}

/// LP-local events. Kept at 16 bytes: the event queue parks every
/// event once in a slab slot sized for the largest one, so events
/// carry an [`IoId`], never the record.
#[derive(Debug)]
pub(crate) enum Local {
    /// Job's thread is running and ready to issue (worker).
    Issue { job: usize },
    /// The device posts the completion; the device-side up-leg is
    /// reserved *now* so per-device FIFOs are used in time order
    /// (worker).
    DeviceDone { io: IoId },
    /// A coalescing timeout fires for the device's pending
    /// completions (hub).
    Msi { device: usize },
    /// Background workload arrival (hub).
    BgArrival,
}

/// The completions served by one interrupt, all from one device (so
/// one job). The common un-coalesced path is a single inline id (no
/// allocation); only the coalescing ablation builds real batches.
#[derive(Debug)]
pub(crate) enum CqBatch {
    One(IoId),
    Many(Vec<IoId>),
}

impl CqBatch {
    fn as_slice(&self) -> &[IoId] {
        match self {
            CqBatch::One(io) => std::slice::from_ref(io),
            CqBatch::Many(ios) => ios,
        }
    }
}

/// Inter-LP events. Each hop's timestamp respects the sender's
/// lookahead bound (asserted by [`ShardCtx::send`]); an I/O's events
/// carry its [`IoId`], never a stage's outcome or a per-job fact.
#[derive(Debug)]
pub(crate) enum Cross {
    /// Worker → hub: a command left the host at its doorbell instant;
    /// the hub reserves the shared down-legs in global submit order
    /// (the FIFO ordering phase-couples the submitting threads — the
    /// coupling behind the paper's shared-fabric convoys).
    SubmitDown { io: IoId },
    /// Hub → device-owner worker: the command reached the leaf egress;
    /// the worker reserves the device's down-link and starts device
    /// service.
    CommandAtDevice { io: IoId },
    /// Worker → hub: the completion payload reached the leaf switch;
    /// the hub reserves the shared legs and routes the interrupt.
    FabricUp { io: IoId },
    /// Hub → vector-CPU worker: run the interrupt handler for `batch`.
    IrqDeliver {
        delivery: IrqDelivery,
        designated: CpuId,
        batch: CqBatch,
    },
    /// Hub → origin worker: a polled completion's data is host-side;
    /// the spinning (or sleeping) thread reaps it directly.
    PollComplete { io: IoId },
    /// Vector worker → origin worker, at the wake-ready instant: wake
    /// the fio thread and reap the batch.
    WakeReap { batch: CqBatch },
    /// Hub → CPU-owner worker: install a background burst (boxed, so
    /// a burst's sections do not size every event's slot).
    BgPlace { placement: Box<BgPlacement> },
}

/// The whole-array world: jobs × host × fabric × devices, driven by
/// [`Local`]/[`Cross`] events through the staged I/O path. One value
/// serves every LP; each event mutates only its LP's slice and the
/// records of the I/Os it carries.
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
    pending_cq: Vec<Vec<IoId>>,
    /// In-flight I/Os, indexed by [`IoId`]; slots recycle through
    /// `free` and every stage writes the parked record in place, so
    /// the per-I/O path neither allocates nor copies it.
    inflight: Vec<InFlight>,
    free: Vec<IoId>,
    /// Per job: its chains run their device legs inline at
    /// `SubmitDown` (see [`run_device_legs`](Self::run_device_legs)).
    /// Fixed for the run; results are byte-identical either way.
    inline_legs: Vec<bool>,
    /// Fusion tally of the run: the chains that ran their device legs
    /// inline, and the per-stage events they skipped (2 per chain).
    pub(crate) fusion: FusionCounters,
}

/// The scheduling context every handler receives.
type Ctx<'a> = ShardCtx<'a, Local, Cross>;

impl IoPathWorld {
    /// Assembles a world from its parts (see `AfaSystem::run` for the
    /// construction of each). `fusion` lets private chains run their
    /// device legs inline.
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
        fusion: bool,
    ) -> Self {
        let n = devices.len();
        let job_lp: Vec<usize> = jobs
            .iter()
            .map(|j| lp_of_cpu(geometry.cpu_of_ssd(j.spec().device())))
            .collect();
        let mut lp_jobs = [0u32; WORKER_LPS];
        for &lp in &job_lp {
            lp_jobs[lp] += 1;
        }
        // The one fusion rule (DESIGN.md §6.2): a QD1 job alone on its
        // worker LP. (`AfaSystem::run` asserts one job per device.)
        let inline_legs = jobs
            .iter()
            .zip(&job_lp)
            .map(|(job, &lp)| fusion && job.spec().iodepth() == 1 && lp_jobs[lp] == 1)
            .collect();
        let jobs_len = jobs.len();
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
            next_allowed: vec![SimTime::ZERO; jobs_len],
            coalescing,
            hybrid_sleep,
            per_cpu_queues,
            pending_cq: vec![Vec::new(); n],
            inflight: Vec::with_capacity(2 * n),
            free: Vec::with_capacity(2 * n),
            inline_legs,
            fusion: FusionCounters::default(),
        }
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

    /// Parks a fresh record for `job`'s `op`, queued at `queued_at`,
    /// reusing a settled slot when one is free. The slot is written
    /// whole exactly once here; every stage mutates it in place.
    fn alloc_io(&mut self, job: usize, op: Op, queued_at: SimTime) -> IoId {
        let io = InFlight {
            ledger: IoLedger::for_lba(queued_at, op.lba),
            job,
            op,
            issued_at: queued_at,
            at_entry: SimTime::ZERO,
            at_host: SimTime::ZERO,
        };
        match self.free.pop() {
            Some(id) => {
                self.inflight[id as usize] = io;
                id
            }
            None => {
                self.inflight.push(io);
                (self.inflight.len() - 1) as IoId
            }
        }
    }

    /// Issues as many operations as the queue depth allows, starting
    /// with the thread running on its CPU at `now`. Each issue runs
    /// the submit stage inline and sends the [`Cross::SubmitDown`]
    /// that resumes the path. Runs only on the job's owning worker.
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
            let id = self.alloc_io(job, op, now);
            let io = &mut self.inflight[id as usize];
            let submit_end = submit::run(&mut self.host, cpu, now, &mut io.ledger);
            io.issued_at = submit_end;
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
            ctx.send(HUB_LP, t_send, Cross::SubmitDown { io: id });
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

    /// Hub: the command left the host at its doorbell instant. Reserve
    /// the shared down-legs in arrival order (they are FIFO resources),
    /// then run the device legs inline for a private chain, or hand the
    /// command to the device's worker when it reaches the leaf egress.
    fn on_submit_down(&mut self, id: IoId, ctx: &mut Ctx<'_>) {
        let io = &mut self.inflight[id as usize];
        let job = io.job;
        let device = self.jobs[job].spec().device();
        let at_entry = fabric::downstream_shared(&mut self.fabric, device, io.issued_at);
        io.at_entry = at_entry;
        if self.inline_legs[job] {
            self.run_device_legs(id, ctx);
            return;
        }
        let at = at_entry.max(ctx.now() + self.hub_lookahead());
        ctx.send(self.job_lp[job], at, Cross::CommandAtDevice { io: id });
    }

    /// The command reached the leaf egress: reserve the device's
    /// down-link and start device service; returns when the device
    /// posts the completion. Runs on the device's worker at
    /// `CommandAtDevice`, or on the hub for an inline chain.
    fn serve_command(&mut self, id: IoId) -> SimTime {
        let io = &mut self.inflight[id as usize];
        let spec = self.jobs[io.job].spec();
        let device = spec.device();
        let at_device = fabric::downstream_device_leg(
            &mut self.fabric,
            device,
            io.issued_at,
            io.at_entry,
            &mut io.ledger,
        );
        let bytes = spec.block_size();
        device::serve(
            &mut self.devices[device],
            at_device,
            io.op,
            bytes,
            &mut io.ledger,
        )
    }

    /// The device posted a completion at `done`: reserve the
    /// device-side up-leg; returns when the payload reaches the leaf
    /// switch (one fabric hop of lookahead), the instant of the
    /// I/O's [`Cross::FabricUp`]. Runs on the device's worker at
    /// `DeviceDone`, or on the hub for an inline chain.
    fn device_up_leg(&mut self, id: IoId, done: SimTime) -> SimTime {
        let job = self.inflight[id as usize].job;
        let model = self.model_of(job);
        let spec = self.jobs[job].spec();
        let ledger = &mut self.inflight[id as usize].ledger;
        ledger.stamp(IoStage::DeviceComplete, done);
        let bytes = spec.block_size() as u64;
        fabric::device_leg(&mut self.fabric, spec.device(), done, bytes, model, ledger)
    }

    /// Hub: the payload reached the leaf switch. Reserve the shared
    /// legs in arrival order (they are FIFO resources — this is why
    /// the hub owns them) and accrue them, then route the interrupt —
    /// immediately, or held by the MSI coalescer.
    fn on_fabric_up(&mut self, id: IoId, ctx: &mut Ctx<'_>) {
        let job = self.inflight[id as usize].job;
        let model = self.model_of(job);
        let spec = self.jobs[job].spec();
        let device = spec.device();
        let cpu = self.geometry.cpu_of_ssd(device);
        let cross_socket = self.host.topology().socket_of(cpu) != AFA_SOCKET;
        let io = &mut self.inflight[id as usize];
        let at_host = fabric::shared_legs(
            &mut self.fabric,
            device,
            ctx.now(),
            spec.block_size() as u64,
            cross_socket,
            model,
            &mut io.ledger,
        );
        io.at_host = at_host;
        if model.parks_thread() {
            // Without the MSI's trailing latency a tiny payload can
            // clear the shared legs inside the hub lookahead; the
            // event timestamp is clamped but the reap works off the
            // recorded `at_host`.
            let at = at_host.max(ctx.now() + self.hub_lookahead());
            ctx.send(self.job_lp[job], at, Cross::PollComplete { io: id });
            return;
        }
        match self.coalescing {
            None => self.fire_irq(device, at_host, CqBatch::One(id), ctx),
            Some(c) => {
                // Hold the CQE; the MSI fires on batch-full or timeout
                // from the first pending completion.
                self.pending_cq[device].push(id);
                let len = self.pending_cq[device].len();
                if len as u32 >= c.max_batch {
                    let batch = std::mem::take(&mut self.pending_cq[device]);
                    self.fire_irq(device, at_host, CqBatch::Many(batch), ctx);
                } else if len == 1 {
                    ctx.at(at_host + c.timeout, Local::Msi { device });
                }
            }
        }
    }

    /// Hub: routes one interrupt through the vector table and hands
    /// the batch to the worker owning the effective vector CPU.
    fn fire_irq(&mut self, device: usize, at: SimTime, batch: CqBatch, ctx: &mut Ctx<'_>) {
        let (delivery, designated) = self.host.route_irq(device, at);
        ctx.send(
            lp_of_cpu(delivery.vector_cpu),
            at,
            Cross::IrqDeliver {
                delivery,
                designated,
                batch,
            },
        );
    }

    /// Hub: a coalescing timeout fired. It fires the pending batch only
    /// if that batch armed it, i.e. its first completion reached the
    /// host exactly one timeout ago. A stale timer (armed by a batch
    /// that already fired full) finds the queue empty or holding a
    /// younger batch, whose own timer is still to come, and does
    /// nothing. The interrupt itself lands one hub-lookahead later —
    /// the MSI still has to cross the fabric to the host.
    fn on_msi(&mut self, device: usize, ctx: &mut Ctx<'_>) {
        let timeout = self.coalescing.expect("coalescing timer").timeout;
        let armed_by = |&id: &IoId| self.inflight[id as usize].at_host + timeout;
        if self.pending_cq[device].first().map(armed_by) != Some(ctx.now()) {
            return;
        }
        let batch = std::mem::take(&mut self.pending_cq[device]);
        let at = ctx.now() + self.hub_lookahead();
        self.fire_irq(device, at, CqBatch::Many(batch), ctx);
    }

    /// Vector-CPU worker: execute the handler on the effective vector
    /// CPU (this LP owns its state) and book it: the handler and
    /// remote-completion slices credit the batch's first ledger (that
    /// I/O is the one whose critical path they sit on), and the rest
    /// share its handler instant (one MSI served them all). The batch
    /// then goes to the origin worker at the wake-ready instant (≥
    /// interrupt entry + handler floor of lookahead).
    fn on_irq_deliver(
        &mut self,
        delivery: IrqDelivery,
        designated: CpuId,
        batch: CqBatch,
        ctx: &mut Ctx<'_>,
    ) {
        let irq = self
            .host
            .deliver_irq_routed(delivery, designated, ctx.now());
        let (&first, rest) = batch.as_slice().split_first().expect("empty batch");
        irq::apply(&irq, ctx.now(), &mut self.inflight[first as usize].ledger);
        for &id in rest {
            let ledger = &mut self.inflight[id as usize].ledger;
            ledger.stamp(IoStage::IrqHandled, irq.handler_done);
        }
        let job_lp = self.job_lp[self.inflight[first as usize].job];
        ctx.send(job_lp, irq.wake_ready, Cross::WakeReap { batch });
    }

    /// Origin worker, at the wake-ready instant: wake the fio thread
    /// and reap the batch. The wake slices credit the first I/O's
    /// ledger; each I/O then pays its own reap slice.
    fn on_wake_reap(&mut self, batch: CqBatch, ctx: &mut Ctx<'_>) {
        let ids = batch.as_slice();
        let job = self.inflight[ids[0] as usize].job;
        debug_assert!(
            self.model_of(job).uses_irq_path(),
            "interrupt batch for a polled job"
        );
        let spec = self.jobs[job].spec();
        let cpu = self.geometry.cpu_of_ssd(spec.device());
        let policy = spec.policy();
        let work = COMPLETE_COST + spec.logging_cpu_overhead();
        self.completions.interrupts += ids.len() as u64;
        let first = &mut self.inflight[ids[0] as usize].ledger;
        let mut t = wake::run(&mut self.host, cpu, ctx.now(), policy, first);
        for &id in ids {
            let ledger = &mut self.inflight[id as usize].ledger;
            t = complete::reap(&mut self.host, cpu, t, work, ledger);
            self.finish_io(id, t);
        }
        self.issue_burst(job, t, ctx);
    }

    /// Origin worker: a polled completion's data is host-side; the
    /// parked thread (spinning, or sleeping then spinning) reaps it
    /// directly and keeps going.
    fn on_poll_complete(&mut self, id: IoId, ctx: &mut Ctx<'_>) {
        let InFlight {
            job,
            issued_at,
            at_host,
            ..
        } = self.inflight[id as usize];
        let model = self.model_of(job);
        let spec = self.jobs[job].spec();
        let cpu = self.geometry.cpu_of_ssd(spec.device());
        let work = COMPLETE_COST + spec.logging_cpu_overhead();
        let ledger = &mut self.inflight[id as usize].ledger;
        let done =
            complete::poll_reap(&mut self.host, cpu, model, issued_at, at_host, work, ledger);
        self.completions.polls += 1;
        if let CompletionModel::Hybrid { sleep } = model {
            if issued_at + sleep > at_host {
                self.completions.hybrid_sleeps += 1;
            }
        }
        self.finish_io(id, done);
        self.issue_burst(job, done, ctx);
    }

    // ------------------------------------------------------------------
    // Inline device legs of private chains (see DESIGN.md §6.2)
    // ------------------------------------------------------------------

    /// Hub, at `SubmitDown`, for a job flagged in `inline_legs`: run
    /// the device-side legs (device down-link, device service, device
    /// up-leg) now instead of on `CommandAtDevice` and `DeviceDone`,
    /// and send the chain's real `FabricUp` as the job's LP would have.
    /// Everything from the leaf switch on runs on its real events.
    ///
    /// Exact: the private device and its links see the same calls in
    /// the same order; at QD1 no sibling I/O can complete first; and
    /// on a private LP no other send takes the job-LP → hub channel
    /// before the `FabricUp`, so it draws the per-stage sequence
    /// number and lands at the same instant and merge key.
    fn run_device_legs(&mut self, id: IoId, ctx: &mut Ctx<'_>) {
        let done = self.serve_command(id);
        let t_leaf = self.device_up_leg(id, done);
        let job_lp = self.job_lp[self.inflight[id as usize].job];
        ctx.send_from(job_lp, HUB_LP, t_leaf, Cross::FabricUp { io: id });
        self.fusion.fused_chains += 1;
        self.fusion.elided_events += 2;
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
            Local::DeviceDone { io } => {
                let t_leaf = self.device_up_leg(io, ctx.now());
                ctx.send(HUB_LP, t_leaf, Cross::FabricUp { io });
            }
            Local::Msi { device } => {
                self.on_msi(device, ctx);
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
                        Cross::BgPlace {
                            placement: Box::new(placement),
                        },
                    );
                }
                let next = self.host.next_background_arrival(now);
                if next < self.horizon {
                    ctx.at(next, Local::BgArrival);
                }
            }
        }
    }

    fn handle_cross(&mut self, _src: usize, event: Cross, ctx: &mut Ctx<'_>) {
        match event {
            Cross::SubmitDown { io } => self.on_submit_down(io, ctx),
            Cross::CommandAtDevice { io } => {
                let completes_at = self.serve_command(io);
                ctx.at(completes_at, Local::DeviceDone { io });
            }
            Cross::FabricUp { io } => self.on_fabric_up(io, ctx),
            Cross::IrqDeliver {
                delivery,
                designated,
                batch,
            } => self.on_irq_deliver(delivery, designated, batch, ctx),
            Cross::PollComplete { io } => self.on_poll_complete(io, ctx),
            Cross::WakeReap { batch } => self.on_wake_reap(batch, ctx),
            Cross::BgPlace { placement } => {
                self.host.install_background(*placement, ctx.now());
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
        // `Cross`. An I/O's event carries its slot id, so a stage
        // outcome carried in an event (an instant, a leg's time, the
        // op) grows `Local` past this bound and fails here.
        assert!(
            std::mem::size_of::<Local>() <= 16,
            "Local grew to {} bytes",
            std::mem::size_of::<Local>()
        );
    }

    #[test]
    fn cross_events_stay_bounded() {
        // `Cross` sets the size of every slab slot the queue parks an
        // event in. Its largest variant is an interrupt's routed
        // decision plus its batch of slot ids; re-adding a carried
        // outcome (the handler's `IrqOutcome`, a shared-leg time, an
        // unboxed background burst) fails here.
        assert!(
            std::mem::size_of::<Cross>() <= 32,
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
