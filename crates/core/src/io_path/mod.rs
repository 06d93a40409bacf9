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
//! A QD1 job alone on its device and on its worker LP skips two of
//! them: the hub runs its device legs inline at `SubmitDown`
//! (`IoPathWorld::run_device_legs`, DESIGN.md §6.2).
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
use afa_pcie::PcieFabric;
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
        let mut job_of_device = vec![usize::MAX; n];
        let mut device_jobs = vec![0u32; n];
        let mut lp_jobs = [0u32; WORKER_LPS];
        for (j, job) in jobs.iter().enumerate() {
            job_of_device[job.spec().device()] = j;
            device_jobs[job.spec().device()] += 1;
            lp_jobs[job_lp[j]] += 1;
        }
        // The one fusion rule (DESIGN.md §6.2): a QD1 job alone on its
        // device and alone on its worker LP.
        let inline_legs = jobs
            .iter()
            .zip(&job_lp)
            .map(|(job, &lp)| {
                fusion
                    && job.spec().iodepth() == 1
                    && device_jobs[job.spec().device()] == 1
                    && lp_jobs[lp] == 1
            })
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
            job_of_device,
            next_allowed: vec![SimTime::ZERO; jobs_len],
            coalescing,
            hybrid_sleep,
            per_cpu_queues,
            pending_cq: vec![Vec::new(); n],
            ledger_slab: Vec::with_capacity(2 * n),
            ledger_free: Vec::with_capacity(2 * n),
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

    /// The command reached the leaf egress at `at_entry`: reserve the
    /// device's down-link and start device service; returns when the
    /// device posts the completion. Runs on the device's worker at
    /// `CommandAtDevice`, or on the hub for an inline chain.
    fn serve_command(
        &mut self,
        job: usize,
        op: Op,
        id: LedgerId,
        issued_at: SimTime,
        at_entry: SimTime,
    ) -> SimTime {
        let device = self.jobs[job].spec().device();
        let bytes = self.jobs[job].spec().block_size();
        let led = &mut self.ledger_slab[id as usize];
        let at_device =
            fabric::downstream_device_leg(&mut self.fabric, device, issued_at, at_entry, led);
        device::serve(&mut self.devices[device], at_device, op, bytes, led)
    }

    /// The device posted a completion at `done`: reserve the
    /// device-side up-leg and return the [`Cross::FabricUp`] that hands
    /// the payload to the hub, with the instant it reaches the leaf
    /// switch (one fabric hop of lookahead). Runs on the device's
    /// worker at `DeviceDone`, or on the hub for an inline chain.
    fn device_up_leg(
        &mut self,
        job: usize,
        issued_at: SimTime,
        id: LedgerId,
        done: SimTime,
    ) -> (SimTime, Cross) {
        let device = self.jobs[job].spec().device();
        let cpu = self.geometry.cpu_of_ssd(device);
        let bytes = self.jobs[job].spec().block_size() as u64;
        let model = self.model_of(job);
        let ledger = &mut self.ledger_slab[id as usize];
        ledger.stamp(IoStage::DeviceComplete, done);
        let t_leaf = fabric::device_leg(&mut self.fabric, device, done, bytes, model, ledger);
        let up = Cross::FabricUp {
            job,
            issued_at,
            ledger: id,
            cross_socket: self.host.topology().socket_of(cpu) != AFA_SOCKET,
            model,
        };
        (t_leaf, up)
    }

    /// Hub: the payload reached the leaf switch. Reserve the shared
    /// legs in arrival order (they are FIFO resources — this is why
    /// the hub owns them), then route the interrupt — immediately, or
    /// held by the MSI coalescer.
    fn on_fabric_up(
        &mut self,
        job: usize,
        issued_at: SimTime,
        id: LedgerId,
        cross_socket: bool,
        model: CompletionModel,
        ctx: &mut Ctx<'_>,
    ) {
        let t_leaf = ctx.now();
        let device = self.jobs[job].spec().device();
        let bytes = self.jobs[job].spec().block_size() as u64;
        let at_host =
            fabric::shared_legs(&mut self.fabric, device, t_leaf, bytes, cross_socket, model);
        let fabric_shared = at_host.saturating_since(t_leaf);
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
    fn run_device_legs(
        &mut self,
        job: usize,
        op: Op,
        id: LedgerId,
        start: SimTime,
        at_entry: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        let done = self.serve_command(job, op, id, start, at_entry);
        let (t_leaf, up) = self.device_up_leg(job, start, id, done);
        ctx.send_from(self.job_lp[job], HUB_LP, t_leaf, up);
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
            Local::DeviceDone {
                job,
                issued_at,
                ledger,
            } => {
                let (t_leaf, up) = self.device_up_leg(job, issued_at, ledger, ctx.now());
                ctx.send(HUB_LP, t_leaf, up);
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

    fn handle_cross(&mut self, _src: usize, event: Cross, ctx: &mut Ctx<'_>) {
        match event {
            Cross::SubmitDown {
                job,
                op,
                ledger,
                start,
            } => {
                let device = self.jobs[job].spec().device();
                let at_entry = fabric::downstream_shared(&mut self.fabric, device, start);
                if self.inline_legs[job] {
                    self.run_device_legs(job, op, ledger, start, at_entry, ctx);
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
                let completes_at = self.serve_command(job, op, ledger, issued_at, at_entry);
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
                self.on_fabric_up(job, issued_at, ledger, cross_socket, model, ctx);
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
                self.host.install_background(placement, ctx.now());
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
