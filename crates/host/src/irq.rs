//! MSI-X vector placement: the IRQ balancer vs. explicit pinning.
//!
//! In the paper's setup the kernel creates one IRQ handler per device
//! per logical CPU — 2,560 vectors for 64 SSDs × 40 CPUs (§III-C) —
//! and the stock balancer places each device's *effective* vector
//! without regard for which CPU runs the submitting fio thread
//! (§IV-D, "irq(0,4) is executed on cpu(30)"). [`VectorTable`] models
//! that placement and the §IV-D fix of pinning every vector to its
//! designated CPU.

use afa_sim::{SimDuration, SimRng, SimTime};

use crate::config::IrqMode;
use crate::cpu::CpuId;

/// Result of routing one completion interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrqDelivery {
    /// CPU the handler executed on.
    pub vector_cpu: CpuId,
    /// Whether the handler ran away from the designated CPU.
    pub remote: bool,
    /// Whether the vector moved recently (cold handler cache).
    pub polluted: bool,
}

/// The per-device effective-vector table.
#[derive(Clone, Debug)]
pub struct VectorTable {
    mode: IrqMode,
    designated: Vec<CpuId>,
    effective: Vec<CpuId>,
    all_cpus: Vec<CpuId>,
    rng: SimRng,
    rebalance_period: SimDuration,
    next_rebalance: SimTime,
    /// Per-device instant until which the handler cache is cold.
    polluted_until: Vec<SimTime>,
    rebalances: u64,
}

/// How long a migrated vector's handler path stays cache-cold.
const POLLUTION_WINDOW: SimDuration = SimDuration::millis(50);

impl VectorTable {
    /// Creates a table for `designated.len()` devices.
    ///
    /// In [`IrqMode::Balanced`] the initial effective CPUs are random
    /// (as the stock balancer leaves them) and reshuffle every
    /// `rebalance_period`; in [`IrqMode::Pinned`] the effective CPU is
    /// always the designated one.
    pub fn new(
        mode: IrqMode,
        designated: Vec<CpuId>,
        all_cpus: Vec<CpuId>,
        mut rng: SimRng,
    ) -> Self {
        assert!(!all_cpus.is_empty(), "need at least one CPU");
        let effective = match mode {
            IrqMode::Pinned | IrqMode::AffinityAware => designated.clone(),
            IrqMode::Balanced => designated
                .iter()
                .map(|_| *rng.choose(&all_cpus).expect("cpus non-empty"))
                .collect(),
        };
        let n = designated.len();
        VectorTable {
            mode,
            designated,
            effective,
            all_cpus,
            rng,
            rebalance_period: SimDuration::secs(10),
            next_rebalance: SimTime::ZERO + SimDuration::secs(10),
            polluted_until: vec![SimTime::ZERO; n],
            rebalances: 0,
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.designated.len()
    }

    /// Total vectors the kernel allocated (devices × CPUs) — 2,560 in
    /// the paper's setup.
    pub fn vector_count(&self) -> usize {
        self.designated.len() * self.all_cpus.len()
    }

    /// The designated (affinity-correct) CPU of a device.
    pub fn designated(&self, device: usize) -> CpuId {
        self.designated[device]
    }

    /// Times the balancer has reshuffled.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    fn maybe_rebalance(&mut self, now: SimTime) {
        if self.mode != IrqMode::Balanced {
            return;
        }
        while now >= self.next_rebalance {
            for (d, eff) in self.effective.iter_mut().enumerate() {
                let new = *self.rng.choose(&self.all_cpus).expect("cpus non-empty");
                if new != *eff {
                    self.polluted_until[d] = self.next_rebalance + POLLUTION_WINDOW;
                }
                *eff = new;
            }
            self.next_rebalance += self.rebalance_period;
            self.rebalances += 1;
        }
    }

    /// Routes one interrupt for `device` at `now`.
    pub fn route(&mut self, device: usize, now: SimTime) -> IrqDelivery {
        self.maybe_rebalance(now);
        let vector_cpu = self.effective[device];
        IrqDelivery {
            vector_cpu,
            remote: vector_cpu != self.designated[device],
            polluted: now < self.polluted_until[device],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpus(n: u16) -> Vec<CpuId> {
        (0..n).map(CpuId).collect()
    }

    #[test]
    fn pinned_always_routes_to_designated() {
        let designated: Vec<CpuId> = (0..64u16).map(|d| CpuId(4 + d % 32)).collect();
        let mut table = VectorTable::new(
            IrqMode::Pinned,
            designated.clone(),
            cpus(40),
            SimRng::from_seed(1),
        );
        for (d, &cpu) in designated.iter().enumerate() {
            for s in 0..5u64 {
                let t = SimTime::ZERO + SimDuration::secs(s * 20);
                let route = table.route(d, t);
                assert_eq!(route.vector_cpu, cpu);
                assert!(!route.remote);
                assert!(!route.polluted);
            }
        }
        assert_eq!(table.rebalances(), 0);
    }

    #[test]
    fn balanced_mostly_routes_remotely() {
        let designated: Vec<CpuId> = (0..64u16).map(|d| CpuId(4 + d % 32)).collect();
        let mut table = VectorTable::new(
            IrqMode::Balanced,
            designated,
            cpus(40),
            SimRng::from_seed(2),
        );
        let remote = (0..64)
            .filter(|&d| table.route(d, SimTime::ZERO).remote)
            .count();
        // 39/40 chance per device of landing elsewhere.
        assert!(remote > 55, "only {remote}/64 remote");
    }

    #[test]
    fn balancer_reshuffles_periodically() {
        let designated: Vec<CpuId> = (0..8u16).map(CpuId).collect();
        let mut table = VectorTable::new(
            IrqMode::Balanced,
            designated,
            cpus(40),
            SimRng::from_seed(3),
        );
        let before: Vec<CpuId> = (0..8)
            .map(|d| table.route(d, SimTime::ZERO).vector_cpu)
            .collect();
        let later = SimTime::ZERO + SimDuration::secs(35);
        let after: Vec<CpuId> = (0..8).map(|d| table.route(d, later).vector_cpu).collect();
        assert!(table.rebalances() >= 3);
        assert_ne!(before, after, "shuffle should move at least one vector");
    }

    #[test]
    fn migration_pollutes_briefly() {
        let designated: Vec<CpuId> = (0..32u16).map(CpuId).collect();
        let mut table = VectorTable::new(
            IrqMode::Balanced,
            designated,
            cpus(40),
            SimRng::from_seed(4),
        );
        // Immediately after the 10 s rebalance, most vectors moved and
        // are cold.
        let just_after = SimTime::ZERO + SimDuration::secs(10) + SimDuration::millis(1);
        let polluted = (0..32)
            .filter(|&d| table.route(d, just_after).polluted)
            .count();
        assert!(polluted > 20, "{polluted}/32 polluted");
        // Long after, the cache warmed up again.
        let warm = just_after + SimDuration::secs(5);
        let still = (0..32).filter(|&d| table.route(d, warm).polluted).count();
        assert_eq!(still, 0);
    }

    #[test]
    fn vector_count_matches_paper() {
        let designated: Vec<CpuId> = (0..64u16).map(|d| CpuId(d % 40)).collect();
        let table = VectorTable::new(IrqMode::Pinned, designated, cpus(40), SimRng::from_seed(5));
        assert_eq!(table.vector_count(), 2_560);
        assert_eq!(table.devices(), 64);
    }
}
