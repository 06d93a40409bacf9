//! The paper's cumulative tuning ladder.

use afa_host::{CpuSet, KernelConfig, SchedPolicy};
use afa_ssd::FirmwareProfile;

/// One stage of §IV's tuning progression. Each stage *includes* all
/// earlier stages, exactly as the paper applies them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TuningStage {
    /// §IV-A: stock kernel, CFS fio, balanced IRQs, production
    /// firmware (Fig. 6).
    Default,
    /// §IV-B: + `chrt -f 99` on every fio process (Fig. 7).
    Chrt,
    /// §IV-C: + `isolcpus nohz_full rcu_nocbs max_cstate=1 idle=poll`
    /// on the fio CPUs (Fig. 8).
    Isolcpus,
    /// §IV-D: + all 2,560 NVMe vectors pinned to their designated
    /// CPUs (Fig. 9).
    IrqAffinity,
    /// §IV-E: + experimental SSD firmware with SMART update/save
    /// disabled (Fig. 11).
    ExperimentalFirmware,
}

impl TuningStage {
    /// The four kernel configurations compared in Fig. 12, in order.
    pub const KERNEL_LADDER: [TuningStage; 4] = [
        TuningStage::Default,
        TuningStage::Chrt,
        TuningStage::Isolcpus,
        TuningStage::IrqAffinity,
    ];

    /// All stages including the firmware change.
    pub const ALL: [TuningStage; 5] = [
        TuningStage::Default,
        TuningStage::Chrt,
        TuningStage::Isolcpus,
        TuningStage::IrqAffinity,
        TuningStage::ExperimentalFirmware,
    ];

    /// The paper's label for the stage (Fig. 12's legend).
    pub fn label(self) -> &'static str {
        match self {
            TuningStage::Default => "default",
            TuningStage::Chrt => "chrt",
            TuningStage::Isolcpus => "isolcpus",
            TuningStage::IrqAffinity => "irq",
            TuningStage::ExperimentalFirmware => "exp-firmware",
        }
    }

    /// The kernel configuration for this stage, given the fio CPU set
    /// (needed from [`TuningStage::Isolcpus`] on).
    pub fn kernel_config(self, io_cpus: CpuSet) -> KernelConfig {
        match self {
            TuningStage::Default | TuningStage::Chrt => KernelConfig::stock(),
            TuningStage::Isolcpus => KernelConfig::isolated(io_cpus),
            TuningStage::IrqAffinity | TuningStage::ExperimentalFirmware => {
                KernelConfig::isolated_pinned_irq(io_cpus)
            }
        }
    }

    /// The scheduling class fio runs under.
    pub fn fio_policy(self) -> SchedPolicy {
        match self {
            TuningStage::Default => SchedPolicy::default_fair(),
            _ => SchedPolicy::chrt_fifo_99(),
        }
    }

    /// The SSD firmware installed.
    pub fn firmware(self) -> FirmwareProfile {
        match self {
            TuningStage::ExperimentalFirmware => FirmwareProfile::experimental(),
            _ => FirmwareProfile::production(),
        }
    }
}

impl std::fmt::Display for TuningStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afa_host::{CpuId, IdlePolicy, IrqMode};

    fn io() -> CpuSet {
        CpuSet::from_range(4, 19).union(CpuSet::from_range(24, 39))
    }

    #[test]
    fn stages_are_cumulative() {
        // Default: everything stock.
        let t = TuningStage::Default;
        assert_eq!(t.kernel_config(io()), KernelConfig::stock());
        assert!(!t.fio_policy().is_realtime());
        assert!(t.firmware().smart_enabled());

        // Chrt: only the policy changes.
        let t = TuningStage::Chrt;
        assert_eq!(t.kernel_config(io()), KernelConfig::stock());
        assert!(t.fio_policy().is_realtime());
        assert!(t.firmware().smart_enabled());

        // Isolcpus: isolation added, IRQs still balanced.
        let t = TuningStage::Isolcpus;
        let k = t.kernel_config(io());
        assert!(k.isolcpus.contains(CpuId(4)));
        assert_eq!(k.idle, IdlePolicy::Poll);
        assert_eq!(k.irq_mode, IrqMode::Balanced);
        assert!(t.fio_policy().is_realtime());

        // IrqAffinity: vectors pinned.
        let t = TuningStage::IrqAffinity;
        assert_eq!(t.kernel_config(io()).irq_mode, IrqMode::Pinned);
        assert!(t.firmware().smart_enabled());

        // ExperimentalFirmware: SMART off, kernel unchanged.
        let t = TuningStage::ExperimentalFirmware;
        assert_eq!(t.kernel_config(io()).irq_mode, IrqMode::Pinned);
        assert!(!t.firmware().smart_enabled());
    }

    #[test]
    fn ladder_order_matches_fig12() {
        let labels: Vec<&str> = TuningStage::KERNEL_LADDER
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(labels, vec!["default", "chrt", "isolcpus", "irq"]);
    }

    #[test]
    fn stage_ordering_is_monotone() {
        for w in TuningStage::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
