//! Device specification and timing parameters.

use afa_sim::SimDuration;

use crate::flash::FlashGeometry;

/// The data-sheet specification of an SSD (the paper's Table I), plus
/// the derived internal timing model.
///
/// # Example
///
/// ```
/// use afa_ssd::SsdSpec;
///
/// let spec = SsdSpec::table1();
/// assert_eq!(spec.capacity_gb, 960);
/// assert_eq!(spec.random_read_iops, 160_000);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SsdSpec {
    /// Marketing capacity in gigabytes.
    pub capacity_gb: u64,
    /// Host interface description (informational).
    pub interface: String,
    /// Rated 4 KiB random-read IOPS.
    pub random_read_iops: u64,
    /// Rated 4 KiB random-write IOPS.
    pub random_write_iops: u64,
    /// Rated sequential-read bandwidth, MB/s.
    pub seq_read_mbps: u64,
    /// Rated sequential-write bandwidth, MB/s.
    pub seq_write_mbps: u64,
    /// NAND type description (informational).
    pub nand_type: String,
    /// Flash array geometry.
    pub geometry: FlashGeometry,
    /// Internal timing model.
    pub timing: SsdTiming,
    /// Percentage of raw flash exposed as logical capacity; the rest
    /// is over-provisioning for the FTL.
    pub logical_share_percent: u32,
}

/// Which device class backs each SSD in the array.
///
/// The profile is an explicit experiment axis: the paper's evaluation
/// runs one Table-I device, but the `ull-crossover` sweep asks where
/// each tuning stage stops mattering as the device gets faster (a
/// question the paper leaves to its §VI future work), which needs a
/// second, much faster class to sweep against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeviceProfile {
    /// The paper's Table I 25 µs M.2 NVMe device.
    #[default]
    Table1,
    /// A ~9 µs Z-NAND/Optane-class ultra-low-latency device with a
    /// queue-depth-dependent service curve and per-CPU SQ/CQ pairs.
    UltraLowLatency,
}

impl DeviceProfile {
    /// The full data-sheet spec for this class.
    pub fn spec(self) -> SsdSpec {
        match self {
            DeviceProfile::Table1 => SsdSpec::table1(),
            DeviceProfile::UltraLowLatency => SsdSpec::ull(),
        }
    }

    /// The internal timing model for this class (cheap: no allocation).
    pub fn timing(self) -> SsdTiming {
        match self {
            DeviceProfile::Table1 => SsdTiming::table1(),
            DeviceProfile::UltraLowLatency => SsdTiming::ull(),
        }
    }

    /// Short label for tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            DeviceProfile::Table1 => "table1",
            DeviceProfile::UltraLowLatency => "ull",
        }
    }

    /// Whether the host driver models per-CPU NVMe SQ/CQ pairs for
    /// this class (modern multi-queue drivers) instead of the single
    /// shared-doorbell submission path the Table-I era used.
    pub fn per_cpu_queue_pairs(self) -> bool {
        matches!(self, DeviceProfile::UltraLowLatency)
    }

    /// Nominal unloaded 4 KiB read latency of this class.
    pub fn nominal_read_latency(self) -> SimDuration {
        self.timing().nominal_read_latency()
    }
}

impl SsdSpec {
    /// The paper's Table I device: a 960 GB M.2 NVMe SSD
    /// (NVMe 1.2, PCIe 3.0 x4, 160 K/30 K IOPS, 1700/750 MB/s,
    /// 3D MLC NAND).
    pub fn table1() -> Self {
        SsdSpec {
            capacity_gb: 960,
            interface: "NVMe 1.2 - PCIe 3.0 x4".to_owned(),
            random_read_iops: 160_000,
            random_write_iops: 30_000,
            seq_read_mbps: 1_700,
            seq_write_mbps: 750,
            nand_type: "3D MLC NAND".to_owned(),
            geometry: FlashGeometry::m2_960gb(),
            timing: SsdTiming::table1(),
            logical_share_percent: 93,
        }
    }

    /// An ultra-low-latency Z-NAND/Optane-class device (the "Faster
    /// than Flash" study's ~10 µs class): same array geometry, much
    /// faster media and firmware, and a queue-depth-dependent service
    /// curve because the fast media exposes little internal
    /// parallelism to hide queueing behind.
    pub fn ull() -> Self {
        SsdSpec {
            capacity_gb: 960,
            interface: "NVMe 1.3 - PCIe 3.0 x4".to_owned(),
            random_read_iops: 550_000,
            random_write_iops: 200_000,
            seq_read_mbps: 2_200,
            seq_write_mbps: 2_000,
            nand_type: "Z-NAND (SLC-mode ULL)".to_owned(),
            geometry: FlashGeometry::m2_960gb(),
            timing: SsdTiming::ull(),
            logical_share_percent: 93,
        }
    }

    /// A small device (same timing, tiny capacity) for tests and for
    /// the garbage-collection ablation, where the FTL must fill up
    /// quickly.
    pub fn scaled_down(capacity_mb: u64) -> Self {
        let mut spec = Self::table1();
        spec.capacity_gb = capacity_mb.div_euclid(1024).max(1);
        spec.geometry = FlashGeometry::scaled(capacity_mb);
        // A scaled device has very few blocks per die, so the
        // full-size 7 % over-provisioning would amount to less than
        // the GC watermark; give it proportionally more.
        spec.logical_share_percent = 75;
        spec
    }

    /// Number of 4 KiB logical pages exposed to the host.
    pub fn logical_pages(&self) -> u64 {
        // The remainder of the raw flash is over-provisioning,
        // matching commodity enterprise drives (7 % on the Table I
        // device).
        self.geometry.total_pages() * self.geometry.page_kib / 4 * self.logical_share_percent as u64
            / 100
    }
}

/// Internal timing parameters of the SSD model.
///
/// These are the calibration constants that make the model meet the
/// Table I data-sheet figures; see `DESIGN.md` §4 for the derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsdTiming {
    /// Firmware command-intake overhead (fetch + decode + map lookup).
    pub fw_in: SimDuration,
    /// Firmware completion-path overhead (CQ entry + doorbell).
    pub fw_out: SimDuration,
    /// Minimum gap between *read* command admissions — the controller
    /// pipeline rate that pins rated random-read IOPS (1/160 K ≈
    /// 6.25 µs for the Table I device).
    pub read_cmd_gap: SimDuration,
    /// Minimum gap between *write* command admissions (1/30 K ≈
    /// 33.3 µs sustained for Table I).
    pub write_cmd_gap: SimDuration,
    /// NAND array read time (tR) for one 4 KiB read unit.
    pub flash_read: SimDuration,
    /// NAND program time (tProg) for one full page.
    pub flash_program: SimDuration,
    /// NAND block erase time (tBERS).
    pub flash_erase: SimDuration,
    /// Channel bus transfer time per 4 KiB.
    pub channel_xfer_4k: SimDuration,
    /// Controller DMA read bandwidth in MB/s (pins sequential reads).
    pub dma_read_mbps: u64,
    /// Controller DMA write bandwidth in MB/s (pins sequential writes).
    pub dma_write_mbps: u64,
    /// Write-buffer (DRAM) insert latency for a buffered write.
    pub buffer_insert: SimDuration,
    /// Write-buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Probability (per read) of an ECC read-retry.
    pub read_retry_prob_ppm: u32,
    /// Extra latency range for a read-retry, min..max.
    pub read_retry_min: SimDuration,
    /// See [`SsdTiming::read_retry_min`].
    pub read_retry_max: SimDuration,
    /// Admin command service time (Identify / GetLogPage).
    pub admin_service: SimDuration,
    /// NVMe Format execution time.
    pub format_time: SimDuration,
    /// Extra read service per already-outstanding read — the
    /// queue-depth-dependent service curve of ULL media ("Multi-Queue
    /// SSD I/O Modeling"). Zero for the Table I device, whose deep
    /// internal parallelism hides this slope entirely.
    pub qd_service_slope: SimDuration,
}

impl SsdTiming {
    /// Timing calibrated to the Table I data sheet:
    ///
    /// * QD1 4 KiB read ≈ `fw_in + flash_read + channel_xfer + dma +
    ///   fw_out` ≈ 25 µs (§IV-A: "designed to deliver 25 µs"),
    /// * saturated random read = 1 / `read_cmd_gap` = 160 K IOPS,
    /// * sequential read = `dma_read_mbps` = 1.7 GB/s,
    /// * sequential write = `dma_write_mbps` = 750 MB/s,
    /// * sustained random write = 1 / `write_cmd_gap` = 30 K IOPS.
    pub fn table1() -> Self {
        SsdTiming {
            fw_in: SimDuration::nanos(2_500),
            fw_out: SimDuration::nanos(1_500),
            read_cmd_gap: SimDuration::nanos(6_250),
            write_cmd_gap: SimDuration::nanos(33_333),
            flash_read: SimDuration::nanos(14_000),
            flash_program: SimDuration::micros(660),
            flash_erase: SimDuration::millis(3),
            channel_xfer_4k: SimDuration::nanos(4_700),
            dma_read_mbps: 1_780,
            dma_write_mbps: 770,
            buffer_insert: SimDuration::micros(8),
            buffer_bytes: 256 * 1024 * 1024,
            read_retry_prob_ppm: 2,
            read_retry_min: SimDuration::micros(20),
            read_retry_max: SimDuration::micros(60),
            admin_service: SimDuration::micros(80),
            format_time: SimDuration::millis(500),
            qd_service_slope: SimDuration::ZERO,
        }
    }

    /// Timing for the ULL class: every pipeline stage shrinks (Z-NAND
    /// tR ≈ 3 µs against 3D MLC's 14 µs, leaner firmware, faster
    /// channel), giving a nominal QD1 read of ≈ 9 µs, and a non-zero
    /// [`SsdTiming::qd_service_slope`] stands in for the media's lack
    /// of queueing headroom.
    pub fn ull() -> Self {
        SsdTiming {
            fw_in: SimDuration::nanos(1_500),
            fw_out: SimDuration::nanos(1_000),
            read_cmd_gap: SimDuration::nanos(1_800),
            write_cmd_gap: SimDuration::nanos(5_000),
            flash_read: SimDuration::nanos(3_000),
            flash_program: SimDuration::micros(100),
            flash_erase: SimDuration::millis(1),
            channel_xfer_4k: SimDuration::nanos(1_500),
            dma_read_mbps: 2_200,
            dma_write_mbps: 2_000,
            buffer_insert: SimDuration::micros(2),
            buffer_bytes: 256 * 1024 * 1024,
            read_retry_prob_ppm: 1,
            read_retry_min: SimDuration::micros(10),
            read_retry_max: SimDuration::micros(30),
            admin_service: SimDuration::micros(80),
            format_time: SimDuration::millis(500),
            qd_service_slope: SimDuration::nanos(600),
        }
    }

    /// Nominal unloaded 4 KiB read latency implied by the pipeline —
    /// the "~25 µs" figure quoted in §IV-A.
    pub fn nominal_read_latency(&self) -> SimDuration {
        let dma = SimDuration::from_secs_f64(4096.0 / (self.dma_read_mbps as f64 * 1e6));
        self.fw_in + self.flash_read + self.channel_xfer_4k + dma + self.fw_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let s = SsdSpec::table1();
        assert_eq!(s.capacity_gb, 960);
        assert_eq!(s.random_read_iops, 160_000);
        assert_eq!(s.random_write_iops, 30_000);
        assert_eq!(s.seq_read_mbps, 1_700);
        assert_eq!(s.seq_write_mbps, 750);
        assert!(s.interface.contains("PCIe 3.0 x4"));
        assert!(s.nand_type.contains("MLC"));
    }

    #[test]
    fn nominal_read_latency_is_about_25us() {
        let t = SsdTiming::table1();
        let us = t.nominal_read_latency().as_micros_f64();
        assert!((24.0..27.0).contains(&us), "nominal latency {us} us");
    }

    #[test]
    fn cmd_gaps_match_rated_iops() {
        let t = SsdTiming::table1();
        let read_iops = 1e9 / t.read_cmd_gap.as_nanos() as f64;
        assert!((read_iops - 160_000.0).abs() < 1_000.0, "{read_iops}");
        let write_iops = 1e9 / t.write_cmd_gap.as_nanos() as f64;
        assert!((write_iops - 30_000.0).abs() < 500.0, "{write_iops}");
    }

    #[test]
    fn logical_capacity_close_to_marketing() {
        let s = SsdSpec::table1();
        let logical_gb = s.logical_pages() * 4096 / 1_000_000_000;
        assert!(
            (900..=1000).contains(&logical_gb),
            "logical capacity {logical_gb} GB"
        );
    }

    #[test]
    fn scaled_down_has_small_geometry() {
        let s = SsdSpec::scaled_down(64);
        assert!(s.geometry.total_pages() < SsdSpec::table1().geometry.total_pages());
        assert_eq!(s.timing, SsdSpec::table1().timing);
    }

    #[test]
    fn ull_nominal_read_latency_is_about_9us() {
        let us = SsdTiming::ull().nominal_read_latency().as_micros_f64();
        assert!((8.0..12.0).contains(&us), "ULL nominal latency {us} us");
    }

    #[test]
    fn profiles_resolve_to_their_specs() {
        assert_eq!(DeviceProfile::default(), DeviceProfile::Table1);
        assert_eq!(DeviceProfile::Table1.spec(), SsdSpec::table1());
        assert_eq!(DeviceProfile::UltraLowLatency.spec(), SsdSpec::ull());
        assert_eq!(DeviceProfile::Table1.timing(), SsdTiming::table1());
        assert_eq!(DeviceProfile::UltraLowLatency.timing(), SsdTiming::ull());
        assert_eq!(DeviceProfile::Table1.label(), "table1");
        assert_eq!(DeviceProfile::UltraLowLatency.label(), "ull");
        assert!(!DeviceProfile::Table1.per_cpu_queue_pairs());
        assert!(DeviceProfile::UltraLowLatency.per_cpu_queue_pairs());
    }

    #[test]
    fn table1_has_no_qd_slope_and_ull_does() {
        assert!(SsdTiming::table1().qd_service_slope.is_zero());
        assert!(!SsdTiming::ull().qd_service_slope.is_zero());
    }
}
