//! Point-to-point PCIe link model.

use afa_sim::{SimDuration, SimTime};

/// PCIe signaling generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PcieGeneration {
    /// 2.5 GT/s, 8b/10b encoding.
    Gen1,
    /// 5.0 GT/s, 8b/10b encoding.
    Gen2,
    /// 8.0 GT/s, 128b/130b encoding — the paper's fabric.
    Gen3,
    /// 16.0 GT/s, 128b/130b encoding.
    Gen4,
}

impl PcieGeneration {
    /// Raw signaling rate in gigatransfers per second.
    pub fn gigatransfers(self) -> f64 {
        match self {
            PcieGeneration::Gen1 => 2.5,
            PcieGeneration::Gen2 => 5.0,
            PcieGeneration::Gen3 => 8.0,
            PcieGeneration::Gen4 => 16.0,
        }
    }

    /// Line-encoding efficiency.
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            PcieGeneration::Gen1 | PcieGeneration::Gen2 => 8.0 / 10.0,
            PcieGeneration::Gen3 | PcieGeneration::Gen4 => 128.0 / 130.0,
        }
    }

    /// Usable payload bandwidth per lane in bytes/second (after line
    /// encoding; TLP framing overhead is folded into hop latency).
    pub fn bytes_per_sec_per_lane(self) -> f64 {
        self.gigatransfers() * 1e9 * self.encoding_efficiency() / 8.0
    }
}

/// Width and speed of one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Signaling generation.
    pub gen: PcieGeneration,
    /// Lane count (x1, x4, x16, …).
    pub lanes: u32,
}

impl LinkSpec {
    /// A Gen3 x4 link — each NVMe SSD's interface (Table I).
    pub fn gen3_x4() -> Self {
        LinkSpec {
            gen: PcieGeneration::Gen3,
            lanes: 4,
        }
    }

    /// A Gen3 x8 link — the leaf→spine inter-switch links (sized so
    /// the two-level tree fits the 96-lane ASICs of Fig. 2).
    pub fn gen3_x8() -> Self {
        LinkSpec {
            gen: PcieGeneration::Gen3,
            lanes: 8,
        }
    }

    /// A Gen3 x16 link — the host uplinks ("capable of delivering
    /// 16 GB/s raw throughput", §III-A).
    pub fn gen3_x16() -> Self {
        LinkSpec {
            gen: PcieGeneration::Gen3,
            lanes: 16,
        }
    }

    /// Usable bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.gen.bytes_per_sec_per_lane() * self.lanes as f64
    }

    /// Serialization time for a payload of `bytes`.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec())
    }
}

/// One directed link with occupancy and accounting.
///
/// # Example
///
/// ```
/// use afa_pcie::{Link, LinkSpec};
/// use afa_sim::{SimDuration, SimTime};
///
/// let mut link = Link::new(LinkSpec::gen3_x4(), SimDuration::nanos(100));
/// let arrival = link.reserve(SimTime::ZERO, 4096);
/// // ~1.04 us serialization + 100 ns propagation.
/// assert!(arrival.as_micros_f64() > 1.0 && arrival.as_micros_f64() < 1.3);
/// ```
#[derive(Clone, Debug)]
pub struct Link {
    spec: LinkSpec,
    propagation: SimDuration,
    free_at: SimTime,
    bytes_carried: u64,
    transfers: u64,
    /// The last `(bytes, spec.serialization(bytes))` pair
    /// [`reserve`](Self::reserve) computed: a link carries one or two
    /// payload sizes, so this skips the float conversion and rounding
    /// on almost every transfer.
    last_serialization: (u64, SimDuration),
}

impl Link {
    /// Creates an idle link.
    pub fn new(spec: LinkSpec, propagation: SimDuration) -> Self {
        Link {
            spec,
            propagation,
            free_at: SimTime::ZERO,
            bytes_carried: 0,
            transfers: 0,
            last_serialization: (0, spec.serialization(0)),
        }
    }

    /// The link's width/speed.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Reserves the link for a transfer of `bytes` starting no earlier
    /// than `now`; returns the arrival time at the far end.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.spec.serialization(bytes));
        }
        let ser = self.last_serialization.1;
        self.free_at = start + ser;
        self.bytes_carried += bytes;
        self.transfers += 1;
        self.free_at + self.propagation
    }

    /// Total payload bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total transfers carried.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// When the link next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_lane_bandwidth_is_about_985_mbps() {
        let bps = PcieGeneration::Gen3.bytes_per_sec_per_lane();
        assert!((bps / 1e6 - 984.6).abs() < 1.0, "{bps}");
    }

    #[test]
    fn x16_uplink_is_about_16_gbps() {
        let bps = LinkSpec::gen3_x16().bytes_per_sec();
        assert!((15.5e9..16.1e9).contains(&bps), "{bps}");
    }

    #[test]
    fn x4_serializes_4k_in_about_a_microsecond() {
        let ser = LinkSpec::gen3_x4().serialization(4096);
        let us = ser.as_micros_f64();
        assert!((0.9..1.2).contains(&us), "{us}");
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut link = Link::new(LinkSpec::gen3_x4(), SimDuration::ZERO);
        let first = link.reserve(SimTime::ZERO, 4096);
        let second = link.reserve(SimTime::ZERO, 4096);
        assert!(second > first);
        let delta = (second - first).as_micros_f64();
        let ser = LinkSpec::gen3_x4().serialization(4096).as_micros_f64();
        assert!((delta - ser).abs() < 1e-6, "delta {delta} vs ser {ser}");
    }

    #[test]
    fn accounting_tracks_bytes_and_transfers() {
        let mut link = Link::new(LinkSpec::gen3_x16(), SimDuration::nanos(50));
        link.reserve(SimTime::ZERO, 100);
        link.reserve(SimTime::ZERO, 200);
        assert_eq!(link.bytes_carried(), 300);
        assert_eq!(link.transfers(), 2);
    }

    #[test]
    fn generations_are_ordered_by_speed() {
        let gens = [
            PcieGeneration::Gen1,
            PcieGeneration::Gen2,
            PcieGeneration::Gen3,
            PcieGeneration::Gen4,
        ];
        for w in gens.windows(2) {
            assert!(w[0].bytes_per_sec_per_lane() < w[1].bytes_per_sec_per_lane());
        }
    }

    #[test]
    fn zero_byte_transfer_costs_only_propagation() {
        let mut link = Link::new(LinkSpec::gen3_x4(), SimDuration::nanos(100));
        let arrival = link.reserve(SimTime::ZERO, 0);
        assert_eq!(arrival.as_nanos(), 100);
    }
}
