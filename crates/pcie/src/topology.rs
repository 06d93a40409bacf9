//! The two-level switch fabric of the paper's enclosure.
//!
//! Fig. 2 of the paper: seven 96-lane/24-port Gen3 switches in a
//! two-level tree. We model three *spine* switches (each owning one
//! x16 host uplink) and four *leaf* switches that carry the 61 device
//! slots; every leaf has one x16 link to each spine. Each slot (an M.2
//! carrier card with four NVMe SSDs, Fig. 3) is statically assigned to
//! one uplink, matching the enclosure's static partitioning.
//!
//! The single-host experiments (§III-A) use one third of the array:
//! up to 64 SSDs behind uplink 0.

use afa_sim::{SimDuration, SimTime};

use crate::link::{Link, LinkSpec};

/// Number of spine switches (= host uplinks).
pub const SPINES: usize = 3;
/// Number of leaf switches carrying device slots.
pub const LEAVES: usize = 4;
/// Device slots in the enclosure.
pub const SLOTS: usize = 61;
/// M.2 SSDs per carrier-card slot.
pub const SSDS_PER_SLOT: usize = 4;

/// Where one SSD lives in the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Carrier-card slot index (0..61).
    pub slot: u16,
    /// Leaf switch carrying the slot.
    pub leaf: u8,
    /// Spine switch / host uplink the slot is statically assigned to.
    pub spine: u8,
}

/// Aggregate fabric accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Payload bytes that crossed the host uplink(s) upstream.
    pub uplink_bytes: u64,
    /// Payload bytes that left the devices upstream.
    pub device_bytes: u64,
    /// Completion interrupts (MSI-X messages) delivered.
    pub interrupts: u64,
    /// Commands fetched by devices.
    pub commands: u64,
}

/// A validated-but-unbooked claim on the shared upstream legs for a
/// polled completion, produced by
/// [`PcieFabric::preview_completion_shared_legs`] and booked by
/// [`PcieFabric::commit_completion_shared_legs`]. The busy windows are
/// exact — the preview only succeeds when both links are idle at the
/// arrival instants — so any later real reservation that overlaps them
/// invalidates the reservation (the fusion path then de-fuses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedLegReservation {
    /// The completing device.
    pub device: usize,
    /// Bytes on the wire (data + CQE; a polled completion carries no
    /// MSI).
    pub payload: u64,
    /// Index into the leaf→spine link array (`leaf * SPINES + spine`).
    pub leaf: usize,
    /// Spine switch / host uplink index.
    pub spine: usize,
    /// When the payload starts serializing on the leaf→spine link.
    pub leaf_start: SimTime,
    /// When the leaf→spine link goes idle again.
    pub leaf_busy_end: SimTime,
    /// When the payload starts serializing on the spine→host uplink.
    pub up_start: SimTime,
    /// When the uplink goes idle again.
    pub up_busy_end: SimTime,
    /// When the CQE DMA write lands at the host.
    pub at_host: SimTime,
}

/// The switch fabric connecting one or more hosts to the SSDs.
///
/// Links are directional resources: the downstream direction carries
/// doorbells/command fetches (tiny), the upstream direction carries
/// read data, completion entries and MSI-X interrupt messages.
#[derive(Clone, Debug)]
pub struct PcieFabric {
    /// Per-device x4 links, up and down.
    device_up: Vec<Link>,
    device_down: Vec<Link>,
    /// leaf→spine x16 upstream links, indexed `leaf * SPINES + spine`.
    leaf_up: Vec<Link>,
    /// spine→leaf x16 downstream links, same indexing.
    leaf_down: Vec<Link>,
    /// spine→host x16 uplinks (upstream) and host→spine (downstream).
    uplink_up: Vec<Link>,
    uplink_down: Vec<Link>,
    assignments: Vec<SlotAssignment>,
    hop_latency: SimDuration,
    msi_latency: SimDuration,
    stats: FabricStats,
}

/// Bytes of a submission-queue entry fetch (SQE + doorbell overhead).
const COMMAND_BYTES: u64 = 64;
/// Bytes of a completion-queue entry.
const CQE_BYTES: u64 = 16;
/// Bytes of an MSI-X message write.
const MSI_BYTES: u64 = 4;

impl PcieFabric {
    /// Builds the full three-host enclosure with `ssds` devices spread
    /// round-robin over the slots assigned to uplink 0 first.
    ///
    /// # Panics
    ///
    /// Panics if `ssds` exceeds the enclosure capacity
    /// (61 slots × 4 = 244).
    pub fn paper_enclosure(ssds: usize) -> Self {
        assert!(
            ssds <= SLOTS * SSDS_PER_SLOT,
            "enclosure capacity is 244 SSDs"
        );
        // Static slot → (leaf, spine) assignment: slots distributed
        // round-robin over leaves; each host owns ~1/3 of the slots.
        let per_host = SLOTS.div_ceil(SPINES); // 21, 20, 20
        let mut assignments = Vec::with_capacity(ssds);
        for ssd in 0..ssds {
            let slot = ssd / SSDS_PER_SLOT;
            let spine = (slot / per_host).min(SPINES - 1) as u8;
            let leaf = (slot % LEAVES) as u8;
            assignments.push(SlotAssignment {
                slot: slot as u16,
                leaf,
                spine,
            });
        }
        let prop = SimDuration::nanos(50);
        let mk = |spec: LinkSpec, n: usize| -> Vec<Link> {
            (0..n).map(|_| Link::new(spec, prop)).collect()
        };
        PcieFabric {
            device_up: mk(LinkSpec::gen3_x4(), ssds),
            device_down: mk(LinkSpec::gen3_x4(), ssds),
            // x8 per (leaf, spine) pair: the widest links that keep a
            // 96-lane leaf ASIC within budget (16 slots × x4 + 3 × x8).
            leaf_up: mk(LinkSpec::gen3_x8(), LEAVES * SPINES),
            leaf_down: mk(LinkSpec::gen3_x8(), LEAVES * SPINES),
            uplink_up: mk(LinkSpec::gen3_x16(), SPINES),
            uplink_down: mk(LinkSpec::gen3_x16(), SPINES),
            assignments,
            // Per-switch store-and-forward + TLP framing overhead.
            hop_latency: SimDuration::nanos(600),
            // MSI-X write-to-interrupt-vector delivery at the host.
            msi_latency: SimDuration::nanos(300),
            stats: FabricStats::default(),
        }
    }

    /// Builds the single-host view the paper's experiments use: up to
    /// 64 SSDs, all statically assigned to uplink 0 (§III-A, Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `ssds > 64` (the host BIOS's enumeration limit in the
    /// paper).
    pub fn paper_single_host(ssds: usize) -> Self {
        assert!(ssds <= 64, "single-host setup is limited to 64 SSDs");
        let mut fabric = Self::paper_enclosure(ssds);
        for a in &mut fabric.assignments {
            a.spine = 0;
        }
        fabric
    }

    /// Number of SSDs attached.
    pub fn devices(&self) -> usize {
        self.assignments.len()
    }

    /// The slot assignment of a device.
    pub fn assignment(&self, device: usize) -> SlotAssignment {
        self.assignments[device]
    }

    /// Aggregate accounting.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    fn leaf_index(&self, a: SlotAssignment) -> usize {
        a.leaf as usize * SPINES + a.spine as usize
    }

    /// Carries a command submission (doorbell + SQE fetch) from the
    /// host to `device`, returning when the device sees the command.
    pub fn submit_command(&mut self, device: usize, now: SimTime) -> SimTime {
        let at_entry = self.submit_command_shared_legs(device, now);
        self.submit_command_device_leg(device, at_entry)
    }

    /// The shared first legs of a submission: reserves the host→spine
    /// and spine→leaf links from the doorbell instant and returns
    /// when the command reaches the leaf egress (device-link
    /// ingress). The I/O path calls this on its hub LP — the shared
    /// FIFOs must be reserved in global submit order; the 64 B
    /// commands barely load the links, but the FIFO ordering itself
    /// phase-couples the submitting threads, and that coupling is
    /// what lets completion convoys form on the upstream legs (the
    /// paper's shared-fabric contention). The timestamp is then
    /// handed to the device's owner for
    /// [`submit_command_device_leg`](Self::submit_command_device_leg).
    pub fn submit_command_shared_legs(&mut self, device: usize, now: SimTime) -> SimTime {
        let a = self.assignments[device];
        let li = self.leaf_index(a);
        self.stats.commands += 1;
        // host → spine → leaf → device, one hop delay per switch.
        let t = self.uplink_down[a.spine as usize].reserve(now, COMMAND_BYTES);
        let t = self.leaf_down[li].reserve(t + self.hop_latency, COMMAND_BYTES);
        t + self.hop_latency
    }

    /// The device-private last leg of a submission: reserves the
    /// device's x4 downstream link from the leaf-egress timestamp and
    /// returns when the device sees the command. Composing the two
    /// legs is timing-identical to
    /// [`submit_command`](Self::submit_command).
    pub fn submit_command_device_leg(&mut self, device: usize, at_entry: SimTime) -> SimTime {
        self.device_down[device].reserve(at_entry, COMMAND_BYTES)
    }

    /// Carries read data (`bytes`), the CQE and the MSI-X interrupt
    /// from `device` to the host, returning when the interrupt fires
    /// at the host.
    pub fn deliver_completion(&mut self, device: usize, now: SimTime, bytes: u64) -> SimTime {
        let t_leaf = self.deliver_completion_device_leg(device, now, bytes);
        self.deliver_completion_shared_legs(device, t_leaf, bytes)
    }

    /// The device-private first leg of a completion: reserves the
    /// device's x4 upstream link and returns when the payload reaches
    /// the leaf switch ingress. The I/O path calls this on the LP
    /// that owns `device`, then hands the timestamp to the hub LP for
    /// [`deliver_completion_shared_legs`](Self::deliver_completion_shared_legs).
    pub fn deliver_completion_device_leg(
        &mut self,
        device: usize,
        now: SimTime,
        bytes: u64,
    ) -> SimTime {
        self.completion_device_leg(device, now, bytes, false)
    }

    /// [`deliver_completion_device_leg`](Self::deliver_completion_device_leg)
    /// for a *polled* completion: the host discovers the CQE by
    /// reading the queue, so no MSI-X message rides the link and no
    /// interrupt is accounted.
    pub fn poll_completion_device_leg(
        &mut self,
        device: usize,
        now: SimTime,
        bytes: u64,
    ) -> SimTime {
        self.completion_device_leg(device, now, bytes, true)
    }

    fn completion_device_leg(
        &mut self,
        device: usize,
        now: SimTime,
        bytes: u64,
        polled: bool,
    ) -> SimTime {
        let payload = bytes + CQE_BYTES + if polled { 0 } else { MSI_BYTES };
        self.stats.device_bytes += payload;
        let t = self.device_up[device].reserve(now, payload);
        t + self.hop_latency
    }

    /// The shared second leg of a completion: reserves the leaf→spine
    /// and spine→host links starting from the leaf-ingress timestamp
    /// produced by [`deliver_completion_device_leg`](Self::deliver_completion_device_leg)
    /// and returns when the MSI-X interrupt fires at the host.
    /// Composing the two legs is timing-identical to
    /// [`deliver_completion`](Self::deliver_completion).
    pub fn deliver_completion_shared_legs(
        &mut self,
        device: usize,
        t_leaf: SimTime,
        bytes: u64,
    ) -> SimTime {
        self.completion_shared_legs(device, t_leaf, bytes, false)
    }

    /// [`deliver_completion_shared_legs`](Self::deliver_completion_shared_legs)
    /// for a *polled* completion: no MSI-X payload on the links, no
    /// interrupt counted, and the returned instant is when the CQE DMA
    /// write lands in host memory (no vector-delivery latency).
    pub fn poll_completion_shared_legs(
        &mut self,
        device: usize,
        t_leaf: SimTime,
        bytes: u64,
    ) -> SimTime {
        self.completion_shared_legs(device, t_leaf, bytes, true)
    }

    fn completion_shared_legs(
        &mut self,
        device: usize,
        t_leaf: SimTime,
        bytes: u64,
        polled: bool,
    ) -> SimTime {
        let a = self.assignments[device];
        let li = self.leaf_index(a);
        let payload = bytes + CQE_BYTES + if polled { 0 } else { MSI_BYTES };
        self.stats.uplink_bytes += payload;
        let t = self.leaf_up[li].reserve(t_leaf, payload);
        let t = self.uplink_up[a.spine as usize].reserve(t + self.hop_latency, payload);
        if polled {
            t
        } else {
            self.stats.interrupts += 1;
            t + self.msi_latency
        }
    }

    /// Previews the shared legs of a *polled* completion **without
    /// mutating** the fabric: the speculative half of the fusion fast
    /// path, which [`poll_completion_shared_legs`](Self::poll_completion_shared_legs)
    /// would reserve for real. Returns `None` unless both shared links
    /// are idle at the instants the payload would reach them — i.e.
    /// the chain would experience *zero* queueing — because only then
    /// is the precomputed timeline guaranteed exact until someone else
    /// claims a leg inside the reserved windows. On success the
    /// returned reservation carries both busy windows and the
    /// host-arrival instant;
    /// [`commit_completion_shared_legs`](Self::commit_completion_shared_legs)
    /// later books it, and the windows let the caller detect
    /// conflicting claims in between.
    pub fn preview_completion_shared_legs(
        &self,
        device: usize,
        t_leaf: SimTime,
        bytes: u64,
    ) -> Option<SharedLegReservation> {
        let a = self.assignments[device];
        let li = self.leaf_index(a);
        let payload = bytes + CQE_BYTES;
        let leaf = &self.leaf_up[li];
        if leaf.free_at() > t_leaf {
            return None;
        }
        let leaf_busy_end = t_leaf + leaf.spec().serialization(payload);
        let up_start = leaf_busy_end + leaf.propagation() + self.hop_latency;
        let up = &self.uplink_up[a.spine as usize];
        if up.free_at() > up_start {
            return None;
        }
        let up_busy_end = up_start + up.spec().serialization(payload);
        Some(SharedLegReservation {
            device,
            payload,
            leaf: li,
            spine: a.spine as usize,
            leaf_start: t_leaf,
            leaf_busy_end,
            up_start,
            up_busy_end,
            at_host: up_busy_end + up.propagation(),
        })
    }

    /// Books a previously previewed reservation: ratchets both shared
    /// links' `free_at` over the validated busy windows and applies
    /// exactly the accounting [`poll_completion_shared_legs`](Self::poll_completion_shared_legs)
    /// would have. Commit order may differ from window order — the
    /// caller guarantees the windows were conflict-free, and
    /// [`Link::commit`] is a max-ratchet, so the end state is
    /// identical to in-order reserves.
    pub fn commit_completion_shared_legs(&mut self, r: &SharedLegReservation) {
        self.stats.uplink_bytes += r.payload;
        self.leaf_up[r.leaf].commit(r.leaf_busy_end, r.payload);
        self.uplink_up[r.spine].commit(r.up_busy_end, r.payload);
    }

    /// Current `free_at` of the shared upstream pair `(leaf index,
    /// spine)` — the conflict probe the fusion path runs after a real
    /// claim to find pending reservations it just invalidated.
    pub fn shared_leg_free_at(&self, leaf: usize, spine: usize) -> (SimTime, SimTime) {
        (
            self.leaf_up[leaf].free_at(),
            self.uplink_up[spine].free_at(),
        )
    }

    /// Per-switch store-and-forward latency — the minimum gap any
    /// upstream leg adds, used to derive LP lookahead bounds.
    pub fn hop_latency(&self) -> SimDuration {
        self.hop_latency
    }

    /// MSI-X write-to-vector delivery latency at the host.
    pub fn msi_latency(&self) -> SimDuration {
        self.msi_latency
    }

    /// Unloaded round-trip fabric latency for a 4 KiB read, for
    /// calibration display (the paper's ~5 µs delta).
    pub fn nominal_round_trip_4k(&self) -> SimDuration {
        let down = LinkSpec::gen3_x16().serialization(COMMAND_BYTES)
            + LinkSpec::gen3_x8().serialization(COMMAND_BYTES)
            + LinkSpec::gen3_x4().serialization(COMMAND_BYTES)
            + self.hop_latency * 2
            + SimDuration::nanos(150); // 3 propagations
        let payload = 4096 + CQE_BYTES + MSI_BYTES;
        let up = LinkSpec::gen3_x4().serialization(payload)
            + LinkSpec::gen3_x8().serialization(payload)
            + LinkSpec::gen3_x16().serialization(payload)
            + self.hop_latency * 2
            + SimDuration::nanos(150)
            + self.msi_latency;
        down + up
    }

    /// Bytes carried upstream by each host uplink (for saturation
    /// tests).
    pub fn uplink_bytes_by_host(&self) -> [u64; SPINES] {
        let mut out = [0u64; SPINES];
        for (i, link) in self.uplink_up.iter().enumerate() {
            out[i] = link.bytes_carried();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclosure_rejects_overflow() {
        let f = PcieFabric::paper_enclosure(244);
        assert_eq!(f.devices(), 244);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn enclosure_overflow_panics() {
        let _ = PcieFabric::paper_enclosure(245);
    }

    #[test]
    #[should_panic(expected = "64 SSDs")]
    fn single_host_limit_panics() {
        let _ = PcieFabric::paper_single_host(65);
    }

    #[test]
    fn single_host_assigns_everything_to_uplink_0() {
        let f = PcieFabric::paper_single_host(64);
        for d in 0..64 {
            assert_eq!(f.assignment(d).spine, 0);
        }
    }

    #[test]
    fn slots_pack_four_ssds() {
        let f = PcieFabric::paper_single_host(64);
        assert_eq!(f.assignment(0).slot, 0);
        assert_eq!(f.assignment(3).slot, 0);
        assert_eq!(f.assignment(4).slot, 1);
        assert_eq!(f.devices(), 64);
    }

    #[test]
    fn devices_spread_across_leaves() {
        let f = PcieFabric::paper_single_host(64);
        let mut leaves: Vec<u8> = (0..64).map(|d| f.assignment(d).leaf).collect();
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), LEAVES, "all leaves used");
    }

    #[test]
    fn enclosure_partitions_slots_across_hosts() {
        let f = PcieFabric::paper_enclosure(244);
        let mut per_host = [0usize; SPINES];
        for d in 0..244 {
            per_host[f.assignment(d).spine as usize] += 1;
        }
        for count in per_host {
            assert!(count >= 60, "host partition too small: {per_host:?}");
        }
    }

    #[test]
    fn round_trip_is_about_5_microseconds() {
        let mut f = PcieFabric::paper_single_host(64);
        let at_dev = f.submit_command(17, SimTime::ZERO);
        let at_host = f.deliver_completion(17, at_dev, 4096);
        let us = at_host.as_micros_f64();
        assert!((3.0..7.0).contains(&us), "round trip {us} us");
        let nominal = f.nominal_round_trip_4k().as_micros_f64();
        assert!(
            (nominal - us).abs() < 1.5,
            "nominal {nominal} vs measured {us}"
        );
    }

    #[test]
    fn byte_conservation_device_to_uplink() {
        let mut f = PcieFabric::paper_single_host(8);
        for d in 0..8 {
            let t = f.submit_command(d, SimTime::ZERO);
            f.deliver_completion(d, t, 4096);
        }
        let s = f.stats();
        assert_eq!(s.device_bytes, s.uplink_bytes, "bytes in == bytes out");
        assert_eq!(s.interrupts, 8);
        assert_eq!(s.commands, 8);
        assert_eq!(f.uplink_bytes_by_host()[0], s.uplink_bytes);
    }

    #[test]
    fn polled_completions_carry_no_msi_payload_or_interrupt() {
        let mut irq = PcieFabric::paper_single_host(8);
        let mut poll = PcieFabric::paper_single_host(8);
        for d in 0..8 {
            let t_leaf = irq.deliver_completion_device_leg(d, SimTime::ZERO, 4096);
            irq.deliver_completion_shared_legs(d, t_leaf, 4096);
            let p_leaf = poll.poll_completion_device_leg(d, SimTime::ZERO, 4096);
            poll.poll_completion_shared_legs(d, p_leaf, 4096);
        }
        let (i, p) = (irq.stats(), poll.stats());
        assert_eq!(i.interrupts, 8);
        assert_eq!(
            p.interrupts, 0,
            "a polled reap must not count as an interrupt"
        );
        assert_eq!(
            i.device_bytes - p.device_bytes,
            8 * MSI_BYTES,
            "the 4-byte MSI-X message must vanish from the device legs"
        );
        assert_eq!(
            i.uplink_bytes - p.uplink_bytes,
            8 * MSI_BYTES,
            "and from the shared uplink legs"
        );
        assert_eq!(p.device_bytes, p.uplink_bytes, "bytes in == bytes out");
    }

    #[test]
    fn polled_completion_lands_msi_latency_earlier_unloaded() {
        let mut irq = PcieFabric::paper_single_host(2);
        let mut poll = PcieFabric::paper_single_host(2);
        let a = irq.deliver_completion(0, SimTime::ZERO, 4096);
        let t_leaf = poll.poll_completion_device_leg(0, SimTime::ZERO, 4096);
        let b = poll.poll_completion_shared_legs(0, t_leaf, 4096);
        // Unloaded, the polled CQE lands earlier than the interrupt
        // fires: no vector delivery, and 4 fewer bytes per leg.
        assert!(b < a, "polled {b} should precede interrupt {a}");
        assert!(
            a.saturating_since(b) >= irq.msi_latency(),
            "gap {} below msi latency",
            a.saturating_since(b)
        );
    }

    #[test]
    fn preview_commit_matches_reserve_exactly() {
        let mut real = PcieFabric::paper_single_host(8);
        let mut fused = PcieFabric::paper_single_host(8);
        let t_leaf = SimTime::from_nanos(5_000);
        let r = fused
            .preview_completion_shared_legs(3, t_leaf, 4096)
            .expect("idle fabric previews");
        let at_host = real.poll_completion_shared_legs(3, t_leaf, 4096);
        assert_eq!(r.at_host, at_host, "preview must predict the real path");
        fused.commit_completion_shared_legs(&r);
        assert_eq!(real.stats(), fused.stats());
        assert_eq!(
            real.shared_leg_free_at(r.leaf, r.spine),
            fused.shared_leg_free_at(r.leaf, r.spine)
        );
        // The just-committed window makes the legs busy, so a second
        // preview at the same instant must decline.
        assert!(fused
            .preview_completion_shared_legs(3, t_leaf, 4096)
            .is_none());
    }

    #[test]
    fn uplink_contention_serializes() {
        let mut f = PcieFabric::paper_single_host(64);
        // Fire 64 completions at the same instant; the shared x16
        // uplink must serialize them.
        let mut arrivals: Vec<SimTime> = (0..64)
            .map(|d| f.deliver_completion(d, SimTime::ZERO, 4096))
            .collect();
        arrivals.sort_unstable();
        let first = arrivals[0].as_micros_f64();
        let last = arrivals[63].as_micros_f64();
        // 64 * 4KiB on a ~15.75 GB/s uplink ≈ 16.6 µs of serialization.
        assert!(
            last - first > 10.0,
            "uplink did not serialize: {first}..{last}"
        );
    }

    #[test]
    fn different_hosts_do_not_contend() {
        let mut f = PcieFabric::paper_enclosure(244);
        // Device 0 (host 0) and a device on host 2.
        let d2 = (0..244)
            .find(|&d| f.assignment(d).spine == 2)
            .expect("host-2 device");
        let a = f.deliver_completion(0, SimTime::ZERO, 4096);
        let b = f.deliver_completion(d2, SimTime::ZERO, 4096);
        // Same leaf-level path shape → near-identical unloaded latency.
        let delta = (a.as_micros_f64() - b.as_micros_f64()).abs();
        assert!(delta < 0.5, "cross-host interference {delta} us");
    }
}
