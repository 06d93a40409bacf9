//! Multi-host enclosure isolation (§III-A).
//!
//! The enclosure serves up to three host servers, with "a static set
//! of the PCIe devices ... dedicated to a particular host" through the
//! two-level switch fabric. The isolation claim is a *fabric*
//! property — the hosts are separate machines — so this experiment
//! drives the shared fabric from all three uplinks at once: host 0
//! runs the paper's latency-sensitive QD1 random reads while hosts 1
//! and 2 either idle or hammer their partitions with deep sequential
//! reads. Host 0's latency profile must not move.

use std::convert::Infallible;

use afa_pcie::PcieFabric;
use afa_sim::{ShardCtx, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::{FirmwareProfile, NvmeCommand, SsdDevice, SsdSpec};
use afa_stats::{Json, LatencyHistogram, LatencyProfile, NinesPoint};

use crate::experiment::registry::ExperimentResult;
use crate::experiment::ExperimentScale;

/// Devices per host in the experiment.
const DEVICES_PER_HOST: usize = 16;
/// Host-side turnaround between completion and next submit (fixed —
/// the hosts are independent machines, so their schedulers are out of
/// scope here).
const HOST_TURNAROUND: SimDuration = SimDuration::micros(5);

/// Result of the isolation check.
#[derive(Clone, Debug)]
pub struct MultiHostResult {
    /// Host 0's QD1 read profile with idle neighbors.
    pub quiet: LatencyProfile,
    /// Host 0's QD1 read profile with saturating neighbors.
    pub noisy: LatencyProfile,
    /// Aggregate neighbor throughput during the noisy run, GB/s.
    pub neighbor_gbps: f64,
}

impl MultiHostResult {
    /// Relative shift of host 0's p99.9 caused by the neighbors.
    pub fn p999_shift(&self) -> f64 {
        let quiet = self.quiet.get_micros(NinesPoint::Nines3);
        let noisy = self.noisy.get_micros(NinesPoint::Nines3);
        if quiet <= 0.0 {
            0.0
        } else {
            (noisy - quiet) / quiet
        }
    }
}

impl ExperimentResult for MultiHostResult {
    /// Renders the check.
    fn to_table(&self) -> String {
        let mut out =
            String::from("Multi-host isolation — host 0 QD1 reads vs. neighbor load (§III-A)\n");
        out.push_str(&format!(
            "{:<22} {:>10} {:>10} {:>10} {:>10}\n",
            "neighbors", "avg(us)", "p99(us)", "p99.9(us)", "max(us)"
        ));
        for (name, p) in [("idle", &self.quiet), ("saturating", &self.noisy)] {
            out.push_str(&format!(
                "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                name,
                p.get_micros(NinesPoint::Average),
                p.get_micros(NinesPoint::Nines2),
                p.get_micros(NinesPoint::Nines3),
                p.get_micros(NinesPoint::Max),
            ));
        }
        out.push_str(&format!(
            "neighbor load: {:.1} GB/s across hosts 1+2; host-0 p99.9 shift: {:+.1}%\n",
            self.neighbor_gbps,
            self.p999_shift() * 100.0
        ));
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("neighbors,avg_us,p99_us,p999_us,max_us\n");
        for (name, p) in [("idle", &self.quiet), ("saturating", &self.noisy)] {
            out.push_str(&format!(
                "{name},{:.3},{:.3},{:.3},{:.3}\n",
                p.get_micros(NinesPoint::Average),
                p.get_micros(NinesPoint::Nines2),
                p.get_micros(NinesPoint::Nines3),
                p.get_micros(NinesPoint::Max)
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("quiet", self.quiet.to_json()),
            ("noisy", self.noisy.to_json()),
            ("neighbor_gbps", Json::f64(self.neighbor_gbps)),
            ("p999_shift", Json::f64(self.p999_shift())),
        ])
    }

    fn samples(&self) -> u64 {
        self.quiet.samples() + self.noisy.samples()
    }
}

/// One I/O stream: a closed loop against one device through one host's
/// partition of the fabric.
struct Stream {
    device: usize,
    depth: usize,
    bytes: u32,
    sequential: bool,
    next_lba: u64,
    measured: bool,
}

enum MhEvent {
    Issue { stream: usize },
    DeviceDone { stream: usize, issued_at: SimTime },
    Complete { stream: usize, issued_at: SimTime },
}

type Ctx<'a> = ShardCtx<'a, MhEvent, Infallible>;

struct MhWorld {
    fabric: PcieFabric,
    devices: Vec<Option<SsdDevice>>,
    streams: Vec<Stream>,
    hist: LatencyHistogram,
    neighbor_bytes: u64,
    deadline: SimTime,
    rng: SimRng,
}

impl MhWorld {
    fn issue(&mut self, stream: usize, now: SimTime, ctx: &mut Ctx<'_>) {
        if now >= self.deadline {
            return;
        }
        let s = &mut self.streams[stream];
        let lba = if s.sequential {
            let lba = s.next_lba;
            s.next_lba = (s.next_lba + (s.bytes / 4096) as u64) % 4_000_000;
            lba
        } else {
            self.rng.below(4_000_000)
        };
        let device = s.device;
        let bytes = s.bytes;
        let at_device = self.fabric.submit_command(device, now);
        let info = self.devices[device]
            .as_mut()
            .expect("stream device exists")
            .submit(at_device, NvmeCommand::read(lba, bytes));
        ctx.at(
            info.completes_at,
            MhEvent::DeviceDone {
                stream,
                issued_at: now,
            },
        );
    }
}

impl ShardWorld for MhWorld {
    type Local = MhEvent;
    type Cross = Infallible;

    fn handle_local(&mut self, event: MhEvent, ctx: &mut Ctx<'_>) {
        match event {
            MhEvent::Issue { stream } => {
                let now = ctx.now();
                for _ in 0..self.streams[stream].depth {
                    self.issue(stream, now, ctx);
                }
            }
            MhEvent::DeviceDone { stream, issued_at } => {
                let now = ctx.now();
                let device = self.streams[stream].device;
                let bytes = self.streams[stream].bytes as u64;
                let at_host = self.fabric.deliver_completion(device, now, bytes);
                ctx.at(at_host, MhEvent::Complete { stream, issued_at });
            }
            MhEvent::Complete { stream, issued_at } => {
                let now = ctx.now();
                if self.streams[stream].measured {
                    self.hist.record(now.saturating_since(issued_at).as_nanos());
                } else {
                    self.neighbor_bytes += self.streams[stream].bytes as u64;
                }
                let next = now + HOST_TURNAROUND;
                if next < self.deadline {
                    ctx.at(next, MhEvent::Issue { stream });
                }
            }
        }
    }

    fn handle_cross(&mut self, _src: usize, event: Infallible, _ctx: &mut Ctx<'_>) {
        match event {}
    }
}

fn run_once(scale: ExperimentScale, neighbors_loaded: bool) -> (LatencyProfile, f64) {
    // Build the full 244-SSD enclosure and pick each host's first 16
    // devices from its static partition.
    let fabric = PcieFabric::paper_enclosure(244);
    let mut per_host: [Vec<usize>; 3] = Default::default();
    for d in 0..244 {
        let spine = fabric.assignment(d).spine as usize;
        if per_host[spine].len() < DEVICES_PER_HOST {
            per_host[spine].push(d);
        }
    }

    let mut devices: Vec<Option<SsdDevice>> = (0..244).map(|_| None).collect();
    let mut streams = Vec::new();
    for (host, device_ids) in per_host.iter().enumerate() {
        for &device in device_ids {
            devices[device] = Some(SsdDevice::new(
                SsdSpec::table1(),
                FirmwareProfile::experimental(),
                scale.seed ^ (device as u64).wrapping_mul(0x9E37_79B9),
            ));
            if host == 0 {
                streams.push(Stream {
                    device,
                    depth: 1,
                    bytes: 4096,
                    sequential: false,
                    next_lba: 0,
                    measured: true,
                });
            } else if neighbors_loaded {
                streams.push(Stream {
                    device,
                    depth: 8,
                    bytes: 131_072,
                    sequential: true,
                    next_lba: 0,
                    measured: false,
                });
            }
        }
    }

    let runtime = scale.runtime.min(SimDuration::secs(2));
    let deadline = SimTime::ZERO + runtime;
    let world = MhWorld {
        fabric,
        devices,
        streams,
        hist: LatencyHistogram::new(),
        neighbor_bytes: 0,
        deadline,
        rng: SimRng::from_seed_and_stream(scale.seed, 0x3357),
    };
    let streams = world.streams.len();
    let mut sim = ShardedSim::new(world, vec![super::ONE_LP_LOOKAHEAD]);
    for stream in 0..streams {
        sim.schedule(
            0,
            SimTime::ZERO + SimDuration::micros(stream as u64 * 11 % 89),
            MhEvent::Issue { stream },
        );
    }
    sim.run();
    let world = sim.into_world();
    let gbps = world.neighbor_bytes as f64 / runtime.as_secs_f64() / 1e9;
    (world.hist.profile(), gbps)
}

/// Runs the isolation check at the given scale.
pub fn multi_host_isolation(scale: ExperimentScale) -> MultiHostResult {
    let (quiet, _) = run_once(scale, false);
    let (noisy, neighbor_gbps) = run_once(scale, true);
    MultiHostResult {
        quiet,
        noisy,
        neighbor_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_cannot_disturb_host_zero() {
        let scale = ExperimentScale::new(SimDuration::millis(200), 16, 42);
        let result = multi_host_isolation(scale);
        // The partitions share no fabric links, so the shift must be
        // within sampling noise.
        assert!(
            result.p999_shift().abs() < 0.05,
            "neighbor load leaked into host 0: {:+.1}%",
            result.p999_shift() * 100.0
        );
        // And the neighbors really were hammering their partitions:
        // 32 devices × ~1.7 GB/s, capped by two 15.75 GB/s uplinks.
        assert!(
            result.neighbor_gbps > 10.0,
            "neighbor load too weak: {:.1} GB/s",
            result.neighbor_gbps
        );
        assert!(result.to_table().contains("isolation"));
    }
}
