//! fio jobfile (INI) parsing.
//!
//! The paper drives its measurements with fio; for drop-in familiarity
//! this module parses the subset of fio's INI jobfile syntax the
//! methodology uses into [`JobSpec`]s:
//!
//! ```ini
//! [global]
//! rw=randread
//! bs=4k
//! iodepth=1
//! ioengine=libaio
//! runtime=120
//!
//! [nvme0]
//! filename=/dev/nvme0
//! cpus_allowed=4
//! ```
//!
//! Supported keys: `rw`, `bs`, `iodepth`, `ioengine`, `runtime`,
//! `filename` (`/dev/nvmeN` → device N), `cpus_allowed`, `numjobs`,
//! `rate_iops`, `write_lat_log` (any value = on), `size` (region, in
//! bytes with optional k/m/g suffix).

use afa_host::{CpuId, SchedPolicy};
use afa_sim::SimDuration;

use crate::job::{IoEngine, JobSpec, RwPattern};

/// Error produced when a jobfile cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJobFileError {
    /// 1-based line number the error was detected on (0 = file-level).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseJobFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "jobfile line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseJobFileError {}

fn err(line: usize, message: impl Into<String>) -> ParseJobFileError {
    ParseJobFileError {
        line,
        message: message.into(),
    }
}

/// Parses a size like `4k`, `128k`, `1m`, `4096` into bytes.
fn parse_size(line: usize, v: &str) -> Result<u64, ParseJobFileError> {
    let v = v.trim().to_ascii_lowercase();
    let (digits, mult) = match v.strip_suffix(['k', 'm', 'g']) {
        Some(d) if v.ends_with('k') => (d, 1024u64),
        Some(d) if v.ends_with('m') => (d, 1024 * 1024),
        Some(d) => (d, 1024 * 1024 * 1024),
        None => (v.as_str(), 1),
    };
    let n = digits
        .parse::<u64>()
        .map_err(|e| err(line, format!("bad size '{v}': {e}")))?;
    n.checked_mul(mult)
        .ok_or_else(|| err(line, format!("size '{v}' overflows 64 bits")))
}

/// Most jobs one section may replicate: one per SSD of the paper's
/// host.
const MAX_NUMJOBS: u32 = 64;

/// The `runtime` range in seconds, the same one `afactl --seconds`
/// clamps to.
const RUNTIME_RANGE_S: std::ops::RangeInclusive<f64> = 0.01..=600.0;

#[derive(Clone, Default)]
struct Section {
    rw: Option<RwPattern>,
    bs: Option<u32>,
    iodepth: Option<u32>,
    engine: Option<IoEngine>,
    runtime_s: Option<f64>,
    device: Option<usize>,
    cpu: Option<CpuId>,
    numjobs: Option<u32>,
    rate_iops: Option<u64>,
    log_lat: bool,
    size_pages: Option<u64>,
}

impl Section {
    fn apply(&mut self, line: usize, key: &str, value: &str) -> Result<(), ParseJobFileError> {
        match key {
            "rw" | "readwrite" => {
                self.rw = Some(match value {
                    "randread" => RwPattern::RandRead,
                    "randwrite" => RwPattern::RandWrite,
                    "read" => RwPattern::SeqRead,
                    "write" => RwPattern::SeqWrite,
                    "randrw" => RwPattern::RandRw { read_pct: 50 },
                    other => return Err(err(line, format!("unknown rw '{other}'"))),
                });
            }
            "rwmixread" => {
                let pct: u8 = value
                    .parse()
                    .map_err(|e| err(line, format!("bad rwmixread: {e}")))?;
                if pct > 100 {
                    return Err(err(line, "rwmixread must be at most 100"));
                }
                self.rw = Some(RwPattern::RandRw { read_pct: pct });
            }
            "bs" | "blocksize" => {
                let bytes = parse_size(line, value)?;
                if bytes == 0 || bytes % 4096 != 0 || bytes > u32::MAX as u64 {
                    return Err(err(line, "bs must be a positive multiple of 4k"));
                }
                self.bs = Some(bytes as u32);
            }
            "iodepth" => {
                let depth: u32 = value
                    .parse()
                    .map_err(|e| err(line, format!("bad iodepth: {e}")))?;
                if depth == 0 {
                    return Err(err(line, "iodepth must be positive"));
                }
                self.iodepth = Some(depth);
            }
            "ioengine" => {
                self.engine = Some(match value {
                    "libaio" => IoEngine::Libaio,
                    "sync" | "psync" => IoEngine::Sync,
                    "io_uring_poll" | "pvsync2_hipri" | "polling" => IoEngine::Polling,
                    "io_uring_hybrid" | "hybrid" => IoEngine::HybridPoll,
                    other => return Err(err(line, format!("unknown ioengine '{other}'"))),
                });
            }
            "runtime" => {
                let secs: f64 = value
                    .trim_end_matches('s')
                    .parse()
                    .map_err(|e| err(line, format!("bad runtime: {e}")))?;
                if !RUNTIME_RANGE_S.contains(&secs) {
                    return Err(err(
                        line,
                        format!(
                            "runtime must be between {} and {} seconds",
                            RUNTIME_RANGE_S.start(),
                            RUNTIME_RANGE_S.end()
                        ),
                    ));
                }
                self.runtime_s = Some(secs);
            }
            "filename" => {
                let dev = value
                    .trim_start_matches("/dev/nvme")
                    .split(|c: char| !c.is_ascii_digit())
                    .next()
                    .unwrap_or("");
                self.device = Some(
                    dev.parse()
                        .map_err(|_| err(line, format!("filename '{value}' is not /dev/nvmeN")))?,
                );
            }
            "cpus_allowed" => {
                let cpu: u16 = value
                    .parse()
                    .map_err(|e| err(line, format!("bad cpus_allowed: {e}")))?;
                self.cpu = Some(CpuId(cpu));
            }
            "numjobs" => {
                let n: u32 = value
                    .parse()
                    .map_err(|e| err(line, format!("bad numjobs: {e}")))?;
                if n > MAX_NUMJOBS {
                    return Err(err(
                        line,
                        format!("numjobs must be at most {MAX_NUMJOBS}, the host's SSD count"),
                    ));
                }
                self.numjobs = Some(n);
            }
            "rate_iops" => {
                self.rate_iops = Some(
                    value
                        .parse()
                        .map_err(|e| err(line, format!("bad rate_iops: {e}")))?,
                );
            }
            "write_lat_log" => self.log_lat = true,
            "size" => {
                let bytes = parse_size(line, value)?;
                self.size_pages = Some((bytes / 4096).max(1));
            }
            // fio has hundreds of keys; tolerate the common no-op ones.
            "direct" | "group_reporting" | "name" | "time_based" | "thread" => {}
            other => return Err(err(line, format!("unsupported key '{other}'"))),
        }
        Ok(())
    }

    fn merged_with(&self, global: &Section) -> Section {
        Section {
            rw: self.rw.or(global.rw),
            bs: self.bs.or(global.bs),
            iodepth: self.iodepth.or(global.iodepth),
            engine: self.engine.or(global.engine),
            runtime_s: self.runtime_s.or(global.runtime_s),
            device: self.device.or(global.device),
            cpu: self.cpu.or(global.cpu),
            numjobs: self.numjobs.or(global.numjobs),
            rate_iops: self.rate_iops.or(global.rate_iops),
            log_lat: self.log_lat || global.log_lat,
            size_pages: self.size_pages.or(global.size_pages),
        }
    }

    fn into_specs(self, line: usize) -> Result<Vec<JobSpec>, ParseJobFileError> {
        let device = self
            .device
            .ok_or_else(|| err(line, "job needs filename=/dev/nvmeN"))?;
        if let (Some(pages), Some(bs)) = (self.size_pages, self.bs) {
            if pages < u64::from(bs / 4096) {
                return Err(err(
                    line,
                    format!("size of {pages} 4k pages is smaller than one bs={bs} block"),
                ));
            }
        }
        let copies = self.numjobs.unwrap_or(1).max(1);
        let mut specs = Vec::with_capacity(copies as usize);
        for copy in 0..copies {
            let device = device
                .checked_add(copy as usize)
                .ok_or_else(|| err(line, "filename plus numjobs overflows the device index"))?;
            let mut spec = JobSpec::paper_default(device);
            if let Some(rw) = self.rw {
                spec = spec.rw(rw);
            }
            if let Some(bs) = self.bs {
                spec = spec.block_size_bytes(bs);
            }
            if let Some(depth) = self.iodepth {
                spec = spec.iodepth_n(depth);
            }
            if let Some(engine) = self.engine {
                spec = spec.ioengine(engine);
            }
            if let Some(secs) = self.runtime_s {
                spec = spec.runtime(SimDuration::from_secs_f64(secs));
            }
            if let Some(cpu) = self.cpu {
                let cpu = cpu.0.checked_add(copy as u16).ok_or_else(|| {
                    err(line, "cpus_allowed plus numjobs overflows the CPU index")
                })?;
                spec = spec.cpus_allowed(CpuId(cpu));
            }
            if let Some(iops) = self.rate_iops {
                spec = spec.rate_iops_cap(iops);
            }
            if let Some(pages) = self.size_pages {
                spec = spec.region(pages);
            }
            specs.push(
                spec.log_latency(self.log_lat)
                    .sched(SchedPolicy::default_fair()),
            );
        }
        Ok(specs)
    }
}

/// Parses a fio-style INI jobfile into job specs.
///
/// # Errors
///
/// Returns [`ParseJobFileError`] on unknown keys, malformed values, or
/// a job without a `filename`.
///
/// # Example
///
/// ```
/// let text = "\
/// [global]
/// rw=randread
/// bs=4k
/// iodepth=1
/// runtime=120
///
/// [job0]
/// filename=/dev/nvme0
/// cpus_allowed=4
/// ";
/// let jobs = afa_workload::parse_jobfile(text)?;
/// assert_eq!(jobs.len(), 1);
/// assert_eq!(jobs[0].device(), 0);
/// # Ok::<(), afa_workload::ParseJobFileError>(())
/// ```
pub fn parse_jobfile(text: &str) -> Result<Vec<JobSpec>, ParseJobFileError> {
    let mut global = Section::default();
    let mut jobs: Vec<(usize, Section)> = Vec::new();
    let mut current: Option<(usize, Section)> = None;
    let mut in_global = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            if let Some(done) = current.take() {
                jobs.push(done);
            }
            if name.eq_ignore_ascii_case("global") {
                in_global = true;
            } else {
                in_global = false;
                current = Some((line_no, Section::default()));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            // Bare boolean keys (e.g. `group_reporting`).
            let target = if in_global {
                &mut global
            } else {
                &mut current
                    .as_mut()
                    .ok_or_else(|| err(line_no, "key outside any section"))?
                    .1
            };
            target.apply(line_no, line, "1")?;
            continue;
        };
        let target = if in_global {
            &mut global
        } else {
            &mut current
                .as_mut()
                .ok_or_else(|| err(line_no, "key outside any section"))?
                .1
        };
        target.apply(line_no, key.trim(), value.trim())?;
    }
    if let Some(done) = current.take() {
        jobs.push(done);
    }

    let mut specs = Vec::new();
    for (line, section) in jobs {
        specs.extend(section.merged_with(&global).into_specs(line)?);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_STYLE: &str = "\
[global]
ioengine=libaio
direct=1
rw=randread
bs=4k
iodepth=1
runtime=120

[nvme0]
filename=/dev/nvme0
cpus_allowed=4

[nvme1]
filename=/dev/nvme1
cpus_allowed=5
";

    #[test]
    fn parses_the_paper_style_jobfile() {
        let jobs = parse_jobfile(PAPER_STYLE).expect("parse");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].device(), 0);
        assert_eq!(jobs[1].device(), 1);
        assert_eq!(jobs[0].block_size(), 4096);
        assert_eq!(jobs[0].iodepth(), 1);
        assert_eq!(jobs[0].engine(), IoEngine::Libaio);
        assert_eq!(jobs[0].pinned_cpu(), Some(CpuId(4)));
        assert_eq!(jobs[1].pinned_cpu(), Some(CpuId(5)));
        assert_eq!(jobs[0].runtime_limit(), SimDuration::secs(120));
    }

    #[test]
    fn numjobs_replicates_with_shifted_device_and_cpu() {
        let text = "\
[many]
filename=/dev/nvme8
cpus_allowed=10
numjobs=3
";
        let jobs = parse_jobfile(text).expect("parse");
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].device(), 8);
        assert_eq!(jobs[2].device(), 10);
        assert_eq!(jobs[2].pinned_cpu(), Some(CpuId(12)));
    }

    #[test]
    fn sizes_and_mixes() {
        let text = "\
[j]
filename=/dev/nvme0
bs=128k
rw=randrw
rwmixread=70
size=1g
rate_iops=5000
write_lat_log=x
";
        let jobs = parse_jobfile(text).expect("parse");
        let j = &jobs[0];
        assert_eq!(j.block_size(), 131_072);
        assert_eq!(j.rw_pattern(), RwPattern::RandRw { read_pct: 70 });
        assert_eq!(j.region_pages(), 262_144);
        assert_eq!(j.rate_iops(), Some(5_000));
        assert!(j.logs_latency());
    }

    #[test]
    fn unknown_key_errors_with_line_number() {
        let text = "[j]\nfilename=/dev/nvme0\nwombat=7\n";
        let e = parse_jobfile(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("wombat"));
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn missing_filename_errors() {
        let e = parse_jobfile("[j]\nbs=4k\n").unwrap_err();
        assert!(e.message.contains("filename"));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "; comment\n# also\n\n[j]\nfilename=/dev/nvme2\n";
        let jobs = parse_jobfile(text).expect("parse");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].device(), 2);
    }

    #[test]
    fn bad_bs_rejected() {
        let e = parse_jobfile("[j]\nfilename=/dev/nvme0\nbs=1000\n").unwrap_err();
        assert!(e.message.contains("bs"));
    }

    #[test]
    fn zero_iodepth_rejected() {
        let e = parse_jobfile("[j]\nfilename=/dev/nvme0\niodepth=0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("iodepth"));
    }

    #[test]
    fn polling_engine_aliases() {
        let jobs =
            parse_jobfile("[j]\nfilename=/dev/nvme0\nioengine=pvsync2_hipri\n").expect("parse");
        assert_eq!(jobs[0].engine(), IoEngine::Polling);
    }

    #[test]
    fn hybrid_engine_aliases() {
        for alias in ["io_uring_hybrid", "hybrid"] {
            let text = format!("[j]\nfilename=/dev/nvme0\nioengine={alias}\n");
            let jobs = parse_jobfile(&text).expect("parse");
            assert_eq!(jobs[0].engine(), IoEngine::HybridPoll);
        }
    }
}
