//! Runners for Table I and Table II.

use afa_sim::{SimDuration, SimTime};
use afa_ssd::{FirmwareProfile, NvmeCommand, SsdDevice, SsdSpec};
use afa_stats::Json;

use crate::experiment::registry::ExperimentResult;
use crate::geometry::Table2Row;

/// Measured-vs-rated device figures (Table I).
#[derive(Clone, Debug)]
pub struct Table1Result {
    /// `(metric, rated, measured)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

impl Table1Result {
    /// Looks up a measured value by metric name.
    pub fn measured(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(m, _, _)| m == metric)
            .map(|&(_, _, v)| v)
    }
}

impl ExperimentResult for Table1Result {
    /// Renders the comparison.
    fn to_table(&self) -> String {
        let mut out = String::from("Table I — device specification, rated vs. measured\n");
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>8}\n",
            "metric", "rated", "measured", "ratio"
        ));
        for (metric, rated, measured) in &self.rows {
            let ratio = if *rated > 0.0 { measured / rated } else { 0.0 };
            out.push_str(&format!(
                "{metric:<28} {rated:>12.0} {measured:>12.0} {ratio:>8.2}\n"
            ));
        }
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from("metric,rated,measured\n");
        for (metric, rated, measured) in &self.rows {
            out.push_str(&format!(
                "{},{rated:.1},{measured:.1}\n",
                metric.replace(',', ";")
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::arr(self.rows.iter().map(|(metric, rated, measured)| {
            Json::obj([
                ("metric", Json::str(metric)),
                ("rated", Json::f64(*rated)),
                ("measured", Json::f64(*measured)),
            ])
        }))
    }
}

fn fresh_device(seed: u64) -> SsdDevice {
    SsdDevice::new(SsdSpec::table1(), FirmwareProfile::experimental(), seed)
}

/// Closed-loop driver: keeps `depth` commands outstanding for
/// `horizon` of simulated time; returns completions.
fn closed_loop<F: FnMut(u64) -> NvmeCommand>(
    device: &mut SsdDevice,
    depth: usize,
    horizon: SimTime,
    mut next_cmd: F,
) -> u64 {
    let mut inflight = vec![SimTime::ZERO; depth];
    let mut completed = 0u64;
    let mut n = 0u64;
    loop {
        let (idx, &now) = inflight
            .iter()
            .enumerate()
            .min_by_key(|&(_, t)| *t)
            .expect("non-empty");
        if now >= horizon {
            return completed;
        }
        let info = device.submit(now, next_cmd(n));
        n += 1;
        inflight[idx] = info.completes_at;
        completed += 1;
    }
}

/// Table I: measure the device model against its data sheet.
///
/// * QD1 4 KiB random-read latency (the §IV-A "25 µs" figure),
/// * 4 KiB random read at QD32 → IOPS,
/// * 4 KiB random write at QD4, sustained → IOPS,
/// * 128 KiB sequential read at QD8 → MB/s,
/// * 128 KiB sequential write at QD8 → MB/s.
pub fn table1(seed: u64) -> Table1Result {
    let spec = SsdSpec::table1();
    let mut rows = Vec::new();

    // QD1 random-read latency.
    {
        let mut dev = fresh_device(seed);
        let mut now = SimTime::ZERO;
        let mut total_us = 0.0;
        let n = 20_000u64;
        for i in 0..n {
            let lba = (i * 48_271) % 10_000_000;
            let info = dev.submit(now, NvmeCommand::read(lba, 4096));
            total_us += info.latency_since(now).as_micros_f64();
            now = info.completes_at + SimDuration::micros(5);
        }
        rows.push(("QD1 random read (us)".to_owned(), 25.0, total_us / n as f64));
    }

    // Random read IOPS at QD32.
    {
        let mut dev = fresh_device(seed + 1);
        let horizon = SimTime::ZERO + SimDuration::millis(250);
        let done = closed_loop(&mut dev, 32, horizon, |n| {
            NvmeCommand::read((n * 7_919) % 10_000_000, 4096)
        });
        rows.push((
            "random read (IOPS)".to_owned(),
            spec.random_read_iops as f64,
            done as f64 / 0.25,
        ));
    }

    // Random write IOPS, sustained.
    {
        let mut dev = fresh_device(seed + 2);
        let horizon = SimTime::ZERO + SimDuration::millis(400);
        let done = closed_loop(&mut dev, 4, horizon, |n| {
            NvmeCommand::write((n * 104_729) % 10_000_000, 4096)
        });
        rows.push((
            "random write (IOPS)".to_owned(),
            spec.random_write_iops as f64,
            done as f64 / 0.4,
        ));
    }

    // Sequential read MB/s.
    {
        let mut dev = fresh_device(seed + 3);
        let horizon = SimTime::ZERO + SimDuration::millis(250);
        let done = closed_loop(&mut dev, 8, horizon, |n| {
            NvmeCommand::read(n * 32 % 10_000_000, 131_072)
        });
        rows.push((
            "sequential read (MB/s)".to_owned(),
            spec.seq_read_mbps as f64,
            done as f64 * 131_072.0 / 0.25 / 1e6,
        ));
    }

    // Sequential write MB/s.
    {
        let mut dev = fresh_device(seed + 4);
        let horizon = SimTime::ZERO + SimDuration::millis(250);
        let done = closed_loop(&mut dev, 8, horizon, |n| {
            NvmeCommand::write(n * 32 % 10_000_000, 131_072)
        });
        rows.push((
            "sequential write (MB/s)".to_owned(),
            spec.seq_write_mbps as f64,
            done as f64 * 131_072.0 / 0.25 / 1e6,
        ));
    }

    Table1Result { rows }
}

/// The Table II matrix as structured data (what [`table2`] renders).
#[derive(Clone, Debug)]
pub struct Table2Matrix {
    /// Per row: `(label, SSDs per physical core, IRQs per logical
    /// core, fio threads per logical core, fio threads per run,
    /// runs)`.
    pub rows: Vec<(String, usize, usize, usize, usize, usize)>,
}

/// Table II as a first-class result object.
pub fn table2_matrix() -> Table2Matrix {
    let topo = afa_host::CpuTopology::xeon_e5_2690_v2_dual();
    let rows = Table2Row::ALL
        .into_iter()
        .map(|row| {
            let (_, geometry) = &row.run_geometries()[0];
            let fio_per_logical = geometry.threads_per_logical_cpu();
            (
                row.label().to_owned(),
                geometry.ssds_per_physical_core(&topo),
                // With pinned vectors, active IRQ handlers per logical
                // core equal the fio threads per logical core.
                fio_per_logical,
                fio_per_logical,
                row.threads_per_run(),
                row.runs(),
            )
        })
        .collect();
    Table2Matrix { rows }
}

impl ExperimentResult for Table2Matrix {
    fn to_table(&self) -> String {
        table2()
    }

    fn to_csv(&self) -> String {
        let mut out =
            String::from("row,ssds_per_core,irqs_per_logical,fio_per_logical,fio_per_run,runs\n");
        for (label, ssds, irqs, fio, threads, runs) in &self.rows {
            out.push_str(&format!(
                "{},{ssds},{irqs},{fio},{threads},{runs}\n",
                label.replace(',', ";")
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        Json::arr(
            self.rows
                .iter()
                .map(|(label, ssds, irqs, fio, threads, runs)| {
                    Json::obj([
                        ("row", Json::str(label)),
                        ("ssds_per_core", Json::u64(*ssds as u64)),
                        ("irqs_per_logical_core", Json::u64(*irqs as u64)),
                        ("fio_per_logical_core", Json::u64(*fio as u64)),
                        ("fio_per_run", Json::u64(*threads as u64)),
                        ("runs", Json::u64(*runs as u64)),
                    ])
                }),
        )
    }
}

/// Table II: the Fig. 13 run matrix, generated from the geometry code
/// itself (so the table can never drift from what the runs do).
pub fn table2() -> String {
    let topo = afa_host::CpuTopology::xeon_e5_2690_v2_dual();
    let mut out = String::from("Table II — varying number of SSDs / CPU core\n");
    out.push_str(&format!(
        "{:<12} {:>14} {:>18} {:>18} {:>16} {:>10}\n",
        "Fig #", "SSDs/phys core", "IRQs/logical core", "fio/logical core", "fio in system", "runs"
    ));
    for row in Table2Row::ALL {
        let (_, geometry) = &row.run_geometries()[0];
        let fio_per_logical = geometry.threads_per_logical_cpu();
        let ssds_per_core = geometry.ssds_per_physical_core(&topo);
        out.push_str(&format!(
            "{:<12} {:>14} {:>18} {:>18} {:>16} {:>10}\n",
            row.label(),
            ssds_per_core,
            // With pinned vectors, active IRQ handlers per logical
            // core equal the fio threads per logical core.
            fio_per_logical,
            fio_per_logical,
            row.threads_per_run(),
            row.runs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_measures_close_to_rated() {
        let t = table1(42);
        assert_eq!(t.rows.len(), 5);
        for (metric, rated, measured) in &t.rows {
            let ratio = measured / rated;
            assert!(
                (0.75..1.30).contains(&ratio),
                "{metric}: rated {rated}, measured {measured} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn table1_lookup_and_render() {
        let t = table1(1);
        assert!(t.measured("random read (IOPS)").unwrap() > 100_000.0);
        assert!(t.measured("nonexistent").is_none());
        let text = t.to_table();
        assert!(text.contains("sequential write"));
        assert!(text.contains("ratio"));
    }

    #[test]
    fn table2_matches_paper_matrix() {
        let text = table2();
        assert!(text.contains("Fig. 13(a)"));
        assert!(text.contains("Fig. 13(d)"));
        // Row (a): 4 SSDs/core, 2 fio per logical core, 64 threads, 1 run.
        let row_a = text.lines().find(|l| l.contains("13(a)")).unwrap();
        assert!(row_a.contains('4'));
        assert!(row_a.contains("64"));
        // Row (d): 1 thread, 64 runs.
        let row_d = text.lines().find(|l| l.contains("13(d)")).unwrap();
        assert!(row_d.trim_end().ends_with("64"));
    }
}
