//! Metric names, the end-to-end values derived from a live run, and the
//! result line the benchmark contract reads.
//!
//! The contract wants **every** end-to-end metric from **every** workload,
//! so the metrics are named by role and each workload binds a role to its
//! own op class — the table in `README.md`, repeated here as
//! [`bindings`]. `ISSUE 11`'s per-class names (`read_p50_ms`,
//! `write_per_s`, …) are printed beside the role names in the report.
//!
//! Tail percentiles are **information only**: on this host they do not
//! repeat within any bound the contract allows (README, "The host"), so
//! they are printed with their sample counts — and recorded, unbounded, by
//! the traced run as `live.*_tail_ms` — but gate nothing.

use crate::stats::{
    highest_trustworthy_percentile, median_of, quietest_window, Mix, Quiet, Samples, Timed,
};
use crate::workloads::{Kind, LiveRun};
use std::fmt::Write as _;

/// `(name, unit)` of the end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("side_p50_ms", "ms"),
    ("rss_mb", "MB"),
];

/// The percentiles a tail may be reported at; a window's sample count
/// decides which of them leave ten samples beyond.
const TAIL_MENU: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// What the role-named metrics mean on one workload.
pub struct Bindings {
    /// The primary op class and the issue's names for its median, tail and
    /// throughput.
    pub op: &'static str,
    pub op_p50: &'static str,
    pub op_tail: &'static str,
    pub ops_per_s: &'static str,
    /// The tail percentile: the highest the window's sample count supports
    /// (ten samples beyond it, where the window allows).
    pub op_tail_p: f64,
    /// How the class's ops follow each other (drawn, or the same requests
    /// repeating), which sizes the estimator's sub-windows.
    pub op_mix: Mix,
    pub side: &'static str,
    pub side_p50: &'static str,
    pub side_tail: &'static str,
    pub side_tail_p: f64,
    pub side_mix: Mix,
}

pub fn bindings(kind: Kind) -> Bindings {
    match kind {
        Kind::Point => Bindings {
            op: "point read (all three templates, both clients)",
            op_p50: "read_p50_ms",
            op_tail: "read_p99_ms",
            ops_per_s: "read_qps",
            op_tail_p: 99.0,
            op_mix: Mix::Drawn,
            side: "open-template point read `p2(z)`",
            side_p50: "open_read_p50_ms",
            side_tail: "open_read_p99_ms",
            side_tail_p: 99.0,
            side_mix: Mix::Drawn,
        },
        Kind::Churn => Bindings {
            op: "effective write ack",
            op_p50: "write_p50_ms",
            op_tail: "write_p95_ms",
            ops_per_s: "write_per_s",
            op_tail_p: 95.0,
            op_mix: Mix::Drawn,
            side: "point read beside the writer",
            side_p50: "read_p50_ms",
            // The issue's read_p99_ms, measured where it comes from: the
            // slowest read of each write interval (the publish stall).
            side_tail: "read_stall_p50_ms",
            side_tail_p: 50.0,
            side_mix: Mix::Drawn,
        },
        Kind::Views => Bindings {
            op: "effective write ack with two views repaired (= view freshness)",
            op_p50: "write_p50_ms",
            op_tail: "write_p75_ms",
            ops_per_s: "write_per_s",
            op_tail_p: 75.0,
            op_mix: Mix::Drawn,
            side: "`\\view` read under churn",
            side_p50: "view_read_p50_ms",
            side_tail: "view_read_p99_ms",
            side_tail_p: 99.0,
            // The reader alternates the two views.
            side_mix: Mix::Every(2),
        },
        Kind::Scan => Bindings {
            op: "one pass over the four scan templates",
            op_p50: "scan_pass_p50_ms",
            op_tail: "scan_pass_p75_ms",
            ops_per_s: "scan_passes_per_s",
            op_tail_p: 75.0,
            // Every pass asks the same four templates.
            op_mix: Mix::Every(1),
            side: "the heaviest template, open `path3`",
            side_p50: "scan_open_p50_ms",
            side_tail: "scan_open_p75_ms",
            side_tail_p: 75.0,
            side_mix: Mix::Every(1),
        },
        Kind::Cycle => Bindings {
            op: "cycle query (C(3) on both families, AC(3))",
            op_p50: "cycle_p50_ms",
            op_tail: "cycle_p90_ms",
            ops_per_s: "cycle_per_s",
            op_tail_p: 90.0,
            // One pass: C(3) on each family, then AC(3).
            op_mix: Mix::Every(3),
            side: "`AC(3)` on the planted family",
            side_p50: "cycle_ac_p50_ms",
            side_tail: "cycle_ac_p75_ms",
            side_tail_p: 75.0,
            side_mix: Mix::Every(1),
        },
    }
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run — untraced or traced — produced.
pub struct RunReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed gates other than failed requests (stage coverage, replay
    /// mismatches).
    pub gate_failures: Vec<String>,
    /// Every metric by name with its unit and sample counts, for a human.
    pub description: String,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }
}

/// The five end-to-end values of a live run, in [`END_TO_END`] order.
///
/// Latencies and throughput are those of the window's **quietest
/// sub-window** ([`quietest_window`]): on the shared reference host a
/// whole-window median reads the host's state, not the program's cost. The
/// whole-window values are printed beside them as information.
pub fn end_to_end(kind: Kind, run: &LiveRun) -> Vec<Metric> {
    let b = bindings(kind);
    let op = quietest_window(&run.primary, b.op_mix);
    let side = quietest_window(&run.side, b.side_mix);
    let values = [
        median_of(&run.setup_s),
        op.p50_ms,
        op.per_s,
        side.p50_ms,
        median_of(&run.rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// The tail percentiles of a live run, as the issue names them:
/// information, not gated metrics.
pub struct Tails {
    pub op_tail_ms: f64,
    pub side_tail_ms: f64,
}

pub fn tails(kind: Kind, run: &LiveRun) -> Tails {
    let b = bindings(kind);
    Tails {
        op_tail_ms: latencies(&run.primary).percentile(b.op_tail_p),
        side_tail_ms: Samples::new(run.side_tail_basis.clone()).percentile(b.side_tail_p),
    }
}

fn latencies(ops: &[Timed]) -> Samples {
    Samples::new(ops.iter().map(|op| op.ms).collect())
}

/// The human-readable account of a live run: every metric by name with its
/// unit, the issue's name for it, and the sample counts behind it.
pub fn describe_live(kind: Kind, run: &LiveRun, metrics: &[Metric]) -> String {
    let b = bindings(kind);
    let tails = tails(kind, run);
    let mut out = String::new();
    let primary = latencies(&run.primary);
    let side = latencies(&run.side);
    let side_tail = Samples::new(run.side_tail_basis.clone());
    let op_quiet = quietest_window(&run.primary, b.op_mix);
    let side_quiet = quietest_window(&run.side, b.side_mix);
    let sub_windows = |q: &Quiet, n: usize| {
        format!(
            "quietest of {} sub-windows of {} ops; {n} ops timed",
            q.windows, q.window
        )
    };
    let _ = writeln!(out, "  op   = {}", b.op);
    let _ = writeln!(out, "  side = {}", b.side);
    for metric in metrics {
        let note = match metric.name {
            "setup_s" => format!("median of {} set-ups: {:?}", run.setup_s.len(), run.setup_s),
            "op_p50_ms" => format!(
                "{} — {}; whole window {:.4} ms",
                b.op_p50,
                sub_windows(&op_quiet, primary.len()),
                primary.median()
            ),
            "ops_per_s" => format!(
                "{} — busiest sub-window; whole {:.2} s window {:.4} /s",
                b.ops_per_s,
                run.wall_s,
                primary.len() as f64 / run.wall_s
            ),
            "side_p50_ms" => format!(
                "{} — {}; whole window {:.4} ms",
                b.side_p50,
                sub_windows(&side_quiet, side.len()),
                side.median()
            ),
            _ => format!(
                "server VmRSS at the end of each set-up: {:?}; VmHWM just before shutdown \
                 {:.4} MB",
                run.rss_mb, run.peak_rss_mb
            ),
        };
        let _ = writeln!(
            out,
            "  {:<13} {:>12.4} {:<4} ({note})",
            metric.name, metric.value, metric.unit
        );
    }
    let _ = writeln!(
        out,
        "  info: {:<18} {:>12.4} ms   (p{} with {} samples beyond it; ten-beyond rule allows {})",
        b.op_tail,
        tails.op_tail_ms,
        b.op_tail_p,
        primary.beyond(b.op_tail_p),
        highest_trustworthy_percentile(primary.len(), &TAIL_MENU)
            .map_or_else(|| "no tail".to_string(), |p| format!("p{p}")),
    );
    let _ = writeln!(
        out,
        "  info: {:<18} {:>12.4} ms   (p{} of {} samples, {} beyond it)",
        b.side_tail,
        tails.side_tail_ms,
        b.side_tail_p,
        side_tail.len(),
        side_tail.beyond(b.side_tail_p),
    );
    for (class, samples, median) in &run.class_medians {
        let _ = writeln!(
            out,
            "  info: {class:<18} {median:>12.4} ms   (median of {samples} samples)"
        );
    }
    let _ = writeln!(
        out,
        "  error_rate = {} failed / {} attempted (warm-up and checks included); \
         {} effective writes timed",
        run.tally.failed, run.tally.attempted, run.effective_writes
    );
    for problem in &run.tally.problems {
        let _ = writeln!(out, "  FAILED: {problem}");
    }
    out
}

/// The contract's result line: one JSON object, exactly these keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number with all its digits (`NaN`/`inf` have no JSON form
/// and would only arise from a harness bug; they are reported as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let metrics = vec![
            Metric {
                name: "op_p50_ms",
                unit: "ms",
                value: 1.2034,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            },
        ];
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(result_line(false, 0, 0, &[]).contains("\"attempted\": 1,"));
        assert_eq!(json_number(f64::NAN), "0");
    }

    /// `BENCHMARK.json` is written by hand; the harness is what runs. They
    /// must name the same workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_names_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = 0;
        for workload in crate::workloads::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", workload.name)),
                "{}",
                workload.name
            );
            expected += 1;
        }
        for (name, unit) in END_TO_END.iter().chain(crate::trace::PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "{name} [{unit}] is not in BENCHMARK.json"
            );
            expected += 1;
        }
        assert_eq!(text.matches("\"name\": ").count(), expected);
    }

    #[test]
    fn every_workload_binds_every_role() {
        for kind in [
            Kind::Point,
            Kind::Churn,
            Kind::Views,
            Kind::Scan,
            Kind::Cycle,
        ] {
            let b = bindings(kind);
            assert!(b.op_tail.contains(&format!("p{}", b.op_tail_p)));
            assert!(b.side_tail.contains(&format!("p{}", b.side_tail_p)));
            assert!(b.op_p50.contains("p50") && b.side_p50.contains("p50"));
        }
    }
}
