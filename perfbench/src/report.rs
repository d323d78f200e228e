//! The run's result: metrics with their units, correctness checks,
//! per-operation failure accounting and run metadata, printed as text
//! lines followed by one JSON result line.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::net::Op;
use crate::Args;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("batch_facts_per_s", "1/s"),
    ("ingest_triples_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p99_ms", "ms"),
    ("freshness_p50_s", "s"),
    ("freshness_p90_s", "s"),
    ("refit_full_s", "s"),
    ("answer_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_frac", "ratio"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("frontend.self_mean_ms", "ms"),
    ("event_loop.keepalive_reuse_ratio", "ratio"),
    ("server.query_handler_mean_ms", "ms"),
    ("server.ingest_handler_mean_ms", "ms"),
    ("epoch.load_ns", "ns"),
    ("model.predict_us", "us"),
    ("shadow.score_us", "us"),
    ("store.ingest_batch_ms", "ms"),
    ("store.extract_delta_ms", "ms"),
    ("store.dirty_claims_per_row", "ratio"),
    ("store.extract_full_ms", "ms"),
    ("wal.append_mean_ms", "ms"),
    ("wal.fsync_mean_ms", "ms"),
    ("wal.fsyncs_per_ack", "ratio"),
    ("wal.bytes_per_row", "B/row"),
    ("wal.replayed_rows", "count"),
    ("wal.compactions", "count"),
    ("refit.finished", "count"),
    ("refit.extract_s", "s"),
    ("refit.fold_s", "s"),
    ("refit.rhat_s", "s"),
    ("refit.promote_s", "s"),
    ("refit.incremental_count", "count"),
    ("refit.full_count", "count"),
    ("refit.rejected_ratio", "ratio"),
    ("refit.beside_query_p99_ms", "ms"),
    ("refit.beside_ack_p99_ms", "ms"),
    ("shadow.fit_s", "s"),
    ("shadow.fit_share_of_promote", "ratio"),
    ("core.fold_claims_per_s", "1/s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.capture_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("self.op_ms", "ms"),
    ("self.http_ms", "ms"),
    ("self.epoch_ms", "ms"),
    ("self.model_ms", "ms"),
    ("self.shadow_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.snapshot_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.layers_ms", "ms"),
    ("self.admin_ms", "ms"),
    ("self.setup_ms", "ms"),
];

/// Attempts and failures of one operation type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Why a per-layer metric reads 0 on this workload.
    pub absent: BTreeMap<&'static str, String>,
    /// `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub ops: BTreeMap<Op, OpCount>,
    /// `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
    /// Free-form lines printed before the result (sample counts, the
    /// self-time table, tracing overhead).
    pub info: Vec<String>,
    /// Set when the load generator fell behind its own limit: the run
    /// is invalid and prints no result.
    pub invalid: Option<String>,
}

impl Report {
    /// Counts one operation.
    pub fn op(&mut self, op: Op, ok: bool) {
        let c = self.ops.entry(op).or_default();
        c.attempted += 1;
        c.failed += u64::from(!ok);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_owned(), passed, detail.into()));
    }

    pub fn meta(&mut self, key: &'static str, value: impl Into<String>) {
        self.meta.push((key, value.into()));
    }

    pub fn meta_str(&mut self, key: &'static str, value: &str) {
        self.meta(key, json_string(value));
    }

    fn totals(&self) -> (u64, u64) {
        self.ops
            .values()
            .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed))
    }

    /// Prints the report and returns the process exit code: 0 when every
    /// check passed, 1 when one failed, 3 for an invalid run (no result).
    pub fn print(mut self, args: &Args) -> ExitCode {
        let (attempted, failed) = self.totals();
        self.e2e.insert(
            "ok_ops_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"meta\":{{{}}}}}", meta.join(","));
        for line in &self.info {
            println!("{line}");
        }
        for (op, c) in &self.ops {
            println!(
                "op {:<7} attempted {:>8} succeeded {:>8} failed {:>4}",
                op.name(),
                c.attempted,
                c.attempted - c.failed,
                c.failed
            );
        }
        for (name, passed, detail) in &self.checks {
            println!(
                "check {name}: {} ({detail})",
                if *passed { "pass" } else { "FAIL" }
            );
        }
        let (table, values): (&[(&str, &str)], &BTreeMap<&str, f64>) = if args.trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let value = self.e2e.get(name).or(self.layers.get(name));
            if let Some(v) = value {
                let why = self
                    .absent
                    .get(name)
                    .map_or(String::new(), |w| format!("  ({w})"));
                println!("metric {name:<34} {v:>16.6} {unit}{why}");
            }
        }
        if let Some(why) = &self.invalid {
            eprintln!("perfbench: run invalid, no result reported: {why}");
            return ExitCode::from(3);
        }
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let Some(v) = values.get(name) else {
                eprintln!("perfbench: metric {name} was not measured");
                return ExitCode::from(1);
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*v)
            ));
        }
        let correct = self.checks.iter().all(|c| c.1);
        println!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// A finite JSON number with all its digits (`{}` on f64 prints the
/// shortest text that round-trips).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

pub fn json_string(s: &str) -> String {
    format!(
        "\"{}\"",
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', " ")
    )
}
