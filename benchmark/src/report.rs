//! Metric names, units and output: `<workload> <metric> <value> <unit>`
//! lines for people, `out/<workload>.json` for `repeat.sh`, and the one
//! JSON line the driver reads.

use crate::procfs;
use crate::stats;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: name and unit, as in `BENCHMARK.json`. Every
/// workload reports every one of them from an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, as in `BENCHMARK.json`. A traced
/// run reports every one of them; a layer that is not on a workload's
/// path did no work there and reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("tensor.kernels.matmul_gflops", "gflop/s"),
    ("tensor.gather.f32_mrows_s", "mrows/s"),
    ("tensor.gather.f16_mrows_s", "mrows/s"),
    ("tensor.gather.i8_mrows_s", "mrows/s"),
    ("tensor.checkpoint.save_ms", "ms"),
    ("tensor.checkpoint.map_us", "us"),
    ("core.retrieval.candidates_us", "us"),
    ("core.retrieval.candidates_n", "count"),
    ("core.retrieval.grid_share", "ratio"),
    ("core.retrieval.recall_at_10", "ratio"),
    ("core.retrieval.build_ms", "ms"),
    ("core.snapshot.score_us", "us"),
    ("core.snapshot.grow_events", "count"),
    ("core.snapshot.from_mapped_us", "us"),
    ("core.recommend.exact_us", "us"),
    ("core.train.accumulate_ms", "ms"),
    ("core.train.apply_ms", "ms"),
    ("core.train.rss_growth_mb", "MiB"),
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("serve.http.floor_us", "us"),
    ("serve.lru.get_us", "us"),
    ("serve.render_us", "us"),
    ("serve.rank_us", "us"),
    ("serve.batcher.submit_us", "us"),
    ("serve.batcher.overhead_us", "us"),
    ("serve.batcher.mean_batch_size", "count"),
    ("serve.reload.reload_into_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.fallback_share", "ratio"),
    ("serve.candidate_set_mean", "count"),
    ("serve.shed_total", "count"),
    ("serve.server_mean_us", "us"),
    ("router.ring.assign_ns", "ns"),
    ("router.fleet.route_us", "us"),
    ("router.hop_us", "us"),
    ("router.conn_retries_total", "count"),
    ("router.forward_errors_total", "count"),
    ("router.remapped_total", "count"),
    ("router.replica_balance", "ratio"),
    ("client.n", "count"),
    ("client.mean_us", "us"),
    ("client.tail_level", "ratio"),
    ("client.p99_us", "us"),
    ("client.max_us", "us"),
    ("client.over_1s_total", "count"),
    ("client.reload_n", "count"),
    ("client.reload_p50_ms", "ms"),
    ("client.reload_max_ms", "ms"),
    ("client.reload_late_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.sys_cpu_share", "ratio"),
    ("trace.traced_p50_us", "us"),
    ("trace.chain_p50_us", "us"),
    ("trace.stage_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything one run of one workload found.
pub struct Report {
    /// The workload that ran.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or came back wrong.
    pub failed: u64,
    /// Metric values by name; names outside the two tables are rejected
    /// when the report is rendered.
    pub values: BTreeMap<&'static str, f64>,
    /// Sizes, counts and context recorded beside the metrics.
    pub info: BTreeMap<&'static str, String>,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(&'static str, bool, String)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Self {
        let mut info = BTreeMap::new();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        info.insert("nproc", nproc.to_string());
        Self {
            workload,
            seed,
            seconds,
            traced,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            info,
            checks: Vec::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a value read back later, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records what the clients of the timed phase saw: the end-to-end
    /// latency and throughput metrics (read at the quiet end of `slices`
    /// slices of the first `window_s` seconds, in cycles of `cycle` slices,
    /// see [`stats::sliced`]) and their per-layer companions (over all of
    /// `ops`). `ops` holds the correct operations only.
    pub fn set_operations(
        &mut self,
        ops: &[stats::Timed],
        window_s: f64,
        slices: usize,
        cycle: usize,
    ) {
        self.set("peak_rss_mb", procfs::peak_rss_mib());
        self.note("slices", slices);
        self.note("slice_s", window_s / slices as f64);
        let cap = self.workload.tail_cap();
        if let Some(s) = stats::sliced(ops, window_s, slices, cycle, cap) {
            self.set("ops_per_s", s.ops_per_s);
            self.set("p50_us", s.p50);
            self.set("tail_us", s.tail);
            self.set("client.tail_level", s.tail_level);
        }
        let latencies: Vec<f64> = ops.iter().map(|&(_, us)| us).collect();
        if let Some(s) = stats::summarize(&latencies) {
            self.set("client.n", s.n as f64);
            self.set("client.mean_us", s.mean);
            self.set("client.p99_us", s.p99);
            self.set("client.max_us", s.max);
        }
        self.set(
            "client.over_1s_total",
            latencies.iter().filter(|&&us| us > 1e6).count() as f64,
        );
    }

    /// Records the CPU the process used between two `procfs::cpu_seconds`
    /// readings around the timed phase.
    pub fn set_cpu(&mut self, before: (f64, f64), after: (f64, f64)) {
        let (total, sys_share) = procfs::cpu_between(before, after);
        self.set("proc.cpu_s", total);
        self.set("proc.sys_cpu_share", sys_share);
    }

    /// Records context (sizes, counts).
    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.info.insert(name, value.to_string());
    }

    /// Records an output check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name, passed, detail.into()));
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The metric table this run reports: end-to-end when untraced,
    /// per-layer when traced.
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.table().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.get(name))
            );
        }
        out.push('}');
        out
    }

    /// The line the driver parses; must be the last line on stdout.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// `<workload> <metric> <value> <unit>` for every metric of this run,
    /// then the checks.
    pub fn print_lines(&self) {
        let unknown: Vec<_> = self
            .values
            .keys()
            .filter(|name| {
                !END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .any(|(known, _)| known == *name)
            })
            .collect();
        assert!(
            unknown.is_empty(),
            "metrics missing from the tables: {unknown:?}"
        );
        let w = self.workload.name();
        for (name, unit) in self.table() {
            println!("{w} {name} {} {unit}", json_number(self.get(name)));
        }
        for (name, value) in &self.info {
            println!("{w} info.{name} {value}");
        }
        println!("{w} attempted {} failed {}", self.attempted, self.failed);
        for (name, ok, detail) in &self.checks {
            println!(
                "{w} check.{name} {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
    }

    /// Writes `out/<workload>.json` (or `<workload>.trace.json`).
    pub fn write_json(&self, out_dir: &Path) -> std::io::Result<()> {
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {},\n  \"info\": {{",
            self.workload.name(),
            self.seed,
            json_number(self.seconds),
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        );
        for (i, (name, value)) in self.info.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(body, "{sep}\"{name}\": \"{}\"", json_escape(value));
        }
        body.push_str("},\n  \"checks\": {");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"ok\": {ok}, \"detail\": \"{}\"}}",
                json_escape(detail)
            );
        }
        body.push_str("}\n}\n");
        let suffix = if self.traced { ".trace.json" } else { ".json" };
        std::fs::write(
            out_dir.join(format!("{}{suffix}", self.workload.name())),
            body,
        )
    }
}

/// A finite number with all its digits; non-finite values become 0 (and
/// are caught by the checks that produced them).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables here must name the same metrics
    /// with the same units, in both directions.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str, next: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let layers = section("per_layer", "\u{0}");
        for (table, body) in [(&END_TO_END[..], &e2e), (&PER_LAYER[..], &layers)] {
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
            assert_eq!(body.matches("\"name\":").count(), table.len());
        }
        for w in Workload::ALL {
            assert!(
                section("workloads", "end_to_end").contains(&format!("\"name\": \"{}\"", w.name()))
            );
        }
    }

    #[test]
    fn driver_line_carries_exactly_the_runs_table() {
        let mut r = Report::new(Workload::ServeHot, 1, 10.0, false);
        r.attempted = 5;
        r.set("p50_us", 61.25);
        let line = r.driver_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"p50_us\": {\"value\": 61.25, \"unit\": \"us\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        r.traced = true;
        assert_eq!(r.driver_line().matches("\"unit\"").count(), PER_LAYER.len());
        r.check("x", false, "boom \"quoted\"");
        assert!(r.driver_line().starts_with("{\"correct\": false"));
    }
}
