//! The repo's one benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to compare two commits.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Without `--workload` all five run in turn. Every metric is printed as
//! `<workload> <metric> <value> <unit>`, the run is written to
//! `benchmark/out/<workload>.json`, and the last line on stdout is the
//! JSON object the driver reads. The exit code is non-zero when an
//! operation failed or an output check did not hold.

mod affinity;
mod fixture;
mod layers;
mod procfs;
mod report;
mod serving;
mod stats;
mod trace;
mod train;
mod workload;

use fixture::Sizes;
use report::Report;
use std::path::{Path, PathBuf};
use trace::Tracer;
use workload::Workload;

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 16.0;
/// The window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.5;

/// What one invocation was asked to do.
pub struct Opts {
    /// Drives the request streams and the model's RNG, nothing else.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report the per-layer table instead of the
    /// end-to-end one.
    pub traced: bool,
    /// Small fixtures and a short window, for CI.
    pub smoke: bool,
    /// Fixture sizes.
    pub sizes: Sizes,
    /// `benchmark/out`: result files, span files and scratch space.
    pub out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: st-benchmark [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<Workload>, Opts) {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = 1u64;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                let w = Workload::parse(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
                workloads = vec![w];
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 60.0) {
                    usage("--seconds must be in (0, 60]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    let opts = Opts {
        seed,
        seconds: seconds.unwrap_or(default_seconds),
        traced,
        smoke,
        sizes: Sizes::of(smoke),
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    (workloads, opts)
}

/// `p50_us` of the untraced run of `workload` with this seed, if
/// `out/<workload>.json` holds one: the base of `trace.overhead_ratio`.
fn read_untraced_p50(out_dir: &Path, workload: Workload, seed: u64) -> Option<f64> {
    let text = std::fs::read_to_string(out_dir.join(format!("{}.json", workload.name()))).ok()?;
    if !text.contains(&format!("\"seed\": {seed},")) {
        return None;
    }
    let after = text.split_once("\"p50_us\": {\"value\": ")?.1;
    after.split_once(',')?.0.trim().parse().ok()
}

/// Closes a traced run: the sanity ratios, then the span file.
/// `before_chain_us` is what a request pays before the replayed stage chain
/// starts (HTTP floor, router hop); the chain's own median is already in
/// the report.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, before_chain_us: f64, out_dir: &Path) {
    let traced_p50 = report.get("p50_us");
    let stage_sum = before_chain_us + report.get("trace.chain_p50_us");
    report.set("trace.traced_p50_us", traced_p50);
    report.set("trace.stage_sum_ratio", stage_sum / traced_p50);
    let untraced = read_untraced_p50(out_dir, report.workload, report.seed);
    report.set(
        "trace.overhead_ratio",
        untraced.map_or(0.0, |u| traced_p50 / u),
    );
    let name = report.workload.name();
    for (metric, sane) in [
        ("trace.stage_sum_ratio", 0.8..=1.2),
        ("trace.overhead_ratio", 0.0..=1.05),
    ] {
        let value = report.get(metric);
        if !sane.contains(&value) {
            eprintln!("warning: {name} {metric} {value:.3} outside {sane:?}");
        }
    }
    tracer
        .write_jsonl(&out_dir.join(format!("{name}.trace.jsonl")))
        .expect("write span file");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, kind, size, dir] = args.as_slice() {
        if mode == fixture::TRAIN_FIXTURE_ARG {
            return fixture::train_fixture(kind, size == "smoke", Path::new(dir));
        }
    }
    let (workloads, opts) = parse_args();
    std::fs::create_dir_all(&opts.out_dir).expect("create benchmark/out");
    let mut all_correct = true;
    for workload in workloads {
        let report = match workload {
            Workload::TrainPaper => train::run(&opts),
            serving => serving::run(serving, &opts),
        };
        report.print_lines();
        report.write_json(&opts.out_dir).expect("write result file");
        all_correct &= report.correct();
        println!("{}", report.driver_line());
    }
    if !all_correct {
        std::process::exit(1);
    }
}
