//! Training-path benchmark binary (PR 3).
//!
//! Runs the dense-vs-sparse training suite in [`st_bench::train_perf`]
//! and writes the report to `BENCH_PR3.json` at the repo root (override
//! the path with `ST_BENCH_OUT`, the timed step count with
//! `ST_BENCH_STEPS`).
//!
//! `--smoke` runs the tiny CI variant: same code paths on a small
//! synthetic dataset, gated on parameter finiteness, on the sparse path
//! not losing to dense by more than 2x (tiny tables give sparse no
//! asymptotic edge, so that gate is deliberately loose), and — like the
//! full run — on no worker's tape pool taking a miss or regrowing a
//! buffer after the warm-up steps.
//!
//! Build with `--release`: a debug build measures nothing meaningful.

use st_bench::train_perf::{run_train_suite, TrainPerfOptions};
use std::path::PathBuf;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut opts = if smoke {
        TrainPerfOptions::smoke()
    } else {
        TrainPerfOptions::full()
    };
    if let Some(steps) = std::env::var("ST_BENCH_STEPS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&s| s >= 1)
    {
        opts.steps = steps;
    }
    let out_path: PathBuf = std::env::var("ST_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR3.json"))
        });

    eprintln!(
        "running train perf suite ({} mode, {} steps/mode, workers {:?})...",
        if smoke { "smoke" } else { "full" },
        opts.steps,
        opts.worker_counts
    );
    let report = run_train_suite(&opts);

    eprintln!(
        "  tables: {} embedding rows, ~{} touched/step ({:.0}x)",
        report.table_rows, report.touched_rows_per_step, report.acceptance.table_rows_over_touched
    );
    for m in &report.modes {
        eprintln!(
            "  {:>6} workers={} shards={}  {:>9.3} ms/step  grad buffer {:>10} elems  finite={}  pool {} B, {} misses after warm-up",
            m.mode,
            m.workers,
            m.optimizer_shards,
            m.per_step_ms,
            m.grad_buffer_elems,
            m.params_finite,
            m.pool_bytes,
            m.pool_misses_after_warmup
        );
    }
    let p = &report.parity;
    eprintln!(
        "  parity over {} steps: first-step equal={}  final dense {:.4} vs sparse {:.4} (rel gap {:.3})",
        p.steps, p.first_step_loss_equal, p.dense_final_loss, p.sparse_final_loss, p.rel_final_loss_gap
    );
    let a = &report.acceptance;
    eprintln!(
        "acceptance: sparse speedup {:.2}x, grad memory ratio {:.1}x, table/touched {:.0}x, finite={}, pools steady={}",
        a.best_sparse_speedup,
        a.grad_memory_ratio,
        a.table_rows_over_touched,
        a.all_params_finite,
        a.pools_steady
    );

    let text = report.to_json_string();
    std::fs::write(&out_path, text + "\n").expect("write train perf report");
    eprintln!("wrote {}", out_path.display());

    let failed = if smoke {
        // CI gate: never non-finite, sparse must not lose by >2x, and no
        // step after the warm-up may miss the tape pool or regrow a buffer.
        !a.all_params_finite
            || !a.pools_steady
            || a.best_sparse_speedup < 0.5
            || !p.first_step_loss_equal
    } else {
        !a.all_params_finite
            || !a.pools_steady
            || a.best_sparse_speedup < 1.0
            || a.grad_memory_ratio < 10.0
            || a.table_rows_over_touched < 100.0
            || !p.first_step_loss_equal
    };
    if failed {
        eprintln!("WARNING: acceptance gates not met");
        std::process::exit(1);
    }
}
