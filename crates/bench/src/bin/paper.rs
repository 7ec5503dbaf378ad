//! Regenerates the paper's tables and figures:
//! `paper <table1|table2|table3|table4|table5|fig3_4|fig5_6|fig7_8|fig9|all> [foursquare|yelp]`.
//!
//! [`EXPERIMENTS`] is the record of how each tracked `results/*.json`
//! was produced. A bare run uses those settings, prints the rendered
//! tables and rewrites the files (run it from the repo root). With
//! `ST_SCALE` or `ST_EPOCHS` set — a smoke run — it prints only, so
//! throwaway numbers never replace the recorded ones. A dataset narrows
//! the per-dataset experiments to one of their two files.

use st_baselines::Budget;
use st_bench::experiments::{
    ablation, case_study, comparison, depth, dropout, embedding_size, resample_rate, table1, table2,
};
use st_bench::json::{Json, ToJson};
use st_bench::{load, render_metric_table, render_rows, save_json, DatasetKind, Loaded, Settings};
use st_eval::MetricReport;
use std::process::ExitCode;

const USAGE: &str = "usage: paper <experiment> [foursquare|yelp]
  experiment: table1 table2 table3 table4 table5 fig3_4 fig5_6 fig7_8 fig9 all
  a dataset narrows table4, table5, fig3_4, fig5_6, fig7_8 and fig9 (default: both)
  ST_SCALE / ST_EPOCHS override the recorded settings; such a run writes nothing";

const BOTH: [DatasetKind; 2] = [DatasetKind::Foursquare, DatasetKind::Yelp];

/// How an experiment runs. Either way it prints its rendered tables and
/// returns the content of one result file.
enum Run {
    /// Once, into `results/<stem>.json`.
    Whole(fn(Settings) -> Json),
    /// Once per dataset, into `results/<stem>_<dataset>.json` each.
    PerDataset(fn(&Loaded) -> Json),
}

/// One row of the reproduction record.
struct Experiment {
    /// Subcommand.
    name: &'static str,
    /// Scale and epochs the tracked result files were recorded at (the
    /// section headings of EXPERIMENTS.md).
    recorded: Settings,
    stem: &'static str,
    run: Run,
}

const fn at(scale: f64, epochs: usize) -> Settings {
    Settings { scale, epochs }
}

#[rustfmt::skip]
static EXPERIMENTS: [Experiment; 9] = [
    Experiment { name: "table1", recorded: at(1.0, 4), stem: "table1_stats", run: Run::Whole(table1) },
    Experiment { name: "table2", recorded: at(0.05, 4), stem: "table2_parallel", run: Run::Whole(table2) },
    Experiment { name: "table3", recorded: at(0.05, 4), stem: "table3_case_study", run: Run::Whole(table3) },
    Experiment { name: "table4", recorded: at(0.03, 3), stem: "table4", run: Run::PerDataset(table4) },
    Experiment { name: "table5", recorded: at(0.03, 3), stem: "table5", run: Run::PerDataset(table5) },
    Experiment { name: "fig3_4", recorded: at(0.1, 4), stem: "fig3_4", run: Run::PerDataset(fig3_4) },
    Experiment { name: "fig5_6", recorded: at(0.1, 4), stem: "fig5_6", run: Run::PerDataset(fig5_6) },
    Experiment { name: "fig7_8", recorded: at(0.03, 3), stem: "fig7_8", run: Run::PerDataset(fig7_8) },
    Experiment { name: "fig9", recorded: at(0.03, 3), stem: "fig9", run: Run::PerDataset(fig9) },
];

/// One result file of a bare run: its name under `results/`, the
/// dataset that narrows a run to it, and what produces its content.
type File = (String, Option<DatasetKind>, Box<dyn Fn(Settings) -> Json>);

impl Experiment {
    fn files(&self) -> Vec<File> {
        match self.run {
            Run::Whole(run) => vec![(self.stem.to_string(), None, Box::new(run))],
            Run::PerDataset(run) => BOTH
                .into_iter()
                .map(|kind| -> File {
                    let file = format!("{}_{}", self.stem, kind.name().to_lowercase());
                    let produce = move |settings| run(&load(kind, settings));
                    (file, Some(kind), Box::new(produce))
                })
                .collect(),
        }
    }
}

/// Prints `results` as one metric table at cutoffs `ks`, one row each.
fn print_table<R>(
    title: &str,
    ks: &[usize],
    results: &[R],
    row: impl Fn(&R) -> (String, MetricReport),
) {
    let rows: Vec<_> = results.iter().map(row).collect();
    println!("{}", render_metric_table(title, &rows, ks));
}

fn table1(settings: Settings) -> Json {
    let rows = table1::run(settings.scale);
    println!("{}", table1::render(&rows, settings.scale));
    rows.to_json()
}

fn table2(settings: Settings) -> Json {
    let rows = Vec::from(BOTH.map(|kind| table2::run(&load(kind, settings), 2)));
    let rendered: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|r| {
            (
                r.dataset.clone(),
                vec![r.single_worker_s, r.two_worker_s, r.speedup()],
            )
        })
        .collect();
    println!(
        "{}",
        render_rows(
            "Table 2: Training Time per Epoch (seconds)",
            &["1-worker", "2-worker", "speedup"],
            &rendered
        )
    );
    println!(
        "(paper, on 2x RTX 2080 Ti: Foursquare 94.29s -> 50.74s, Yelp 275.44s -> 153.73s; the shape to match is the ~1.8-1.9x speedup)"
    );
    rows.to_json()
}

/// The word-level case study runs on the Foursquare-like dataset only.
fn table3(settings: Settings) -> Json {
    let study = case_study::run(&load(DatasetKind::Foursquare, settings));
    println!("{}", case_study::render(&study));
    study.to_json()
}

fn table4(loaded: &Loaded) -> Json {
    let results = embedding_size::run(loaded, &embedding_size::paper_grid());
    let title = format!("Table 4 ({}, embedding size)", loaded.kind.name());
    print_table(&title, &[2, 4], &results, |r| {
        (format!("dim={}", r.dim), r.report.clone())
    });
    results.to_json()
}

fn table5(loaded: &Loaded) -> Json {
    let results = depth::run(loaded, &depth::paper_grid());
    let title = format!("Table 5 ({}, tower depth)", loaded.kind.name());
    print_table(&title, &[2, 4], &results, |r| {
        (format!("layers={}", r.depth), r.report.clone())
    });
    results.to_json()
}

fn fig3_4(loaded: &Loaded) -> Json {
    let results = comparison::run(loaded, Budget::Full);
    let title = match loaded.kind {
        DatasetKind::Foursquare => "Fig. 3 (Foursquare)",
        DatasetKind::Yelp => "Fig. 4 (Yelp)",
    };
    print_table(title, &[2, 4, 6, 8, 10], &results, |r| {
        (r.method.clone(), r.report.clone())
    });
    println!("ST-TransRec Recall@10 improvements over:");
    for (m, imp) in comparison::recall10_improvements(&results) {
        println!("  {m:>10}: {imp:+.1}%");
    }
    println!();
    results.to_json()
}

fn fig5_6(loaded: &Loaded) -> Json {
    let results = ablation::run(loaded);
    let title = match loaded.kind {
        DatasetKind::Foursquare => "Fig. 5 (Foursquare ablation)",
        DatasetKind::Yelp => "Fig. 6 (Yelp ablation)",
    };
    print_table(title, &[2, 4, 6, 8, 10], &results, |r| {
        (r.variant.clone(), r.report.clone())
    });
    println!("Full-model NDCG@10 improvements over:");
    for (v, imp) in ablation::ndcg10_improvements(&results) {
        println!("  {v}: {imp:+.2}%");
    }
    println!();
    results.to_json()
}

fn fig7_8(loaded: &Loaded) -> Json {
    let results = resample_rate::run(loaded, &resample_rate::paper_grid());
    let title = match loaded.kind {
        DatasetKind::Foursquare => "Fig. 7 (Foursquare, resample rate)",
        DatasetKind::Yelp => "Fig. 8 (Yelp, resample rate)",
    };
    print_table(title, &[2, 6, 10], &results, |r| {
        (format!("alpha={:.2}", r.alpha), r.report.clone())
    });
    results.to_json()
}

fn fig9(loaded: &Loaded) -> Json {
    let results = dropout::run(loaded, &dropout::paper_grid());
    let title = format!("Fig. 9 ({}, dropout)", loaded.kind.name());
    print_table(&title, &[10], &results, |r| {
        (format!("rho={:.1}", r.dropout), r.report.clone())
    });
    results.to_json()
}

/// The experiments to run and the dataset, if any, to narrow them to.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(Vec<&'static Experiment>, Option<DatasetKind>), String> {
    let name = args.next().ok_or("missing experiment")?;
    let dataset = args.next();
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let experiments: Vec<&Experiment> = if name == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        let found = EXPERIMENTS.iter().find(|e| e.name == name);
        vec![found.ok_or(format!("unknown experiment {name:?}"))?]
    };
    let Some(text) = dataset else {
        return Ok((experiments, None));
    };
    let kind = DatasetKind::parse(&text).ok_or(format!("unknown dataset {text:?}"))?;
    match experiments.iter().find(|e| matches!(e.run, Run::Whole(_))) {
        Some(whole) => Err(format!("{} always covers its whole file", whole.name)),
        None => Ok((experiments, Some(kind))),
    }
}

fn main() -> ExitCode {
    let usage = |problem: String| {
        eprintln!("error: {problem}\n{USAGE}");
        ExitCode::from(2)
    };
    let (experiments, only) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(problem) => return usage(problem),
    };
    for exp in experiments {
        let (settings, overridden) = match exp.recorded.with_env() {
            Ok(applied) => applied,
            Err(problem) => return usage(problem),
        };
        eprintln!(
            "== {} at scale {}, {} epochs ({}) ==",
            exp.name,
            settings.scale,
            settings.epochs,
            if overridden {
                "overridden: results/ left untouched"
            } else {
                "as recorded"
            }
        );
        for (file, kind, produce) in exp.files() {
            if only.is_some() && kind != only {
                continue;
            }
            let json = produce(settings);
            if !overridden {
                let path = save_json(&file, &json).expect("write results");
                eprintln!("wrote {}", path.display());
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(Vec<&'static str>, Option<DatasetKind>), String> {
        parse(line.split_whitespace().map(str::to_owned))
            .map(|(exps, only)| (exps.iter().map(|e| e.name).collect(), only))
    }

    #[test]
    fn experiments_and_datasets_parse() {
        assert_eq!(parse_line("table1"), Ok((vec!["table1"], None)));
        let yelp = Some(DatasetKind::Yelp);
        assert_eq!(parse_line("fig3_4 yelp"), Ok((vec!["fig3_4"], yelp)));
        let (all, only) = parse_line("all").unwrap();
        assert_eq!((all.len(), only), (EXPERIMENTS.len(), None));
    }

    #[test]
    fn anything_unrecognised_is_a_usage_error() {
        for line in [
            "",
            "table6",
            "fig3_4 netflix",
            "fig3_4 yelp foursquare",
            "table1 --scale",
            "--all",
            // One file for both datasets: a dataset cannot narrow it.
            "table1 yelp",
            "table3 foursquare",
            "all yelp",
        ] {
            assert!(parse_line(line).is_err(), "{line:?} was accepted");
        }
    }

    /// ROADMAP 5(e): the table is the record of how `results/` was made,
    /// so the two must name exactly the same files, each once.
    #[test]
    fn every_tracked_result_is_named_by_exactly_one_experiment() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut tracked: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .map(|entry| entry.expect("read results/").file_name())
            .filter_map(|name| Some(name.to_str()?.strip_suffix(".json")?.to_string()))
            .collect();
        let mut recorded: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|exp| exp.files().into_iter().map(|(file, ..)| file))
            .collect();
        tracked.sort();
        recorded.sort();
        assert_eq!(recorded, tracked);
    }
}
