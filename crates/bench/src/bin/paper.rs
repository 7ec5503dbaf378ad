//! Regenerates the paper's tables and figures:
//! `paper <table1|table2|table3|table4|table5|fig3_4|fig5_6|fig7_8|fig9|all> [foursquare|yelp]`,
//! and prints EXPERIMENTS.md's table of shape-claims from the recorded
//! files: `paper summary` (no training, nothing written).
//!
//! [`EXPERIMENTS`] is the record of how each tracked `results/*.json`
//! was produced. A bare run uses those settings, prints the rendered
//! tables and rewrites the files (run it from the repo root). With
//! `ST_SCALE` or `ST_EPOCHS` set — a smoke run — it prints only, so
//! throwaway numbers never replace the recorded ones. A dataset narrows
//! the per-dataset experiments to one of their two files.

use st_baselines::Method;
use st_bench::experiments::grid::{self, Fit, Row};
use st_bench::experiments::{case_study, table1, table2};
use st_bench::json::{Json, ToJson};
use st_bench::{load, render_metric_table, render_rows, save_json, DatasetKind, Loaded, Settings};
use st_eval::Metric;
use st_transrec_core::{ModelConfig, Variant};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: paper <experiment> [foursquare|yelp] | paper summary
  experiment: table1 table2 table3 table4 table5 fig3_4 fig5_6 fig7_8 fig9 all
  a dataset narrows table4, table5, fig3_4, fig5_6, fig7_8 and fig9 (default: both)
  ST_SCALE / ST_EPOCHS override the recorded settings; such a run writes nothing
  summary prints the table of shape-claims from results/*.json";

const BOTH: [DatasetKind; 2] = [DatasetKind::Foursquare, DatasetKind::Yelp];

/// How an experiment runs. Either way it prints its rendered tables and
/// returns the content of one result file.
enum Run {
    /// Once, into `results/<stem>.json`.
    Whole(fn(Settings) -> Json),
    /// Once per dataset, into `results/<stem>_<dataset>.json` each.
    Grid(Grid),
}

/// A metric grid: rows trained or fitted and scored by [`grid::run`] on
/// one dataset, printed as one table and recorded as `{key: value,
/// "report": ...}` per row.
#[derive(Clone, Copy)]
struct Grid {
    /// The result file's name for a row's value.
    key: &'static str,
    /// The table's title on each dataset, in [`BOTH`]'s order.
    titles: [&'static str; 2],
    /// The cutoffs the table prints.
    ks: &'static [usize],
    /// The rows, built on the dataset's paper configuration.
    rows: fn(&ModelConfig) -> Vec<(String, Json, Fit)>,
    /// The metric@k at which ST-TransRec's improvement over every other
    /// row is printed under the table, if any.
    versus: Option<(Metric, usize)>,
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
    Experiment { name: "table4", recorded: at(0.03, 3), stem: "table4", run: Run::Grid(Grid {
        key: "dim", ks: &[2, 4], rows: dims, versus: None,
        titles: ["Table 4 (Foursquare, embedding size)", "Table 4 (Yelp, embedding size)"],
    }) },
    Experiment { name: "table5", recorded: at(0.03, 3), stem: "table5", run: Run::Grid(Grid {
        key: "depth", ks: &[2, 4], rows: depths, versus: None,
        titles: ["Table 5 (Foursquare, tower depth)", "Table 5 (Yelp, tower depth)"],
    }) },
    Experiment { name: "fig3_4", recorded: at(0.1, 4), stem: "fig3_4", run: Run::Grid(Grid {
        key: "method", ks: &[2, 4, 6, 8, 10], rows: methods, versus: Some((Metric::Recall, 10)),
        titles: ["Fig. 3 (Foursquare)", "Fig. 4 (Yelp)"],
    }) },
    Experiment { name: "fig5_6", recorded: at(0.1, 4), stem: "fig5_6", run: Run::Grid(Grid {
        key: "variant", ks: &[2, 4, 6, 8, 10], rows: variants, versus: Some((Metric::Ndcg, 10)),
        titles: ["Fig. 5 (Foursquare ablation)", "Fig. 6 (Yelp ablation)"],
    }) },
    Experiment { name: "fig7_8", recorded: at(0.03, 3), stem: "fig7_8", run: Run::Grid(Grid {
        key: "alpha", ks: &[2, 6, 10], rows: alphas, versus: None,
        titles: ["Fig. 7 (Foursquare, resample rate)", "Fig. 8 (Yelp, resample rate)"],
    }) },
    Experiment { name: "fig9", recorded: at(0.03, 3), stem: "fig9", run: Run::Grid(Grid {
        key: "dropout", ks: &[10], rows: dropouts, versus: None,
        titles: ["Fig. 9 (Foursquare, dropout)", "Fig. 9 (Yelp, dropout)"],
    }) },
];

/// One result file of a bare run: its name under `results/`, the
/// dataset that narrows a run to it, and what produces its content.
type File = (String, Option<DatasetKind>, Box<dyn Fn(Settings) -> Json>);

impl Experiment {
    fn files(&self) -> Vec<File> {
        match self.run {
            Run::Whole(run) => vec![(self.stem.to_string(), None, Box::new(run))],
            Run::Grid(grid) => BOTH
                .into_iter()
                .map(|kind| -> File {
                    let file = format!("{}_{}", self.stem, kind.name().to_lowercase());
                    let produce = move |settings| grid.run(&load(kind, settings));
                    (file, Some(kind), Box::new(produce))
                })
                .collect(),
        }
    }
}

impl Grid {
    /// Scores every row on `loaded`, prints the table and returns the
    /// result file's content.
    fn run(&self, loaded: &Loaded) -> Json {
        let rows = grid::run(loaded, (self.rows)(&loaded.model_config));
        println!("{}", self.render(loaded.kind, &rows));
        grid::to_json(&rows, self.key)
    }

    /// The table of `rows`, then the improvement block if there is one.
    fn render(&self, kind: DatasetKind, rows: &[Row]) -> String {
        let table: Vec<_> = rows
            .iter()
            .map(|r| (r.label.clone(), r.report.clone()))
            .collect();
        let mut out = render_metric_table(self.titles[kind as usize], &table, self.ks);
        if let Some((metric, k)) = self.versus {
            out.push_str(&format!(
                "\nST-TransRec {}@{k} improvements over:\n",
                metric.name()
            ));
            for (label, imp) in grid::improvement(rows, "ST-TransRec", metric, k) {
                out.push_str(&format!("{label:>14}: {imp:+.2}%\n"));
            }
        }
        out
    }
}

/// A row that the table prints and the result file records by one name.
fn named(label: &str, fit: Fit) -> (String, Json, Fit) {
    (label.to_string(), label.to_json(), fit)
}

/// A row trained on `config`, printed as `label`, recorded as `value`.
fn model(label: String, value: impl ToJson, config: ModelConfig) -> (String, Json, Fit) {
    (label, value.to_json(), Fit::Model(config))
}

/// Figs. 3-4: the eight baselines in reporting order, then ST-TransRec.
fn methods(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let baselines = Method::ALL.map(|m| named(m.name(), Fit::Baseline(m)));
    let ours = named("ST-TransRec", Fit::Model(base.clone()));
    baselines.into_iter().chain([ours]).collect()
}

/// Figs. 5-6: the full model, then ST-TransRec-1 (no MMD), -2 (no text)
/// and -3 (no resampling), hyperparameters otherwise the same.
fn variants(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let variants = [
        ("ST-TransRec", Variant::Full),
        ("ST-TransRec-1", Variant::NoMmd),
        ("ST-TransRec-2", Variant::NoText),
        ("ST-TransRec-3", Variant::NoResample),
    ];
    let row = |(label, v)| named(label, Fit::Model(base.clone().with_variant(v)));
    variants.into_iter().map(row).collect()
}

/// Figs. 7-8: the resampling rate alpha over [0.06, 0.15].
fn alphas(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let config = |alpha| ModelConfig {
        alpha,
        ..base.clone()
    };
    let row = |alpha: f64| model(format!("alpha={alpha:.2}"), alpha, config(alpha));
    (6..=15).map(|i| row(i as f64 / 100.0)).collect()
}

/// Fig. 9: the dropout rate rho over [0, 0.5].
fn dropouts(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let config = |dropout| ModelConfig {
        dropout,
        ..base.clone()
    };
    let row = |rho: f32| model(format!("rho={rho:.1}"), rho, config(rho));
    (0..=5).map(|i| row(i as f32 / 10.0)).collect()
}

/// Table 4: embedding sizes; the tower's widths halve from each.
fn dims(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let config = |embedding_dim| ModelConfig {
        embedding_dim,
        ..base.clone()
    };
    let row = |dim| model(format!("dim={dim}"), dim, config(dim));
    [16, 32, 64, 128].into_iter().map(row).collect()
}

/// Table 5: interaction-tower depths.
fn depths(base: &ModelConfig) -> Vec<(String, Json, Fit)> {
    let config = |depth| ModelConfig {
        depth,
        ..base.clone()
    };
    let row = |depth| model(format!("layers={depth}"), depth, config(depth));
    (1..=4).map(row).collect()
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["summary"] {
        return match st_bench::summary::render(Path::new("results")) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(problem) => {
                eprintln!("error: {problem}");
                ExitCode::FAILURE
            }
        };
    }
    let (experiments, only) = match parse(args.into_iter()) {
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
                let path = save_json(Path::new("results"), &file, &json).expect("write results");
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
            "summary yelp",
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

    /// Builds experiment `name`'s rows on one fixed report instead of
    /// trained models, and checks its grid's key, the space-separated
    /// labels its table prints and the values its result file records.
    fn assert_grid_rows(name: &str, key: &str, labels: &str, values: &str) {
        use st_eval::{rank_metrics, MetricAccumulator};
        let ks = [2, 4, 6, 8, 10];
        let mut acc = MetricAccumulator::new(&ks);
        acc.add(&rank_metrics(&[0.9, 0.1], &[true, false], &ks));
        let report = acc.finish();

        let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        let Run::Grid(grid) = exp.run else {
            panic!("{name} is not a grid")
        };
        assert_eq!(grid.key, key);
        let rows: Vec<Row> = (grid.rows)(&ModelConfig::yelp())
            .into_iter()
            .map(|(label, value, _)| Row {
                label,
                value,
                report: report.clone(),
            })
            .collect();
        // Title, blank, "-- Recall --", header, then one line per row.
        let table = grid.render(DatasetKind::Yelp, &rows);
        let printed: Vec<&str> = table.lines().skip(4).take(rows.len()).collect();
        let printed: Vec<&str> = printed.iter().map(|l| l[..14].trim_start()).collect();
        assert_eq!(printed.join(" "), labels, "{name}");

        let Json::Arr(recorded) = grid::to_json(&rows, grid.key) else {
            panic!("{name} records an array")
        };
        let recorded: Vec<String> = recorded.iter().map(Json::to_string).collect();
        let report = report.to_json();
        let expected: Vec<String> = values
            .split(' ')
            .map(|v| format!(r#"{{"{key}":{v},"report":{report}}}"#))
            .collect();
        assert_eq!(recorded, expected, "{name}");
    }

    /// The method, variant, embedding-size and depth grids.
    #[test]
    fn grid_rows_print_and_record_the_paper_record() {
        #[rustfmt::skip]
        let cases = [
            ("fig3_4", "method",
             "ItemPop LCE CRCF PR-UIDT ST-LDA CTLM SH-CDL PACE ST-TransRec",
             r#""ItemPop" "LCE" "CRCF" "PR-UIDT" "ST-LDA" "CTLM" "SH-CDL" "PACE" "ST-TransRec""#),
            ("fig5_6", "variant",
             "ST-TransRec ST-TransRec-1 ST-TransRec-2 ST-TransRec-3",
             r#""ST-TransRec" "ST-TransRec-1" "ST-TransRec-2" "ST-TransRec-3""#),
            ("table4", "dim", "dim=16 dim=32 dim=64 dim=128", "16 32 64 128"),
            ("table5", "depth", "layers=1 layers=2 layers=3 layers=4", "1 2 3 4"),
        ];
        for (name, key, labels, values) in cases {
            assert_grid_rows(name, key, labels, values);
        }
    }

    /// Figs. 7-8 sweep alpha over the paper's ten points, 0.06 to 0.15.
    #[test]
    fn fig7_8_rows_are_the_paper_alpha_range() {
        assert_grid_rows(
            "fig7_8",
            "alpha",
            "alpha=0.06 alpha=0.07 alpha=0.08 alpha=0.09 alpha=0.10 \
             alpha=0.11 alpha=0.12 alpha=0.13 alpha=0.14 alpha=0.15",
            "0.06 0.07 0.08 0.09 0.1 0.11 0.12 0.13 0.14 0.15",
        );
    }

    /// Fig. 9 sweeps rho over the paper's six points, 0.0 to 0.5.
    #[test]
    fn fig9_rows_are_the_paper_dropout_range() {
        assert_grid_rows(
            "fig9",
            "dropout",
            "rho=0.0 rho=0.1 rho=0.2 rho=0.3 rho=0.4 rho=0.5",
            "0.0 0.1 0.2 0.3 0.4 0.5",
        );
    }
}
