//! `paper summary`: EXPERIMENTS.md's table of shape-claims, computed from
//! the committed `results/*.json` with no re-run.
//!
//! Each row is one claim of the paper, what the record says about it, and
//! a status decided by a rule written here, so the table cannot drift
//! from the files it summarises: CI prints it and fails if EXPERIMENTS.md
//! holds anything else.

use crate::json::Json;
use st_eval::{Metric, MetricReport};
use std::path::Path;

/// A relative difference below this is within one seed's noise at the
/// record's 22-98 test users (EXPERIMENTS.md, Methodology).
const NOISE: f64 = 0.05;

/// Table 1 counts within this of the paper's are reproduced.
const TABLE1_TOLERANCE: f64 = 0.03;

/// Two workers at least this much faster than one have Table 2's shape.
const TABLE2_SPEEDUP: f64 = 1.5;

/// The datasets of every per-dataset file, in file-name order.
const DATASETS: [&str; 2] = ["Foursquare", "Yelp"];

/// A metric grid's rows as a result file records them: the value under
/// the grid's key, printed, and the row's report.
type Grid = Vec<(String, MetricReport)>;

/// One line of the table: the claim, our reading of the record, status.
type Claim = (&'static str, String, String);

/// The summary table of the result files under `results`, as markdown.
pub fn render(results: &Path) -> Result<String, String> {
    let read = |stem: &str| -> Result<Json, String> {
        let path = results.join(format!("{stem}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let grids = |stem: &str, key: &str| -> Result<[Grid; 2], String> {
        let one = |dataset: &str| {
            let file = format!("{stem}_{}", dataset.to_lowercase());
            grid(&read(&file)?, key).ok_or(format!("{file}.json is not a {key} grid"))
        };
        Ok([one(DATASETS[0])?, one(DATASETS[1])?])
    };
    let claims = [
        table1(&read("table1_stats")?).ok_or("table1_stats.json: unexpected shape")?,
        table2(&read("table2_parallel")?).ok_or("table2_parallel.json: unexpected shape")?,
        methods(&grids("fig3_4", "method")?).ok_or("fig3_4: no ST-TransRec row")?,
        ablations(&grids("fig5_6", "variant")?).ok_or("fig5_6: a variant row is missing")?,
        interior(
            "Figs. 7-8: the resample rate alpha has an interior optimum",
            "alpha",
            &grids("fig7_8", "alpha")?,
        ),
        interior(
            "Fig. 9: the dropout rate rho has an interior optimum",
            "rho",
            &grids("fig9", "dropout")?,
        ),
        best_size(&grids("table4", "dim")?),
        depth(&grids("table5", "depth")?),
        case_study(&read("table3_case_study")?)
            .ok_or("table3_case_study.json: unexpected shape")?,
    ];
    let mut out = String::from("| Paper claim | Ours (`results/`) | Status |\n|---|---|---|\n");
    for (claim, ours, status) in claims {
        out.push_str(&format!("| {claim} | {ours} | **{status}** |\n"));
    }
    Ok(out)
}

/// Reads a grid file, `[{key: value, "report": {...}}, ...]`, of at
/// least two rows.
fn grid(json: &Json, key: &str) -> Option<Grid> {
    let rows = json.as_array().filter(|rows| rows.len() >= 2)?;
    rows.iter()
        .map(|row| {
            let value = row.get(key)?;
            let label = value
                .as_str()
                .map_or_else(|| value.to_string(), str::to_string);
            Some((label, report(row.get("report")?)?))
        })
        .collect()
}

fn report(json: &Json) -> Option<MetricReport> {
    let numbers = |j: &Json| {
        j.as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<_>>>()
    };
    Some(MetricReport {
        ks: numbers(json.get("ks")?)?
            .into_iter()
            .map(|k| k as usize)
            .collect(),
        values: json
            .get("values")?
            .as_array()?
            .iter()
            .map(numbers)
            .collect::<Option<_>>()?,
        users: json.get("users")?.as_f64()? as usize,
    })
}

/// `+5.4%` / `−0.7%` for a relative change.
fn pct(change: f64) -> String {
    format!("{:+.1}%", change * 100.0).replace('-', "−")
}

/// `1st`, `2nd`, ... for a rank.
fn ordinal(n: usize) -> String {
    let suffix = match (n % 10, n % 100) {
        (1, 11) | (2, 12) | (3, 13) => "th",
        (1, _) => "st",
        (2, _) => "nd",
        (3, _) => "rd",
        _ => "th",
    };
    format!("{n}{suffix}")
}

/// The status of a claim that holds on the datasets marked in `holds`.
fn where_holds(holds: [bool; 2], everywhere: &str) -> String {
    match holds {
        [true, true] => everywhere.to_string(),
        [false, false] => "Not reproduced".to_string(),
        [true, false] => format!("{} only", DATASETS[0]),
        [false, true] => format!("{} only", DATASETS[1]),
    }
}

/// The index of the row with the highest `metric@k`, the first of ties.
fn best(grid: &Grid, metric: Metric, k: usize) -> usize {
    let value = |i: usize| grid[i].1.get(metric, k);
    (0..grid.len()).fold(0, |b, i| if value(i) > value(b) { i } else { b })
}

/// Table 1: every count within [`TABLE1_TOLERANCE`] of the paper's.
fn table1(json: &Json) -> Option<Claim> {
    let mut worst: Option<(f64, String)> = None;
    for dataset in json.as_array()? {
        let name = dataset.get("dataset")?.as_str()?;
        let Json::Obj(measured) = dataset.get("measured")? else {
            return None;
        };
        for (field, ours) in measured {
            let theirs = dataset.get("paper")?.get(field)?.as_f64()?;
            let change = ours.as_f64()? / theirs - 1.0;
            if !worst.as_ref().is_some_and(|(w, _)| change.abs() <= w.abs()) {
                worst = Some((
                    change,
                    format!(
                        "{name} {}",
                        field.replace('_', " ").replace("checkins", "check-ins")
                    ),
                ));
            }
        }
    }
    let (change, cell) = worst?;
    let status = match change.abs() <= TABLE1_TOLERANCE {
        true => "Reproduced",
        false => "Not reproduced",
    };
    let ours = format!("largest cell deviation {} ({cell})", pct(change));
    Some(("Table 1 statistics", ours, status.to_string()))
}

/// Table 2: two workers at least [`TABLE2_SPEEDUP`]x faster than one.
fn table2(json: &Json) -> Option<Claim> {
    let mut speedups = Vec::new();
    for row in json.as_array()? {
        let one = row.get("single_worker_s")?.as_f64()?;
        let two = row.get("two_worker_s")?.as_f64()?;
        speedups.push((row.get("dataset")?.as_str()?, one / two));
    }
    let slowest = speedups
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let status = match slowest {
        s if s >= TABLE2_SPEEDUP => "Reproduced in shape",
        s if s > 1.0 => "Partly",
        _ => "Not reproduced",
    };
    let listed: Vec<String> = speedups
        .iter()
        .map(|(d, s)| format!("{s:.2}x ({d})"))
        .collect();
    let ours = format!("2 workers: {}", listed.join(", "));
    Some(("Table 2: 2 workers ≈ 1.8-1.9x", ours, status.to_string()))
}

/// Figs. 3-4: ST-TransRec ranks first of the nine on Recall@10.
fn methods(grids: &[Grid; 2]) -> Option<Claim> {
    let (mut holds, mut parts) = ([false; 2], Vec::new());
    for (d, grid) in grids.iter().enumerate() {
        let recall = |i: usize| grid[i].1.get(Metric::Recall, 10);
        let ours = grid.iter().position(|(l, _)| l == "ST-TransRec")?;
        let rank = 1
            + (0..grid.len())
                .filter(|&i| recall(i) > recall(ours))
                .count();
        // Against the best other method: the runner-up when ours leads.
        let other =
            (0..grid.len())
                .filter(|&i| i != ours)
                .fold(None, |b: Option<usize>, i| match b {
                    Some(b) if recall(b) >= recall(i) => Some(b),
                    _ => Some(i),
                })?;
        let change = pct(recall(ours) / recall(other) - 1.0);
        let versus = if rank == 1 { "over" } else { "against" };
        holds[d] = rank == 1;
        parts.push(format!(
            "{} of {} on {} ({change} {versus} {})",
            ordinal(rank),
            grid.len(),
            DATASETS[d],
            grid[other].0
        ));
    }
    let claim = "Figs. 3-4: ST-TransRec is best of 9 on Recall@10";
    Some((claim, parts.join("; "), where_holds(holds, "Reproduced")))
}

/// Figs. 5-6: the full model beats each ablation on NDCG@10 by more
/// than [`NOISE`].
fn ablations(grids: &[Grid; 2]) -> Option<Claim> {
    const DROPPED: [(&str, &str); 3] = [
        ("ST-TransRec-1", "MMD"),
        ("ST-TransRec-2", "text"),
        ("ST-TransRec-3", "resampling"),
    ];
    let (mut helps, mut parts) = (Vec::new(), Vec::new());
    for (d, grid) in grids.iter().enumerate() {
        let ndcg = |label: &str| {
            let row = grid.iter().find(|(l, _)| l == label)?;
            Some(row.1.get(Metric::Ndcg, 10))
        };
        let full = ndcg("ST-TransRec")?;
        let mut changes = Vec::new();
        for (variant, component) in DROPPED {
            let change = full / ndcg(variant)? - 1.0;
            if change > NOISE {
                helps.push(format!("{component} on {}", DATASETS[d]));
            }
            changes.push(pct(change));
        }
        parts.push(format!("{} {}", DATASETS[d], changes.join(" / ")));
    }
    let status = match helps.len() {
        0 => "Not reproduced".to_string(),
        n if n == 2 * DROPPED.len() => "Reproduced".to_string(),
        _ => format!("Partly: {}", helps.join(", ")),
    };
    let ours = format!(
        "full model over no MMD / no text / no resampling: {}",
        parts.join("; ")
    );
    Some(("Figs. 5-6: every component helps (NDCG@10)", ours, status))
}

/// A sweep's optimum is interior when the best Recall@10 is neither end
/// of the range and beats both ends by more than [`NOISE`].
fn interior(claim: &'static str, name: &str, grids: &[Grid; 2]) -> Claim {
    let (mut holds, mut parts) = ([false; 2], Vec::new());
    for (d, grid) in grids.iter().enumerate() {
        let recall = |i: usize| grid[i].1.get(Metric::Recall, 10);
        let top = best(grid, Metric::Recall, 10);
        let ends = recall(0).max(recall(grid.len() - 1));
        let at = format!("{name} = {}", grid[top].0);
        if top == 0 || top == grid.len() - 1 {
            parts.push(format!("{at}, an end ({})", DATASETS[d]));
        } else {
            let margin = recall(top) / ends - 1.0;
            holds[d] = margin > NOISE;
            parts.push(format!(
                "{at}, {} over the better end ({})",
                pct(margin),
                DATASETS[d]
            ));
        }
    }
    let ours = format!("best Recall@10 at {}", parts.join("; "));
    (claim, ours, where_holds(holds, "Reproduced"))
}

/// Table 4: one embedding size is best at both of the table's cutoffs,
/// and it is neither the smallest nor the largest tried.
fn best_size(grids: &[Grid; 2]) -> Claim {
    let (mut holds, mut parts) = ([false; 2], Vec::new());
    for (d, grid) in grids.iter().enumerate() {
        let tops = [2, 4].map(|k| best(grid, Metric::Recall, k));
        holds[d] = tops[0] == tops[1] && tops[0] != 0 && tops[0] != grid.len() - 1;
        let sizes = tops.map(|i| grid[i].0.as_str()).join(" / ");
        parts.push(format!("{sizes} ({})", DATASETS[d]));
    }
    let ours = format!("best size at Recall@2 / @4: {}", parts.join(", "));
    let claim = "Table 4: embedding size helps up to a point";
    (claim, ours, where_holds(holds, "Reproduced"))
}

/// Table 5: the deepest tower is best at both of the table's cutoffs.
fn depth(grids: &[Grid; 2]) -> Claim {
    let (mut holds, mut parts) = ([false; 2], Vec::new());
    for (d, grid) in grids.iter().enumerate() {
        let tops = [2, 4].map(|k| best(grid, Metric::Recall, k));
        holds[d] = tops.iter().all(|&i| i == grid.len() - 1);
        let depths = tops.map(|i| grid[i].0.as_str()).join(" / ");
        parts.push(format!("{depths} ({})", DATASETS[d]));
    }
    let ours = format!("best depth at Recall@2 / @4: {}", parts.join(", "));
    (
        "Table 5: deeper towers help",
        ours,
        where_holds(holds, "Reproduced"),
    )
}

/// Table 3: without text the model's top 5 for the study's user changes.
fn case_study(json: &Json) -> Option<Claim> {
    let names = |key: &str| -> Option<Vec<&str>> {
        let recs = json.get(key)?.as_array()?;
        recs.iter()
            .map(|r| r.as_array()?.first()?.as_str())
            .collect()
    };
    let (full, no_text) = (names("full_model")?, names("no_text")?);
    let shared = full.iter().filter(|p| no_text.contains(p)).count();
    let status = match shared < full.len() {
        true => "Reproduced",
        false => "Not reproduced",
    };
    let ours = format!(
        "the full and no-text models' top {} share {shared} POIs",
        full.len()
    );
    Some((
        "Table 3 case study: text changes the top 5",
        ours,
        status.to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid of `(label, Recall@k for k = 2, 4, 10)` rows; the other
    /// metrics are zero.
    fn grid_of(rows: &[(&str, [f64; 3])]) -> Grid {
        rows.iter()
            .map(|(label, recall)| {
                let report = MetricReport {
                    ks: vec![2, 4, 10],
                    values: vec![recall.to_vec(), vec![0.0; 3], recall.to_vec(), vec![0.0; 3]],
                    users: 10,
                };
                (label.to_string(), report)
            })
            .collect()
    }

    #[test]
    fn statuses_follow_their_rules() {
        assert_eq!(where_holds([true, true], "Reproduced"), "Reproduced");
        assert_eq!(where_holds([false, true], "Reproduced"), "Yelp only");
        assert_eq!(where_holds([false, false], "Reproduced"), "Not reproduced");
        assert_eq!(
            ordinal(1) + &ordinal(2) + &ordinal(3) + &ordinal(11),
            "1st2nd3rd11th"
        );
        assert_eq!(pct(-0.0071), "−0.7%");

        // Interior by a clear margin on one dataset, inside the noise on
        // the other.
        let peaked = grid_of(&[
            ("0.0", [0.0, 0.0, 0.40]),
            ("0.1", [0.0, 0.0, 0.50]),
            ("0.2", [0.0, 0.0, 0.45]),
        ]);
        let flat = grid_of(&[
            ("0.0", [0.0, 0.0, 0.50]),
            ("0.1", [0.0, 0.0, 0.51]),
            ("0.2", [0.0, 0.0, 0.49]),
        ]);
        let (_, ours, status) = interior("c", "rho", &[peaked.clone(), flat]);
        assert_eq!(status, "Foursquare only");
        assert!(
            ours.starts_with("best Recall@10 at rho = 0.1, +11.1% over the better end"),
            "{ours}"
        );

        // Best at both cutoffs and neither end: the size claim holds.
        let sizes = grid_of(&[
            ("16", [0.1, 0.2, 0.0]),
            ("32", [0.3, 0.4, 0.0]),
            ("64", [0.2, 0.3, 0.0]),
        ]);
        assert_eq!(best_size(&[sizes.clone(), sizes.clone()]).2, "Reproduced");
        let (_, ours, status) = depth(&[sizes.clone(), sizes]);
        assert_eq!(
            (ours.as_str(), status.as_str()),
            (
                "best depth at Recall@2 / @4: 32 / 32 (Foursquare), 32 / 32 (Yelp)",
                "Not reproduced"
            )
        );

        // Ranked first on one dataset only.
        let lead = grid_of(&[
            ("ItemPop", [0.0, 0.0, 0.30]),
            ("ST-TransRec", [0.0, 0.0, 0.33]),
        ]);
        let trail = grid_of(&[
            ("ItemPop", [0.0, 0.0, 0.40]),
            ("ST-TransRec", [0.0, 0.0, 0.30]),
        ]);
        let (_, ours, status) = methods(&[trail, lead]).expect("ST-TransRec rows");
        assert_eq!(status, "Yelp only");
        assert_eq!(
            ours,
            "2nd of 2 on Foursquare (−25.0% against ItemPop); 1st of 2 on Yelp (+10.0% over ItemPop)"
        );
    }

    /// The table in EXPERIMENTS.md is this module's output over the
    /// committed record, line for line.
    #[test]
    fn experiments_md_holds_the_summary_of_the_record() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let summary = render(&root.join("results")).expect("the record reads");
        let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        let table: String = doc
            .lines()
            .skip_while(|l| *l != "## Summary of shape-claims")
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .filter(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(table, summary, "rerun `paper summary` and paste its output");
    }
}
