//! ASCII table rendering in the paper's layout plus JSON result dumps.

use crate::json::Json;
use st_eval::{Metric, MetricReport};
use std::path::Path;

/// Renders a figure-style block: one table per metric, rows = methods,
/// columns = cutoffs.
pub fn render_metric_table(title: &str, rows: &[(String, MetricReport)], ks: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    for metric in Metric::ALL {
        out.push_str(&format!("\n-- {} --\n", metric.name()));
        out.push_str(&format!("{:>14}", "method"));
        for k in ks {
            out.push_str(&format!("     @{k:<3}"));
        }
        out.push('\n');
        for (name, report) in rows {
            out.push_str(&format!("{name:>14}"));
            for &k in ks {
                out.push_str(&format!("   {:.4}", report.get(metric, k)));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a generic labelled-rows table (Table 2/4/5 style).
pub fn render_rows(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n{:>14}", ""));
    for h in header {
        out.push_str(&format!("  {h:>9}"));
    }
    out.push('\n');
    for (label, values) in rows {
        out.push_str(&format!("{label:>14}"));
        for v in values {
            out.push_str(&format!("  {v:>9.4}"));
        }
        out.push('\n');
    }
    out
}

/// Serializes `value` to `results/<name>.json` (creating the directory),
/// returning the path written. Errors are surfaced, not swallowed — a
/// harness run without its artifacts is a failed run.
pub fn save_json(name: &str, value: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("{value:#}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use st_eval::{rank_metrics, MetricAccumulator};

    fn dummy_report() -> MetricReport {
        let mut acc = MetricAccumulator::new(&[2, 10]);
        acc.add(&rank_metrics(&[0.9, 0.1], &[true, false], &[2, 10]));
        acc.finish()
    }

    #[test]
    fn metric_table_contains_all_sections() {
        let rows = vec![("ItemPop".to_string(), dummy_report())];
        let text = render_metric_table("Fig. 3", &rows, &[2, 10]);
        for needle in [
            "Fig. 3",
            "Recall",
            "Precision",
            "NDCG",
            "MAP",
            "ItemPop",
            "@2",
            "@10",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn rows_table_renders_values() {
        let text = render_rows(
            "Table 2",
            &["1-worker", "2-worker"],
            &[("Foursquare".into(), vec![94.29, 50.74])],
        );
        assert!(text.contains("94.2900"));
        assert!(text.contains("Foursquare"));
    }

    #[test]
    fn save_json_roundtrips() {
        let tmp = std::env::temp_dir().join(format!("st-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        let path = save_json("unit-test", &vec![1, 2, 3].to_json()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(old).unwrap();
        assert!(text.contains('1') && text.contains('3'));
    }
}
