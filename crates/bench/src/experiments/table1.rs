//! Table 1 — statistics of the datasets.
//!
//! Generated at scale 1.0 by default so the numbers line up with the
//! paper's (the generator is calibrated to them); honours `ST_SCALE` if
//! the caller passes the environment scale explicitly.

use crate::runner::{load_at, DatasetKind};

use st_data::DatasetStats;

/// Paper-reported reference values for one dataset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperStats {
    /// #Users row.
    pub(crate) users: usize,
    /// #POIs row.
    pub(crate) pois: usize,
    /// #Words row.
    pub(crate) words: usize,
    /// #Check-ins row.
    pub(crate) checkins: usize,
    /// Crossing-city #Users row.
    pub(crate) crossing_users: usize,
    /// Crossing-city #Check-ins row.
    pub(crate) crossing_checkins: usize,
}

crate::json_object_impl!(PaperStats {
    users,
    pois,
    words,
    checkins,
    crossing_users,
    crossing_checkins,
});

/// Table 1's published numbers.
pub(crate) fn paper_reference(kind: DatasetKind) -> PaperStats {
    match kind {
        DatasetKind::Foursquare => PaperStats {
            users: 3_600,
            pois: 31_784,
            words: 3_619,
            checkins: 191_515,
            crossing_users: 732,
            crossing_checkins: 3_520,
        },
        DatasetKind::Yelp => PaperStats {
            users: 9_805,
            pois: 6_910,
            words: 1_648,
            checkins: 433_305,
            crossing_users: 983,
            crossing_checkins: 6_137,
        },
    }
}

/// One dataset's measured-vs-paper rows.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name.
    pub(crate) dataset: String,
    /// Our generated statistics.
    pub(crate) measured: DatasetStats,
    /// The paper's statistics.
    pub(crate) paper: PaperStats,
}

crate::json_object_impl!(Table1Row {
    dataset,
    measured,
    paper,
});

/// Generates both datasets at `scale` and collects Table 1.
pub fn run(scale: f64) -> Vec<Table1Row> {
    [DatasetKind::Foursquare, DatasetKind::Yelp]
        .into_iter()
        .map(|kind| {
            let loaded = load_at(kind, scale);
            let measured = DatasetStats::compute(&loaded.dataset, loaded.split.target_city);
            Table1Row {
                dataset: kind.name().to_string(),
                measured,
                paper: paper_reference(kind),
            }
        })
        .collect()
}

/// Renders the table with paper reference columns.
pub fn render(rows: &[Table1Row], scale: f64) -> String {
    let mut out = format!("== Table 1: Statistics of Datasets (scale {scale}) ==\n");
    out.push_str(&format!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}\n",
        "", "measured", "paper", "measured", "paper"
    ));
    let (a, b) = (&rows[0], &rows[1]);
    out.push_str(&format!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}\n",
        "", a.dataset, a.dataset, b.dataset, b.dataset
    ));
    let mut row = |label: &str, ma: usize, pa: usize, mb: usize, pb: usize| {
        out.push_str(&format!("{label:<22}{ma:>12}{pa:>12}{mb:>12}{pb:>12}\n"));
    };
    row(
        "#Users",
        a.measured.users,
        a.paper.users,
        b.measured.users,
        b.paper.users,
    );
    row(
        "#POIs",
        a.measured.pois,
        a.paper.pois,
        b.measured.pois,
        b.paper.pois,
    );
    row(
        "#Words",
        a.measured.words,
        a.paper.words,
        b.measured.words,
        b.paper.words,
    );
    row(
        "#Check-ins",
        a.measured.checkins,
        a.paper.checkins,
        b.measured.checkins,
        b.paper.checkins,
    );
    row(
        "#Crossing users",
        a.measured.crossing_users,
        a.paper.crossing_users,
        b.measured.crossing_users,
        b.paper.crossing_users,
    );
    row(
        "#Crossing check-ins",
        a.measured.crossing_checkins,
        a.paper.crossing_checkins,
        b.measured.crossing_checkins,
        b.paper.crossing_checkins,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_preserves_ratios() {
        let rows = run(0.02);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let measured_per_user = r.measured.checkins as f64 / r.measured.users as f64;
            let paper_per_user = r.paper.checkins as f64 / r.paper.users as f64;
            assert!(
                (measured_per_user / paper_per_user - 1.0).abs() < 0.5,
                "{}: {measured_per_user} vs {paper_per_user}",
                r.dataset
            );
        }
        let text = render(&rows, 0.02);
        assert!(text.contains("#Crossing check-ins"));
    }
}
