//! Dataset statistics in the shape of the paper's Table 1.

use crate::{CityId, CrossingCitySplit, Dataset};
use std::fmt;

/// The rows of Table 1 for one dataset and one target city.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Total distinct users.
    pub users: usize,
    /// Total POIs.
    pub pois: usize,
    /// Vocabulary size.
    pub words: usize,
    /// Total check-ins.
    pub checkins: usize,
    /// Crossing-city users w.r.t. the target city.
    pub crossing_users: usize,
    /// Their held-out check-ins in the target city.
    pub crossing_checkins: usize,
}

impl DatasetStats {
    /// Computes all Table 1 statistics for `dataset` with `target` as the
    /// held-out city.
    pub fn compute(dataset: &Dataset, target: CityId) -> Self {
        let split = CrossingCitySplit::build(dataset, target);
        Self {
            users: dataset.num_users(),
            pois: dataset.num_pois(),
            words: dataset.vocab().len(),
            checkins: dataset.checkins().len(),
            crossing_users: split.test_users.len(),
            crossing_checkins: split.held_out_checkins(dataset),
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  #Users            {:>10}", self.users)?;
        writeln!(f, "  #POIs             {:>10}", self.pois)?;
        writeln!(f, "  #Words            {:>10}", self.words)?;
        writeln!(f, "  #Check-ins        {:>10}", self.checkins)?;
        writeln!(f, "  #Crossing users   {:>10}", self.crossing_users)?;
        write!(f, "  #Crossing check-ins{:>9}", self.crossing_checkins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::tiny_dataset;

    #[test]
    fn stats_match_fixture() {
        let d = tiny_dataset();
        let s = DatasetStats::compute(&d, CityId(1));
        assert_eq!(
            s,
            DatasetStats {
                users: 3,
                pois: 4,
                words: 3,
                checkins: 6,
                crossing_users: 1,
                crossing_checkins: 1,
            }
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let d = tiny_dataset();
        let text = DatasetStats::compute(&d, CityId(1)).to_string();
        for needle in ["#Users", "#POIs", "#Words", "#Check-ins", "#Crossing"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
