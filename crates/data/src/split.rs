//! Train/test construction for crossing-city evaluation (Sec. 4.1,
//! "Dataset Construction").
//!
//! Pick a target city; users who checked into both the target and some
//! source city are *test users*. Their target-city check-ins become held
//! out ground truth; everything else (all source-city check-ins, plus
//! target-city check-ins of non-crossing local users) is training data.

use crate::{Checkin, CityId, Dataset, PoiId, UserId};

/// A crossing-city train/test split over a [`Dataset`].
#[derive(Debug, Clone)]
pub struct CrossingCitySplit {
    /// The held-out city.
    pub target_city: CityId,
    /// Training check-ins (order preserved from the dataset).
    pub train: Vec<Checkin>,
    /// Crossing-city users, ascending by id.
    pub test_users: Vec<UserId>,
    /// Parallel to `test_users`: distinct ground-truth POIs each visited
    /// in the target city.
    pub(crate) ground_truth: Vec<Vec<PoiId>>,
}

impl CrossingCitySplit {
    /// Builds the split for `target_city`.
    pub fn build(dataset: &Dataset, target_city: CityId) -> Self {
        let test_users = dataset.crossing_city_users(target_city);
        let is_test = {
            let mut mask = vec![false; dataset.num_users()];
            for u in &test_users {
                mask[u.idx()] = true;
            }
            mask
        };

        let train = dataset
            .checkins()
            .iter()
            .filter(|c| {
                let in_target = dataset.poi(c.poi).city == target_city;
                // Held out iff: test user AND check-in is in the target city.
                !(is_test[c.user.idx()] && in_target)
            })
            .copied()
            .collect();

        let ground_truth = test_users
            .iter()
            .map(|&u| dataset.user_visited_in_city(u, target_city))
            .collect();

        Self {
            target_city,
            train,
            test_users,
            ground_truth,
        }
    }

    /// Number of held-out check-ins (the paper's "crossing-city
    /// check-ins" row of Table 1 counts these).
    pub fn held_out_checkins(&self, dataset: &Dataset) -> usize {
        dataset.checkins().len() - self.train.len()
    }

    /// Ground truth for one test user, by position.
    pub fn ground_truth_for(&self, idx: usize) -> &[PoiId] {
        &self.ground_truth[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::tiny_dataset;

    #[test]
    fn holds_out_crossing_users_target_checkins() {
        let d = tiny_dataset();
        let split = CrossingCitySplit::build(&d, CityId(1));
        assert_eq!(split.test_users, vec![UserId(2)]);
        assert_eq!(split.ground_truth_for(0), &[PoiId(3)]);
        // User 2's one target-city check-in (PoiId(3)) is held out.
        assert_eq!(split.held_out_checkins(&d), 1);
        assert!(split
            .train
            .iter()
            .all(|c| !(c.user == UserId(2) && d.poi(c.poi).city == CityId(1))));
        // User 1 is a target-city local: their check-ins stay in training.
        assert!(split
            .train
            .iter()
            .any(|c| c.user == UserId(1) && d.poi(c.poi).city == CityId(1)));
    }

    #[test]
    fn source_checkins_of_test_users_kept_for_training() {
        let d = tiny_dataset();
        let split = CrossingCitySplit::build(&d, CityId(1));
        let kept = split.train.iter().filter(|c| c.user == UserId(2)).count();
        assert_eq!(kept, 2, "both source-city check-ins of user 2 remain");
    }

    #[test]
    fn no_crossing_users_means_empty_test_set() {
        let d = tiny_dataset();
        // City 0 as target: only user 2 crosses (visited both) — so use a
        // fresh city id that nobody visited twice. City 0's crossing users:
        let split = CrossingCitySplit::build(&d, CityId(0));
        assert_eq!(split.test_users, vec![UserId(2)]);
        // Their city-0 check-ins are held out (2 of them: dedup happens
        // only in ground truth, not in the held-out count).
        assert_eq!(split.held_out_checkins(&d), 2);
        assert_eq!(split.ground_truth_for(0), &[PoiId(0)]);
    }
}
