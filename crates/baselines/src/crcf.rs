//! CRCF — cross-region collaborative filtering (Zhang & Wang, KAIS'16).
//!
//! Combines a *content interest* model (how well a POI's words match the
//! user's word profile) with a *location preference* (distance decay from
//! the user's assumed position in the new region). The paper notes
//! CRCF's weakness for crossing-city use: it "depends on the location of
//! users in a new city", which is unknown for a first-time visitor — we
//! follow the paper and anchor the visitor at the city centre, which
//! biases it toward downtown POIs.

use crate::mf::{profile_poi_cosine, user_word_profiles};
use st_data::{Checkin, CityId, Dataset, PoiId, UserId, WordId};
use st_eval::Scorer;
use st_geo::GeoPoint;

/// Distance-decay scale in km for the location preference.
const DECAY_KM: f64 = 8.0;
/// Mixing weight of content interest vs location preference.
const CONTENT_WEIGHT: f32 = 0.7;

/// The fitted, self-contained CRCF scorer.
#[derive(Debug)]
pub(crate) struct Crcf {
    profiles: Vec<Vec<(u32, f32)>>,
    /// POI words snapshotted at fit time so scoring needs no dataset.
    poi_words: Vec<Vec<WordId>>,
    /// Per-POI location preference given the city-centre anchor
    /// (zero outside the target city).
    location_pref: Vec<f32>,
}

impl Crcf {
    /// Fits CRCF: word profiles from training check-ins plus the
    /// distance-decay prior toward `target` city's centre.
    pub(crate) fn fit(dataset: &Dataset, train: &[Checkin], target: CityId) -> Self {
        let profiles = user_word_profiles(dataset, train);
        let anchor: GeoPoint = dataset.city(target).bbox.center();
        let location_pref = dataset
            .pois()
            .iter()
            .map(|p| {
                if p.city == target {
                    (-(p.location.haversine_km(&anchor)) / DECAY_KM).exp() as f32
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            profiles,
            poi_words: dataset.pois().iter().map(|p| p.words.clone()).collect(),
            location_pref,
        }
    }
}

impl Scorer for Crcf {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        let profile = &self.profiles[user.idx()];
        pois.iter()
            .map(|p| {
                let content = profile_poi_cosine(profile, &self.poi_words[p.idx()]);
                CONTENT_WEIGHT * content + (1.0 - CONTENT_WEIGHT) * self.location_pref[p.idx()]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{fitted, tiny};
    use crate::Method;
    use st_eval::{evaluate, EvalConfig, Metric};

    #[test]
    fn location_preference_decays_with_distance() {
        let (d, split) = tiny();
        let m = Crcf::fit(d, &split.train, CityId(1));
        let center = d.city(CityId(1)).bbox.center();
        let pois = d.pois_in_city(CityId(1));
        let (mut best, mut best_d) = (pois[0], f64::MAX);
        let (mut worst, mut worst_d) = (pois[0], 0.0f64);
        for &p in pois {
            let dist = d.poi(p).location.haversine_km(&center);
            if dist < best_d {
                best = p;
                best_d = dist;
            }
            if dist > worst_d {
                worst = p;
                worst_d = dist;
            }
        }
        assert!(m.location_pref[best.idx()] > m.location_pref[worst.idx()]);
        // Source-city POIs get zero location preference.
        let src = d.pois_in_city(CityId(0))[0];
        assert_eq!(m.location_pref[src.idx()], 0.0);
    }

    #[test]
    fn content_matching_lifts_taste_aligned_pois() {
        let (d, split) = tiny();
        let report = evaluate(fitted(Method::Crcf), d, split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.08, "CRCF recall@10 = {r10}");
    }

    #[test]
    fn scores_are_finite_for_all_users() {
        let (d, _) = tiny();
        let m = fitted(Method::Crcf);
        let pois = d.pois_in_city(CityId(1));
        for u in 0..d.num_users() as u32 {
            let s = m.score_batch(UserId(u), pois);
            assert!(s.iter().all(|x| x.is_finite()));
        }
    }
}
