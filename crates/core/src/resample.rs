//! Density-based spatial resampling (Sec. 3.1.4, Eq. 6-9).
//!
//! For one city: grid the bounding box, run Algorithm 1 to get uniformly
//! accessible regions, compute region densities, and expose a sampler
//! over POIs whose distribution is the paper's mixture of
//!
//! - the *raw* check-in distribution (each check-in equally likely), plus
//! - `alpha * sum_r n'_r` resampled draws via the two-stage procedure of
//!   Eq. 9: region `r ~ P(r|c)` (Eq. 8, inverse-density), then POI
//!   `v ~ P(v|r)` (Eq. 7, check-in proportional within the region).
//!
//! With `alpha = 0` the sampler degenerates to the raw distribution
//! (ST-TransRec-3); with `alpha = 1` all regions reach the density of the
//! densest region in expectation.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use st_data::{CityId, Dataset, PoiId};
use st_geo::{
    segment_regions, CellUserIndex, Grid, RegionDensities, RegionId, SeedOrder, Segmentation,
};

/// A per-city density-balanced POI sampler.
#[derive(Debug)]
pub struct CityResampler {
    grid: Grid,
    segmentation: Segmentation,
    densities: RegionDensities,
    /// Raw check-in draw: each check-in equally likely -> POI weight is
    /// its popularity.
    raw_pois: Vec<PoiId>,
    raw_dist: Option<WeightedIndex<f64>>,
    raw_count: usize,
    /// Two-stage resampling structures.
    region_dist: Option<WeightedIndex<f64>>,
    region_pois: Vec<Vec<PoiId>>,
    region_poi_dists: Vec<Option<WeightedIndex<f64>>>,
    /// `alpha * total_quota`, the expected number of resampled draws.
    resample_mass: f64,
}

impl CityResampler {
    /// Builds the resampler for `city` from the training check-ins in
    /// `train` (test data must not leak into segmentation or densities).
    ///
    /// `grid_n` is the paper's `n` (an `n x n` grid), `delta` the
    /// Algorithm 1 merge threshold and `alpha` the punishment rate.
    pub fn build(
        dataset: &Dataset,
        train: &[st_data::Checkin],
        city: CityId,
        grid_n: usize,
        delta: f64,
        alpha: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let grid = Grid::new(dataset.city(city).bbox, grid_n, grid_n);

        // Per-cell visitor index + per-POI check-in counts, training only.
        let mut index = CellUserIndex::new(grid.num_cells());
        let mut poi_checkins: Vec<usize> = vec![0; dataset.num_pois()];
        let mut cell_checkins = vec![0usize; grid.num_cells()];
        for c in train {
            let poi = dataset.poi(c.poi);
            if poi.city != city {
                continue;
            }
            if let Some(cell) = grid.cell_of(&poi.location) {
                let flat = grid.flat_index(cell);
                index.record(flat, c.user.0);
                cell_checkins[flat] += 1;
                poi_checkins[c.poi.idx()] += 1;
            }
        }

        let segmentation = segment_regions(&grid, &index, delta, SeedOrder::DenseFirst, rng);
        let densities = RegionDensities::from_segmentation(&segmentation, &cell_checkins);

        // Raw distribution: POIs of this city weighted by check-ins.
        let mut raw_pois = Vec::new();
        let mut raw_weights = Vec::new();
        let mut raw_count = 0usize;
        for &poi in dataset.pois_in_city(city) {
            let n = poi_checkins[poi.idx()];
            if n > 0 {
                raw_pois.push(poi);
                raw_weights.push(n as f64);
                raw_count += n;
            }
        }
        let raw_dist = WeightedIndex::new(&raw_weights).ok();

        // Two-stage distributions (Eq. 7-8).
        let region_weights = densities.region_distribution();
        let region_dist = WeightedIndex::new(&region_weights).ok();
        let mut region_pois: Vec<Vec<PoiId>> = vec![Vec::new(); segmentation.num_regions()];
        let mut region_poi_weights: Vec<Vec<f64>> = vec![Vec::new(); segmentation.num_regions()];
        for &poi in dataset.pois_in_city(city) {
            let n = poi_checkins[poi.idx()];
            if n == 0 {
                continue;
            }
            let loc = &dataset.poi(poi).location;
            let Some(cell) = grid.cell_of(loc) else {
                continue;
            };
            let Some(region) = segmentation.region_of_cell(grid.flat_index(cell)) else {
                continue;
            };
            region_pois[region.0].push(poi);
            region_poi_weights[region.0].push(n as f64);
        }
        let region_poi_dists = region_poi_weights
            .iter()
            .map(|w| WeightedIndex::new(w).ok())
            .collect();

        let resample_mass = alpha * densities.total_quota() as f64;

        Self {
            grid,
            segmentation,
            densities,
            raw_pois,
            raw_dist,
            raw_count,
            region_dist,
            region_pois,
            region_poi_dists,
            resample_mass,
        }
    }

    /// The segmentation Algorithm 1 produced.
    pub fn segmentation(&self) -> &Segmentation {
        &self.segmentation
    }

    /// Region densities.
    pub fn densities(&self) -> &RegionDensities {
        &self.densities
    }

    /// Number of raw training check-ins covered.
    pub fn raw_checkins(&self) -> usize {
        self.raw_count
    }

    /// Expected resampled draws (`alpha * sum_r n'_r`).
    pub fn resample_mass(&self) -> f64 {
        self.resample_mass
    }

    /// True if the city had any usable training check-ins.
    pub(crate) fn is_usable(&self) -> bool {
        self.raw_dist.is_some()
    }

    /// Draws one POI from the balanced mixture distribution.
    ///
    /// # Panics
    /// Panics if the city has no training check-ins (check
    /// [`CityResampler::is_usable`]).
    pub(crate) fn sample_poi(&self, rng: &mut impl Rng) -> PoiId {
        let raw = self.raw_dist.as_ref().expect("city has no check-ins");
        let total = self.raw_count as f64 + self.resample_mass;
        let use_resampled =
            self.resample_mass > 0.0 && rng.gen::<f64>() * total >= self.raw_count as f64;
        if use_resampled {
            if let Some(poi) = self.sample_two_stage(rng) {
                return poi;
            }
        }
        self.raw_pois[raw.sample(rng)]
    }

    /// The two-stage draw of Eq. 9. `None` when the drawn region holds no
    /// POIs (cannot happen for regions with check-ins; defensive).
    fn sample_two_stage(&self, rng: &mut impl Rng) -> Option<PoiId> {
        let region = RegionId(self.region_dist.as_ref()?.sample(rng));
        let dist = self.region_poi_dists[region.0].as_ref()?;
        Some(self.region_pois[region.0][dist.sample(rng)])
    }

    /// Draws a batch of POIs.
    pub fn sample_batch(&self, n: usize, rng: &mut impl Rng) -> Vec<PoiId> {
        (0..n).map(|_| self.sample_poi(rng)).collect()
    }

    /// The region a POI's location falls into, if any.
    pub fn region_of_poi(&self, dataset: &Dataset, poi: PoiId) -> Option<RegionId> {
        let loc = &dataset.poi(poi).location;
        let cell = self.grid.cell_of(loc)?;
        self.segmentation.region_of_cell(self.grid.flat_index(cell))
    }
}

/// Samples POIs across several cities (the paper's "source city" side is
/// all non-target cities together), drawing a city proportional to its
/// balanced mass, then a POI from that city's resampler.
#[derive(Debug)]
pub(crate) struct MultiCityResampler {
    cities: Vec<CityResampler>,
    city_dist: WeightedIndex<f64>,
}

impl MultiCityResampler {
    /// Combines per-city resamplers. Unusable (empty) cities are dropped.
    ///
    /// # Panics
    /// Panics if every city is empty.
    pub(crate) fn new(cities: Vec<CityResampler>) -> Self {
        let cities: Vec<CityResampler> = cities.into_iter().filter(|c| c.is_usable()).collect();
        assert!(!cities.is_empty(), "no usable cities for resampling");
        let weights: Vec<f64> = cities
            .iter()
            .map(|c| c.raw_checkins() as f64 + c.resample_mass())
            .collect();
        let city_dist = WeightedIndex::new(&weights).expect("positive city masses");
        Self { cities, city_dist }
    }

    /// Draws one POI.
    pub(crate) fn sample_poi(&self, rng: &mut impl Rng) -> PoiId {
        let ci = self.city_dist.sample(rng);
        self.cities[ci].sample_poi(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;

    fn setup() -> (st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    fn build(alpha: f64) -> (st_data::Dataset, CityResampler) {
        let (d, split) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let r = CityResampler::build(&d, &split.train, CityId(0), 8, 0.1, alpha, &mut rng);
        (d, r)
    }

    #[test]
    fn builds_regions_and_densities() {
        let (_, r) = build(0.1);
        assert!(r.is_usable());
        assert!(r.segmentation().num_regions() >= 1);
        assert!(r.raw_checkins() > 100);
    }

    #[test]
    fn alpha_zero_is_pure_raw_distribution() {
        let (_, r) = build(0.0);
        assert_eq!(r.resample_mass(), 0.0);
        // Sampling still works and only returns city POIs with check-ins.
        let mut rng = SmallRng::seed_from_u64(1);
        let batch = r.sample_batch(200, &mut rng);
        assert_eq!(batch.len(), 200);
    }

    #[test]
    fn samples_only_city_pois() {
        let (d, r) = build(0.2);
        let mut rng = SmallRng::seed_from_u64(2);
        for poi in r.sample_batch(300, &mut rng) {
            assert_eq!(d.poi(poi).city, CityId(0));
        }
    }

    #[test]
    fn resampling_lifts_sparse_region_share() {
        // The core claim of Sec. 3.1.4: with alpha > 0, POIs outside the
        // densest region appear more often in MMD batches.
        let (d, r0) = build(0.0);
        let (_, r1) = build(1.0);
        let dense_share = |r: &CityResampler, d: &st_data::Dataset| {
            let Some(rstar) = r.densities().densest() else {
                return 1.0;
            };
            let mut rng = SmallRng::seed_from_u64(3);
            let n = 3000;
            let hits = r
                .sample_batch(n, &mut rng)
                .into_iter()
                .filter(|&p| r.region_of_poi(d, p) == Some(rstar))
                .count();
            hits as f64 / n as f64
        };
        let s0 = dense_share(&r0, &d);
        let s1 = dense_share(&r1, &d);
        // If the city segments into a single region there is nothing to
        // rebalance; the tiny config is built to avoid that.
        assert!(
            r0.segmentation().num_regions() > 1,
            "tiny config segmented into one region; test is vacuous"
        );
        assert!(
            s1 < s0,
            "alpha=1 should reduce densest-region share: {s0} -> {s1}"
        );
    }

    #[test]
    fn mixture_mass_matches_eq_6() {
        let (_, r) = build(0.5);
        let quota = r.densities().total_quota();
        assert!((r.resample_mass() - 0.5 * quota as f64).abs() < 1e-9);
    }

    #[test]
    fn multi_city_resampler_draws_from_all_source_cities() {
        let (d, split) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        // tiny config: city 0 is the only source; add target too to test
        // the multi-city plumbing.
        let r0 = CityResampler::build(&d, &split.train, CityId(0), 8, 0.1, 0.1, &mut rng);
        let r1 = CityResampler::build(&d, &split.train, CityId(1), 8, 0.1, 0.1, &mut rng);
        let multi = MultiCityResampler::new(vec![r0, r1]);
        assert_eq!(multi.cities.len(), 2);
        let batch: Vec<PoiId> = (0..400).map(|_| multi.sample_poi(&mut rng)).collect();
        let c0 = batch
            .iter()
            .filter(|&&p| d.poi(p).city == CityId(0))
            .count();
        let c1 = batch.len() - c0;
        assert!(c0 > 50 && c1 > 50, "both cities sampled: {c0}/{c1}");
    }

    #[test]
    #[should_panic(expected = "no usable cities")]
    fn multi_city_rejects_all_empty() {
        MultiCityResampler::new(vec![]);
    }

    #[test]
    fn test_split_does_not_leak_into_densities() {
        // Build on the target city: held-out check-ins must not count.
        let (d, split) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let target = split.target_city;
        let r_train = CityResampler::build(&d, &split.train, target, 8, 0.1, 0.1, &mut rng);
        let all: Vec<_> = d.checkins().to_vec();
        let r_all = CityResampler::build(&d, &all, target, 8, 0.1, 0.1, &mut rng);
        assert!(r_train.raw_checkins() < r_all.raw_checkins());
    }
}
