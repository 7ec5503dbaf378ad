//! PACE — Preference And Context Embedding (Yang et al., KDD'17).
//!
//! PACE extends neural collaborative filtering by jointly predicting the
//! *context* of POIs while modeling user-POI interactions. Architecturally
//! it is ST-TransRec minus the two transfer mechanisms: no MMD alignment
//! and no density-based resampling; its context prediction additionally
//! covers *spatial* neighbours within a limited distance (the paper's
//! critique: "it just exploited the geographical relations among POIs
//! within a limited distance").
//!
//! We therefore build PACE from the core crate's components — the same
//! NCF tower and word-context skipgram, with the MMD/resampling variant
//! disabled — plus a POI-POI neighbour-context loss of our own.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{CrossingCitySplit, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_tensor::{Gradients, Tape};
use st_transrec_core::{ModelConfig, STTransRec, Variant};

/// PACE hyperparameters.
#[derive(Debug, Clone)]
pub struct PaceConfig {
    /// Base neural configuration (tower, embeddings, epochs...).
    pub base: ModelConfig,
    /// Neighbour-context radius in km ("limited distance").
    pub neighbor_km: f64,
    /// Max spatial neighbours kept per POI.
    pub max_neighbors: usize,
    /// Spatial-context pairs per training step.
    pub spatial_batch: usize,
}

impl PaceConfig {
    /// Derives the PACE setup from an ST-TransRec configuration (the
    /// paper sets PACE's hyperparameters "the same to those of
    /// ST-TransRec").
    pub fn from_model(base: ModelConfig) -> Self {
        Self {
            base: base.with_variant(Variant::NoMmd),
            neighbor_km: 2.0,
            max_neighbors: 10,
            spatial_batch: 64,
        }
    }
}

/// The trained PACE model.
pub struct Pace {
    inner: STTransRec,
    /// Flat spatial-context edges (poi, neighbour poi).
    spatial_edges: Vec<(u32, u32)>,
    config: PaceConfig,
}

impl Pace {
    /// Builds PACE over the training split.
    pub fn new(dataset: &Dataset, split: &CrossingCitySplit, config: PaceConfig) -> Self {
        let inner = STTransRec::new(dataset, split, config.base.clone());
        let spatial_edges = build_spatial_edges(dataset, config.neighbor_km, config.max_neighbors);
        Self {
            inner,
            spatial_edges,
            config,
        }
    }

    /// Number of spatial context edges discovered.
    pub fn num_spatial_edges(&self) -> usize {
        self.spatial_edges.len()
    }

    /// Trains for the configured number of epochs: the inner NCF + word
    /// context losses, plus the spatial neighbour-context loss.
    pub fn fit(&mut self, dataset: &Dataset) {
        let epochs = self.config.base.epochs;
        let steps = self.inner.steps_per_epoch();
        let mut rng = SmallRng::seed_from_u64(self.config.base.seed ^ 0x9ACE);
        for _ in 0..epochs {
            for _ in 0..steps {
                self.inner.train_step(dataset);
                self.spatial_step(dataset, &mut rng);
            }
        }
    }

    /// One skipgram-style step over spatial neighbour pairs: neighbouring
    /// POIs should have similar embeddings; random POIs should not.
    fn spatial_step(&mut self, dataset: &Dataset, rng: &mut SmallRng) {
        if self.spatial_edges.is_empty() {
            return;
        }
        let table = self.inner.params();
        let poi_table = {
            // The POI table is the first embedding registered after users;
            // resolve by name for robustness.
            table
                .iter()
                .find(|(_, name, _)| *name == "poi_emb")
                .map(|(id, _, _)| id)
                .expect("poi embedding registered")
        };
        let n = self.config.spatial_batch;
        let mut a_rows = Vec::with_capacity(2 * n);
        let mut b_rows = Vec::with_capacity(2 * n);
        let mut labels = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let &(a, b) = &self.spatial_edges[rng.gen_range(0..self.spatial_edges.len())];
            a_rows.push(a as usize);
            b_rows.push(b as usize);
            labels.push(1.0);
            a_rows.push(a as usize);
            b_rows.push(rng.gen_range(0..dataset.num_pois()));
            labels.push(0.0);
        }
        let mut grads = Gradients::zeros_like(self.inner.params());
        {
            let mut tape = Tape::new(self.inner.params());
            let av = tape.gather_param(poi_table, &a_rows);
            let bv = tape.gather_param(poi_table, &b_rows);
            let logits = tape.row_dot(av, bv);
            let loss = tape.bce_with_logits(logits, &labels);
            tape.backward(loss, &mut grads);
        }
        self.inner.apply(&grads);
    }
}

/// POIs within `radius_km` in the same city become mutual context
/// (capped at `max_neighbors`, nearest kept). Uses a coarse lat/lon hash
/// grid so construction is near-linear instead of all-pairs.
fn build_spatial_edges(dataset: &Dataset, radius_km: f64, max_neighbors: usize) -> Vec<(u32, u32)> {
    use std::collections::HashMap;
    // ~1km per 0.009 degrees latitude; bucket at the radius scale.
    let bucket_deg = (radius_km / 111.0).max(1e-4);
    let mut buckets: HashMap<(u16, i32, i32), Vec<u32>> = HashMap::new();
    for p in dataset.pois() {
        let key = (
            p.city.0,
            (p.location.lat / bucket_deg) as i32,
            (p.location.lon / bucket_deg) as i32,
        );
        buckets.entry(key).or_default().push(p.id.0);
    }
    let mut edges = Vec::new();
    for p in dataset.pois() {
        let (bx, by) = (
            (p.location.lat / bucket_deg) as i32,
            (p.location.lon / bucket_deg) as i32,
        );
        let mut neigh: Vec<(f64, u32)> = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(cands) = buckets.get(&(p.city.0, bx + dx, by + dy)) {
                    for &q in cands {
                        if q == p.id.0 {
                            continue;
                        }
                        let dist = p.location.haversine_km(&dataset.poi(PoiId(q)).location);
                        if dist <= radius_km {
                            neigh.push((dist, q));
                        }
                    }
                }
            }
        }
        neigh.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        for &(_, q) in neigh.iter().take(max_neighbors) {
            edges.push((p.id.0, q));
        }
    }
    edges
}

impl Scorer for Pace {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        self.inner.score_batch(user, pois)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::CityId;
    use st_eval::{evaluate, EvalConfig, Metric};

    fn setup() -> (Dataset, CrossingCitySplit) {
        let (d, _) = generate(&SynthConfig::tiny());
        let split = CrossingCitySplit::build(&d, CityId(1));
        (d, split)
    }

    #[test]
    fn pace_disables_mmd_but_keeps_text() {
        let (d, split) = setup();
        let cfg = PaceConfig::from_model(ModelConfig::test_small());
        assert!(!cfg.base.use_mmd());
        assert!(cfg.base.use_text());
        let p = Pace::new(&d, &split, cfg);
        assert!(p.num_spatial_edges() > 0, "no spatial context found");
    }

    #[test]
    fn spatial_edges_are_same_city_and_within_radius() {
        let (d, _) = setup();
        let edges = build_spatial_edges(&d, 2.0, 5);
        for &(a, b) in &edges {
            let (pa, pb) = (d.poi(PoiId(a)), d.poi(PoiId(b)));
            assert_eq!(pa.city, pb.city);
            assert!(pa.location.haversine_km(&pb.location) <= 2.0 + 1e-9);
        }
        // Cap respected.
        let mut counts = std::collections::HashMap::new();
        for &(a, _) in &edges {
            *counts.entry(a).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c <= 5));
    }

    #[test]
    fn pace_trains_and_beats_chance() {
        let (d, split) = setup();
        let mut cfg = PaceConfig::from_model(ModelConfig::test_small());
        cfg.base.epochs = 3;
        let mut p = Pace::new(&d, &split, cfg);
        p.fit(&d);
        let report = evaluate(&p, &d, &split, &EvalConfig::default());
        let r10 = report.get(Metric::Recall, 10);
        assert!(r10 > 0.15, "PACE recall@10 = {r10}");
    }
}
