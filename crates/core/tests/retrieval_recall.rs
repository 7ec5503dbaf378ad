//! Differential recall suite: the two-stage retrieval path against the
//! exact full-catalog scan, across grid sizes and `nprobe` settings.
//!
//! The exact path is the oracle — recall@k here is the fraction of the
//! oracle's top-k the retrieved top-k reproduces. The shipped defaults
//! must clear recall@10 >= 0.95; the matrix runs document how the knobs
//! trade recall for candidate-set size. The last three tests hold the
//! build itself: it is a function of the snapshot's decoded rows and
//! nothing else, so every replica of a fleet builds the same index.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset, PoiId, UserId};
use st_tensor::{kernels::TILE_ROWS, Activation, InferCtx, Matrix, StorageEncoding, TableStorage};
use st_transrec_core::{
    recommend_top_k, recommend_top_k_retrieved, retrieval_recall_at_k, ModelConfig, ModelSnapshot,
    RetrievalConfig, RetrievalIndex, RetrievalOutcome, STTransRec,
};

fn setup(pois: usize, checkins: usize, train: bool) -> (Dataset, CrossingCitySplit, ModelSnapshot) {
    let (d, split, m) = setup_model(pois, checkins, train);
    let snap = m.snapshot();
    (d, split, snap)
}

fn setup_model(
    pois: usize,
    checkins: usize,
    train: bool,
) -> (Dataset, CrossingCitySplit, STTransRec) {
    let mut cfg = SynthConfig::tiny();
    cfg.pois = pois;
    cfg.users = 120;
    cfg.checkins = checkins;
    cfg.crossing_users = 60;
    let (d, _) = generate(&cfg);
    let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
    let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
    if train {
        m.train_epoch(&d);
    }
    (d, split, m)
}

fn test_users(split: &CrossingCitySplit, n: usize) -> Vec<UserId> {
    split.test_users.iter().copied().take(n).collect()
}

#[test]
fn recall_matrix_across_grid_sizes_and_nprobe() {
    let (d, split, snap) = setup(2400, 8000, true);
    let city = split.target_city;
    let users = test_users(&split, 8);
    let catalog = d.pois_in_city(city).len();
    // A budget well under the catalog, so the knobs actually matter.
    let budget = catalog / 4;
    let mut best = 0.0f64;
    for target_cell_pois in [16, 64, 256] {
        for nprobe in [1, 4, 16] {
            let cfg = RetrievalConfig {
                min_catalog: 1,
                max_candidates: budget,
                nprobe,
                target_cell_pois,
                ..RetrievalConfig::default()
            };
            let index = RetrievalIndex::build(&snap, &d, cfg);
            assert!(index.covers(city));
            let recall = retrieval_recall_at_k(&snap, &index, &d, &users, city, 10);
            eprintln!(
                "cells~{target_cell_pois:>3} pois, nprobe {nprobe:>2}: recall@10 = {recall:.3} \
                 (budget {budget}/{catalog})"
            );
            assert!((0.0..=1.0).contains(&recall));
            best = best.max(recall);
        }
    }
    // At least one knob setting under a quarter-catalog budget must be
    // near-exact; if this fails the probe ordering itself is broken.
    assert!(best >= 0.9, "best matrix recall only {best:.3}");
}

#[test]
fn shipped_defaults_meet_the_recall_gate() {
    // Catalog above min_catalog so the default config indexes it.
    let (d, split, snap) = setup(4600, 9000, false);
    let city = split.target_city;
    let catalog = d.pois_in_city(city).len();
    let defaults = RetrievalConfig::default();
    assert!(
        catalog >= defaults.min_catalog,
        "setup must clear the indexing threshold ({catalog} < {})",
        defaults.min_catalog
    );
    let index = RetrievalIndex::build(&snap, &d, defaults);
    assert!(index.covers(city));
    let users = test_users(&split, 10);
    let recall = retrieval_recall_at_k(&snap, &index, &d, &users, city, 10);
    eprintln!("shipped defaults: recall@10 = {recall:.3} over {catalog} POIs");
    assert!(recall >= 0.95, "shipped-default recall@10 = {recall:.3}");
    // And the retrieval path genuinely retrieved (no silent fallback).
    let (_, outcome) = recommend_top_k_retrieved(&snap, &index, &d, users[0], city, 10, &[]);
    assert!(matches!(outcome, RetrievalOutcome::Retrieved { .. }));
}

#[test]
fn sub_budget_retrieval_still_clears_the_gate() {
    // The serving regime the bench gates on: budget well under the
    // catalog, shipped nprobe.
    let (d, split, snap) = setup(4600, 9000, true);
    let city = split.target_city;
    let catalog = d.pois_in_city(city).len();
    let cfg = RetrievalConfig {
        max_candidates: catalog / 3,
        ..RetrievalConfig::default()
    };
    let index = RetrievalIndex::build(&snap, &d, cfg);
    let users = test_users(&split, 8);
    let recall = retrieval_recall_at_k(&snap, &index, &d, &users, city, 10);
    eprintln!(
        "sub-budget ({}/{catalog}): recall@10 = {recall:.3}",
        catalog / 3
    );
    assert!(recall >= 0.95, "sub-budget recall@10 = {recall:.3}");
}

#[test]
fn exclusions_apply_on_the_retrieved_path() {
    let (d, split, snap) = setup(2400, 8000, false);
    let city = split.target_city;
    let cfg = RetrievalConfig {
        min_catalog: 1,
        ..RetrievalConfig::default()
    };
    let index = RetrievalIndex::build(&snap, &d, cfg);
    let user = split.test_users[0];
    let (baseline, _) = recommend_top_k_retrieved(&snap, &index, &d, user, city, 5, &[]);
    let exclude = [baseline[0].poi, baseline[1].poi];
    let (filtered, _) = recommend_top_k_retrieved(&snap, &index, &d, user, city, 5, &exclude);
    assert!(filtered.iter().all(|r| !exclude.contains(&r.poi)));
    // The exact path with the same exclusions agrees when the budget
    // covers the catalog (default 4096 > 1200-ish here).
    assert_eq!(
        filtered,
        recommend_top_k(&snap, &d, user, city, 5, &exclude)
    );
}

/// What `index` retrieves for every test user: the whole observable
/// state of an index (grid cells, centroids, lists, probe order).
fn candidates_of_all(
    snap: &ModelSnapshot,
    index: &RetrievalIndex,
    d: &Dataset,
    split: &CrossingCitySplit,
) -> Vec<Vec<PoiId>> {
    let mut ctx = InferCtx::new();
    split
        .test_users
        .iter()
        .map(|&user| {
            index
                .candidates(snap, &mut ctx, d, user, split.target_city)
                .expect("city is indexed")
                .pois
        })
        .collect()
}

/// A fleet's replicas each build their own index from the same file:
/// they must agree, or `x-router-replica` changes the answer.
#[test]
fn two_builds_of_one_snapshot_retrieve_the_same_candidates() {
    let (d, split, snap) = setup(2400, 8000, true);
    let catalog = d.pois_in_city(split.target_city).len();
    assert_ne!(catalog % TILE_ROWS, 0, "want a ragged last point block");
    for max_centroids in [1, 7, RetrievalConfig::default().max_centroids] {
        let cfg = RetrievalConfig {
            min_catalog: 1,
            max_candidates: catalog / 4,
            max_centroids,
            ..RetrievalConfig::default()
        };
        let first = RetrievalIndex::build(&snap, &d, cfg.clone());
        let second = RetrievalIndex::build(&snap, &d, cfg);
        let got = candidates_of_all(&snap, &first, &d, &split);
        assert_eq!(
            got,
            candidates_of_all(&snap, &second, &d, &split),
            "max_centroids {max_centroids}"
        );
        assert!(got.iter().all(|c| !c.is_empty()));
    }
}

/// The index is built from whatever rows the snapshot decodes, block by
/// block; decoding the whole table first must give the same index.
#[test]
fn int8_snapshot_and_its_decoded_matrix_build_the_same_lists() {
    let (d, split, snap) = setup(2400, 8000, true);
    let int8 = snap.quantized(StorageEncoding::I8);
    let decoded = int8.quantized(StorageEncoding::F32);
    assert_eq!(decoded.encoding(), StorageEncoding::F32);
    let cfg = RetrievalConfig {
        min_catalog: 1,
        max_candidates: d.pois_in_city(split.target_city).len() / 4,
        ..RetrievalConfig::default()
    };
    let from_int8 = RetrievalIndex::build(&int8, &d, cfg.clone());
    let from_decoded = RetrievalIndex::build(&decoded, &d, cfg);
    assert_eq!(
        candidates_of_all(&int8, &from_int8, &d, &split),
        candidates_of_all(&decoded, &from_decoded, &d, &split),
    );
}

/// Two seed rows with one embedding: every point ties between their
/// centroids, the lower index takes them all and the other list is
/// empty. No POI may go missing and no centroid may turn into NaN.
#[test]
fn an_emptied_centroid_loses_no_poi() {
    let (d, split, model) = setup_model(2400, 8000, false);
    let city = split.target_city;
    let catalog = d.pois_in_city(city);
    let find = |name: &str| -> Option<Matrix> {
        let mut params = model.params().iter();
        params
            .find(|(_, n, _)| *n == name)
            .map(|(_, _, m)| m.clone())
    };
    let param = |name: &str| find(name).expect(name);
    let mut poi_rows = param("poi_emb");
    // Seeds are catalog rows `j * len / k`, `k = 2 * sqrt(len)`.
    let k = (2.0 * (catalog.len() as f64).sqrt()) as usize;
    let seed0 = poi_rows.row(catalog[0].idx()).to_vec();
    poi_rows
        .row_mut(catalog[catalog.len() / k].idx())
        .copy_from_slice(&seed0);
    let layers = (0..)
        .map_while(|i| {
            Some((
                find(&format!("tower.{i}.w"))?,
                find(&format!("tower.{i}.b"))?,
            ))
        })
        .collect();
    let snap = ModelSnapshot::from_parts(
        TableStorage::F32(param("user_emb")),
        TableStorage::F32(poi_rows),
        layers,
        Activation::Relu,
    )
    .expect("coherent parts");
    for kmeans_iters in [0, RetrievalConfig::default().kmeans_iters] {
        let cfg = RetrievalConfig {
            min_catalog: 1,
            max_candidates: d.num_pois(),
            nprobe: usize::MAX,
            kmeans_iters,
            ..RetrievalConfig::default()
        };
        let index = RetrievalIndex::build(&snap, &d, cfg.clone());
        let again = RetrievalIndex::build(&snap, &d, cfg);
        let got = candidates_of_all(&snap, &index, &d, &split);
        assert_eq!(got, candidates_of_all(&snap, &again, &d, &split));
        let mut want: Vec<PoiId> = catalog.to_vec();
        want.sort();
        for mut pois in got {
            pois.sort();
            assert_eq!(
                pois, want,
                "kmeans_iters {kmeans_iters}: catalog not covered"
            );
        }
    }
}
