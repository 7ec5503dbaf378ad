//! Two-stage retrieval: geo-grid + IVF candidate generation in front of
//! the tape-free re-ranker.
//!
//! Scoring the full catalog per request is O(catalog) and does not
//! survive large cities. This module builds a [`RetrievalIndex`] once
//! per [`ModelSnapshot`] capture, with two complementary candidate
//! sources per city:
//!
//! - **Geo grid** — the paper's own city grid (Sec. 3.1.4): POIs bucketed
//!   into cells, queried by expanding Chebyshev rings around an anchor
//!   cell ([`st_geo::Grid::rings_within`]). The anchor is the user's
//!   historical center in the city when they have one, else the city's
//!   busiest cell by check-in volume.
//! - **IVF coarse index** — k-means centroids over the frozen
//!   city-independent POI embeddings with inverted lists. At query time
//!   the centroids themselves are scored *through the interaction tower*
//!   ([`ModelSnapshot::score_rows_with`]) as pseudo-POIs, so probe order
//!   ranks lists by the re-ranker's own notion of relevance; the top
//!   `nprobe`+ lists are spilled into the candidate set.
//!
//! The union (deduped, capped at `max_candidates`) feeds the existing
//! exact re-ranker. Tiny catalogs and unindexed cities fall back to the
//! exact sharded scan — the exact path stays the correctness oracle, and
//! when the candidate budget covers the whole catalog the retrieved
//! ranking is bit-identical to it.

use crate::recommend::{rank_top_k, recommend_top_k, Recommendation};
use crate::snapshot::ModelSnapshot;
use st_data::{CityId, Dataset, PoiId, UserId};
use st_eval::Scorer;
use st_geo::{Grid, GridCell};
use st_tensor::{ops, InferCtx, Matrix, RowSource, TableStorage};
use std::collections::{HashMap, HashSet};

/// Knobs trading recall for latency. Defaults are the shipped serving
/// configuration; the recall differential suite and the catalog-scaling
/// bench both gate on them.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalConfig {
    /// Cap on the union candidate set per query. `0` disables retrieval
    /// entirely (every query falls back to the exact scan).
    pub max_candidates: usize,
    /// Minimum number of IVF lists probed per query. More lists are
    /// probed while the candidate budget has room.
    pub nprobe: usize,
    /// Chebyshev ring radius for grid expansion around the anchor cell
    /// (`0` = anchor cell only).
    pub grid_rings: usize,
    /// Catalogs smaller than this are not indexed: the exact scan is
    /// already cheap and a coarse index would only lose recall.
    pub min_catalog: usize,
    /// Lloyd iterations for the k-means build.
    pub kmeans_iters: usize,
    /// Upper bound on IVF centroids per city (the build also caps at
    /// `2·sqrt(catalog)` — finer lists than the classic `sqrt` rule,
    /// because the candidate budget probes whole lists and coarse lists
    /// are the dominant recall loss at large catalogs).
    pub max_centroids: usize,
    /// Grid sizing target: cells are chosen so one cell holds roughly
    /// this many POIs.
    pub target_cell_pois: usize,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        Self {
            max_candidates: 4096,
            nprobe: 8,
            grid_rings: 2,
            min_catalog: 2048,
            kmeans_iters: 5,
            max_centroids: 1024,
            target_cell_pois: 64,
        }
    }
}

/// One city's candidate-generation state.
#[derive(Debug, Clone)]
struct CityIndex {
    /// Spatial grid over the city's bounding box.
    grid: Grid,
    /// POIs per flat-indexed grid cell.
    cell_pois: Vec<Vec<PoiId>>,
    /// Default ring-expansion anchor: the busiest cell by check-ins.
    default_anchor: GridCell,
    /// IVF centroids in POI-embedding space, one row each.
    centroids: Matrix,
    /// Inverted lists: POIs assigned to each centroid.
    lists: Vec<Vec<PoiId>>,
}

/// One city's catalog as rows of the snapshot's POI table, read in
/// place: row `r` is the embedding of `catalog[r]`.
struct CatalogRows<'a> {
    table: &'a TableStorage,
    catalog: &'a [PoiId],
}

impl RowSource for CatalogRows<'_> {
    fn rows(&self) -> usize {
        self.catalog.len()
    }
    fn cols(&self) -> usize {
        self.table.cols()
    }
    fn copy_row_into(&self, row: usize, out: &mut [f32]) {
        self.table.copy_row_into(self.catalog[row].idx(), out);
    }
}

/// The candidate set produced for one query, with provenance counts for
/// observability.
#[derive(Debug, Clone)]
pub struct Candidates {
    /// Deduped union of grid and IVF candidates, capped at the budget.
    pub pois: Vec<PoiId>,
    /// How many came from the grid stage.
    pub from_grid: usize,
    /// How many came from the IVF stage (after dedup against the grid).
    pub(crate) from_ivf: usize,
}

/// How a retrieved ranking was produced — surfaced into serving metrics
/// so degraded-to-exact traffic is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalOutcome {
    /// Candidates were generated and re-ranked.
    Retrieved {
        /// Size of the candidate set that was re-ranked.
        candidates: usize,
        /// Grid-stage contribution.
        from_grid: usize,
        /// IVF-stage contribution.
        from_ivf: usize,
    },
    /// The exact full-catalog scan ran (no index for the city, retrieval
    /// disabled, or an unindexable query).
    Fallback,
}

/// Per-snapshot candidate-generation index over every indexable city.
///
/// Build once at [`ModelSnapshot`] capture time; queries are read-only
/// and thread-safe. Cities below `min_catalog` are deliberately absent —
/// [`RetrievalIndex::candidates`] returns `None` for them and callers
/// fall back to the exact scan.
#[derive(Debug, Clone)]
pub struct RetrievalIndex {
    cities: HashMap<CityId, CityIndex>,
    cfg: RetrievalConfig,
}

impl RetrievalIndex {
    /// Builds grid + IVF state for every city whose catalog clears
    /// `cfg.min_catalog`, from the frozen POI embeddings of `frozen`.
    pub fn build(frozen: &ModelSnapshot, dataset: &Dataset, cfg: RetrievalConfig) -> Self {
        let mut cities = HashMap::new();
        if cfg.max_candidates == 0 {
            return Self { cities, cfg };
        }
        // One global pass for POI popularity (per-POI filter calls are
        // O(all checkins) each).
        let mut popularity = vec![0u32; dataset.num_pois()];
        for c in dataset.checkins() {
            popularity[c.poi.idx()] += 1;
        }
        for city in dataset.cities() {
            let catalog = dataset.pois_in_city(city.id);
            if catalog.len() < cfg.min_catalog.max(1) {
                continue;
            }
            cities.insert(
                city.id,
                Self::build_city(frozen, dataset, &cfg, city.id, catalog, &popularity),
            );
        }
        Self { cities, cfg }
    }

    /// Number of cities that were indexed.
    pub fn num_indexed_cities(&self) -> usize {
        self.cities.len()
    }

    /// Whether `city` has an index (otherwise queries fall back).
    pub fn covers(&self, city: CityId) -> bool {
        self.cities.contains_key(&city)
    }

    fn build_city(
        frozen: &ModelSnapshot,
        dataset: &Dataset,
        cfg: &RetrievalConfig,
        city: CityId,
        catalog: &[PoiId],
        popularity: &[u32],
    ) -> CityIndex {
        // Grid: square, sized so a cell holds ~target_cell_pois POIs.
        let n = ((catalog.len() as f64 / cfg.target_cell_pois.max(1) as f64)
            .sqrt()
            .ceil() as usize)
            .max(1);
        let grid = Grid::new(dataset.city(city).bbox, n, n);
        let mut cell_pois = vec![Vec::new(); grid.num_cells()];
        let mut cell_checkins = vec![0u64; grid.num_cells()];
        for &poi in catalog {
            if let Some(cell) = grid.cell_of(&dataset.poi(poi).location) {
                let flat = grid.flat_index(cell);
                cell_pois[flat].push(poi);
                cell_checkins[flat] += u64::from(popularity[poi.idx()]);
            }
        }
        let busiest = (0..grid.num_cells())
            .max_by_key(|&i| (cell_checkins[i], cell_pois[i].len(), std::cmp::Reverse(i)))
            .unwrap_or(0);
        let default_anchor = grid.cell_from_flat(busiest);

        // IVF: k-means over the catalog's frozen embedding rows, read in
        // place out of whatever representation the snapshot holds —
        // quantized rows dequantize block by block inside each pass, and
        // no decoded copy of the catalog exists.
        let rows = CatalogRows {
            table: frozen.poi_table(),
            catalog,
        };
        let dim = rows.cols();
        let k = ((2.0 * (catalog.len() as f64).sqrt()) as usize)
            .clamp(1, cfg.max_centroids.max(1))
            .min(catalog.len());
        // Deterministic init: evenly spaced catalog rows.
        let mut centroids = Matrix::zeros(k, dim);
        for j in 0..k {
            rows.copy_row_into(j * catalog.len() / k, centroids.row_mut(j));
        }
        // Lloyd iterations. Each pass is one `ops::nearest_centroids_by_block`
        // sweep: every row is decoded once, and the decoded block feeds
        // both its assignment and the f64 centroid sums, in ascending row
        // order. Centroids move only after the whole pass.
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for _ in 0..cfg.kmeans_iters {
            sums.fill(0.0);
            counts.fill(0);
            ops::nearest_centroids_by_block(&rows, &centroids, |_, block, nearest| {
                for (row, &j) in block.chunks_exact(dim).zip(nearest) {
                    let j = j as usize;
                    counts[j] += 1;
                    for (s, &v) in sums[j * dim..(j + 1) * dim].iter_mut().zip(row) {
                        *s += f64::from(v);
                    }
                }
            });
            for j in 0..k {
                if counts[j] == 0 {
                    continue; // empty cluster keeps its old centroid
                }
                for (c, &s) in centroids
                    .row_mut(j)
                    .iter_mut()
                    .zip(&sums[j * dim..(j + 1) * dim])
                {
                    *c = (s / counts[j] as f64) as f32;
                }
            }
        }
        let mut lists = vec![Vec::new(); k];
        ops::nearest_centroids_by_block(&rows, &centroids, |start, _, nearest| {
            for (&poi, &j) in catalog[start..].iter().zip(nearest) {
                lists[j as usize].push(poi);
            }
        });
        CityIndex {
            grid,
            cell_pois,
            default_anchor,
            centroids,
            lists,
        }
    }

    /// The ring-expansion anchor for `user` in `city`: the cell of their
    /// historical center when they have in-city check-ins, else the
    /// city's busiest cell.
    fn anchor(&self, index: &CityIndex, dataset: &Dataset, user: UserId, city: CityId) -> GridCell {
        let visited = dataset.user_visited_in_city(user, city);
        if visited.is_empty() {
            return index.default_anchor;
        }
        let (mut lat, mut lon) = (0.0f64, 0.0f64);
        for &p in &visited {
            let loc = &dataset.poi(p).location;
            lat += loc.lat;
            lon += loc.lon;
        }
        let n = visited.len() as f64;
        let center = st_geo::GeoPoint::new(lat / n, lon / n);
        index.grid.cell_of(&center).unwrap_or(index.default_anchor)
    }

    /// Generates the candidate set for `(user, city)`, or `None` when
    /// the query must fall back to the exact scan (city not indexed,
    /// retrieval disabled, or `user` outside the snapshot's table).
    ///
    /// `ctx` is the caller's scratch state; centroid probing runs one
    /// small tower evaluation through it.
    pub fn candidates(
        &self,
        frozen: &ModelSnapshot,
        ctx: &mut InferCtx,
        dataset: &Dataset,
        user: UserId,
        city: CityId,
    ) -> Option<Candidates> {
        let index = self.cities.get(&city)?;
        if self.cfg.max_candidates == 0 || user.idx() >= frozen.num_users() {
            return None;
        }
        let budget = self.cfg.max_candidates;
        let mut pois = Vec::with_capacity(budget.min(1 << 16));
        // Grid cells partition the catalog and so do IVF lists, so the
        // only possible duplicate is an IVF POI the grid stage already
        // took: one bit per POI id, set by stage 1, tested by stage 2.
        let mut from_grid_bits = vec![0u64; dataset.num_pois().div_ceil(64)];

        // Stage 1: grid rings around the anchor, capped so the IVF stage
        // always keeps most of the budget.
        let grid_cap = (budget / 4).max(256).min(budget);
        let anchor = self.anchor(index, dataset, user, city);
        'rings: for cell in index.grid.rings_within(anchor, self.cfg.grid_rings) {
            for &poi in &index.cell_pois[index.grid.flat_index(cell)] {
                if pois.len() >= grid_cap {
                    break 'rings;
                }
                from_grid_bits[poi.idx() / 64] |= 1 << (poi.idx() % 64);
                pois.push(poi);
            }
        }
        let from_grid = pois.len();

        // Stage 2: IVF lists in descending tower-score order of their
        // centroids. Probe at least nprobe lists, then keep going while
        // the budget has room.
        let scores = frozen.score_rows_with(ctx, user.idx(), &index.centroids);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        for (probed, &list) in order.iter().enumerate() {
            if probed >= self.cfg.nprobe && pois.len() >= budget {
                break;
            }
            for &poi in &index.lists[list] {
                if pois.len() >= budget {
                    break;
                }
                if from_grid_bits[poi.idx() / 64] & (1 << (poi.idx() % 64)) == 0 {
                    pois.push(poi);
                }
            }
        }
        let from_ivf = pois.len() - from_grid;
        Some(Candidates {
            pois,
            from_grid,
            from_ivf,
        })
    }
}

/// Two-stage variant of [`recommend_top_k`]: generate candidates through
/// `index`, re-rank them through the snapshot's tape-free path, fall
/// back to the exact sharded scan when no candidates can be generated.
///
/// When the candidate budget covers the whole catalog the result is
/// bit-identical to [`recommend_top_k`] — the comparator
/// `(score desc, poi asc)` is a total order independent of candidate
/// order, and both paths score through the same op layer.
pub fn recommend_top_k_retrieved(
    frozen: &ModelSnapshot,
    index: &RetrievalIndex,
    dataset: &Dataset,
    user: UserId,
    city: CityId,
    k: usize,
    exclude: &[PoiId],
) -> (Vec<Recommendation>, RetrievalOutcome) {
    let mut ctx = InferCtx::new();
    let Some(c) = index.candidates(frozen, &mut ctx, dataset, user, city) else {
        return (
            recommend_top_k(frozen, dataset, user, city, k, exclude),
            RetrievalOutcome::Fallback,
        );
    };
    let outcome = RetrievalOutcome::Retrieved {
        candidates: c.pois.len(),
        from_grid: c.from_grid,
        from_ivf: c.from_ivf,
    };
    if k == 0 {
        return (Vec::new(), outcome);
    }
    let excluded: HashSet<PoiId> = exclude.iter().copied().collect();
    let cands: Vec<PoiId> = c
        .pois
        .iter()
        .copied()
        .filter(|p| !excluded.contains(p))
        .collect();
    let scores = frozen.score_batch(user, &cands);
    (rank_top_k(&cands, &scores, k), outcome)
}

/// Mean recall@k of the retrieval path against the exact full scan over
/// `users`: the fraction of each user's exact top-k that the retrieved
/// top-k reproduces. Users whose queries fall back score 1.0 (fallback
/// *is* the exact scan).
pub fn retrieval_recall_at_k(
    frozen: &ModelSnapshot,
    index: &RetrievalIndex,
    dataset: &Dataset,
    users: &[UserId],
    city: CityId,
    k: usize,
) -> f64 {
    if users.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for &user in users {
        let (retrieved, outcome) =
            recommend_top_k_retrieved(frozen, index, dataset, user, city, k, &[]);
        if outcome == RetrievalOutcome::Fallback {
            total += 1.0;
            continue;
        }
        let exact = recommend_top_k(frozen, dataset, user, city, k, &[]);
        let got: Vec<PoiId> = retrieved.iter().map(|r| r.poi).collect();
        let want: Vec<PoiId> = exact.iter().map(|r| r.poi).collect();
        total += st_eval::overlap_at_k(&got, &want, k);
    }
    total / users.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, STTransRec};
    use st_data::synth::{generate, SynthConfig};
    use st_data::CrossingCitySplit;
    use st_tensor::kernels::TILE_ROWS;
    use st_tensor::StorageEncoding;

    fn setup_scaled(pois: usize) -> (Dataset, CrossingCitySplit) {
        let mut cfg = SynthConfig::tiny();
        cfg.pois = pois;
        cfg.users = 80;
        cfg.checkins = pois * 4;
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    fn trained(d: &Dataset, split: &CrossingCitySplit) -> ModelSnapshot {
        let mut m = STTransRec::new(d, split, ModelConfig::test_small());
        m.train_epoch(d);
        m.snapshot()
    }

    #[test]
    fn small_catalogs_are_not_indexed_and_fall_back() {
        let (d, split) = setup_scaled(80);
        let snap = trained(&d, &split);
        let index = RetrievalIndex::build(&snap, &d, RetrievalConfig::default());
        assert_eq!(index.num_indexed_cities(), 0);
        let user = split.test_users[0];
        let (recs, outcome) =
            recommend_top_k_retrieved(&snap, &index, &d, user, split.target_city, 5, &[]);
        assert_eq!(outcome, RetrievalOutcome::Fallback);
        assert_eq!(
            recs,
            recommend_top_k(&snap, &d, user, split.target_city, 5, &[])
        );
    }

    #[test]
    fn budget_covering_the_catalog_is_bit_identical_to_exact() {
        let (d, split) = setup_scaled(400);
        let snap = trained(&d, &split);
        let cfg = RetrievalConfig {
            min_catalog: 1,
            max_candidates: d.num_pois(), // budget >= catalog: full coverage
            nprobe: usize::MAX,
            ..RetrievalConfig::default()
        };
        let index = RetrievalIndex::build(&snap, &d, cfg);
        assert!(index.covers(split.target_city));
        let city = split.target_city;
        let k = d.pois_in_city(city).len();
        for &user in split.test_users.iter().take(4) {
            let (retrieved, outcome) =
                recommend_top_k_retrieved(&snap, &index, &d, user, city, k, &[]);
            match outcome {
                RetrievalOutcome::Retrieved { candidates, .. } => {
                    assert_eq!(candidates, d.pois_in_city(city).len());
                }
                RetrievalOutcome::Fallback => panic!("expected retrieval, got fallback"),
            }
            assert_eq!(
                retrieved,
                recommend_top_k(&snap, &d, user, city, k, &[]),
                "full-coverage retrieval diverged from exact for {user:?}"
            );
        }
    }

    #[test]
    fn candidate_set_respects_budget_and_dedup() {
        let (d, split) = setup_scaled(600);
        let snap = trained(&d, &split);
        let cfg = RetrievalConfig {
            min_catalog: 1,
            max_candidates: 128,
            ..RetrievalConfig::default()
        };
        let index = RetrievalIndex::build(&snap, &d, cfg);
        let mut ctx = InferCtx::new();
        let c = index
            .candidates(&snap, &mut ctx, &d, split.test_users[0], split.target_city)
            .expect("city is indexed");
        assert!(c.pois.len() <= 128, "budget exceeded: {}", c.pois.len());
        assert_eq!(c.from_grid + c.from_ivf, c.pois.len());
        let unique: HashSet<_> = c.pois.iter().collect();
        assert_eq!(unique.len(), c.pois.len(), "duplicate candidates");
        // Every candidate belongs to the queried city.
        assert!(c.pois.iter().all(|&p| d.poi(p).city == split.target_city));
    }

    /// `candidates` with the dedup it used to have — a `HashSet` asked
    /// about every id pushed by either stage — kept as the reference
    /// for the bitset that only remembers the grid stage.
    fn candidates_by_hashset(
        this: &RetrievalIndex,
        frozen: &ModelSnapshot,
        dataset: &Dataset,
        user: UserId,
        city: CityId,
    ) -> (Vec<PoiId>, usize, usize) {
        let index = &this.cities[&city];
        let budget = this.cfg.max_candidates;
        let mut seen = HashSet::new();
        let mut pois = Vec::new();
        let grid_cap = (budget / 4).max(256).min(budget);
        let anchor = this.anchor(index, dataset, user, city);
        'rings: for cell in index.grid.rings_within(anchor, this.cfg.grid_rings) {
            for &poi in &index.cell_pois[index.grid.flat_index(cell)] {
                if pois.len() >= grid_cap {
                    break 'rings;
                }
                if seen.insert(poi) {
                    pois.push(poi);
                }
            }
        }
        let from_grid = pois.len();
        let mut ctx = InferCtx::new();
        let scores = frozen.score_rows_with(&mut ctx, user.idx(), &index.centroids);
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        for (probed, &list) in order.iter().enumerate() {
            if probed >= this.cfg.nprobe && pois.len() >= budget {
                break;
            }
            for &poi in &index.lists[list] {
                if pois.len() >= budget {
                    break;
                }
                if seen.insert(poi) {
                    pois.push(poi);
                }
            }
        }
        let from_ivf = pois.len() - from_grid;
        (pois, from_grid, from_ivf)
    }

    #[test]
    fn bitset_dedup_equals_the_hashset_reference() {
        let (d, split) = setup_scaled(600);
        let snap = trained(&d, &split);
        let city = split.target_city;
        let catalog = d.pois_in_city(city).len();
        let mut ctx = InferCtx::new();
        let mut truncated_rings = 0;
        for budget in [64, 128, catalog] {
            let cfg = RetrievalConfig {
                min_catalog: 1,
                max_candidates: budget,
                ..RetrievalConfig::default()
            };
            let index = RetrievalIndex::build(&snap, &d, cfg);
            for u in 0..d.num_users() {
                let user = UserId(u as u32);
                let got = index
                    .candidates(&snap, &mut ctx, &d, user, city)
                    .expect("city is indexed");
                let want = candidates_by_hashset(&index, &snap, &d, user, city);
                assert_eq!(
                    (got.pois, got.from_grid, got.from_ivf),
                    want,
                    "budget {budget}, {user:?}"
                );
                // The grid stage stopped at its cap with cells still to
                // come: the IVF stage then meets both POIs it must skip
                // and same-cell POIs it must not.
                let grid_cap = (budget / 4).max(256).min(budget);
                truncated_rings += usize::from(want.1 == grid_cap && want.2 > 0);
            }
        }
        assert!(truncated_rings > 0, "no query truncated a ring at grid_cap");
    }

    /// The IVF half of `build_city` as it was before rows were read in
    /// place: decode the whole catalog into a matrix, then cluster it.
    /// Kept as the reference the in-place build must equal bit for bit.
    fn decoded_ivf(
        frozen: &ModelSnapshot,
        catalog: &[PoiId],
        cfg: &RetrievalConfig,
    ) -> (Matrix, Vec<Vec<PoiId>>) {
        let table = frozen.poi_table();
        let dim = table.cols();
        let mut points = Matrix::zeros(catalog.len(), dim);
        for (r, &poi) in catalog.iter().enumerate() {
            table.copy_row_into(poi.idx(), points.row_mut(r));
        }
        let k = ((2.0 * (catalog.len() as f64).sqrt()) as usize)
            .clamp(1, cfg.max_centroids.max(1))
            .min(catalog.len());
        let mut centroids = Matrix::zeros(k, dim);
        for j in 0..k {
            let src = j * catalog.len() / k;
            centroids.row_mut(j).copy_from_slice(points.row(src));
        }
        let mut assign = Vec::new();
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0usize; k];
        for _ in 0..cfg.kmeans_iters {
            ops::nearest_centroids(&points, &centroids, &mut assign);
            sums.fill(0.0);
            counts.fill(0);
            for (r, &j) in assign.iter().enumerate() {
                let j = j as usize;
                counts[j] += 1;
                for (s, &v) in sums[j * dim..(j + 1) * dim].iter_mut().zip(points.row(r)) {
                    *s += f64::from(v);
                }
            }
            for j in 0..k {
                if counts[j] == 0 {
                    continue;
                }
                for (c, &s) in centroids
                    .row_mut(j)
                    .iter_mut()
                    .zip(&sums[j * dim..(j + 1) * dim])
                {
                    *c = (s / counts[j] as f64) as f32;
                }
            }
        }
        ops::nearest_centroids(&points, &centroids, &mut assign);
        let mut lists = vec![Vec::new(); k];
        for (r, &j) in assign.iter().enumerate() {
            lists[j as usize].push(catalog[r]);
        }
        (centroids, lists)
    }

    #[test]
    fn in_place_build_equals_the_decoded_build() {
        let (d, split) = setup_scaled(900);
        let live = trained(&d, &split);
        for encoding in [
            StorageEncoding::F32,
            StorageEncoding::F16,
            StorageEncoding::I8,
        ] {
            let snap = live.quantized(encoding);
            for kmeans_iters in [0, 1, RetrievalConfig::default().kmeans_iters] {
                let cfg = RetrievalConfig {
                    min_catalog: 1,
                    kmeans_iters,
                    ..RetrievalConfig::default()
                };
                let index = RetrievalIndex::build(&snap, &d, cfg.clone());
                assert_eq!(index.num_indexed_cities(), d.cities().len());
                for city in d.cities() {
                    let catalog = d.pois_in_city(city.id);
                    assert!(catalog.len() > 2 * TILE_ROWS, "one block only");
                    let built = &index.cities[&city.id];
                    let (centroids, lists) = decoded_ivf(&snap, catalog, &cfg);
                    let bits = |m: &Matrix| -> Vec<u32> {
                        m.as_slice().iter().map(|x| x.to_bits()).collect()
                    };
                    let at = format!("{encoding}, {kmeans_iters} passes, {:?}", city.id);
                    assert_eq!(bits(&built.centroids), bits(&centroids), "{at}");
                    assert_eq!(built.lists, lists, "{at}");
                }
            }
        }
    }

    #[test]
    fn disabled_retrieval_and_unknown_users_fall_back() {
        let (d, split) = setup_scaled(400);
        let snap = trained(&d, &split);
        let off = RetrievalIndex::build(
            &snap,
            &d,
            RetrievalConfig {
                max_candidates: 0,
                min_catalog: 1,
                ..RetrievalConfig::default()
            },
        );
        assert_eq!(off.num_indexed_cities(), 0);
        let on = RetrievalIndex::build(
            &snap,
            &d,
            RetrievalConfig {
                min_catalog: 1,
                ..RetrievalConfig::default()
            },
        );
        let mut ctx = InferCtx::new();
        let ghost = UserId(d.num_users() as u32);
        assert!(on
            .candidates(&snap, &mut ctx, &d, ghost, split.target_city)
            .is_none());
    }

    #[test]
    fn recall_harness_is_one_for_exhaustive_budgets() {
        let (d, split) = setup_scaled(400);
        let snap = trained(&d, &split);
        let cfg = RetrievalConfig {
            min_catalog: 1,
            max_candidates: d.num_pois(),
            nprobe: usize::MAX,
            ..RetrievalConfig::default()
        };
        let index = RetrievalIndex::build(&snap, &d, cfg);
        let users: Vec<UserId> = split.test_users.iter().copied().take(5).collect();
        let recall = retrieval_recall_at_k(&snap, &index, &d, &users, split.target_city, 10);
        assert_eq!(recall, 1.0);
    }
}
