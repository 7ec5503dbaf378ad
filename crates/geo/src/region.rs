//! Algorithm 1: clustering grid cells into *uniformly accessible regions*.
//!
//! Two adjacent cells are considered mutually accessible when they share
//! enough visitors (Eq. 5):
//!
//! ```text
//! dis(r_a, r_b) = |U_a ∩ U_b| / min(|U_a|, |U_b|)
//! ```
//!
//! A region is the set of cells reachable from a seed cell through chains
//! of adjacent cells with `dis >= delta`. We grow regions dense-first (the
//! paper: "starting from the dense grids we extensively merge..."), which
//! makes the segmentation deterministic; a seeded random seed-order is
//! available for experiments on seed sensitivity.

use crate::Grid;
use rand::{seq::SliceRandom, Rng};

/// Identifier of a region produced by [`segment_regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub usize);

/// Per-cell visitor sets, the input to Algorithm 1.
///
/// User ids are stored as sorted, deduplicated `u32` vectors so the
/// overlap in Eq. 5 is a linear merge, not a hash probe per element.
#[derive(Debug, Clone, Default)]
pub struct CellUserIndex {
    users: Vec<Vec<u32>>,
    checkins: Vec<usize>,
}

impl CellUserIndex {
    /// Creates an index for `num_cells` cells.
    pub fn new(num_cells: usize) -> Self {
        Self {
            users: vec![Vec::new(); num_cells],
            checkins: vec![0; num_cells],
        }
    }

    /// Records one check-in by `user` in `cell` (flat index).
    pub fn record(&mut self, cell: usize, user: u32) {
        self.checkins[cell] += 1;
        let list = &mut self.users[cell];
        if let Err(pos) = list.binary_search(&user) {
            list.insert(pos, user);
        }
    }

    /// Number of cells.
    pub(crate) fn num_cells(&self) -> usize {
        self.users.len()
    }

    /// Distinct visitors of a cell.
    pub fn user_count(&self, cell: usize) -> usize {
        self.users[cell].len()
    }

    /// Check-ins recorded in a cell.
    pub(crate) fn checkin_count(&self, cell: usize) -> usize {
        self.checkins[cell]
    }

    /// Number of users visiting both cells (sorted-merge intersection).
    pub(crate) fn overlap(&self, a: usize, b: usize) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        let (ua, ub) = (&self.users[a], &self.users[b]);
        while i < ua.len() && j < ub.len() {
            match ua[i].cmp(&ub[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// The accessibility distance of Eq. 5. Zero when either cell has no
    /// visitors (empty cells never merge).
    pub fn distance(&self, a: usize, b: usize) -> f64 {
        let min = self.user_count(a).min(self.user_count(b));
        if min == 0 {
            return 0.0;
        }
        self.overlap(a, b) as f64 / min as f64
    }
}

/// How Algorithm 1 picks its seed cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedOrder {
    /// Densest (most check-ins) unmerged cell first — deterministic, and
    /// matches the paper's "starting from the dense grids" description.
    DenseFirst,
    /// Uniformly random order, as literally written in Algorithm 1.
    Random,
}

/// A uniformly accessible region: a set of flat cell indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Flat indices of member cells, sorted ascending.
    pub cells: Vec<usize>,
}

impl Region {
    /// Number of grid cells in the region (`S_r` in Eq. 6).
    pub(crate) fn size(&self) -> usize {
        self.cells.len()
    }
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmentation {
    /// All regions, in creation order.
    pub regions: Vec<Region>,
    /// For each flat cell index, its region (None for cells with no visitors).
    pub(crate) cell_region: Vec<Option<RegionId>>,
}

impl Segmentation {
    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The region of a flat cell index, if assigned.
    pub fn region_of_cell(&self, cell: usize) -> Option<RegionId> {
        self.cell_region.get(cell).copied().flatten()
    }
}

/// Runs Algorithm 1 over `grid` with visitor data `index` and threshold
/// `delta`, growing each region by BFS over 4-adjacent cells whose Eq. 5
/// distance is at least `delta`.
///
/// Cells with zero visitors are left unassigned; every visited cell ends
/// up in exactly one region.
///
/// # Panics
/// Panics if `index` does not cover the grid or `delta` is not in `[0, 1]`.
pub fn segment_regions(
    grid: &Grid,
    index: &CellUserIndex,
    delta: f64,
    order: SeedOrder,
    rng: &mut impl Rng,
) -> Segmentation {
    assert_eq!(
        index.num_cells(),
        grid.num_cells(),
        "user index does not match grid"
    );
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");

    let mut seeds: Vec<usize> = (0..grid.num_cells())
        .filter(|&c| index.user_count(c) > 0)
        .collect();
    match order {
        SeedOrder::DenseFirst => {
            // Sort by descending check-ins, cell index as tiebreak for
            // full determinism.
            seeds.sort_by_key(|&c| (std::cmp::Reverse(index.checkin_count(c)), c));
        }
        SeedOrder::Random => seeds.shuffle(rng),
    }

    let mut cell_region: Vec<Option<RegionId>> = vec![None; grid.num_cells()];
    let mut regions: Vec<Region> = Vec::new();

    for seed in seeds {
        if cell_region[seed].is_some() {
            continue;
        }
        let id = RegionId(regions.len());
        let mut members = vec![seed];
        cell_region[seed] = Some(id);
        let mut frontier = vec![seed];
        while let Some(cell) = frontier.pop() {
            for nb in grid.neighbors(grid.cell_from_flat(cell)) {
                let nb = grid.flat_index(nb);
                if cell_region[nb].is_some() || index.user_count(nb) == 0 {
                    continue;
                }
                if index.distance(cell, nb) >= delta {
                    cell_region[nb] = Some(id);
                    members.push(nb);
                    frontier.push(nb);
                }
            }
        }
        members.sort_unstable();
        regions.push(Region { cells: members });
    }

    Segmentation {
        regions,
        cell_region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundingBox;
    use rand::{rngs::SmallRng, SeedableRng};

    fn grid_3x3() -> Grid {
        Grid::new(BoundingBox::new(0.0, 3.0, 0.0, 3.0), 3, 3)
    }

    #[test]
    fn overlap_and_distance() {
        let mut idx = CellUserIndex::new(2);
        for u in [1, 2, 3] {
            idx.record(0, u);
        }
        for u in [2, 3, 4, 5] {
            idx.record(1, u);
        }
        assert_eq!(idx.overlap(0, 1), 2);
        // min(|U_0|,|U_1|) = 3 -> 2/3
        assert!((idx.distance(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_deduplicates_users_but_counts_checkins() {
        let mut idx = CellUserIndex::new(1);
        idx.record(0, 7);
        idx.record(0, 7);
        assert_eq!(idx.user_count(0), 1);
        assert_eq!(idx.checkin_count(0), 2);
    }

    #[test]
    fn empty_cell_distance_is_zero() {
        let mut idx = CellUserIndex::new(2);
        idx.record(0, 1);
        assert_eq!(idx.distance(0, 1), 0.0);
    }

    /// Two horizontal strips of cells with shared users inside each strip
    /// but none across: must produce exactly two regions.
    #[test]
    fn segments_two_disconnected_communities() {
        let grid = grid_3x3();
        let mut idx = CellUserIndex::new(9);
        // Row 0 (cells 0,1,2): users 1,2 visit all three cells.
        for cell in 0..3 {
            idx.record(cell, 1);
            idx.record(cell, 2);
        }
        // Row 2 (cells 6,7,8): users 10,11.
        for cell in 6..9 {
            idx.record(cell, 10);
            idx.record(cell, 11);
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let seg = segment_regions(&grid, &idx, 0.5, SeedOrder::DenseFirst, &mut rng);
        assert_eq!(seg.num_regions(), 2);
        let r0 = seg.region_of_cell(0).unwrap();
        assert_eq!(seg.region_of_cell(1), Some(r0));
        assert_eq!(seg.region_of_cell(2), Some(r0));
        let r2 = seg.region_of_cell(6).unwrap();
        assert_ne!(r0, r2);
        // Middle row has no visitors: unassigned.
        assert_eq!(seg.region_of_cell(4), None);
    }

    #[test]
    fn delta_one_requires_full_overlap() {
        let grid = grid_3x3();
        let mut idx = CellUserIndex::new(9);
        idx.record(0, 1);
        idx.record(0, 2);
        idx.record(1, 1); // overlap 1, min 1 -> dis = 1.0
        let mut rng = SmallRng::seed_from_u64(0);
        let seg = segment_regions(&grid, &idx, 1.0, SeedOrder::DenseFirst, &mut rng);
        assert_eq!(seg.region_of_cell(0), seg.region_of_cell(1));

        // Add a non-shared user to cell 1: dis = 1/2 < 1.0 -> split.
        idx.record(1, 9);
        let seg = segment_regions(&grid, &idx, 1.0, SeedOrder::DenseFirst, &mut rng);
        assert_ne!(seg.region_of_cell(0), seg.region_of_cell(1));
        assert_eq!(seg.num_regions(), 2);
    }

    #[test]
    fn delta_zero_merges_all_visited_connected_cells() {
        let grid = grid_3x3();
        let mut idx = CellUserIndex::new(9);
        // Disjoint user sets but all 9 cells visited: delta=0 accepts any
        // adjacency, so the whole grid is one region.
        for cell in 0..9 {
            idx.record(cell, cell as u32);
        }
        let mut rng = SmallRng::seed_from_u64(0);
        let seg = segment_regions(&grid, &idx, 0.0, SeedOrder::DenseFirst, &mut rng);
        assert_eq!(seg.num_regions(), 1);
        assert_eq!(seg.regions[0].size(), 9);
    }

    #[test]
    fn every_visited_cell_assigned_exactly_once() {
        let grid = grid_3x3();
        let mut idx = CellUserIndex::new(9);
        let mut rng = SmallRng::seed_from_u64(3);
        for cell in [0usize, 1, 3, 7, 8] {
            for u in 0..5u32 {
                if rng.gen::<bool>() {
                    idx.record(cell, u);
                }
            }
            idx.record(cell, 99); // ensure non-empty
        }
        let seg = segment_regions(&grid, &idx, 0.3, SeedOrder::DenseFirst, &mut rng);
        let mut seen = vec![0usize; seg.num_regions()];
        for cell in 0..9 {
            match seg.region_of_cell(cell) {
                Some(r) => {
                    assert!(idx.user_count(cell) > 0);
                    assert!(seg.regions[r.0].cells.contains(&cell));
                    seen[r.0] += 1;
                }
                None => assert_eq!(idx.user_count(cell), 0),
            }
        }
        let total: usize = seg.regions.iter().map(Region::size).sum();
        assert_eq!(total, seen.iter().sum::<usize>());
    }

    #[test]
    fn dense_first_is_deterministic() {
        let grid = grid_3x3();
        let mut idx = CellUserIndex::new(9);
        for cell in 0..9 {
            for u in 0..(cell as u32 + 1) {
                idx.record(cell, u);
            }
        }
        let seg_a = segment_regions(
            &grid,
            &idx,
            0.4,
            SeedOrder::DenseFirst,
            &mut SmallRng::seed_from_u64(1),
        );
        let seg_b = segment_regions(
            &grid,
            &idx,
            0.4,
            SeedOrder::DenseFirst,
            &mut SmallRng::seed_from_u64(999),
        );
        assert_eq!(seg_a, seg_b);
    }

    #[test]
    fn build_index_skips_out_of_grid_points() {
        let grid = grid_3x3();
        let inside = crate::GeoPoint::new(0.5, 0.5);
        let outside = crate::GeoPoint::new(50.0, 50.0);
        let mut idx = CellUserIndex::new(grid.num_cells());
        for (point, user) in [(&inside, 1u32), (&outside, 2u32)] {
            if let Some(cell) = grid.cell_of(point) {
                idx.record(grid.flat_index(cell), user);
            }
        }
        assert_eq!(idx.checkin_count(0), 1);
        let total: usize = (0..9).map(|c| idx.checkin_count(c)).sum();
        assert_eq!(total, 1);
    }
}
