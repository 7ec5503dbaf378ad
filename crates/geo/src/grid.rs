//! Uniform `n1 x n2` grid segmentation of a city's bounding box.
//!
//! The paper (Sec. 3.1.4) first divides a city into equal-sized grids;
//! each POI maps to exactly one grid cell by its coordinates. Cells are
//! addressed either by `(row, col)` or by a flat index `row * n2 + col`.

use crate::GeoPoint;

/// An axis-aligned latitude/longitude bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (minimum latitude).
    pub min_lat: f64,
    /// Northern edge (maximum latitude).
    pub max_lat: f64,
    /// Western edge (minimum longitude).
    pub min_lon: f64,
    /// Eastern edge (maximum longitude).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Creates a box; edges may not be inverted or degenerate.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Self {
        assert!(min_lat < max_lat, "degenerate latitude span");
        assert!(min_lon < max_lon, "degenerate longitude span");
        Self {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        }
    }

    /// Smallest box covering all `points`.
    ///
    /// Returns `None` for an empty input. A tiny margin is added so every
    /// point maps to a valid grid cell (points on the max edge still land
    /// in the last row/column). The margin is clamped to the legal
    /// coordinate domain: an unclamped margin pushes boxes built from
    /// points at the poles or the antimeridian past ±90/±180, and any
    /// [`GeoPoint`] later derived from such a box (e.g.
    /// [`Grid::cell_center`] of an edge cell over a tiny span) panics its
    /// coordinate validation. At a domain edge the box edge coincides
    /// with the extreme point, which [`BoundingBox::contains`] and
    /// [`Grid::cell_of`] both accept (max edges are inclusive).
    pub fn covering(points: impl IntoIterator<Item = GeoPoint>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = (first.lat, first.lat, first.lon, first.lon);
        for p in it {
            bb.0 = bb.0.min(p.lat);
            bb.1 = bb.1.max(p.lat);
            bb.2 = bb.2.min(p.lon);
            bb.3 = bb.3.max(p.lon);
        }
        const MARGIN: f64 = 1e-6;
        Some(Self::new(
            (bb.0 - MARGIN).max(-90.0),
            (bb.1 + MARGIN).min(90.0),
            (bb.2 - MARGIN).max(-180.0),
            (bb.3 + MARGIN).min(180.0),
        ))
    }

    /// True if `p` lies inside the box (all edges inclusive, matching
    /// [`Grid::cell_of`]'s max-edge clamp: a point exactly on the max
    /// edge belongs to the last row/column, it does not fall off).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Geographic centre of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }
}

/// A `(row, col)` cell address within a [`Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridCell {
    /// Row index (latitude direction), `0..n1`.
    pub row: usize,
    /// Column index (longitude direction), `0..n2`.
    pub col: usize,
}

/// A uniform `n1 x n2` grid over a bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    bbox: BoundingBox,
    n1: usize,
    n2: usize,
}

impl Grid {
    /// Creates an `n1 x n2` grid over `bbox`.
    pub fn new(bbox: BoundingBox, n1: usize, n2: usize) -> Self {
        assert!(n1 > 0 && n2 > 0, "grid dimensions must be positive");
        Self { bbox, n1, n2 }
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.n1 * self.n2
    }

    /// Maps a point to its cell, or `None` if outside the box.
    ///
    /// Points exactly on the max edges clamp into the last row/column so a
    /// box built with [`BoundingBox::covering`] loses no input point.
    pub fn cell_of(&self, p: &GeoPoint) -> Option<GridCell> {
        if p.lat < self.bbox.min_lat
            || p.lat > self.bbox.max_lat
            || p.lon < self.bbox.min_lon
            || p.lon > self.bbox.max_lon
        {
            return None;
        }
        let fr = (p.lat - self.bbox.min_lat) / (self.bbox.max_lat - self.bbox.min_lat);
        let fc = (p.lon - self.bbox.min_lon) / (self.bbox.max_lon - self.bbox.min_lon);
        let row = ((fr * self.n1 as f64) as usize).min(self.n1 - 1);
        let col = ((fc * self.n2 as f64) as usize).min(self.n2 - 1);
        Some(GridCell { row, col })
    }

    /// Flat index of a cell (`row * n2 + col`).
    pub fn flat_index(&self, cell: GridCell) -> usize {
        debug_assert!(cell.row < self.n1 && cell.col < self.n2);
        cell.row * self.n2 + cell.col
    }

    /// Inverse of [`Grid::flat_index`].
    pub fn cell_from_flat(&self, idx: usize) -> GridCell {
        debug_assert!(idx < self.num_cells());
        GridCell {
            row: idx / self.n2,
            col: idx % self.n2,
        }
    }

    /// 4-neighbourhood (von Neumann) of a cell, clipped to the grid.
    pub(crate) fn neighbors(&self, cell: GridCell) -> impl Iterator<Item = GridCell> + '_ {
        let (r, c) = (cell.row as isize, cell.col as isize);
        [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
            .into_iter()
            .filter_map(move |(nr, nc)| {
                (nr >= 0 && nc >= 0 && (nr as usize) < self.n1 && (nc as usize) < self.n2)
                    .then_some(GridCell {
                        row: nr as usize,
                        col: nc as usize,
                    })
            })
    }

    /// Cells at Chebyshev distance exactly `r` from `center`, clipped to
    /// the grid, in deterministic row-major order. `r == 0` yields only
    /// `center` itself.
    ///
    /// This is the expansion step of grid-based candidate retrieval: ring
    /// 0 is the query cell, ring 1 its 8-neighbourhood shell, and so on
    /// outward until the candidate budget fills.
    pub(crate) fn ring(&self, center: GridCell, r: usize) -> impl Iterator<Item = GridCell> + '_ {
        let (cr, cc) = (center.row as isize, center.col as isize);
        let r = r as isize;
        let rows = cr - r..=cr + r;
        rows.flat_map(move |row| {
            // Top and bottom edges sweep the full span; the sides only
            // contribute their two extreme columns.
            // For r == 0 the single row is both the top and bottom edge,
            // so the side branch below only ever runs with r >= 1.
            let cols: Vec<isize> = if row == cr - r || row == cr + r {
                (cc - r..=cc + r).collect()
            } else {
                vec![cc - r, cc + r]
            };
            cols.into_iter().map(move |col| (row, col))
        })
        .filter_map(move |(row, col)| {
            (row >= 0 && col >= 0 && (row as usize) < self.n1 && (col as usize) < self.n2)
                .then_some(GridCell {
                    row: row as usize,
                    col: col as usize,
                })
        })
    }

    /// All cells within Chebyshev distance `r` of `center` (rings
    /// `0..=r`), nearest ring first — the full expansion order of
    /// ring-based retrieval.
    pub fn rings_within(&self, center: GridCell, r: usize) -> impl Iterator<Item = GridCell> + '_ {
        (0..=r).flat_map(move |d| self.ring(center, d))
    }

    /// Geographic centre of a cell.
    pub fn cell_center(&self, cell: GridCell) -> GeoPoint {
        let lat_step = (self.bbox.max_lat - self.bbox.min_lat) / self.n1 as f64;
        let lon_step = (self.bbox.max_lon - self.bbox.min_lon) / self.n2 as f64;
        GeoPoint::new(
            self.bbox.min_lat + (cell.row as f64 + 0.5) * lat_step,
            self.bbox.min_lon + (cell.col as f64 + 0.5) * lon_step,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid() -> Grid {
        Grid::new(BoundingBox::new(0.0, 10.0, 0.0, 20.0), 5, 4)
    }

    #[test]
    fn covering_box_contains_all_points() {
        let pts = vec![
            GeoPoint::new(1.0, 2.0),
            GeoPoint::new(-3.0, 7.0),
            GeoPoint::new(4.0, -1.0),
        ];
        let bb = BoundingBox::covering(pts.clone()).unwrap();
        for p in pts {
            assert!(bb.contains(&p), "{p:?} outside {bb:?}");
        }
        assert!(BoundingBox::covering(std::iter::empty()).is_none());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_degenerate_box() {
        BoundingBox::new(1.0, 1.0, 0.0, 1.0);
    }

    #[test]
    fn cell_mapping_corners_and_edges() {
        let g = unit_grid();
        assert_eq!(
            g.cell_of(&GeoPoint::new(0.0, 0.0)),
            Some(GridCell { row: 0, col: 0 })
        );
        // Max edges clamp into the last cell instead of falling off.
        assert_eq!(
            g.cell_of(&GeoPoint::new(10.0, 20.0)),
            Some(GridCell { row: 4, col: 3 })
        );
        assert_eq!(g.cell_of(&GeoPoint::new(10.1, 0.0)), None);
        assert_eq!(g.cell_of(&GeoPoint::new(5.0, 20.5)), None);
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = unit_grid();
        for idx in 0..g.num_cells() {
            assert_eq!(g.flat_index(g.cell_from_flat(idx)), idx);
        }
    }

    #[test]
    fn neighbors_interior_and_corner() {
        let g = unit_grid();
        let inner: Vec<_> = g.neighbors(GridCell { row: 2, col: 2 }).collect();
        assert_eq!(inner.len(), 4);
        let corner: Vec<_> = g.neighbors(GridCell { row: 0, col: 0 }).collect();
        assert_eq!(corner.len(), 2);
        assert!(corner.contains(&GridCell { row: 1, col: 0 }));
        assert!(corner.contains(&GridCell { row: 0, col: 1 }));
    }

    #[test]
    fn covering_handles_identical_and_domain_edge_points() {
        // All points identical: the margin must still open a valid span.
        let p = GeoPoint::new(37.5, -122.3);
        let bb = BoundingBox::covering(vec![p, p, p]).unwrap();
        assert!(bb.contains(&p));

        // Points pinned at the poles / antimeridian: the margin clamps to
        // the legal domain instead of producing lat > 90 / lon > 180, and
        // the extreme point still maps to a valid cell of a fine grid
        // whose every cell center must be a constructible GeoPoint (this
        // panicked before the clamp).
        for p in [
            GeoPoint::new(90.0, 180.0),
            GeoPoint::new(-90.0, -180.0),
            GeoPoint::new(90.0, 0.0),
        ] {
            let bb = BoundingBox::covering(vec![p, p]).unwrap();
            assert!(bb.max_lat <= 90.0 && bb.min_lat >= -90.0);
            assert!(bb.max_lon <= 180.0 && bb.min_lon >= -180.0);
            assert!(bb.contains(&p), "{p:?} outside {bb:?}");
            let g = Grid::new(bb, 12, 12);
            let cell = g.cell_of(&p).expect("domain-edge point lost");
            let _ = g.cell_center(cell); // must not panic validation
        }
    }

    #[test]
    fn ring_zero_is_center_and_ring_one_is_shell() {
        let g = unit_grid();
        let c = GridCell { row: 2, col: 2 };
        assert_eq!(g.ring(c, 0).collect::<Vec<_>>(), vec![c]);
        let shell: Vec<_> = g.ring(c, 1).collect();
        assert_eq!(shell.len(), 8);
        for cell in &shell {
            let dr = cell.row.abs_diff(c.row);
            let dc = cell.col.abs_diff(c.col);
            assert_eq!(dr.max(dc), 1, "{cell:?} not on ring 1");
        }
    }

    #[test]
    fn ring_clips_at_grid_edges() {
        let g = unit_grid(); // 5 x 4
        let corner = GridCell { row: 0, col: 0 };
        let shell: Vec<_> = g.ring(corner, 1).collect();
        assert_eq!(shell.len(), 3);
        // A ring big enough to leave the grid entirely yields nothing.
        assert_eq!(g.ring(corner, 10).count(), 0);
    }

    #[test]
    fn rings_within_covers_every_cell_exactly_once() {
        let g = unit_grid();
        let c = GridCell { row: 1, col: 3 };
        let max_r = 5; // the larger of unit_grid's 5 x 4
        let mut seen = std::collections::HashSet::new();
        let mut last_dist = 0usize;
        for cell in g.rings_within(c, max_r) {
            let d = cell.row.abs_diff(c.row).max(cell.col.abs_diff(c.col));
            assert!(d >= last_dist, "rings must expand outward");
            last_dist = d;
            assert!(seen.insert(cell), "{cell:?} emitted twice");
        }
        assert_eq!(seen.len(), g.num_cells(), "expansion must reach all cells");
    }

    #[test]
    fn cell_center_lies_in_cell() {
        let g = unit_grid();
        for idx in 0..g.num_cells() {
            let cell = g.cell_from_flat(idx);
            let center = g.cell_center(cell);
            assert_eq!(g.cell_of(&center), Some(cell));
        }
    }
}
