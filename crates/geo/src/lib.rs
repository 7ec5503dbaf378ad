//! # st-geo
//!
//! Geospatial substrate for the ST-TransRec reproduction: geographic
//! points and distances, uniform city grids, the paper's Algorithm 1
//! (clustering grid cells into *uniformly accessible regions* by visitor
//! overlap), and the region-density bookkeeping behind the density-based
//! resampler (Eq. 6-8).
//!
//! ```
//! use st_geo::{BoundingBox, CellUserIndex, GeoPoint, Grid, SeedOrder, segment_regions};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let grid = Grid::new(BoundingBox::new(34.0, 34.3, -118.5, -118.1), 8, 8);
//! let mut index = CellUserIndex::new(grid.num_cells());
//! let p = GeoPoint::new(34.05, -118.25);
//! let cell = grid.flat_index(grid.cell_of(&p).unwrap());
//! index.record(cell, 42);
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let seg = segment_regions(&grid, &index, 0.10, SeedOrder::DenseFirst, &mut rng);
//! assert_eq!(seg.num_regions(), 1);
//! ```

#![warn(missing_docs)]

mod density;
mod grid;
mod point;
mod region;

pub use density::RegionDensities;
pub use grid::{BoundingBox, Grid, GridCell};
pub use point::GeoPoint;
pub use region::{segment_regions, CellUserIndex, Region, RegionId, SeedOrder, Segmentation};
