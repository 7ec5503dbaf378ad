//! Region densities and the resampling quotas of Eq. 6-8.
//!
//! For a region `r`, density is `rho_r = n_r / S_r` where `n_r` counts
//! check-ins and `S_r` counts grid cells. The paper balances regions by
//! sampling extra check-ins so each region reaches the density of the
//! densest region `r*` (Eq. 6), damped by the punishment rate `alpha`, and
//! draws regions proportionally to `rho_{r*} / rho_r` (Eq. 8).

use crate::{Region, RegionId, Segmentation};

/// Densities of every region in one city's segmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDensities {
    /// Check-ins per region (`n_r`).
    counts: Vec<usize>,
    /// Cells per region (`S_r`).
    sizes: Vec<usize>,
}

impl RegionDensities {
    /// Computes densities from a segmentation and per-flat-cell check-in
    /// counts.
    ///
    /// # Panics
    /// Panics if a region is empty (cannot happen for [`Segmentation`]
    /// output) or check-in counts don't cover the segmentation's cells.
    pub fn from_segmentation(seg: &Segmentation, cell_checkins: &[usize]) -> Self {
        assert_eq!(
            seg.cell_region.len(),
            cell_checkins.len(),
            "check-in counts must cover every grid cell"
        );
        let counts = seg
            .regions
            .iter()
            .map(|r| r.cells.iter().map(|&c| cell_checkins[c]).sum())
            .collect();
        let sizes = seg.regions.iter().map(Region::size).collect();
        Self::new(counts, sizes)
    }

    /// Builds directly from per-region counts and sizes.
    pub fn new(counts: Vec<usize>, sizes: Vec<usize>) -> Self {
        assert_eq!(counts.len(), sizes.len(), "counts/sizes length mismatch");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every region must contain at least one cell"
        );
        Self { counts, sizes }
    }

    /// Number of regions.
    pub(crate) fn num_regions(&self) -> usize {
        self.counts.len()
    }

    /// Check-ins in region `r` (`n_r`).
    pub fn count(&self, r: RegionId) -> usize {
        self.counts[r.0]
    }

    /// Cells in region `r` (`S_r`).
    pub fn size(&self, r: RegionId) -> usize {
        self.sizes[r.0]
    }

    /// Density `rho_r = n_r / S_r`.
    pub fn density(&self, r: RegionId) -> f64 {
        self.counts[r.0] as f64 / self.sizes[r.0] as f64
    }

    /// The densest region `r*` (ties broken by lowest id). `None` when
    /// there are no regions or no check-ins at all.
    pub fn densest(&self) -> Option<RegionId> {
        (0..self.num_regions())
            .filter(|&r| self.counts[r] > 0)
            .max_by(|&a, &b| {
                self.density(RegionId(a))
                    .partial_cmp(&self.density(RegionId(b)))
                    .expect("densities are finite")
                    .then(b.cmp(&a)) // prefer the lower id on ties
            })
            .map(RegionId)
    }

    /// Resampling quota `n'_r` of Eq. 6: the extra check-ins needed so
    /// `(n_r + n'_r) / S_r = n_{r*} / S_{r*}` (rounded to nearest; the
    /// densest region's own quota is zero).
    pub fn resample_quota(&self, r: RegionId) -> usize {
        let Some(rstar) = self.densest() else {
            return 0;
        };
        let target = self.density(rstar) * self.sizes[r.0] as f64;
        let quota = target - self.counts[r.0] as f64;
        quota.round().max(0.0) as usize
    }

    /// Total quota across all regions (`sum_r n'_r`, before the `alpha`
    /// punishment is applied).
    pub fn total_quota(&self) -> usize {
        (0..self.num_regions())
            .map(|r| self.resample_quota(RegionId(r)))
            .sum()
    }

    /// The region-sampling distribution `P(r | c)` of Eq. 8:
    /// `P(r) ∝ rho_{r*} / rho_r`, i.e. sparser regions are drawn more
    /// often. Regions with zero check-ins are given zero probability
    /// (there is nothing there to resample).
    ///
    /// Returns an empty vector when the city has no check-ins.
    pub fn region_distribution(&self) -> Vec<f64> {
        let Some(rstar) = self.densest() else {
            return vec![0.0; self.num_regions()];
        };
        let rho_star = self.density(rstar);
        let weights: Vec<f64> = (0..self.num_regions())
            .map(|r| {
                let rho = self.density(RegionId(r));
                if rho > 0.0 {
                    rho_star / rho
                } else {
                    0.0
                }
            })
            .collect();
        let z: f64 = weights.iter().sum();
        if z == 0.0 {
            return weights;
        }
        weights.into_iter().map(|w| w / z).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three regions mirroring Fig. 2a: dense (5 check-ins / 1 cell),
    /// sparse (2 / 1), medium (6 / 3).
    fn fig2_like() -> RegionDensities {
        RegionDensities::new(vec![5, 2, 6], vec![1, 1, 3])
    }

    #[test]
    fn density_and_densest() {
        let d = fig2_like();
        assert_eq!(d.density(RegionId(0)), 5.0);
        assert_eq!(d.density(RegionId(1)), 2.0);
        assert_eq!(d.density(RegionId(2)), 2.0);
        assert_eq!(d.densest(), Some(RegionId(0)));
    }

    #[test]
    fn quota_reaches_target_density() {
        let d = fig2_like();
        // Region 1 needs 5*1 - 2 = 3 extra; region 2 needs 5*3 - 6 = 9.
        assert_eq!(d.resample_quota(RegionId(0)), 0);
        assert_eq!(d.resample_quota(RegionId(1)), 3);
        assert_eq!(d.resample_quota(RegionId(2)), 9);
        assert_eq!(d.total_quota(), 12);
        // Post-resampling densities equal rho_{r*}.
        for r in 0..3 {
            let r = RegionId(r);
            let post = (d.count(r) + d.resample_quota(r)) as f64 / d.size(r) as f64;
            assert!(
                (post - 5.0).abs() <= 0.5,
                "rounding keeps density near target"
            );
        }
    }

    #[test]
    fn region_distribution_favours_sparse_regions() {
        let d = fig2_like();
        let p = d.region_distribution();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Weights: 5/5=1, 5/2=2.5, 5/2=2.5 -> sparse regions dominate.
        assert!(p[1] > p[0] && p[2] > p[0]);
        assert!((p[1] - p[2]).abs() < 1e-12);
    }

    #[test]
    fn empty_region_gets_zero_probability() {
        let d = RegionDensities::new(vec![4, 0], vec![1, 2]);
        let p = d.region_distribution();
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_checkins_city() {
        let d = RegionDensities::new(vec![0, 0], vec![1, 1]);
        assert_eq!(d.densest(), None);
        assert_eq!(d.total_quota(), 0);
        assert!(d.region_distribution().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn uniform_city_needs_no_resampling() {
        let d = RegionDensities::new(vec![10, 20, 30], vec![1, 2, 3]);
        assert_eq!(d.total_quota(), 0);
        let p = d.region_distribution();
        for w in &p {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn from_segmentation_aggregates_cells() {
        use crate::{Region, Segmentation};
        let seg = Segmentation {
            regions: vec![Region { cells: vec![0, 1] }, Region { cells: vec![3] }],
            cell_region: vec![
                Some(RegionId(0)),
                Some(RegionId(0)),
                None,
                Some(RegionId(1)),
            ],
        };
        let d = RegionDensities::from_segmentation(&seg, &[3, 4, 9, 5]);
        assert_eq!(d.count(RegionId(0)), 7);
        assert_eq!(d.size(RegionId(0)), 2);
        assert_eq!(d.count(RegionId(1)), 5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_inputs() {
        RegionDensities::new(vec![1], vec![1, 2]);
    }
}
