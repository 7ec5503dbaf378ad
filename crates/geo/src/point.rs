//! Geographic points and great-circle distances.

/// Mean Earth radius in kilometres (IUGG).
pub(crate) const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A WGS-84 geographic point (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating coordinate ranges.
    ///
    /// # Panics
    /// Panics on out-of-range coordinates; check-in data with bad
    /// coordinates should be rejected at ingestion, not propagated.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!((-90.0..=90.0).contains(&lat), "latitude {lat} out of range");
        assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude {lon} out of range"
        );
        Self { lat, lon }
    }

    /// Haversine great-circle distance to `other`, in kilometres.
    pub fn haversine_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(34.05, -118.24);
        assert_eq!(p.haversine_km(&p), 0.0);
    }

    #[test]
    fn la_to_vegas_known_distance() {
        // Los Angeles downtown to Las Vegas strip: ~361 km great-circle.
        let la = GeoPoint::new(34.0522, -118.2437);
        let lv = GeoPoint::new(36.1147, -115.1728);
        let d = la.haversine_km(&lv);
        assert!((d - 361.5).abs() < 3.0, "got {d}");
    }

    #[test]
    fn symmetry() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-5.0, 120.0);
        assert!((a.haversine_km(&b) - b.haversine_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((a.haversine_km(&b) - half).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn rejects_bad_latitude() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "longitude")]
    fn rejects_bad_longitude() {
        GeoPoint::new(0.0, 200.0);
    }
}
