//! Core data model: ids, cities, POIs, and check-in records (Def. 1-3).

use st_geo::{BoundingBox, GeoPoint};

/// A user identifier, dense in `0..num_users`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

/// A POI identifier, dense in `0..num_pois`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoiId(pub u32);

/// A vocabulary word identifier, dense in `0..num_words`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WordId(pub u32);

/// A city identifier, dense in `0..num_cities`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u16);

impl UserId {
    /// Index form for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PoiId {
    /// Index form for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl WordId {
    /// Index form for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl CityId {
    /// Index form for array addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A city with its geographic extent.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// Dense city id.
    pub id: CityId,
    /// Human-readable name ("Los Angeles").
    pub name: String,
    /// Geographic extent used for grid segmentation.
    pub bbox: BoundingBox,
}

/// A point of interest with its location and textual description
/// (Def. 1: the `(v, l_v, W_v, c)` part of a check-in tuple).
#[derive(Debug, Clone, PartialEq)]
pub struct Poi {
    /// Dense POI id.
    pub id: PoiId,
    /// The city this POI belongs to.
    pub city: CityId,
    /// Latitude/longitude.
    pub location: GeoPoint,
    /// Word ids of the POI's categories/tips, deduplicated.
    pub words: Vec<WordId>,
    /// Display name (synthetic POIs get generated names).
    pub name: String,
}

/// A single check-in: user `u` visited POI `v` at ordinal time `t`
/// (Def. 1; POI attributes live on [`Poi`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkin {
    /// Who checked in.
    pub user: UserId,
    /// Where.
    pub poi: PoiId,
    /// Ordinal timestamp (only ordering matters to the model).
    pub(crate) time: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_index_roundtrips() {
        assert_eq!(UserId(7).idx(), 7);
        assert_eq!(PoiId(9).idx(), 9);
        assert_eq!(WordId(3).idx(), 3);
        assert_eq!(CityId(1).idx(), 1);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PoiId(1));
        set.insert(PoiId(1));
        set.insert(PoiId(2));
        assert_eq!(set.len(), 2);
        assert!(UserId(1) < UserId(2));
    }
}
