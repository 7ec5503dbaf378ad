//! The check-in dataset with eagerly built secondary indexes.

use crate::{Checkin, City, CityId, Poi, PoiId, UserId, Vocabulary};

/// A complete check-in collection (`D` in Def. 3) with per-user, per-POI
/// and per-city indexes built at construction time.
#[derive(Debug, Clone)]
pub struct Dataset {
    cities: Vec<City>,
    pois: Vec<Poi>,
    vocab: Vocabulary,
    num_users: usize,
    checkins: Vec<Checkin>,
    /// Check-in indices per user.
    by_user: Vec<Vec<u32>>,
    /// Check-in indices per POI.
    by_poi: Vec<Vec<u32>>,
    /// POIs per city.
    pois_in_city: Vec<Vec<PoiId>>,
}

impl Dataset {
    /// Assembles a dataset and builds all indexes.
    ///
    /// # Panics
    /// Panics on referential violations: a check-in naming an unknown user
    /// or POI, a POI naming an unknown city or word, or non-dense POI ids.
    pub(crate) fn new(
        cities: Vec<City>,
        pois: Vec<Poi>,
        vocab: Vocabulary,
        num_users: usize,
        checkins: Vec<Checkin>,
    ) -> Self {
        for (i, poi) in pois.iter().enumerate() {
            assert_eq!(poi.id.idx(), i, "POI ids must be dense and ordered");
            assert!(
                poi.city.idx() < cities.len(),
                "POI {} references unknown city",
                i
            );
            for w in &poi.words {
                assert!(w.idx() < vocab.len(), "POI {} references unknown word", i);
            }
        }
        let mut by_user = vec![Vec::new(); num_users];
        let mut by_poi = vec![Vec::new(); pois.len()];
        for (i, c) in checkins.iter().enumerate() {
            assert!(c.user.idx() < num_users, "check-in {} unknown user", i);
            assert!(c.poi.idx() < pois.len(), "check-in {} unknown POI", i);
            by_user[c.user.idx()].push(i as u32);
            by_poi[c.poi.idx()].push(i as u32);
        }
        let mut pois_in_city = vec![Vec::new(); cities.len()];
        for poi in &pois {
            pois_in_city[poi.city.idx()].push(poi.id);
        }
        Self {
            cities,
            pois,
            vocab,
            num_users,
            checkins,
            by_user,
            by_poi,
            pois_in_city,
        }
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// A city by id.
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.idx()]
    }

    /// All POIs, ordered by dense id.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// A POI by id.
    pub fn poi(&self, id: PoiId) -> &Poi {
        &self.pois[id.idx()]
    }

    /// The interned vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of POIs.
    pub fn num_pois(&self) -> usize {
        self.pois.len()
    }

    /// All check-ins in insertion order.
    pub fn checkins(&self) -> &[Checkin] {
        &self.checkins
    }

    /// A user's profile `D_u` (Def. 3): their check-ins in time order of
    /// insertion.
    pub fn user_checkins(&self, user: UserId) -> impl Iterator<Item = &Checkin> {
        self.by_user[user.idx()]
            .iter()
            .map(|&i| &self.checkins[i as usize])
    }

    /// Popularity of a POI (its check-in count) — the ItemPop signal.
    pub(crate) fn poi_popularity(&self, poi: PoiId) -> usize {
        self.by_poi[poi.idx()].len()
    }

    /// POIs located in a city.
    pub fn pois_in_city(&self, city: CityId) -> &[PoiId] {
        &self.pois_in_city[city.idx()]
    }

    /// The distinct cities a user has checked into, ascending.
    pub(crate) fn user_cities(&self, user: UserId) -> Vec<CityId> {
        let mut cities: Vec<CityId> = self
            .user_checkins(user)
            .map(|c| self.poi(c.poi).city)
            .collect();
        cities.sort_unstable();
        cities.dedup();
        cities
    }

    /// The distinct POIs a user visited in `city`, ascending.
    pub fn user_visited_in_city(&self, user: UserId, city: CityId) -> Vec<PoiId> {
        let mut pois: Vec<PoiId> = self
            .user_checkins(user)
            .filter(|c| self.poi(c.poi).city == city)
            .map(|c| c.poi)
            .collect();
        pois.sort_unstable();
        pois.dedup();
        pois
    }

    /// Users who have checked into both `target` and at least one other
    /// city — the paper's *crossing-city users*.
    pub(crate) fn crossing_city_users(&self, target: CityId) -> Vec<UserId> {
        (0..self.num_users as u32)
            .map(UserId)
            .filter(|&u| {
                let cities = self.user_cities(u);
                cities.contains(&target) && cities.len() > 1
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::*;
    use st_geo::{BoundingBox, GeoPoint};

    /// Two cities, four POIs, three users; user 2 is a crossing-city user
    /// of city 1.
    pub(crate) fn tiny_dataset() -> Dataset {
        let cities = vec![
            City {
                id: CityId(0),
                name: "Source".into(),
                bbox: BoundingBox::new(0.0, 1.0, 0.0, 1.0),
            },
            City {
                id: CityId(1),
                name: "Target".into(),
                bbox: BoundingBox::new(10.0, 11.0, 10.0, 11.0),
            },
        ];
        let mut vocab = Vocabulary::new();
        let park = vocab.observe("park");
        let museum = vocab.observe("museum");
        let casino = vocab.observe("casino");
        let pois = vec![
            Poi {
                id: PoiId(0),
                city: CityId(0),
                location: GeoPoint::new(0.5, 0.5),
                words: vec![park],
                name: "p0".into(),
            },
            Poi {
                id: PoiId(1),
                city: CityId(0),
                location: GeoPoint::new(0.2, 0.8),
                words: vec![museum],
                name: "p1".into(),
            },
            Poi {
                id: PoiId(2),
                city: CityId(1),
                location: GeoPoint::new(10.5, 10.5),
                words: vec![park, casino],
                name: "p2".into(),
            },
            Poi {
                id: PoiId(3),
                city: CityId(1),
                location: GeoPoint::new(10.9, 10.1),
                words: vec![museum],
                name: "p3".into(),
            },
        ];
        let checkins = vec![
            Checkin {
                user: UserId(0),
                poi: PoiId(0),
                time: 0,
            },
            Checkin {
                user: UserId(0),
                poi: PoiId(1),
                time: 1,
            },
            Checkin {
                user: UserId(1),
                poi: PoiId(2),
                time: 2,
            },
            Checkin {
                user: UserId(2),
                poi: PoiId(0),
                time: 3,
            },
            Checkin {
                user: UserId(2),
                poi: PoiId(3),
                time: 4,
            },
            Checkin {
                user: UserId(2),
                poi: PoiId(0),
                time: 5,
            },
        ];
        Dataset::new(cities, pois, vocab, 3, checkins)
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::tiny_dataset;
    use super::*;

    #[test]
    fn indexes_are_consistent() {
        let d = tiny_dataset();
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.num_pois(), 4);
        assert_eq!(d.checkins().len(), 6);
        assert_eq!(d.user_checkins(UserId(2)).count(), 3);
        assert_eq!(d.poi_popularity(PoiId(0)), 3);
        assert_eq!(d.pois_in_city(CityId(1)), &[PoiId(2), PoiId(3)]);
    }

    #[test]
    fn user_cities_and_visits() {
        let d = tiny_dataset();
        assert_eq!(d.user_cities(UserId(0)), vec![CityId(0)]);
        assert_eq!(d.user_cities(UserId(2)), vec![CityId(0), CityId(1)]);
        assert_eq!(
            d.user_visited_in_city(UserId(2), CityId(0)),
            vec![PoiId(0)],
            "repeat visits dedupe"
        );
        assert_eq!(d.user_visited_in_city(UserId(2), CityId(1)), vec![PoiId(3)]);
    }

    #[test]
    fn crossing_city_users_found() {
        let d = tiny_dataset();
        assert_eq!(d.crossing_city_users(CityId(1)), vec![UserId(2)]);
        // User 1 only visited the target city: not a crossing user there.
        assert_eq!(d.crossing_city_users(CityId(0)), vec![UserId(2)]);
    }

    #[test]
    #[should_panic(expected = "unknown user")]
    fn rejects_unknown_user() {
        let d = tiny_dataset();
        let mut checkins = d.checkins().to_vec();
        checkins.push(Checkin {
            user: UserId(99),
            poi: PoiId(0),
            time: 9,
        });
        Dataset::new(
            d.cities().to_vec(),
            d.pois().to_vec(),
            d.vocab().clone(),
            d.num_users(),
            checkins,
        );
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn rejects_non_dense_poi_ids() {
        let d = tiny_dataset();
        let mut pois = d.pois().to_vec();
        pois.swap(0, 1);
        Dataset::new(
            d.cities().to_vec(),
            pois,
            d.vocab().clone(),
            d.num_users(),
            vec![],
        );
    }
}
