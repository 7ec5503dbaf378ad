//! Calibrated synthetic check-in generators.
//!
//! The paper's raw datasets are not redistributable, so every experiment
//! runs on synthetic data engineered to exhibit the four properties the
//! model (and each baseline) exploits — see DESIGN.md:
//!
//! 1. **Transferable taste**: each user has one latent topic-preference
//!    vector used in *every* city they visit; POI topics are observable
//!    through city-independent words.
//! 2. **City-dependent noise**: POI descriptions also contain words unique
//!    to their city, and each city skews which topics are available
//!    (behaviour drift: a casino-heavy city pulls check-ins toward
//!    casinos regardless of taste).
//! 3. **Imbalanced spatial density**: each city has districts with
//!    geometrically decaying accessibility; check-ins concentrate in
//!    accessible districts, POIs in marginal districts are structurally
//!    under-visited.
//! 4. **Sparse crossing users**: a small set of source-city users
//!    contributes a handful of target-city check-ins (<2% of the total),
//!    which become the evaluation ground truth.
//!
//! Presets [`SynthConfig::foursquare_like`] and [`SynthConfig::yelp_like`]
//! are calibrated to Table 1; [`SynthConfig::with_scale`] shrinks them
//! proportionally for CI-speed runs.
//!
//! **Timestamp invariant**: [`generate`] assigns every check-in a
//! globally unique, strictly increasing ordinal `time` (a single counter
//! advanced once per emitted check-in), so timestamps are strictly
//! monotone per user under a fixed seed. Leave-last-out splits and the
//! streaming windows of [`CheckinStream`] rely on this — ties would make
//! "most recent" ambiguous and windows non-deterministic.
//!
//! [`CheckinStream`] extends a generated dataset into a deterministic,
//! seeded live event source: the online-learning pipeline (`st-online`)
//! consumes it as the stand-in for a production check-in feed.

use crate::lexicon::{city_words, num_topics, TOPICS};
use crate::{Checkin, City, CityId, Dataset, Poi, PoiId, UserId, Vocabulary, WordId};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_geo::{BoundingBox, GeoPoint};

/// Specification of one synthetic city.
#[derive(Debug, Clone)]
pub struct CitySpec {
    /// Display name.
    pub(crate) name: String,
    /// Geographic centre.
    pub(crate) center: (f64, f64),
    /// Half-extent in degrees (bbox is `center ± extent`).
    pub(crate) extent: f64,
    /// Fraction of all POIs placed here.
    pub(crate) poi_share: f64,
    /// Fraction of all users living here.
    pub(crate) user_share: f64,
}

impl CitySpec {
    fn bbox(&self) -> BoundingBox {
        BoundingBox::new(
            self.center.0 - self.extent,
            self.center.0 + self.extent,
            self.center.1 - self.extent,
            self.center.1 + self.extent,
        )
    }
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed: equal configs generate equal datasets.
    pub seed: u64,
    /// Cities; exactly one is the target (see `target_city`).
    pub cities: Vec<CitySpec>,
    /// Index into `cities` of the held-out target city.
    pub target_city: usize,
    /// Total users across all cities.
    pub users: usize,
    /// Total POIs across all cities.
    pub pois: usize,
    /// Total check-ins, *including* the crossing-city ones.
    pub checkins: usize,
    /// Number of source-city users who also visit the target city.
    pub crossing_users: usize,
    /// Mean target-city check-ins per crossing user.
    pub crossing_mean: f64,
    /// City-dependent words generated per (city, topic).
    pub city_words_per_topic: usize,
    /// Shared (city-independent) words per POI, inclusive range.
    pub shared_words_per_poi: (usize, usize),
    /// City-dependent words per POI, inclusive range.
    pub city_words_per_poi: (usize, usize),
    /// Districts per city (accessibility tiers).
    pub districts_per_city: usize,
    /// District accessibility decays as `decay^i` from downtown.
    pub accessibility_decay: f64,
    /// Dirichlet concentration of user topic preferences (lower = spikier
    /// users, easier to tell apart).
    pub pref_concentration: f64,
    /// Log-std of POI quality (popularity skew).
    pub quality_sigma: f64,
}

impl SynthConfig {
    /// Foursquare-like preset: Los Angeles target + four source cities,
    /// calibrated to Table 1 (3,600 users / 31,784 POIs / 3,619 words /
    /// 191,515 check-ins / 732 crossing users / 3,520 crossing check-ins).
    pub fn foursquare_like() -> Self {
        Self {
            seed: 0xF05A,
            cities: vec![
                CitySpec {
                    name: "Los Angeles".into(),
                    center: (34.05, -118.24),
                    extent: 0.25,
                    poi_share: 0.35,
                    user_share: 0.30,
                },
                CitySpec {
                    name: "New York".into(),
                    center: (40.71, -74.01),
                    extent: 0.20,
                    poi_share: 0.25,
                    user_share: 0.25,
                },
                CitySpec {
                    name: "Chicago".into(),
                    center: (41.88, -87.63),
                    extent: 0.20,
                    poi_share: 0.15,
                    user_share: 0.17,
                },
                CitySpec {
                    name: "San Francisco".into(),
                    center: (37.77, -122.42),
                    extent: 0.15,
                    poi_share: 0.13,
                    user_share: 0.15,
                },
                CitySpec {
                    name: "Boston".into(),
                    center: (42.36, -71.06),
                    extent: 0.15,
                    poi_share: 0.12,
                    user_share: 0.13,
                },
            ],
            target_city: 0,
            users: 3_600,
            pois: 31_784,
            checkins: 191_515,
            crossing_users: 732,
            crossing_mean: 4.8,
            city_words_per_topic: 49,
            shared_words_per_poi: (3, 6),
            city_words_per_poi: (3, 6),
            districts_per_city: 6,
            accessibility_decay: 0.55,
            pref_concentration: 0.45,
            quality_sigma: 0.7,
        }
    }

    /// Yelp-like preset: Phoenix source, Las Vegas target, calibrated to
    /// Table 1 (9,805 users / 6,910 POIs / 1,648 words / 433,305
    /// check-ins / 983 crossing users / 6,137 crossing check-ins).
    pub fn yelp_like() -> Self {
        Self {
            seed: 0x4E1F,
            cities: vec![
                CitySpec {
                    name: "Phoenix".into(),
                    center: (33.45, -112.07),
                    extent: 0.30,
                    poi_share: 0.50,
                    user_share: 0.55,
                },
                CitySpec {
                    name: "Las Vegas".into(),
                    center: (36.17, -115.14),
                    extent: 0.20,
                    poi_share: 0.50,
                    user_share: 0.45,
                },
            ],
            target_city: 1,
            users: 9_805,
            pois: 6_910,
            checkins: 433_305,
            crossing_users: 983,
            crossing_mean: 6.2,
            city_words_per_topic: 53,
            shared_words_per_poi: (3, 6),
            city_words_per_poi: (3, 6),
            districts_per_city: 6,
            accessibility_decay: 0.55,
            pref_concentration: 0.45,
            quality_sigma: 0.7,
        }
    }

    /// A two-city micro config for unit tests (fast to generate, still
    /// exhibits all four structural properties).
    pub fn tiny() -> Self {
        Self {
            seed: 7,
            cities: vec![
                CitySpec {
                    name: "Alpha".into(),
                    center: (10.0, 10.0),
                    extent: 0.2,
                    poi_share: 0.5,
                    user_share: 0.5,
                },
                CitySpec {
                    name: "Beta".into(),
                    center: (20.0, 20.0),
                    extent: 0.2,
                    poi_share: 0.5,
                    user_share: 0.5,
                },
            ],
            target_city: 1,
            users: 60,
            pois: 80,
            checkins: 1_500,
            crossing_users: 12,
            crossing_mean: 4.0,
            city_words_per_topic: 4,
            shared_words_per_poi: (3, 5),
            city_words_per_poi: (1, 2),
            districts_per_city: 3,
            accessibility_decay: 0.5,
            pref_concentration: 0.8,
            quality_sigma: 0.8,
        }
    }

    /// Scales counts by `s` (words by `sqrt(s)`), keeping structure.
    ///
    /// # Panics
    /// Panics unless `0 < s <= 1`.
    pub fn with_scale(mut self, s: f64) -> Self {
        assert!(s > 0.0 && s <= 1.0, "scale must be in (0, 1]");
        let scale = |x: usize, s: f64| ((x as f64 * s).round() as usize).max(1);
        self.users = scale(self.users, s).max(30);
        self.pois = scale(self.pois, s).max(40);
        self.checkins = scale(self.checkins, s).max(500);
        self.crossing_users = scale(self.crossing_users, s).max(5);
        self.city_words_per_topic = scale(self.city_words_per_topic, s.sqrt()).max(3);
        self
    }

    /// Replaces the seed (datasets for different seeds are independent).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) {
        assert!(self.cities.len() >= 2, "need at least source + target city");
        assert!(self.target_city < self.cities.len(), "bad target index");
        let ps: f64 = self.cities.iter().map(|c| c.poi_share).sum();
        let us: f64 = self.cities.iter().map(|c| c.user_share).sum();
        assert!((ps - 1.0).abs() < 1e-6, "poi shares must sum to 1");
        assert!((us - 1.0).abs() < 1e-6, "user shares must sum to 1");
        assert!(self.crossing_users < self.users, "too many crossing users");
        assert!(self.crossing_mean >= 1.0);
        assert!(self.shared_words_per_poi.0 >= 1);
        assert!(self.shared_words_per_poi.0 <= self.shared_words_per_poi.1);
        assert!(self.city_words_per_poi.0 <= self.city_words_per_poi.1);
        assert!(self.districts_per_city >= 1);
        assert!((0.0..1.0).contains(&self.accessibility_decay) || self.accessibility_decay == 1.0);
        assert!(self.pref_concentration > 0.0);
    }
}

/// Latent ground truth the generator used — exposed for tests and
/// diagnostics (a recommender never sees this).
#[derive(Debug, Clone)]
pub struct SynthMeta {
    /// Users that received target-city check-ins.
    pub crossing_users: Vec<UserId>,
    /// Home city of each user (read by this module's tests only).
    #[cfg(test)]
    user_home: Vec<CityId>,
    /// District (accessibility tier) of each POI within its city;
    /// 0 = downtown (most accessible). Read by this module's tests only.
    #[cfg(test)]
    poi_district: Vec<u16>,
}

/// The generator: produces a [`Dataset`] plus its latent [`SynthMeta`].
pub fn generate(config: &SynthConfig) -> (Dataset, SynthMeta) {
    config.validate();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let t = num_topics();

    // ---- cities -----------------------------------------------------------
    let cities: Vec<City> = config
        .cities
        .iter()
        .enumerate()
        .map(|(i, spec)| City {
            id: CityId(i as u16),
            name: spec.name.clone(),
            bbox: spec.bbox(),
        })
        .collect();

    // Per-city topic availability tilt (behaviour drift): multiplier in
    // {0.4, 1.0, 2.5} per topic, plus the target city always gets one
    // strongly boosted "signature" topic (the casino effect).
    let mut city_topic_tilt: Vec<Vec<f64>> = (0..cities.len())
        .map(|_| {
            (0..t)
                .map(|_| [0.4, 1.0, 1.0, 1.0, 2.5][rng.gen_range(0..5usize)])
                .collect()
        })
        .collect();
    for (ci, tilt) in city_topic_tilt.iter_mut().enumerate() {
        let signature = (ci * 5 + 7) % t;
        tilt[signature] = 4.0;
    }

    // ---- vocabulary --------------------------------------------------------
    // Shared topic words first, then per-city words.
    let mut vocab = Vocabulary::new();
    let shared_ids: Vec<Vec<WordId>> = TOPICS
        .iter()
        .map(|topic| topic.shared_words.iter().map(|w| vocab.intern(w)).collect())
        .collect();
    let city_ids: Vec<Vec<Vec<WordId>>> = config
        .cities
        .iter()
        .map(|spec| {
            TOPICS
                .iter()
                .map(|topic| {
                    city_words(&spec.name, topic, config.city_words_per_topic)
                        .iter()
                        .map(|w| vocab.intern(w))
                        .collect()
                })
                .collect()
        })
        .collect();

    // ---- districts ----------------------------------------------------------
    // District d of city c sits at a deterministic offset inside the bbox;
    // accessibility decays geometrically from downtown (d = 0).
    let district_access: Vec<f64> = (0..config.districts_per_city)
        .map(|d| config.accessibility_decay.powi(d as i32))
        .collect();
    let district_centers: Vec<Vec<GeoPoint>> = config
        .cities
        .iter()
        .map(|spec| {
            (0..config.districts_per_city)
                .map(|d| {
                    if d == 0 {
                        GeoPoint::new(spec.center.0, spec.center.1)
                    } else {
                        // Ring placement: marginal districts sit toward the
                        // bbox edges.
                        let angle =
                            d as f64 / config.districts_per_city as f64 * std::f64::consts::TAU;
                        let radius = spec.extent * 0.65;
                        GeoPoint::new(
                            spec.center.0 + radius * angle.sin(),
                            spec.center.1 + radius * angle.cos(),
                        )
                    }
                })
                .collect()
        })
        .collect();

    // ---- POIs ---------------------------------------------------------------
    let poi_counts = largest_remainder(config.pois, config.cities.iter().map(|c| c.poi_share));
    let mut pois: Vec<Poi> = Vec::with_capacity(config.pois);
    let mut poi_topic: Vec<u16> = Vec::with_capacity(config.pois);
    let mut poi_district: Vec<u16> = Vec::with_capacity(config.pois);
    let mut poi_quality: Vec<f64> = Vec::with_capacity(config.pois);
    for (ci, &count) in poi_counts.iter().enumerate() {
        let spec = &config.cities[ci];
        let topic_dist = WeightedIndex::new(&city_topic_tilt[ci]).expect("positive tilts");
        // POIs spread across districts with a milder skew than check-ins
        // (downtown has more POIs, but marginal districts are not empty).
        let district_weights: Vec<f64> = district_access.iter().map(|a| a.sqrt()).collect();
        let district_dist = WeightedIndex::new(&district_weights).expect("positive weights");
        for k in 0..count {
            let topic = topic_dist.sample(&mut rng);
            let district = district_dist.sample(&mut rng);
            let center = district_centers[ci][district];
            let sigma = spec.extent * 0.08;
            let location = GeoPoint::new(
                clamp(
                    center.lat + sigma * gaussian(&mut rng),
                    spec.bbox().min_lat,
                    spec.bbox().max_lat,
                ),
                clamp(
                    center.lon + sigma * gaussian(&mut rng),
                    spec.bbox().min_lon,
                    spec.bbox().max_lon,
                ),
            );
            let mut words =
                sample_distinct(&shared_ids[topic], config.shared_words_per_poi, &mut rng);
            words.extend(sample_distinct(
                &city_ids[ci][topic],
                config.city_words_per_poi,
                &mut rng,
            ));
            words.sort_unstable();
            words.dedup();
            for &w in &words {
                vocab.add_count(w, 1);
            }
            pois.push(Poi {
                id: PoiId(pois.len() as u32),
                city: CityId(ci as u16),
                location,
                words,
                name: format!("{} {} #{}", spec.name, TOPICS[topic].name, k + 1),
            });
            poi_topic.push(topic as u16);
            poi_district.push(district as u16);
            poi_quality.push((config.quality_sigma * gaussian(&mut rng)).exp());
        }
    }

    // Per (city, topic) samplers weighted by quality x accessibility.
    let mut city_topic_pois: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); t]; cities.len()];
    for (i, poi) in pois.iter().enumerate() {
        city_topic_pois[poi.city.idx()][poi_topic[i] as usize].push(i as u32);
    }
    let make_sampler = |ci: usize, topic: usize, access_pow: f64| -> PoiSampler {
        let ids = &city_topic_pois[ci][topic];
        if ids.is_empty() {
            return None;
        }
        let weights: Vec<f64> = ids
            .iter()
            .map(|&p| {
                poi_quality[p as usize]
                    * district_access[poi_district[p as usize] as usize].powf(access_pow)
            })
            .collect();
        WeightedIndex::new(&weights).ok().map(|w| (ids.clone(), w))
    };
    // Locals see accessibility^1.0; travellers (crossing check-ins) see a
    // stronger skew, accessibility^1.3 — travellers stick to easy regions.
    let local_samplers: Vec<Vec<PoiSampler>> = (0..cities.len())
        .map(|ci| (0..t).map(|tp| make_sampler(ci, tp, 1.0)).collect())
        .collect();
    let traveller_samplers: Vec<PoiSampler> = (0..t)
        .map(|tp| make_sampler(config.target_city, tp, 1.3))
        .collect();

    // ---- users ---------------------------------------------------------------
    let user_counts = largest_remainder(config.users, config.cities.iter().map(|c| c.user_share));
    let mut user_home: Vec<CityId> = Vec::with_capacity(config.users);
    for (ci, &count) in user_counts.iter().enumerate() {
        user_home.extend(std::iter::repeat_n(CityId(ci as u16), count));
    }
    let user_prefs: Vec<Vec<f32>> = (0..config.users)
        .map(|_| dirichlet(t, config.pref_concentration, &mut rng))
        .collect();

    // Crossing users: a random subset of source-city users.
    let source_users: Vec<u32> = (0..config.users as u32)
        .filter(|&u| user_home[u as usize].idx() != config.target_city)
        .collect();
    assert!(
        source_users.len() >= config.crossing_users,
        "not enough source-city users for the requested crossing count"
    );
    let crossing: Vec<UserId> = {
        let mut pool = source_users;
        // Partial Fisher-Yates: take the first `crossing_users` of a shuffle.
        for i in 0..config.crossing_users {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let mut picked: Vec<UserId> = pool[..config.crossing_users]
            .iter()
            .map(|&u| UserId(u))
            .collect();
        picked.sort_unstable();
        picked
    };

    // ---- check-ins --------------------------------------------------------------
    // Budget: crossing check-ins first, remainder spread over home cities.
    let crossing_per_user: Vec<usize> = crossing
        .iter()
        .map(|_| {
            let raw = config.crossing_mean + 1.8 * gaussian(&mut rng);
            (raw.round() as i64).max(1) as usize
        })
        .collect();
    let crossing_total: usize = crossing_per_user.iter().sum();
    assert!(
        crossing_total < config.checkins,
        "crossing check-ins exceed the total budget"
    );
    let home_total = config.checkins - crossing_total;

    // Per-user home check-in counts: lognormal weights, largest-remainder
    // allocation, minimum 3 so every user is trainable.
    let weights: Vec<f64> = (0..config.users)
        .map(|_| (0.7 * gaussian(&mut rng)).exp())
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut home_counts = largest_remainder(home_total, weights.iter().map(|w| w / wsum));
    for c in &mut home_counts {
        *c = (*c).max(3);
    }

    let mut checkins: Vec<Checkin> = Vec::with_capacity(config.checkins + 3 * config.users);
    let mut time = 0u32;
    let sample_checkin = |user: u32,
                          samplers: &[PoiSampler],
                          prefs: &[f32],
                          time: &mut u32,
                          rng: &mut SmallRng|
     -> Option<Checkin> {
        // Topic ~ preference, restricted to topics present in the city.
        let avail: Vec<f64> = (0..t)
            .map(|tp| {
                if samplers[tp].is_some() {
                    prefs[tp] as f64
                } else {
                    0.0
                }
            })
            .collect();
        let dist = WeightedIndex::new(&avail).ok()?;
        let topic = dist.sample(rng);
        let (ids, widx) = samplers[topic].as_ref()?;
        let poi = ids[widx.sample(rng)];
        *time += 1;
        Some(Checkin {
            user: UserId(user),
            poi: PoiId(poi),
            time: *time,
        })
    };

    for u in 0..config.users as u32 {
        let home = user_home[u as usize].idx();
        for _ in 0..home_counts[u as usize] {
            if let Some(c) = sample_checkin(
                u,
                &local_samplers[home],
                &user_prefs[u as usize],
                &mut time,
                &mut rng,
            ) {
                checkins.push(c);
            }
        }
    }
    for (k, &u) in crossing.iter().enumerate() {
        for _ in 0..crossing_per_user[k] {
            if let Some(c) = sample_checkin(
                u.0,
                &traveller_samplers,
                &user_prefs[u.idx()],
                &mut time,
                &mut rng,
            ) {
                checkins.push(c);
            }
        }
    }

    // Timestamp invariant (see module docs): one global counter, bumped
    // exactly once per emitted check-in, makes `time` strictly increasing
    // over the whole vector — hence strictly monotone per user.
    debug_assert!(
        checkins.windows(2).all(|w| w[0].time < w[1].time),
        "check-in timestamps must be strictly increasing"
    );

    let dataset = Dataset::new(cities, pois, vocab, config.users, checkins);
    let meta = SynthMeta {
        crossing_users: crossing,
        #[cfg(test)]
        user_home,
        #[cfg(test)]
        poi_district,
    };
    (dataset, meta)
}

/// A deterministic, seeded stream of *new* check-in events over an
/// existing [`Dataset`] — the synthetic stand-in for a production
/// check-in feed that the online-learning pipeline ingests.
///
/// The stream continues the dataset's statistical structure rather than
/// replaying it: users are drawn proportionally to their historical
/// check-in volume (heavy users keep checking in), and each event picks
/// a POI from the user's modal ("home") city weighted by historical
/// popularity plus one (so cold POIs stay reachable and rankings can
/// drift — the reason continual training pays at all).
///
/// Two invariants the downstream trainer and shadow evaluator rely on:
///
/// - **Determinism**: equal `(dataset, seed)` produce the identical
///   event sequence, which is what makes end-to-end online-loop runs
///   two-pass reproducible.
/// - **Monotone time**: event timestamps continue strictly increasing
///   from the dataset's maximum timestamp (one global counter, like
///   [`generate`]), so "the last W events" is a well-defined window and
///   per-user histories never tie.
#[derive(Debug)]
pub struct CheckinStream {
    user_dist: WeightedIndex<f64>,
    /// Modal visited city per user (home fallback for users without
    /// history — they carry zero sampling weight, so it is never used).
    user_city: Vec<CityId>,
    /// Per-city POI pools with popularity + 1 weights.
    city_pois: Vec<Vec<PoiId>>,
    city_dist: Vec<Option<WeightedIndex<f64>>>,
    rng: SmallRng,
    next_time: u32,
}

impl CheckinStream {
    /// Builds a stream continuing `dataset` under `seed`.
    ///
    /// # Panics
    /// Panics if the dataset has no check-ins (no volume to imitate).
    pub fn new(dataset: &Dataset, seed: u64) -> Self {
        assert!(
            !dataset.checkins().is_empty(),
            "cannot stream over an empty dataset"
        );
        let num_cities = dataset.cities().len();

        // Per-user check-in volume and modal city.
        let mut volume = vec![0u32; dataset.num_users()];
        let mut city_visits = vec![vec![0u32; num_cities]; dataset.num_users()];
        let mut max_time = 0u32;
        for c in dataset.checkins() {
            volume[c.user.idx()] += 1;
            city_visits[c.user.idx()][dataset.poi(c.poi).city.idx()] += 1;
            max_time = max_time.max(c.time);
        }
        let user_city: Vec<CityId> = city_visits
            .iter()
            .map(|visits| {
                let best = visits
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &n)| n)
                    .map(|(ci, _)| ci)
                    .unwrap_or(0);
                CityId(best as u16)
            })
            .collect();
        let user_dist = WeightedIndex::new(volume.iter().map(|&v| v as f64))
            .expect("at least one user has check-ins");

        // Per-city popularity-weighted POI samplers.
        let city_pois: Vec<Vec<PoiId>> = (0..num_cities)
            .map(|ci| dataset.pois_in_city(CityId(ci as u16)).to_vec())
            .collect();
        let city_dist: Vec<Option<WeightedIndex<f64>>> = city_pois
            .iter()
            .map(|pool| {
                if pool.is_empty() {
                    return None;
                }
                let weights: Vec<f64> = pool
                    .iter()
                    .map(|&p| dataset.poi_popularity(p) as f64 + 1.0)
                    .collect();
                WeightedIndex::new(&weights).ok()
            })
            .collect();

        Self {
            user_dist,
            user_city,
            city_pois,
            city_dist,
            rng: SmallRng::seed_from_u64(seed),
            next_time: max_time.checked_add(1).expect("timestamp space exhausted"),
        }
    }

    /// Draws the next event: a historically active user checking in at a
    /// popularity-weighted POI of their home city, at the next strictly
    /// increasing timestamp.
    pub(crate) fn next_event(&mut self) -> Checkin {
        loop {
            let user = self.user_dist.sample(&mut self.rng) as u32;
            let city = self.user_city[user as usize];
            let Some(dist) = self.city_dist[city.idx()].as_ref() else {
                // A home city with zero POIs cannot occur for a user with
                // history, but stay total: resample rather than panic.
                continue;
            };
            let poi = self.city_pois[city.idx()][dist.sample(&mut self.rng)];
            let time = self.next_time;
            self.next_time = time.checked_add(1).expect("timestamp space exhausted");
            return Checkin {
                user: UserId(user),
                poi,
                time,
            };
        }
    }

    /// Draws the next `n` events in arrival order.
    pub fn next_batch(&mut self, n: usize) -> Vec<Checkin> {
        (0..n).map(|_| self.next_event()).collect()
    }
}

/// A weighted POI sampler for one (city, topic) pair: the POI ids and
/// their quality-x-accessibility weights.
type PoiSampler = Option<(Vec<u32>, WeightedIndex<f64>)>;

/// Largest-remainder (Hamilton) apportionment of `total` into shares.
fn largest_remainder(total: usize, shares: impl Iterator<Item = f64>) -> Vec<usize> {
    let shares: Vec<f64> = shares.collect();
    let raw: Vec<f64> = shares.iter().map(|s| s * total as f64).collect();
    let mut counts: Vec<usize> = raw.iter().map(|r| r.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.partial_cmp(&fa).expect("finite remainders")
    });
    let n = counts.len();
    for i in 0..total.saturating_sub(assigned) {
        counts[order[i % n]] += 1;
    }
    counts
}

/// Samples `range.0..=range.1` distinct elements of `pool` (all of them if
/// the pool is smaller).
fn sample_distinct(pool: &[WordId], range: (usize, usize), rng: &mut SmallRng) -> Vec<WordId> {
    let k = rng.gen_range(range.0..=range.1).min(pool.len());
    let mut picked: Vec<WordId> = Vec::with_capacity(k);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..k {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
        picked.push(pool[idx[i]]);
    }
    picked
}

/// Symmetric Dirichlet via normalized Gamma(alpha, 1) draws.
fn dirichlet(k: usize, alpha: f64, rng: &mut SmallRng) -> Vec<f32> {
    let draws: Vec<f64> = (0..k).map(|_| gamma(alpha, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / k as f32; k];
    }
    draws.into_iter().map(|d| (d / sum) as f32).collect()
}

/// Marsaglia-Tsang Gamma(alpha, 1) sampler (with the alpha < 1 boost).
fn gamma(alpha: f64, rng: &mut SmallRng) -> f64 {
    if alpha < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = gaussian(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Standard normal via Box-Muller.
fn gaussian(rng: &mut SmallRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossingCitySplit, DatasetStats};

    #[test]
    fn tiny_dataset_generates_and_validates() {
        let (d, _) = generate(&SynthConfig::tiny());
        assert_eq!(d.num_users(), 60);
        assert_eq!(d.num_pois(), 80);
        assert!(d.checkins().len() >= 1_000, "got {}", d.checkins().len());
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate(&SynthConfig::tiny());
        let (b, _) = generate(&SynthConfig::tiny());
        assert_eq!(a.checkins(), b.checkins());
        assert_eq!(a.pois().len(), b.pois().len());
        let (c, _) = generate(&SynthConfig::tiny().with_seed(99));
        assert_ne!(a.checkins(), c.checkins(), "different seed, different data");
    }

    /// Regression test for the timestamp invariant the streaming windows
    /// and leave-last-out splits rely on: under a fixed seed, timestamps
    /// are strictly increasing globally — and therefore strictly
    /// monotone per user, with no ties anywhere.
    #[test]
    fn timestamps_strictly_monotone_per_user() {
        for cfg in [
            SynthConfig::tiny(),
            SynthConfig::tiny().with_seed(99),
            SynthConfig::foursquare_like().with_scale(0.02),
        ] {
            let (d, _) = generate(&cfg);
            let checkins = d.checkins();
            assert!(
                checkins.windows(2).all(|w| w[0].time < w[1].time),
                "global timestamps not strictly increasing (seed {})",
                cfg.seed
            );
            let mut last = vec![None::<u32>; d.num_users()];
            for c in checkins {
                if let Some(prev) = last[c.user.idx()] {
                    assert!(
                        c.time > prev,
                        "user {:?} times not strictly monotone: {prev} then {}",
                        c.user,
                        c.time
                    );
                }
                last[c.user.idx()] = Some(c.time);
            }
        }
    }

    #[test]
    fn stream_is_deterministic_and_seed_sensitive() {
        let (d, _) = generate(&SynthConfig::tiny());
        let a = CheckinStream::new(&d, 42).next_batch(500);
        let b = CheckinStream::new(&d, 42).next_batch(500);
        assert_eq!(a, b, "same seed must replay the same events");
        let c = CheckinStream::new(&d, 43).next_batch(500);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn stream_events_are_valid_and_continue_monotone_time() {
        let (d, _) = generate(&SynthConfig::tiny());
        let max_time = d.checkins().iter().map(|c| c.time).max().unwrap();
        let mut stream = CheckinStream::new(&d, 7);
        let events = stream.next_batch(400);
        assert_eq!(events[0].time, max_time + 1);
        let mut prev = max_time;
        for e in &events {
            assert!(e.user.idx() < d.num_users());
            assert!(e.poi.idx() < d.num_pois());
            assert!(e.time > prev, "stream time went backwards");
            prev = e.time;
            // Every event lands in the user's historically modal city.
            let city = d.poi(e.poi).city;
            assert!(
                d.user_checkins(e.user).count() > 0,
                "streamed a user with no history"
            );
            assert!(
                d.user_cities(e.user).contains(&city),
                "event outside the user's visited cities"
            );
        }
        // Volume weighting: the stream should touch many distinct users.
        let mut users: Vec<u32> = events.iter().map(|e| e.user.0).collect();
        users.sort_unstable();
        users.dedup();
        assert!(users.len() > 10, "stream stuck on {} users", users.len());
    }

    #[test]
    fn crossing_users_have_target_checkins() {
        let cfg = SynthConfig::tiny();
        let (d, meta) = generate(&cfg);
        let target = CityId(cfg.target_city as u16);
        assert_eq!(meta.crossing_users.len(), cfg.crossing_users);
        for &u in &meta.crossing_users {
            assert!(
                !d.user_visited_in_city(u, target).is_empty(),
                "crossing user {u:?} has no target check-ins"
            );
            assert_ne!(
                meta.user_home[u.idx()],
                target,
                "crossing users are non-local"
            );
        }
        // And they are exactly the crossing users the dataset detects.
        let detected = d.crossing_city_users(target);
        assert_eq!(detected, meta.crossing_users);
    }

    #[test]
    fn crossing_checkins_are_sparse() {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        let frac = split.held_out_checkins(&d) as f64 / d.checkins().len() as f64;
        assert!(frac < 0.08, "crossing fraction {frac} too large");
        assert!(frac > 0.0);
    }

    #[test]
    fn users_home_checkins_stay_home() {
        let cfg = SynthConfig::tiny();
        let (d, meta) = generate(&cfg);
        let target = CityId(cfg.target_city as u16);
        for u in 0..d.num_users() as u32 {
            let u = UserId(u);
            if meta.crossing_users.binary_search(&u).is_err() {
                let cities = d.user_cities(u);
                assert!(
                    cities.len() <= 1,
                    "non-crossing user {u:?} visited {cities:?}"
                );
                if meta.user_home[u.idx()] != target && !cities.is_empty() {
                    assert_ne!(cities[0], target);
                }
            }
        }
    }

    #[test]
    fn district_density_is_imbalanced() {
        // Downtown (district 0) must attract disproportionately many
        // check-ins relative to its POI count — the crux of Sec. 3.1.4.
        // The per-POI lognormal quality noise is large relative to a
        // tiny 80-POI dataset, so aggregate over several seeds to test
        // the structural bias rather than one draw.
        let base = SynthConfig::tiny();
        let mut checkins_by_district = vec![0usize; base.districts_per_city];
        let mut pois_by_district = vec![0usize; base.districts_per_city];
        for seed in 1..=5 {
            let cfg = base.clone().with_seed(seed);
            let (d, meta) = generate(&cfg);
            for (i, _) in d.pois().iter().enumerate() {
                pois_by_district[meta.poi_district[i] as usize] += 1;
            }
            for c in d.checkins() {
                checkins_by_district[meta.poi_district[c.poi.idx()] as usize] += 1;
            }
        }
        let rate = |d: usize| checkins_by_district[d] as f64 / pois_by_district[d].max(1) as f64;
        let last = base.districts_per_city - 1;
        assert!(
            rate(0) > 1.5 * rate(last),
            "downtown {} vs marginal {}",
            rate(0),
            rate(last)
        );
    }

    #[test]
    fn poi_words_mix_shared_and_city_vocab() {
        let (d, _) = generate(&SynthConfig::tiny());
        let vocab = d.vocab();
        let mut any_shared = false;
        let mut any_city = false;
        for poi in d.pois() {
            assert!(!poi.words.is_empty());
            for &w in &poi.words {
                let s = vocab.word(w);
                if s.contains(" spot ") {
                    any_city = true;
                    // City word must belong to this POI's own city.
                    let city_name = &d.city(poi.city).name.to_ascii_lowercase().replace(' ', "");
                    assert!(
                        s.starts_with(city_name.as_str()),
                        "POI in {} carries foreign city word {s}",
                        d.city(poi.city).name
                    );
                } else {
                    any_shared = true;
                }
            }
        }
        assert!(any_shared && any_city);
    }

    #[test]
    fn popularity_is_skewed() {
        let (d, _) = generate(&SynthConfig::tiny());
        let mut pops: Vec<usize> = (0..d.num_pois())
            .map(|p| d.poi_popularity(PoiId(p as u32)))
            .collect();
        pops.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = pops[..d.num_pois() / 10].iter().sum();
        let total: usize = pops.iter().sum();
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "top 10% of POIs hold only {top_decile}/{total} check-ins"
        );
    }

    #[test]
    fn with_scale_shrinks_proportionally() {
        let cfg = SynthConfig::foursquare_like().with_scale(0.1);
        assert_eq!(cfg.users, 360);
        assert!((cfg.pois as i64 - 3_178).abs() <= 1);
        assert!((cfg.checkins as i64 - 19_152).abs() <= 1);
        assert_eq!(cfg.crossing_users, 73);
        let (d, _) = generate(&cfg);
        let stats = DatasetStats::compute(&d, CityId(0));
        assert_eq!(stats.users, 360);
        assert!(
            stats.crossing_users >= 70,
            "crossing users {}",
            stats.crossing_users
        );
    }

    #[test]
    fn table1_calibration_shape_holds_at_small_scale() {
        // At scale 0.05 the Foursquare preset keeps its ratios: check-ins
        // per user ~53, crossing fraction ~2%.
        let cfg = SynthConfig::foursquare_like().with_scale(0.05);
        let (d, _) = generate(&cfg);
        let stats = DatasetStats::compute(&d, CityId(0));
        let per_user = stats.checkins as f64 / stats.users as f64;
        assert!(
            (40.0..75.0).contains(&per_user),
            "check-ins/user {per_user}"
        );
        assert!((stats.crossing_checkins as f64) < 0.05 * stats.checkins as f64);
        assert!(stats.words > 500, "vocabulary too small: {}", stats.words);
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        let counts = largest_remainder(100, [0.335, 0.335, 0.33].into_iter());
        assert_eq!(counts.iter().sum::<usize>(), 100);
        let counts = largest_remainder(7, [0.5, 0.5].into_iter());
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn dirichlet_sums_to_one_and_varies() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = dirichlet(5, 0.8, &mut rng);
        let b = dirichlet(5, 0.8, &mut rng);
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_ne!(a, b);
        assert!(a.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn gamma_mean_is_alpha() {
        let mut rng = SmallRng::seed_from_u64(2);
        for &alpha in &[0.5, 1.0, 3.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| gamma(alpha, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - alpha).abs() < 0.15 * alpha.max(0.5),
                "alpha {alpha}: mean {mean}"
            );
        }
    }
}
