//! Seeded workload generators. `--seed` reaches the program under test
//! only through what these functions return.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The five workloads, by the names later issues cite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a cache miss on the indexed int8 fixture.
    ServeCold,
    /// Zipf users against the LRU on the small f32 fixture.
    ServeHot,
    /// The `serve_hot` stream through `st-router` over two replicas.
    FleetHot,
    /// Scheduled reloads beside a cold reader.
    ReloadMixed,
    /// The paper's joint training step.
    TrainPaper,
}

impl Workload {
    /// All workloads in the order a whole-suite run executes them.
    pub const ALL: [Workload; 5] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::FleetHot,
        Workload::ReloadMixed,
        Workload::TrainPaper,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// every output line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
            Workload::FleetHot => "fleet_hot",
            Workload::ReloadMixed => "reload_mixed",
            Workload::TrainPaper => "train_paper",
        }
    }

    /// Slices the timed window is cut into (see `stats::sliced`). The
    /// shorter a slice, the likelier it falls between two bursts of host
    /// noise, but a slice must hold operations enough for a percentile:
    /// 50 ms where thousands of requests complete in a second (some 200 a
    /// slice), 0.1 s on the cold stream (some 30), 0.4 s of training steps
    /// (some 27).
    pub fn slices(self) -> usize {
        match self {
            Workload::ServeHot | Workload::FleetHot => 320,
            Workload::ServeCold | Workload::ReloadMixed => 160,
            Workload::TrainPaper => 40,
        }
    }

    /// The highest level `tail_us` may report. The first three steps of
    /// every fresh 40-step `train_paper` model cost 21 ms against 13.7 ms:
    /// 7.5 % of all steps, so p90 sits on the edge of that cliff and reads
    /// 14 or 20 ms by how the slices fall.
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::TrainPaper => 0.75,
            _ => crate::stats::TAIL_CAP,
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `/recommend` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Requesting user.
    pub user: u32,
    /// Requested list length.
    pub k: u16,
}

/// The request target for `key` in `city`, exactly as sent on the wire.
pub fn recommend_path(key: Key, city: u16) -> String {
    format!("/recommend?user={}&city={city}&k={}", key.user, key.k)
}

/// Derives an independent generator per (seed, stream) so that adding a
/// stream never shifts another one.
fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every `(user, k)` with `user < users` and `1 <= k <= max_k`, once each,
/// in seeded order: a stream drawn without replacement, so no request can
/// hit the result cache.
pub fn cold_keys(seed: u64, users: u32, max_k: u16) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..users)
        .flat_map(|user| (1..=max_k).map(move |k| Key { user, k }))
        .collect();
    keys.shuffle(&mut stream_rng(seed, 1));
    keys
}

/// `len` users drawn zipf(`s`) over `users` ranks, ranks mapped to user
/// ids by a seeded permutation (so the hot users are not simply the low
/// ids), all with the fixed `k`. `serve_hot` and `fleet_hot` both call
/// this with the same arguments and so send byte-identical requests.
pub fn hot_keys(seed: u64, users: u32, s: f64, k: u16, len: usize) -> Vec<Key> {
    let mut rng = stream_rng(seed, 2);
    let mut by_rank: Vec<u32> = (0..users).collect();
    by_rank.shuffle(&mut rng);
    let mut cdf = Vec::with_capacity(users as usize);
    let mut total = 0.0f64;
    for rank in 1..=users {
        total += (rank as f64).powf(-s);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
            Key {
                user: by_rank[rank],
                k,
            }
        })
        .collect()
}

/// Largest `k` the cold stream asks for.
pub const COLD_MAX_K: u16 = 20;
/// The fixed `k` of the hot stream.
pub const HOT_K: u16 = 10;
/// Zipf exponent of the hot stream.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Hot-stream length: about what one closed-loop client can send in a
/// 60 s run of 60 µs cache hits; a client that exhausts it stops early.
pub const HOT_LEN: usize = 1 << 20;

/// The request stream of a serving workload over a fixture with `users`
/// users. `serve_hot` and `fleet_hot` share one stream, as do `serve_cold`
/// and `reload_mixed`; `train_paper` sends no requests.
pub fn request_keys(workload: Workload, seed: u64, users: u32) -> Vec<Key> {
    match workload {
        Workload::ServeCold | Workload::ReloadMixed => cold_keys(seed, users, COLD_MAX_K),
        Workload::ServeHot | Workload::FleetHot => {
            hot_keys(seed, users, HOT_ZIPF_S, HOT_K, HOT_LEN)
        }
        Workload::TrainPaper => Vec::new(),
    }
}

/// A seeded sample of `n` positions in `0..len`, ascending, for the
/// requests whose bodies are checked byte for byte.
pub fn check_positions(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    all.shuffle(&mut stream_rng(seed, 3));
    all.truncate(n);
    all.sort_unstable();
    all
}

/// Longest gap between two reloads; a window shorter than five of these
/// (a `--smoke` run) spaces its reloads a fifth of itself apart instead.
pub const RELOAD_PERIOD: Duration = Duration::from_secs(2);

/// The gap between two reloads in a timed phase of length `window`.
pub fn reload_period(window: Duration) -> Duration {
    RELOAD_PERIOD.min(window / 5)
}

/// When each reload is due, measured from the start of a timed phase of
/// length `window`: a quarter period into every whole period of the
/// window, the last one too (it may finish just after the readers stop),
/// so that every period is the same cycle.
pub fn reload_schedule(window: Duration) -> Vec<Duration> {
    let period = reload_period(window);
    let periods = (window.as_secs_f64() / period.as_secs_f64() + 1e-9) as u32;
    (0..periods).map(|i| period / 4 + period * i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve_warm"), None);
    }

    #[test]
    fn cold_keys_never_repeat_and_follow_the_seed() {
        let a = cold_keys(11, 64, 20);
        assert_eq!(a.len(), 64 * 20);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        assert!(a
            .iter()
            .all(|key| key.user < 64 && (1..=20).contains(&key.k)));
        assert_eq!(a, cold_keys(11, 64, 20));
        assert_ne!(a, cold_keys(12, 64, 20));
    }

    #[test]
    fn hot_keys_are_zipf_and_follow_the_seed() {
        let a = hot_keys(5, 8192, 1.0, 10, 100_000);
        assert_eq!(a, hot_keys(5, 8192, 1.0, 10, 100_000));
        assert_ne!(a, hot_keys(6, 8192, 1.0, 10, 100_000));
        assert!(a.iter().all(|key| key.user < 8192 && key.k == 10));
        let mut counts = vec![0usize; 8192];
        for key in &a {
            counts[key.user as usize] += 1;
        }
        counts.sort_unstable_by(|x, y| y.cmp(x));
        // H(8192) ≈ 9.59: the top rank draws ≈ 10.4 %, the top ten ≈ 30.5 %.
        assert!((9_000..12_000).contains(&counts[0]), "{}", counts[0]);
        let top10: usize = counts[..10].iter().sum();
        assert!((28_000..33_000).contains(&top10), "{top10}");
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        assert!(distinct > 4096, "working set must exceed the LRU");
    }

    #[test]
    fn serve_hot_and_fleet_hot_send_byte_identical_requests() {
        let wire = |w: Workload| -> Vec<String> {
            request_keys(w, 9, 8192)
                .into_iter()
                .map(|key| recommend_path(key, 1))
                .collect()
        };
        let hot = wire(Workload::ServeHot);
        assert_eq!(hot.len(), HOT_LEN);
        assert!(hot == wire(Workload::FleetHot));
        assert!(wire(Workload::ServeCold) == wire(Workload::ReloadMixed));
        assert!(wire(Workload::TrainPaper).is_empty());
        assert_eq!(
            recommend_path(Key { user: 7, k: 10 }, 1),
            "/recommend?user=7&city=1&k=10"
        );
    }

    #[test]
    fn check_positions_are_distinct_sorted_and_seeded() {
        let a = check_positions(3, 1000, 64);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a, check_positions(3, 1000, 64));
        assert_ne!(a, check_positions(4, 1000, 64));
        assert_eq!(check_positions(3, 10, 64).len(), 10);
    }

    #[test]
    fn reload_schedule_puts_one_reload_in_every_whole_period() {
        let ms = Duration::from_millis;
        assert_eq!(
            reload_schedule(ms(11_000)),
            vec![ms(500), ms(2_500), ms(4_500), ms(6_500), ms(8_500)]
        );
        assert_eq!(reload_schedule(ms(16_000)).len(), 8);
        assert_eq!(reload_schedule(ms(16_000))[7], ms(14_500));
        assert_eq!(
            reload_schedule(ms(500)),
            vec![ms(25), ms(125), ms(225), ms(325), ms(425)]
        );
    }
}
