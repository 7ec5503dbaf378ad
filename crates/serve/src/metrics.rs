//! Lock-free serving metrics with a plain-text exposition format.
//!
//! Counters are relaxed atomics — metrics are observability, not
//! synchronization — and histograms are fixed cumulative buckets in the
//! Prometheus style (`le` upper bounds, `+Inf` implicit in `_count`),
//! so `GET /metrics` renders without stopping the request path.

use st_tensor::StorageEncoding;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Upper bounds (inclusive) of the request-latency buckets, microseconds.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Upper bounds (inclusive) of the batch-size buckets, requests.
pub const BATCH_BUCKETS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Upper bounds (inclusive) of the candidate-set-size buckets, POIs per
/// ranked request. Sized around the default `max_candidates` of 4096:
/// the low buckets show sparse grid/IVF hits, the top ones show
/// budget-saturated or exact-fallback-sized sets.
pub const CANDIDATE_BUCKETS: [u64; 8] = [64, 128, 256, 512, 1_024, 2_048, 4_096, 16_384];

/// A fixed-bucket cumulative histogram.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    buckets: [AtomicU64; N],
    count: AtomicU64,
    sum: AtomicU64,
}

impl<const N: usize> Default for Histogram<N> {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> Histogram<N> {
    /// Records one observation.
    pub fn observe(&self, value: u64, bounds: &[u64; N]) {
        for (bucket, &bound) in self.buckets.iter().zip(bounds) {
            if value <= bound {
                bucket.fetch_add(1, Relaxed);
            }
        }
        self.count.fetch_add(1, Relaxed);
        // The sum saturates instead of wrapping: a wrapped counter reads
        // as a reset mid-scrape, a pinned one reads as "huge", which is
        // the honest answer once u64 overflows.
        let mut cur = self.sum.load(Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self.sum.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`. Observations
    /// above every bound report the largest bound (the histogram cannot
    /// resolve further). `None` until something was observed.
    pub fn quantile(&self, q: f64, bounds: &[u64; N]) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        for (bucket, &bound) in self.buckets.iter().zip(bounds) {
            if bucket.load(Relaxed) >= rank {
                return Some(bound);
            }
        }
        bounds.last().copied()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    fn render_into(&self, out: &mut String, name: &str, bounds: &[u64; N]) {
        use std::fmt::Write;
        for (bucket, bound) in self.buckets.iter().zip(bounds) {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{bound}\"}} {}",
                bucket.load(Relaxed)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count());
        let _ = writeln!(out, "{name}_sum {}", self.sum());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// Responses by status class, shared by every tier's `/metrics`.
#[derive(Debug, Default)]
pub struct StatusTally([AtomicU64; 3]);

impl StatusTally {
    const CLASSES: [&'static str; 3] = ["2xx", "4xx", "5xx"];

    /// Tallies one response status.
    pub fn record(&self, status: u16) {
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.0[class].fetch_add(1, Relaxed);
    }

    /// Renders `<family>{class="2xx"} n` and its 4xx/5xx siblings.
    pub fn render_into(&self, out: &mut String, family: &str) {
        use std::fmt::Write;
        for (class, n) in Self::CLASSES.iter().zip(&self.0) {
            let _ = writeln!(out, "{family}{{class=\"{class}\"}} {}", n.load(Relaxed));
        }
    }
}

/// Reads the unlabelled integer sample `name` back out of a `/metrics`
/// page — the reader of what [`Metrics::render`] writes.
pub fn scrape_gauge(page: &str, name: &str) -> Option<u64> {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// Reads the one-hot `st_serve_snapshot_format{format=...}` family back
/// out of a `/metrics` page: the label whose sample is 1.
pub fn scrape_snapshot_format(page: &str) -> Option<StorageEncoding> {
    page.lines().find_map(|line| {
        let (label, value) = line
            .strip_prefix("st_serve_snapshot_format{format=\"")?
            .split_once("\"} ")?;
        (value.trim() == "1").then(|| label.parse().ok())?
    })
}

/// All counters the serving subsystem exports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `GET /recommend` requests.
    pub recommend_requests: AtomicU64,
    /// `GET /healthz` requests.
    pub healthz_requests: AtomicU64,
    /// `GET /metrics` requests.
    pub metrics_requests: AtomicU64,
    /// `POST /admin/reload` requests.
    pub reload_requests: AtomicU64,
    /// Responses by status class (4xx includes the 400s for malformed
    /// requests).
    pub responses: StatusTally,
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses.
    pub cache_misses: AtomicU64,
    /// Forward passes executed by the micro-batcher.
    pub batches: AtomicU64,
    /// Requests served through those batches.
    pub batched_requests: AtomicU64,
    /// Successful hot-reloads.
    pub reloads_ok: AtomicU64,
    /// Rejected hot-reloads (bad checkpoint kept the old model).
    pub reloads_failed: AtomicU64,
    /// Live batcher queue depth (gauge, maintained by submit/drain).
    pub queue_depth: AtomicU64,
    /// Scorer threads draining that queue: the CPUs the process was
    /// allowed at start (gauge, set once; a one-CPU quota reads 1).
    pub batcher_scorers: AtomicU64,
    /// Requests shed at admission because the queue was full (429).
    pub shed_total: AtomicU64,
    /// Queued requests dropped after their deadline expired (503).
    pub expired_total: AtomicU64,
    /// Requests answered from the stale cache under overload.
    pub degraded_total: AtomicU64,
    /// Requests failed by an injected scorer fault (500, chaos only).
    pub injected_failures_total: AtomicU64,
    /// Ranked requests that fell back to the exact full-catalog scan
    /// (no retrieval index for the city, retrieval disabled, or an
    /// unindexable query) — degraded-to-exact serving made observable.
    pub retrieval_fallback_total: AtomicU64,
    /// Unix time (seconds) of the last successful model (re)load:
    /// stamped at startup and on each accepted `/admin/reload`. Together
    /// with `st_serve_model_epoch` this tells an online publisher — and
    /// any staleness alert — exactly which generation is serving and how
    /// long it has been serving it.
    pub last_reload_unix: AtomicU64,
    /// How long the last accepted `/admin/reload` took — load, index
    /// build and swap — in microseconds; 0 until the first one. Exported
    /// as `st_serve_last_reload_duration_seconds`, so the cost of a
    /// generation is on the page and not only on the caller's stopwatch.
    pub last_reload_duration_us: AtomicU64,
    /// Bytes backing the serving snapshot (container size for mapped v2
    /// checkpoints, resident table bytes for live captures). Stamped at
    /// startup and on each accepted reload; exported as
    /// `st_serve_snapshot_bytes`.
    pub snapshot_bytes: AtomicU64,
    /// [`StorageEncoding::code`] of the serving snapshot's tables,
    /// exported as the one-hot `st_serve_snapshot_format{format=...}`
    /// family. Stamped alongside `snapshot_bytes`.
    pub snapshot_format: AtomicU64,
    /// 1 when the serving snapshot reads its tables out of a
    /// memory-mapped checkpoint (zero-copy reload), else 0.
    pub snapshot_mapped: AtomicU64,
    /// Batch-size distribution.
    pub batch_size: Histogram<7>,
    /// Candidate-set-size distribution (POIs re-ranked per request).
    pub candidate_size: Histogram<8>,
    /// `/recommend` latency distribution, microseconds.
    pub latency_us: Histogram<10>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the snapshot gauges for the generation that just became
    /// current — called at startup and after each accepted reload.
    pub fn stamp_snapshot(&self, format: StorageEncoding, bytes: u64, mapped: bool) {
        self.snapshot_format
            .store(u64::from(format.code()), Relaxed);
        self.snapshot_bytes.store(bytes, Relaxed);
        self.snapshot_mapped.store(u64::from(mapped), Relaxed);
    }

    /// Cache hit rate over all lookups so far, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Relaxed) as f64;
        let total = hits + self.cache_misses.load(Relaxed) as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Renders the plain-text exposition, with current gauges supplied
    /// by the server (model epoch, live cache entries).
    pub fn render(&self, model_epoch: u64, cache_len: usize) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            "st_serve_requests_total{route=\"recommend\"}",
            self.recommend_requests.load(Relaxed),
        );
        counter(
            "st_serve_requests_total{route=\"healthz\"}",
            self.healthz_requests.load(Relaxed),
        );
        counter(
            "st_serve_requests_total{route=\"metrics\"}",
            self.metrics_requests.load(Relaxed),
        );
        counter(
            "st_serve_requests_total{route=\"reload\"}",
            self.reload_requests.load(Relaxed),
        );
        counter("st_serve_cache_hits_total", self.cache_hits.load(Relaxed));
        counter(
            "st_serve_cache_misses_total",
            self.cache_misses.load(Relaxed),
        );
        counter("st_serve_batches_total", self.batches.load(Relaxed));
        counter(
            "st_serve_batched_requests_total",
            self.batched_requests.load(Relaxed),
        );
        counter("st_serve_reloads_ok_total", self.reloads_ok.load(Relaxed));
        counter(
            "st_serve_reloads_failed_total",
            self.reloads_failed.load(Relaxed),
        );
        counter("st_serve_queue_depth", self.queue_depth.load(Relaxed));
        counter(
            "st_serve_batcher_scorers",
            self.batcher_scorers.load(Relaxed),
        );
        counter("st_serve_shed_total", self.shed_total.load(Relaxed));
        counter("st_serve_expired_total", self.expired_total.load(Relaxed));
        counter("st_serve_degraded_total", self.degraded_total.load(Relaxed));
        counter(
            "st_serve_injected_failures_total",
            self.injected_failures_total.load(Relaxed),
        );
        counter(
            "st_serve_retrieval_fallback_total",
            self.retrieval_fallback_total.load(Relaxed),
        );
        self.responses
            .render_into(&mut out, "st_serve_responses_total");
        for (name, q) in [
            ("st_serve_request_latency_us_p50", 0.50),
            ("st_serve_request_latency_us_p99", 0.99),
        ] {
            if let Some(v) = self.latency_us.quantile(q, &LATENCY_BUCKETS_US) {
                let _ = writeln!(out, "{name} {v}");
            }
        }
        let _ = writeln!(out, "st_serve_cache_hit_rate {}", self.cache_hit_rate());
        let _ = writeln!(out, "st_serve_model_epoch {model_epoch}");
        let _ = writeln!(
            out,
            "st_serve_last_reload_timestamp_seconds {}",
            self.last_reload_unix.load(Relaxed)
        );
        let _ = writeln!(
            out,
            "st_serve_last_reload_duration_seconds {:.6}",
            self.last_reload_duration_us.load(Relaxed) as f64 / 1e6
        );
        let _ = writeln!(out, "st_serve_cache_entries {cache_len}");
        let _ = writeln!(
            out,
            "st_serve_snapshot_bytes {}",
            self.snapshot_bytes.load(Relaxed)
        );
        // One-hot across the known encodings, so dashboards can match on
        // a stable label instead of decoding an integer.
        let current = self.snapshot_format.load(Relaxed);
        for format in [
            StorageEncoding::F32,
            StorageEncoding::F16,
            StorageEncoding::I8,
        ] {
            let _ = writeln!(
                out,
                "st_serve_snapshot_format{{format=\"{format}\"}} {}",
                u64::from(u64::from(format.code()) == current)
            );
        }
        let _ = writeln!(
            out,
            "st_serve_snapshot_mapped {}",
            self.snapshot_mapped.load(Relaxed)
        );
        self.batch_size
            .render_into(&mut out, "st_serve_batch_size", &BATCH_BUCKETS);
        self.candidate_size.render_into(
            &mut out,
            "st_serve_candidate_set_size",
            &CANDIDATE_BUCKETS,
        );
        self.latency_us
            .render_into(&mut out, "st_serve_request_latency_us", &LATENCY_BUCKETS_US);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h: Histogram<7> = Histogram::default();
        h.observe(1, &BATCH_BUCKETS);
        h.observe(3, &BATCH_BUCKETS);
        h.observe(1000, &BATCH_BUCKETS); // above every bound: only +Inf
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1004);
        let mut out = String::new();
        h.render_into(&mut out, "x", &BATCH_BUCKETS);
        assert!(out.contains("x_bucket{le=\"1\"} 1"));
        assert!(out.contains("x_bucket{le=\"4\"} 2"));
        assert!(out.contains("x_bucket{le=\"64\"} 2"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_count 3"));
    }

    #[test]
    fn boundary_values_land_in_their_bucket() {
        // A value exactly equal to a bound belongs to that bucket
        // (bounds are inclusive upper limits), and one past it does not.
        for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            let h: Histogram<10> = Histogram::default();
            h.observe(bound, &LATENCY_BUCKETS_US);
            assert_eq!(
                h.buckets[i].load(Relaxed),
                1,
                "value {bound} missed bucket {i}"
            );
            let h: Histogram<10> = Histogram::default();
            h.observe(bound + 1, &LATENCY_BUCKETS_US);
            assert_eq!(
                h.buckets[i].load(Relaxed),
                0,
                "value {} leaked into bucket {i}",
                bound + 1
            );
        }
        // Zero lands in every bucket (cumulative) including the first.
        let h: Histogram<10> = Histogram::default();
        h.observe(0, &LATENCY_BUCKETS_US);
        for (i, b) in h.buckets.iter().enumerate() {
            assert_eq!(b.load(Relaxed), 1, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_on_known_distributions() {
        let h: Histogram<10> = Histogram::default();
        assert_eq!(h.quantile(0.5, &LATENCY_BUCKETS_US), None, "empty");

        // 100 observations of exactly 100us: every quantile is the 100us
        // bucket bound.
        for _ in 0..100 {
            h.observe(100, &LATENCY_BUCKETS_US);
        }
        assert_eq!(h.quantile(0.0, &LATENCY_BUCKETS_US), Some(100));
        assert_eq!(h.quantile(0.5, &LATENCY_BUCKETS_US), Some(100));
        assert_eq!(h.quantile(0.99, &LATENCY_BUCKETS_US), Some(100));

        // 90 fast + 10 slow: p50 stays fast, p99 reports the slow bucket.
        let h: Histogram<10> = Histogram::default();
        for _ in 0..90 {
            h.observe(40, &LATENCY_BUCKETS_US); // <= 50us bucket
        }
        for _ in 0..10 {
            h.observe(9_000, &LATENCY_BUCKETS_US); // <= 10ms bucket
        }
        assert_eq!(h.quantile(0.50, &LATENCY_BUCKETS_US), Some(50));
        assert_eq!(h.quantile(0.90, &LATENCY_BUCKETS_US), Some(50));
        assert_eq!(h.quantile(0.99, &LATENCY_BUCKETS_US), Some(10_000));

        // Observations above every bound saturate at the largest bound.
        let h: Histogram<10> = Histogram::default();
        h.observe(u64::MAX, &LATENCY_BUCKETS_US);
        assert_eq!(h.quantile(0.5, &LATENCY_BUCKETS_US), Some(250_000));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h: Histogram<7> = Histogram::default();
        h.observe(u64::MAX, &BATCH_BUCKETS);
        h.observe(u64::MAX, &BATCH_BUCKETS);
        h.observe(7, &BATCH_BUCKETS);
        // Count keeps exact track; the sum pins at the ceiling rather
        // than wrapping to a small number.
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn render_exposes_all_families() {
        let m = Metrics::new();
        m.recommend_requests.fetch_add(2, Relaxed);
        m.responses.record(200);
        m.responses.record(400);
        m.responses.record(500);
        m.cache_hits.fetch_add(1, Relaxed);
        m.cache_misses.fetch_add(3, Relaxed);
        m.shed_total.fetch_add(5, Relaxed);
        m.expired_total.fetch_add(2, Relaxed);
        m.degraded_total.fetch_add(1, Relaxed);
        m.queue_depth.store(9, Relaxed);
        m.batcher_scorers.store(2, Relaxed);
        m.latency_us.observe(120, &LATENCY_BUCKETS_US);
        m.retrieval_fallback_total.fetch_add(4, Relaxed);
        m.candidate_size.observe(300, &CANDIDATE_BUCKETS);
        m.last_reload_unix.store(1_700_000_000, Relaxed);
        m.last_reload_duration_us.store(527_250, Relaxed);
        m.stamp_snapshot(StorageEncoding::I8, 4096, true);
        let text = m.render(7, 42);
        assert!(text.contains("st_serve_requests_total{route=\"recommend\"} 2"));
        assert!(text.contains("st_serve_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("st_serve_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("st_serve_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("st_serve_cache_hit_rate 0.25"));
        assert!(text.contains("st_serve_model_epoch 7"));
        assert!(text.contains("st_serve_cache_entries 42"));
        assert!(text.contains("st_serve_shed_total 5"));
        assert!(text.contains("st_serve_expired_total 2"));
        assert!(text.contains("st_serve_degraded_total 1"));
        assert!(text.contains("st_serve_injected_failures_total 0"));
        assert!(text.contains("st_serve_queue_depth 9"));
        assert!(text.contains("st_serve_batcher_scorers 2"));
        assert!(text.contains("st_serve_request_latency_us_p50 250"));
        assert!(text.contains("st_serve_request_latency_us_p99 250"));
        assert!(text.contains("st_serve_request_latency_us_count 1"));
        assert!(text.contains("st_serve_retrieval_fallback_total 4"));
        assert!(text.contains("st_serve_last_reload_timestamp_seconds 1700000000"));
        assert!(text.contains("st_serve_last_reload_duration_seconds 0.527250\n"));
        assert!(Metrics::new()
            .render(1, 0)
            .contains("st_serve_last_reload_duration_seconds 0.000000\n"));
        assert!(text.contains("st_serve_candidate_set_size_bucket{le=\"512\"} 1"));
        assert!(text.contains("st_serve_candidate_set_size_count 1"));
        assert!(text.contains("st_serve_snapshot_bytes 4096"));
        assert!(text.contains("st_serve_snapshot_format{format=\"int8\"} 1"));
        assert!(text.contains("st_serve_snapshot_format{format=\"f32\"} 0"));
        assert!(text.contains("st_serve_snapshot_format{format=\"f16\"} 0"));
        assert!(text.contains("st_serve_snapshot_mapped 1"));

        // The scrapers read back what render wrote.
        assert_eq!(scrape_gauge(&text, "st_serve_model_epoch"), Some(7));
        assert_eq!(
            scrape_gauge(&text, "st_serve_last_reload_timestamp_seconds"),
            Some(1_700_000_000)
        );
        assert_eq!(scrape_gauge(&text, "st_serve_cache_hit_rate"), None);
        assert_eq!(scrape_gauge(&text, "st_serve_no_such_gauge"), None);
        assert_eq!(scrape_snapshot_format(&text), Some(StorageEncoding::I8));
        assert_eq!(scrape_snapshot_format("st_serve_model_epoch 4\n"), None);
    }
}
