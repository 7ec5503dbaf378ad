//! Lock-free serving metrics with a plain-text exposition format.
//!
//! Counters are relaxed atomics — metrics are observability, not
//! synchronization — and every distribution is one [`Histogram`]:
//! log-spaced buckets that an observation lands in with one atomic
//! increment, made cumulative (Prometheus `le` upper bounds) only when
//! `GET /metrics` renders them, so the request path never stops for a
//! scrape and never walks a bucket list.

use st_tensor::StorageEncoding;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Buckets of a [`Histogram`]: the values 0..16 one each, then eight per
/// power of two up to `u64::MAX`.
const BUCKETS: usize = 8 * 62;

/// Whole microseconds in `d`, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The bucket `value` lands in: itself below 16; above, its leading bit
/// picks the power of two and the next three bits one of its eight
/// sub-buckets (widths 1/8 of the power, so a bound is within 12.5 % of
/// every value under it).
fn bucket_of(value: u64) -> usize {
    if value < 8 {
        return value as usize;
    }
    let e = value.ilog2() as usize;
    8 * (e - 2) + ((value >> (e - 3)) & 7) as usize
}

/// The largest value of bucket `index` (inclusive), the inverse of
/// [`bucket_of`].
fn upper_bound(index: usize) -> u64 {
    if index < 8 {
        return index as u64;
    }
    let step = 1u64 << (index / 8 - 1);
    (8 + (index % 8) as u64) * step + (step - 1)
}

/// A log-bucketed histogram of `u64` observations (microseconds, sizes).
#[derive(Debug)]
pub struct Histogram {
    /// Observations per bucket, not cumulative: one increment each.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation: one bucket increment and one add to the
    /// sum. The count is the buckets' total, read at render.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Relaxed);
        // The sum saturates instead of wrapping: a wrapped counter reads
        // as a reset mid-scrape, a pinned one reads as "huge", which is
        // the honest answer once u64 overflows. Any add to a pinned sum
        // overflows again and re-pins it.
        if self
            .sum
            .fetch_add(value, Relaxed)
            .checked_add(value)
            .is_none()
        {
            self.sum.store(u64::MAX, Relaxed);
        }
    }

    /// Records the whole microseconds since `started`.
    pub fn observe_since(&self, started: Instant) {
        self.observe(micros(started.elapsed()));
    }

    /// The buckets as they stand, one load each.
    fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of `counts`: the upper bound of
    /// the first bucket whose cumulative count reaches `q * count`.
    fn quantile_of(counts: &[u64; BUCKETS], q: f64) -> Option<u64> {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        counts
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .map(upper_bound)
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`; `None` until
    /// something was observed.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        Self::quantile_of(&self.counts(), q)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Renders the family `name` under `labels` (`stage="score"`, or empty):
    /// the cumulative count at the bound of every non-empty bucket, `+Inf`,
    /// `_sum`, `_count`, and the `_p50` / `_p99` gauges.
    fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let counts = self.counts();
        let (open, sep) = if labels.is_empty() {
            ("", "")
        } else {
            ("{", ",")
        };
        let close = if labels.is_empty() { "" } else { "}" };
        let mut cumulative = 0;
        for (i, &n) in counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
            cumulative += n;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                upper_bound(i)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(out, "{name}_sum{open}{labels}{close} {}", self.sum());
        let _ = writeln!(out, "{name}_count{open}{labels}{close} {cumulative}");
        for (suffix, q) in [("p50", 0.50), ("p99", 0.99)] {
            if let Some(v) = Self::quantile_of(&counts, q) {
                let _ = writeln!(out, "{name}_{suffix}{open}{labels}{close} {v}");
            }
        }
    }
}

/// The stages of a `/recommend` request that `st_serve_stage_us` times,
/// in the order a miss passes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The request's checks and the result-cache lookup (hits and
    /// misses).
    Cache,
    /// Candidate generation: the retrieval index, or the exact catalog.
    Retrieval,
    /// A miss's wait in the batcher queue, enqueue to drain.
    Queue,
    /// Validation, row gather and the tower over the candidates, from
    /// the owner's check to the last range's landing.
    Score,
    /// Ranking the scores (`rank_top_k`).
    Topk,
    /// Rendering a miss's JSON body.
    Render,
    /// Writing and flushing the response to the socket.
    Write,
}

impl Stage {
    /// Every stage, in the order `/metrics` renders them.
    pub(crate) const ALL: [Stage; 7] = [
        Stage::Cache,
        Stage::Retrieval,
        Stage::Queue,
        Stage::Score,
        Stage::Topk,
        Stage::Render,
        Stage::Write,
    ];

    /// The `stage` label value.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Stage::Cache => "cache",
            Stage::Retrieval => "retrieval",
            Stage::Queue => "queue",
            Stage::Score => "score",
            Stage::Topk => "topk",
            Stage::Render => "render",
            Stage::Write => "write",
        }
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

/// Renders the process's resident memory as `<prefix>_resident_bytes`
/// and `<prefix>_resident_peak_bytes`: `VmRSS` and `VmHWM` of
/// `/proc/self/status`, in bytes. Where that file does not exist (not
/// Linux) nothing is written. Every tier's `/metrics` calls this.
pub fn render_resident_into(out: &mut String, prefix: &str) {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        render_status_into(out, prefix, &status);
    }
}

/// [`render_resident_into`] over the text of a `status` file.
fn render_status_into(out: &mut String, prefix: &str, status: &str) {
    use std::fmt::Write;
    for (field, gauge) in [
        ("VmRSS:", "resident_bytes"),
        ("VmHWM:", "resident_peak_bytes"),
    ] {
        let kib = status.lines().find_map(|line| {
            let value = line.strip_prefix(field)?.trim().strip_suffix("kB")?;
            value.trim().parse::<u64>().ok()
        });
        if let Some(kib) = kib {
            let _ = writeln!(out, "{prefix}_{gauge} {}", kib.saturating_mul(1024));
        }
    }
}

/// Reads the unlabelled integer sample `name` back out of a `/metrics`
/// page — the reader of what `Metrics::render` writes.
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
    pub(crate) healthz_requests: AtomicU64,
    /// `GET /metrics` requests.
    pub(crate) metrics_requests: AtomicU64,
    /// `POST /admin/reload` requests.
    pub(crate) reload_requests: AtomicU64,
    /// Responses by status class (4xx includes the 400s for malformed
    /// requests).
    pub(crate) responses: StatusTally,
    /// Result-cache hits.
    pub(crate) cache_hits: AtomicU64,
    /// Result-cache misses.
    pub(crate) cache_misses: AtomicU64,
    /// Forward passes executed by the micro-batcher.
    pub(crate) batches: AtomicU64,
    /// Requests served through those batches.
    pub(crate) batched_requests: AtomicU64,
    /// Row tiles scored by the scorer that drained their job: its own
    /// claims, and any range it overtook from a stalled helper.
    pub(crate) score_tiles_owner: AtomicU64,
    /// Row tiles scored by an idle scorer for another scorer's job.
    pub(crate) score_tiles_helper: AtomicU64,
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
    /// Requests answered under overload with an older generation's
    /// cached answer.
    pub degraded_total: AtomicU64,
    /// Requests failed by an injected scorer fault (500, chaos only).
    pub injected_failures_total: AtomicU64,
    /// Ranked requests that fell back to the exact full-catalog scan
    /// (no retrieval index for the city, retrieval disabled, or an
    /// unindexable query) — degraded-to-exact serving made observable.
    pub(crate) retrieval_fallback_total: AtomicU64,
    /// Unix time (seconds) of the last successful model (re)load:
    /// stamped at startup and on each accepted `/admin/reload`. Together
    /// with `st_serve_model_epoch` this tells an online publisher — and
    /// any staleness alert — exactly which generation is serving and how
    /// long it has been serving it.
    pub(crate) last_reload_unix: AtomicU64,
    /// How long the last accepted `/admin/reload` took — load, index
    /// build and swap — in microseconds; 0 until the first one. Exported
    /// as `st_serve_last_reload_duration_seconds`, so the cost of a
    /// generation is on the page and not only on the caller's stopwatch.
    pub(crate) last_reload_duration_us: AtomicU64,
    /// Bytes backing the serving snapshot (container size for mapped v2
    /// checkpoints, resident table bytes for live captures). Stamped at
    /// startup and on each accepted reload; exported as
    /// `st_serve_snapshot_bytes`.
    pub(crate) snapshot_bytes: AtomicU64,
    /// [`StorageEncoding::code`] of the serving snapshot's tables,
    /// exported as the one-hot `st_serve_snapshot_format{format=...}`
    /// family. Stamped alongside `snapshot_bytes`.
    pub(crate) snapshot_format: AtomicU64,
    /// 1 when the serving snapshot reads its tables out of a
    /// memory-mapped checkpoint (zero-copy reload), else 0.
    pub(crate) snapshot_mapped: AtomicU64,
    /// Batch-size distribution.
    pub(crate) batch_size: Histogram,
    /// Candidate-set-size distribution (POIs re-ranked per request).
    pub(crate) candidate_size: Histogram,
    /// `/recommend` latency distribution, microseconds.
    pub(crate) latency_us: Histogram,
    /// Per-stage `/recommend` time, microseconds, indexed by [`Stage`].
    stages: [Histogram; Stage::ALL.len()],
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the snapshot gauges for the generation that just became
    /// current — called at startup and after each accepted reload.
    pub(crate) fn stamp_snapshot(&self, format: StorageEncoding, bytes: u64, mapped: bool) {
        self.snapshot_format
            .store(u64::from(format.code()), Relaxed);
        self.snapshot_bytes.store(bytes, Relaxed);
        self.snapshot_mapped.store(u64::from(mapped), Relaxed);
    }

    /// The histogram of one request stage.
    pub(crate) fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Cache hit rate over all lookups so far, in [0, 1].
    pub(crate) fn cache_hit_rate(&self) -> f64 {
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
    pub(crate) fn render(&self, model_epoch: u64, cache_len: usize) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(8192);
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
        counter(
            "st_serve_score_tiles_total{by=\"owner\"}",
            self.score_tiles_owner.load(Relaxed),
        );
        counter(
            "st_serve_score_tiles_total{by=\"helper\"}",
            self.score_tiles_helper.load(Relaxed),
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
        render_resident_into(&mut out, "st_serve");
        self.batch_size
            .render_into(&mut out, "st_serve_batch_size", "");
        self.candidate_size
            .render_into(&mut out, "st_serve_candidate_set_size", "");
        self.latency_us
            .render_into(&mut out, "st_serve_request_latency_us", "");
        for stage in Stage::ALL {
            self.stage(stage).render_into(
                &mut out,
                "st_serve_stage_us",
                &format!("stage=\"{}\"", stage.label()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(1);
        h.observe(3);
        h.observe(1000); // in [960, 1023]
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1004);
        let mut out = String::new();
        h.render_into(&mut out, "x", "");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            [
                "x_bucket{le=\"1\"} 1",
                "x_bucket{le=\"3\"} 2",
                "x_bucket{le=\"1023\"} 3",
                "x_bucket{le=\"+Inf\"} 3",
                "x_sum 1004",
                "x_count 3",
                "x_p50 3",
                "x_p99 1023",
            ],
            "empty buckets are skipped, +Inf is kept"
        );
        let mut out = String::new();
        h.render_into(&mut out, "y", "stage=\"score\"");
        assert!(out.contains("y_bucket{stage=\"score\",le=\"3\"} 2\n"));
        assert!(out.contains("y_bucket{stage=\"score\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("y_count{stage=\"score\"} 3\n"));
        assert!(out.contains("y_p99{stage=\"score\"} 1023\n"));
    }

    #[test]
    fn boundary_values_land_in_their_bucket() {
        // Bounds are inclusive upper limits: a bucket's bound lands in it
        // and one past the bound in the next bucket, across the whole u64
        // range, and no bucket is wider than 1/8 of the values under it.
        assert_eq!(upper_bound(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for v in 0..16 {
            assert_eq!((bucket_of(v), upper_bound(v as usize)), (v as usize, v));
        }
        for i in 0..BUCKETS - 1 {
            let bound = upper_bound(i);
            assert_eq!(bucket_of(bound), i, "bound {bound} missed bucket {i}");
            assert_eq!(
                bucket_of(bound + 1),
                i + 1,
                "{} leaked into bucket {i}",
                bound + 1
            );
            let lower = if i == 0 { 0 } else { upper_bound(i - 1) + 1 };
            let width = bound - lower;
            assert!(width <= bound / 8, "bucket {i} is {width} wide at {bound}");
        }
        assert_eq!(
            [100, 1_000, 1_100, 4_096, 250_000].map(|v| upper_bound(bucket_of(v))),
            [103, 1_023, 1_151, 4_607, 262_143]
        );
    }

    #[test]
    fn quantiles_on_known_distributions() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty");

        // 100 observations of exactly 100us: every quantile is the bound
        // of 100's bucket, [96, 103].
        for _ in 0..100 {
            h.observe(100);
        }
        assert_eq!(h.quantile(0.0), Some(103));
        assert_eq!(h.quantile(0.5), Some(103));
        assert_eq!(h.quantile(0.99), Some(103));

        // 90 fast + 10 slow: p50 stays fast, p99 reports the slow bucket.
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(40); // [40, 43]
        }
        for _ in 0..10 {
            h.observe(9_000); // [8 192, 9 215]
        }
        assert_eq!(h.quantile(0.50), Some(43));
        assert_eq!(h.quantile(0.90), Some(43));
        assert_eq!(h.quantile(0.99), Some(9_215));

        // The top bucket ends at u64::MAX.
        let h = Histogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(7);
        // Count keeps exact track; the sum pins at the ceiling rather
        // than wrapping to a small number.
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn resident_memory_renders_from_the_status_file() {
        let status = "Name:\tst-serve\nVmPeak:\t  99999 kB\nVmHWM:\t   35624 kB\n\
                      VmRSS:\t   31428 kB\nThreads:\t6\n";
        let mut out = String::new();
        render_status_into(&mut out, "st_serve", status);
        assert_eq!(
            out,
            "st_serve_resident_bytes 32182272\nst_serve_resident_peak_bytes 36478976\n"
        );
        let mut none = String::new();
        render_status_into(&mut none, "st_serve", "Name:\tother\n");
        assert_eq!(none, "");
        // The live page carries both wherever the process has the file.
        let page = Metrics::new().render(1, 0);
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = scrape_gauge(&page, "st_serve_resident_bytes").expect("VmRSS");
            let peak = scrape_gauge(&page, "st_serve_resident_peak_bytes").expect("VmHWM");
            assert!(0 < rss && rss <= peak, "{rss} {peak}");
        } else {
            assert!(!page.contains("st_serve_resident"));
        }
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
        m.score_tiles_owner.fetch_add(33, Relaxed);
        m.score_tiles_helper.fetch_add(31, Relaxed);
        m.latency_us.observe(120);
        m.stage(Stage::Score).observe(1_000);
        m.retrieval_fallback_total.fetch_add(4, Relaxed);
        m.candidate_size.observe(300);
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
        assert!(text.contains("st_serve_score_tiles_total{by=\"owner\"} 33\n"));
        assert!(text.contains("st_serve_score_tiles_total{by=\"helper\"} 31\n"));
        assert!(text.contains("st_serve_request_latency_us_p50 127"));
        assert!(text.contains("st_serve_request_latency_us_p99 127"));
        assert!(text.contains("st_serve_request_latency_us_count 1"));
        assert!(text.contains("st_serve_retrieval_fallback_total 4"));
        assert!(text.contains("st_serve_last_reload_timestamp_seconds 1700000000"));
        assert!(text.contains("st_serve_last_reload_duration_seconds 0.527250\n"));
        assert!(Metrics::new()
            .render(1, 0)
            .contains("st_serve_last_reload_duration_seconds 0.000000\n"));
        assert!(text.contains("st_serve_candidate_set_size_bucket{le=\"319\"} 1"));
        assert!(text.contains("st_serve_stage_us_p50{stage=\"score\"} 1023\n"));
        assert!(text.contains("st_serve_stage_us_count{stage=\"topk\"} 0\n"));
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
