//! The micro-batcher: coalesces concurrent recommendation requests into
//! one batched forward pass, behind overload-safe admission control.
//!
//! HTTP workers submit [`BatchRequest`]s and block on a per-request
//! channel. Admission is bounded: a queue at `queue_capacity` sheds new
//! submissions synchronously with [`SubmitError::QueueFull`] instead of
//! growing without limit, and every queued job carries its enqueue time
//! so the drain path can drop jobs whose `deadline` passed before
//! scoring ([`SubmitError::DeadlineExceeded`]) — one slow batch delays
//! the queue, it does not cascade into a convoy of doomed work.
//!
//! A single batcher thread takes the first queued request, waits up to
//! the configured window for more to arrive (leaving early when
//! `max_batch` fills), then scores every request of the batch — one
//! user against its candidates, the shape the tower computes — against
//! the one generation's frozen [`st_transrec_core::ModelSnapshot`]:
//! tape-free `InferCtx` execution over scratch buffers the batcher
//! thread owns and reuses for its whole lifetime. The scoring path takes
//! candidates in fixed cache-resident row tiles, so neither a request's
//! size nor the batch's moves its memory or its per-pair cost. Scores
//! are ranked by `recommend_top_k`'s own rule, so a batched response is
//! bit-identical to an unbatched one.
//!
//! Every submitted job reaches exactly one terminal outcome: scored,
//! shed at admission, expired in queue, failed by an injected fault, or
//! answered with a shutdown error. The shutdown flag lives under the
//! same mutex as the queue, so no job can slip in between the stop flag
//! and the final drain — the conservation invariant the chaos harness
//! asserts end to end.

use crate::fault::FaultInjector;
use crate::metrics::{Metrics, BATCH_BUCKETS};
use crate::snapshot::ModelCell;
use st_data::{PoiId, UserId};
/// The ranking rule of `recommend_top_k`, at the path the batcher has
/// always exported it from.
pub use st_transrec_core::rank_top_k;
use st_transrec_core::{InferCtx, ModelSnapshot, Recommendation, STTransRec};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scores `(user, poi)` pairs given as parallel slices in one forward
/// pass. This is the surface the micro-batcher needs from a model; it is
/// a trait so tests can drive the batcher with synthetic scorers.
pub trait PairScorer: Send + Sync {
    /// Scores each `(users[i], pois[i])` pair; output is parallel to the
    /// inputs and must not depend on how pairs are batched together.
    fn score_pairs(&self, users: &[UserId], pois: &[PoiId]) -> Vec<f32>;
}

impl PairScorer for STTransRec {
    fn score_pairs(&self, users: &[UserId], pois: &[PoiId]) -> Vec<f32> {
        let user_rows: Vec<usize> = users.iter().map(|u| u.idx()).collect();
        let poi_rows: Vec<usize> = pois.iter().map(|p| p.idx()).collect();
        self.predict(&user_rows, &poi_rows)
    }
}

impl PairScorer for ModelSnapshot {
    fn score_pairs(&self, users: &[UserId], pois: &[PoiId]) -> Vec<f32> {
        // Inherent method of the same name; resolves to the snapshot's own
        // tape-free scoring, not back into this trait impl.
        ModelSnapshot::score_pairs(self, users, pois)
    }
}

/// One recommendation request as the batcher sees it.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The requesting user.
    pub user: UserId,
    /// Candidate POIs (already filtered to the requested city).
    pub candidates: Arc<Vec<PoiId>>,
    /// How many top results to return.
    pub k: usize,
}

/// The batcher's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReply {
    /// Epoch of the model snapshot that scored this request.
    pub epoch: u64,
    /// Top-k recommendations, ranked like `recommend_top_k`.
    pub recs: Vec<Recommendation>,
}

/// Why a submission did not get a scored reply. Every variant is a
/// terminal outcome: the submitter got its answer, just not a ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Shed at admission: the queue was at capacity (HTTP `429`).
    QueueFull,
    /// The job sat in the queue past its deadline and was dropped before
    /// scoring (HTTP `503`).
    DeadlineExceeded,
    /// The batcher is shutting down (HTTP `503`).
    ShuttingDown,
    /// An injected scorer fault failed the batch (HTTP `500`; only
    /// reachable with a [`FaultInjector`] attached).
    ScorerFailed,
    /// The request referenced a user or POI the serving snapshot cannot
    /// score (HTTP `400`). Malformed input is validated out per job
    /// before that job is scored, so it becomes an error reply for that
    /// job alone — never a worker panic, and never collateral damage to
    /// the well-formed jobs sharing its batch.
    InvalidRequest,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::DeadlineExceeded => write!(f, "deadline exceeded"),
            SubmitError::ShuttingDown => write!(f, "shutting down"),
            SubmitError::ScorerFailed => write!(f, "scorer failed"),
            SubmitError::InvalidRequest => write!(f, "invalid request"),
        }
    }
}

struct Job {
    req: BatchRequest,
    tx: mpsc::Sender<Result<BatchReply, SubmitError>>,
    enqueued_at: Instant,
}

/// Queue and shutdown flag under ONE mutex: `submit` checks the flag and
/// enqueues atomically, so a job either lands before the batcher's final
/// drain (and gets answered) or is rejected — never silently parked.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    arrived: Condvar,
}

/// Handle to the batcher thread.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Upper bound on how long the batcher holds a batch open for
    /// companions after the first request; it fires early once arrivals
    /// pause. Zero disables the coalescing delay entirely (each pass
    /// takes whatever is already queued — batches still form naturally
    /// from the backlog that accumulates while the previous batch
    /// scores).
    pub window: Duration,
    /// Most requests folded into one forward pass. 1 reproduces
    /// one-request-at-a-time serving through the identical code path.
    pub max_batch: usize,
    /// Most jobs the queue will hold; submissions beyond this are shed
    /// with [`SubmitError::QueueFull`]. 0 disables the bound (the
    /// pre-overload-control behaviour; not recommended in production).
    pub queue_capacity: usize,
    /// How long a job may wait in the queue before the drain path drops
    /// it with [`SubmitError::DeadlineExceeded`] instead of scoring it.
    /// Zero disables deadlines.
    pub deadline: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            window: Duration::from_micros(500),
            max_batch: 64,
            queue_capacity: 4096,
            deadline: Duration::ZERO,
        }
    }
}

/// How often the batcher re-checks a closed fault gate (and shutdown).
const FREEZE_POLL: Duration = Duration::from_micros(200);

impl MicroBatcher {
    /// Spawns the batcher thread over `cell`'s current model.
    pub fn start(cell: Arc<ModelCell>, metrics: Arc<Metrics>, config: BatchConfig) -> Self {
        Self::start_with_faults(cell, metrics, config, None)
    }

    /// [`start`](MicroBatcher::start) with fault-injection hooks
    /// attached; the chaos harness and tests drive `injector` to freeze
    /// the drain path, pad scoring latency, or force batch failures.
    pub fn start_with_faults(
        cell: Arc<ModelCell>,
        metrics: Arc<Metrics>,
        config: BatchConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
        });
        let worker_shared = shared.clone();
        let worker_metrics = metrics.clone();
        let handle = std::thread::Builder::new()
            .name("st-serve-batcher".into())
            .spawn(move || batcher_loop(worker_shared, cell, worker_metrics, config, injector))
            .expect("spawn batcher thread");
        Self {
            shared,
            metrics,
            config,
            handle: Some(handle),
        }
    }

    /// Submits a request and blocks until it reaches a terminal outcome:
    /// a scored reply, a synchronous shed when the queue is full, or an
    /// error from the drain path (deadline, injected fault, shutdown).
    pub fn submit(&self, req: BatchRequest) -> Result<BatchReply, SubmitError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            if state.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if self.config.queue_capacity > 0 && state.jobs.len() >= self.config.queue_capacity {
                self.metrics.shed_total.fetch_add(1, Relaxed);
                return Err(SubmitError::QueueFull);
            }
            state.jobs.push_back(Job {
                req,
                tx,
                enqueued_at: Instant::now(),
            });
            self.metrics
                .queue_depth
                .store(state.jobs.len() as u64, Relaxed);
        }
        self.shared.arrived.notify_all();
        // A closed channel without a message can only mean the batcher
        // died; report it as a shutdown rather than hanging or panicking.
        rx.recv().unwrap_or(Err(SubmitError::ShuttingDown))
    }

    /// Live queue depth (jobs admitted but not yet drained).
    pub fn queue_depth(&self) -> usize {
        self.metrics.queue_depth.load(Relaxed) as usize
    }

    /// Stops the batcher thread, answering queued jobs first: jobs
    /// already admitted are scored (or expired) before the thread exits,
    /// and submissions from then on get [`SubmitError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("batcher queue poisoned");
            state.shutdown = true;
        }
        self.shared.arrived.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn batcher_loop(
    shared: Arc<Shared>,
    cell: Arc<ModelCell>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    injector: Option<Arc<FaultInjector>>,
) {
    // The batcher thread's scratch buffers, reused across every batch it
    // ever scores: zero allocations per batch once warmed up.
    let mut ctx = InferCtx::new();
    loop {
        // Wait for the first request (or shutdown). Because the shutdown
        // flag shares the queue mutex, "empty and shutting down" is a
        // stable exit condition: nothing can be enqueued after it.
        let mut state = shared.state.lock().expect("batcher queue poisoned");
        while state.jobs.is_empty() {
            if state.shutdown {
                return;
            }
            state = shared
                .arrived
                .wait_timeout(state, Duration::from_millis(50))
                .expect("batcher queue poisoned")
                .0;
        }

        // Fault gate, checked with jobs in hand and before any drain:
        // while frozen, stay off the queue so admission (and shedding)
        // continues while the backlog builds — once `freeze()` returns,
        // no new drain can start. Shutdown overrides the freeze so a
        // frozen server still stops cleanly.
        if let Some(inj) = injector.as_deref() {
            if inj.frozen() && !state.shutdown {
                drop(state);
                std::thread::sleep(FREEZE_POLL);
                continue;
            }
        }

        // Coalesce: hold the door open up to `window` for more arrivals,
        // leaving as soon as the batch is full — or as soon as arrivals
        // pause. Waiting out the whole window when no more requests are
        // coming just parks every blocked caller behind a timer, so the
        // wait runs in short quanta and fires once a quantum passes with
        // no growth.
        if !config.window.is_zero() && state.jobs.len() < config.max_batch && !state.shutdown {
            let deadline = Instant::now() + config.window;
            let quantum = (config.window / 8).max(Duration::from_micros(20));
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() || state.jobs.len() >= config.max_batch || state.shutdown {
                    break;
                }
                let before = state.jobs.len();
                state = shared
                    .arrived
                    .wait_timeout(state, remaining.min(quantum))
                    .expect("batcher queue poisoned")
                    .0;
                if state.jobs.len() == before {
                    break; // arrivals paused: score what we have
                }
            }
        }

        let take = state.jobs.len().min(config.max_batch);
        let mut batch: Vec<Job> = state.jobs.drain(..take).collect();
        metrics.queue_depth.store(state.jobs.len() as u64, Relaxed);
        drop(state);

        // Deadline pass: drop jobs that aged out while queued, so a slow
        // or stalled batch ahead of them cannot cascade into scoring
        // work whose clients have already given up.
        if !config.deadline.is_zero() {
            batch.retain(|job| {
                if job.enqueued_at.elapsed() > config.deadline {
                    metrics.expired_total.fetch_add(1, Relaxed);
                    let _ = job.tx.send(Err(SubmitError::DeadlineExceeded));
                    false
                } else {
                    true
                }
            });
        }
        if batch.is_empty() {
            continue;
        }

        if let Some(inj) = injector.as_deref() {
            // Forced failure: the whole batch errors instead of scoring.
            if inj.take_batch_failure() {
                metrics
                    .injected_failures_total
                    .fetch_add(batch.len() as u64, Relaxed);
                for job in batch {
                    let _ = job.tx.send(Err(SubmitError::ScorerFailed));
                }
                continue;
            }
            // Latency pad: a deliberately slow scorer.
            if let Some(pad) = inj.next_pad() {
                std::thread::sleep(pad);
            }
        }

        execute_batch(&cell, &metrics, batch, &mut ctx);
    }
}

/// Scores, ranks and answers every job of one coalesced batch, all
/// against one model snapshot, through the generation's frozen
/// parameters and the batcher's reusable scratch.
fn execute_batch(cell: &ModelCell, metrics: &Metrics, batch: Vec<Job>, ctx: &mut InferCtx) {
    if batch.is_empty() {
        return;
    }
    let snapshot = cell.current();

    metrics.batches.fetch_add(1, Relaxed);
    metrics
        .batched_requests
        .fetch_add(batch.len() as u64, Relaxed);
    metrics
        .batch_size
        .observe(batch.len() as u64, &BATCH_BUCKETS);

    for job in batch {
        let BatchRequest {
            user,
            candidates,
            k,
        } = &job.req;
        // A malformed request (unknown user, out-of-range candidate) is
        // validated out against the snapshot that would score it and
        // answered `InvalidRequest` on its own channel — an error reply,
        // never a worker panic, and the rest of the batch scores
        // normally.
        let reply = snapshot
            .frozen
            .try_score_user_with(ctx, *user, candidates)
            .map(|scores| BatchReply {
                epoch: snapshot.epoch,
                recs: rank_top_k(candidates, &scores, *k),
            })
            .map_err(|_| SubmitError::InvalidRequest);
        // A dropped receiver (client hung up) is not an error.
        let _ = job.tx.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit};
    use st_transrec_core::{recommend_top_k, ModelConfig};

    fn cell() -> (Arc<ModelCell>, st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        let mut model = STTransRec::new(&d, &split, ModelConfig::test_small());
        model.train_epoch(&d);
        (Arc::new(ModelCell::new(model)), d, split)
    }

    fn request(user: UserId, candidates: &Arc<Vec<PoiId>>, k: usize) -> BatchRequest {
        BatchRequest {
            user,
            candidates: candidates.clone(),
            k,
        }
    }

    #[test]
    fn batched_replies_match_recommend_top_k() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let batcher = MicroBatcher::start(
            cell.clone(),
            metrics.clone(),
            BatchConfig {
                window: Duration::from_millis(2),
                max_batch: 16,
                ..BatchConfig::default()
            },
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());

        // Concurrent submissions from several threads coalesce; each
        // reply must equal the offline recommend_top_k ranking.
        std::thread::scope(|scope| {
            let handles: Vec<_> = split
                .test_users
                .iter()
                .take(6)
                .map(|&user| {
                    let batcher = &batcher;
                    let candidates = candidates.clone();
                    scope.spawn(move || {
                        let reply = batcher
                            .submit(request(user, &candidates, 5))
                            .expect("batcher alive");
                        (user, reply)
                    })
                })
                .collect();
            for h in handles {
                let (user, reply) = h.join().unwrap();
                assert_eq!(reply.epoch, 1);
                let expected =
                    recommend_top_k(&cell.current().frozen, &d, user, split.target_city, 5, &[]);
                assert_eq!(reply.recs, expected, "user {user:?}");
            }
        });
        assert_eq!(metrics.batched_requests.load(Relaxed), 6);
        assert!(metrics.batches.load(Relaxed) >= 1);
    }

    #[test]
    fn one_batch_of_different_users_and_sizes_answers_each_job_its_own() {
        use st_tensor::kernels::TILE_ROWS;
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::start_with_faults(
            cell.clone(),
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                ..BatchConfig::default()
            },
            Some(injector.clone()),
        );
        // Candidate lists around a scoring row tile, empty and single
        // included, each for a different user; the catalog is cycled to
        // reach the longer ones.
        let catalog = d.pois_in_city(split.target_city);
        let jobs: Vec<(UserId, Arc<Vec<PoiId>>)> = [0, 1, TILE_ROWS - 1, TILE_ROWS + 1]
            .iter()
            .zip(&split.test_users)
            .map(|(&n, &user)| {
                let skip = user.idx() % catalog.len();
                let candidates = catalog.iter().cycle().skip(skip).take(n).copied();
                (user, Arc::new(candidates.collect()))
            })
            .collect();

        std::thread::scope(|scope| {
            let parked: Vec<_> = jobs
                .iter()
                .map(|(user, candidates)| {
                    let batcher = &batcher;
                    scope.spawn(move || batcher.submit(request(*user, candidates, 4)))
                })
                .collect();
            while batcher.queue_depth() < jobs.len() {
                std::thread::sleep(Duration::from_micros(100));
            }
            injector.thaw();
            let frozen = &cell.current().frozen;
            for (handle, (user, candidates)) in parked.into_iter().zip(&jobs) {
                let reply = handle.join().unwrap().expect("scored");
                // The pair-at-a-time entry point, user spelled out per
                // candidate, is the oracle.
                let users = vec![user.idx(); candidates.len()];
                let rows: Vec<usize> = candidates.iter().map(|p| p.idx()).collect();
                let expected = rank_top_k(candidates, &frozen.predict(&users, &rows), 4);
                assert_eq!(reply.recs, expected, "user {user:?}");
                assert_eq!(reply.recs.len(), candidates.len().min(4));
            }
        });
        assert_eq!(metrics.batches.load(Relaxed), 1, "one coalesced batch");
        assert_eq!(metrics.batched_requests.load(Relaxed), 4);
    }

    #[test]
    fn max_batch_one_serves_one_at_a_time() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let batcher = MicroBatcher::start(
            cell.clone(),
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                max_batch: 1,
                ..BatchConfig::default()
            },
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        for &user in split.test_users.iter().take(3) {
            let reply = batcher.submit(request(user, &candidates, 3)).unwrap();
            assert_eq!(reply.recs.len(), 3);
        }
        let batches = metrics.batches.load(Relaxed);
        assert_eq!(batches, 3, "every request is its own batch");
    }

    #[test]
    fn k_zero_and_empty_candidates_are_harmless() {
        let (cell, d, split) = cell();
        let batcher = MicroBatcher::start(cell, Arc::new(Metrics::new()), BatchConfig::default());
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let reply = batcher
            .submit(request(split.test_users[0], &candidates, 0))
            .unwrap();
        assert!(reply.recs.is_empty());
        let reply = batcher
            .submit(request(split.test_users[0], &Arc::new(Vec::new()), 5))
            .unwrap();
        assert!(reply.recs.is_empty());
    }

    #[test]
    fn malformed_jobs_get_invalid_request_without_hurting_batchmates() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let batcher = MicroBatcher::start(
            cell.clone(),
            metrics,
            BatchConfig {
                window: Duration::from_millis(5),
                max_batch: 8,
                ..BatchConfig::default()
            },
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let good_user = split.test_users[0];
        let ghost_user = UserId(d.num_users() as u32 + 7);
        let ghost_poi = Arc::new(vec![PoiId(d.num_pois() as u32)]);

        // Submit a malformed and a well-formed job concurrently so they
        // coalesce into one batch: the bad one errors, the good one is
        // answered exactly like an unbatched request.
        std::thread::scope(|scope| {
            let bad_user = {
                let batcher = &batcher;
                let candidates = candidates.clone();
                scope.spawn(move || batcher.submit(request(ghost_user, &candidates, 3)))
            };
            let bad_poi = {
                let batcher = &batcher;
                let ghost_poi = ghost_poi.clone();
                scope.spawn(move || batcher.submit(request(good_user, &ghost_poi, 3)))
            };
            let good = {
                let batcher = &batcher;
                let candidates = candidates.clone();
                scope.spawn(move || batcher.submit(request(good_user, &candidates, 3)))
            };
            assert_eq!(bad_user.join().unwrap(), Err(SubmitError::InvalidRequest));
            assert_eq!(bad_poi.join().unwrap(), Err(SubmitError::InvalidRequest));
            let reply = good.join().unwrap().expect("valid batchmate served");
            let expected = recommend_top_k(
                &cell.current().frozen,
                &d,
                good_user,
                split.target_city,
                3,
                &[],
            );
            assert_eq!(reply.recs, expected);
        });
    }

    #[test]
    fn full_queue_sheds_synchronously() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::start_with_faults(
            cell,
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                queue_capacity: 3,
                ..BatchConfig::default()
            },
            Some(injector.clone()),
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());

        // With the drain frozen, park `capacity` submitters in the queue
        // from background threads, then overflow from this one.
        std::thread::scope(|scope| {
            let mut parked = Vec::new();
            for &user in split.test_users.iter().take(3) {
                let batcher = &batcher;
                let candidates = candidates.clone();
                parked.push(scope.spawn(move || batcher.submit(request(user, &candidates, 3))));
            }
            while batcher.queue_depth() < 3 {
                std::thread::sleep(Duration::from_micros(100));
            }
            for _ in 0..4 {
                assert_eq!(
                    batcher.submit(request(split.test_users[0], &candidates, 3)),
                    Err(SubmitError::QueueFull)
                );
            }
            assert_eq!(metrics.shed_total.load(Relaxed), 4);
            injector.thaw();
            for h in parked {
                assert!(h.join().unwrap().is_ok(), "parked submitter served");
            }
        });
        assert_eq!(metrics.queue_depth.load(Relaxed), 0);
    }

    #[test]
    fn frozen_batcher_expires_queued_jobs_past_deadline() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::start_with_faults(
            cell,
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                deadline: Duration::from_millis(30),
                ..BatchConfig::default()
            },
            Some(injector.clone()),
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());

        std::thread::scope(|scope| {
            let mut parked = Vec::new();
            for &user in split.test_users.iter().take(3) {
                let batcher = &batcher;
                let candidates = candidates.clone();
                parked.push(scope.spawn(move || batcher.submit(request(user, &candidates, 3))));
            }
            while batcher.queue_depth() < 3 {
                std::thread::sleep(Duration::from_micros(100));
            }
            // Hold the freeze well past the deadline, then let the drain
            // path discover the expired jobs.
            std::thread::sleep(Duration::from_millis(80));
            injector.thaw();
            for h in parked {
                assert_eq!(h.join().unwrap(), Err(SubmitError::DeadlineExceeded));
            }
        });
        assert_eq!(metrics.expired_total.load(Relaxed), 3);
        // A fresh request after the storm scores normally.
        let reply = batcher.submit(request(split.test_users[0], &candidates, 3));
        assert!(reply.is_ok());
    }

    #[test]
    fn injected_scorer_failure_answers_every_job() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::start_with_faults(
            cell,
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                ..BatchConfig::default()
            },
            Some(injector.clone()),
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());

        std::thread::scope(|scope| {
            let mut parked = Vec::new();
            for &user in split.test_users.iter().take(2) {
                let batcher = &batcher;
                let candidates = candidates.clone();
                parked.push(scope.spawn(move || batcher.submit(request(user, &candidates, 3))));
            }
            while batcher.queue_depth() < 2 {
                std::thread::sleep(Duration::from_micros(100));
            }
            injector.fail_next_batches(1);
            injector.thaw();
            for h in parked {
                assert_eq!(h.join().unwrap(), Err(SubmitError::ScorerFailed));
            }
        });
        assert_eq!(metrics.injected_failures_total.load(Relaxed), 2);
        // The failure budget is spent: the next request scores.
        assert!(batcher
            .submit(request(split.test_users[0], &candidates, 3))
            .is_ok());
    }

    /// Regression test for the drain race: a job enqueued between the
    /// stop flag being set and the final drain used to be silently
    /// dropped, leaving its submitter blocked forever. With the flag
    /// under the queue mutex, every submitter must get either a scored
    /// reply or a clean `ShuttingDown` error — never a hang.
    #[test]
    fn concurrent_submit_and_shutdown_loses_no_submitter() {
        for round in 0..8 {
            let (cell, d, split) = cell();
            let metrics = Arc::new(Metrics::new());
            let mut batcher = MicroBatcher::start(
                cell,
                metrics.clone(),
                BatchConfig {
                    window: Duration::ZERO,
                    max_batch: 4,
                    ..BatchConfig::default()
                },
            );
            let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
            let user = split.test_users[0];

            let (served, refused) = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for t in 0..4 {
                    let batcher = &batcher;
                    let candidates = candidates.clone();
                    handles.push(scope.spawn(move || {
                        let mut served = 0usize;
                        let mut refused = 0usize;
                        for i in 0..50 {
                            match batcher.submit(request(user, &candidates, 2)) {
                                Ok(_) => served += 1,
                                Err(SubmitError::ShuttingDown) => refused += 1,
                                Err(e) => panic!("unexpected outcome: {e}"),
                            }
                            // Stagger threads so the shutdown lands at a
                            // different interleaving each round.
                            if (i + t + round) % 7 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        (served, refused)
                    }));
                }
                // Let some traffic through, then stop mid-flight.
                std::thread::sleep(Duration::from_millis(2 + round as u64));
                // SAFETY of the borrow: shutdown only joins the batcher
                // thread; submitters still hold &batcher and must all
                // resolve. Scoped threads guarantee they finish here.
                let batcher_ref: &MicroBatcher = &batcher;
                // Trigger shutdown through the shared state exactly like
                // `shutdown()` does, without taking `&mut` (submitters
                // hold shared borrows).
                {
                    let mut state = batcher_ref
                        .shared
                        .state
                        .lock()
                        .expect("batcher queue poisoned");
                    state.shutdown = true;
                }
                batcher_ref.shared.arrived.notify_all();

                let mut served = 0usize;
                let mut refused = 0usize;
                for h in handles {
                    let (s, r) = h.join().unwrap();
                    served += s;
                    refused += r;
                }
                (served, refused)
            });
            batcher.shutdown();
            assert_eq!(served + refused, 200, "every submitter resolved");
            assert_eq!(metrics.queue_depth.load(Relaxed), 0, "no job left behind");
        }
    }
}
