//! The micro-batcher: one queue of recommendation requests in front of
//! the scorer threads, behind overload-safe admission control.
//!
//! HTTP workers submit [`BatchRequest`]s and block on a per-request
//! channel. Admission is bounded: a queue at `queue_capacity` sheds new
//! submissions synchronously with [`SubmitError::QueueFull`] instead of
//! growing without limit, and every queued job carries its enqueue time
//! so the drain path can drop jobs whose `deadline` passed before
//! scoring ([`SubmitError::DeadlineExceeded`]) — one slow batch delays
//! the queue, it does not cascade into a convoy of doomed work.
//!
//! One scorer thread per CPU the process may run on drains the queue.
//! A scorer takes the first queued request, waits up to the configured
//! window for more to arrive — only when no other scorer is idle, since
//! an idle scorer takes the next arrival sooner than any window could —
//! leaving early when `max_batch` fills, then scores every request of
//! the batch — one user against its candidates, the shape the tower
//! computes — against the one generation's frozen
//! [`st_transrec_core::ModelSnapshot`]: tape-free `InferCtx` execution
//! over scratch buffers the scorer owns and reuses for its whole
//! lifetime. A process confined to one CPU has one scorer, which always
//! holds the door. The scoring path takes candidates in fixed
//! cache-resident row tiles, so neither a request's size nor the batch's
//! moves its memory or its per-pair cost. Scores are ranked by
//! `recommend_top_k`'s own rule, so a batched response is bit-identical
//! to an unbatched one.
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
use st_transrec_core::{InferCtx, Recommendation};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

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
/// enqueues atomically, so a job either lands before the scorers' final
/// drain (and gets answered) or is rejected — never silently parked.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Scorers parked on an empty queue right now.
    idle: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    arrived: Condvar,
}

/// Takes the guard out of a lock result whether or not the lock is
/// poisoned. [`QueueState`] is a `VecDeque`, a flag and a count, each
/// changed by one whole operation (`push_back`, `drain`, an assignment),
/// so it is consistent wherever a holder unwinds (as is `snapshot`'s
/// one-pointer cell); refusing the guard would only turn one thread's
/// panic into every scorer's and every HTTP worker's.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Handle to the scorer threads.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    scorers: Vec<std::thread::JoinHandle<()>>,
}

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Upper bound on how long a scorer holds a batch open for
    /// companions after the first request, which it does only while no
    /// other scorer is idle; it fires early once arrivals pause. Zero
    /// disables the coalescing delay entirely (each pass takes whatever
    /// is already queued — batches still form naturally from the backlog
    /// that accumulates while every scorer is busy).
    pub window: Duration,
    /// Most requests one scorer takes in one pass. 1 reproduces
    /// one-request-at-a-time scoring through the identical code path.
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

/// How often a scorer re-checks a closed fault gate (and shutdown).
const FREEZE_POLL: Duration = Duration::from_micros(200);

impl MicroBatcher {
    /// Spawns the scorer threads over `cell`'s current model: one per
    /// CPU this process may run on (affinity mask and cgroup quota
    /// included), read once, here.
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
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::spawn(cell, metrics, config, injector, cpus)
    }

    /// Starts `scorers` threads on one queue. The count is what the
    /// public constructors observe, not a setting; it is a parameter so
    /// the tests can run both sides of it on any host.
    fn spawn(
        cell: Arc<ModelCell>,
        metrics: Arc<Metrics>,
        config: BatchConfig,
        injector: Option<Arc<FaultInjector>>,
        scorers: usize,
    ) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(scorers >= 1, "a batcher needs a scorer");
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
                idle: 0,
            }),
            arrived: Condvar::new(),
        });
        metrics.batcher_scorers.store(scorers as u64, Relaxed);
        let scorers = (0..scorers)
            .map(|i| {
                let (shared, cell, metrics) = (shared.clone(), cell.clone(), metrics.clone());
                let injector = injector.clone();
                std::thread::Builder::new()
                    .name(format!("st-serve-scorer-{i}"))
                    .spawn(move || scorer_loop(shared, cell, metrics, config, injector))
                    .expect("spawn scorer thread")
            })
            .collect();
        Self {
            shared,
            metrics,
            config,
            scorers,
        }
    }

    /// Submits a request and blocks until it reaches a terminal outcome:
    /// a scored reply, a synchronous shed when the queue is full, or an
    /// error from the drain path (deadline, injected fault, shutdown).
    pub fn submit(&self, req: BatchRequest) -> Result<BatchReply, SubmitError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut state = recover(self.shared.state.lock());
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
        // One job needs one scorer: an idle one if there is any, else the
        // one holding the door.
        self.shared.arrived.notify_one();
        // A closed channel without a message can only mean the scorer
        // died; report it as a shutdown rather than hanging or panicking.
        rx.recv().unwrap_or(Err(SubmitError::ShuttingDown))
    }

    /// Live queue depth (jobs admitted but not yet drained).
    pub fn queue_depth(&self) -> usize {
        self.metrics.queue_depth.load(Relaxed) as usize
    }

    /// Stops the scorers, answering queued jobs first: jobs already
    /// admitted are scored (or expired) before the last scorer exits, and
    /// submissions from then on get [`SubmitError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        recover(self.shared.state.lock()).shutdown = true;
        self.shared.arrived.notify_all();
        for scorer in self.scorers.drain(..) {
            let _ = scorer.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scorer_loop(
    shared: Arc<Shared>,
    cell: Arc<ModelCell>,
    metrics: Arc<Metrics>,
    config: BatchConfig,
    injector: Option<Arc<FaultInjector>>,
) {
    // This scorer's scratch buffers, reused across every batch it ever
    // scores: zero allocations per batch once warmed up.
    let mut ctx = InferCtx::new();
    loop {
        // Wait for the first request (or shutdown). Because the shutdown
        // flag shares the queue mutex, "empty and shutting down" is a
        // stable exit condition: nothing can be enqueued after it.
        let mut state = recover(shared.state.lock());
        while state.jobs.is_empty() {
            if state.shutdown {
                return;
            }
            state.idle += 1;
            state = recover(
                shared
                    .arrived
                    .wait_timeout(state, Duration::from_millis(50)),
            )
            .0;
            state.idle -= 1;
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
        // no growth. And only when no other scorer is idle: one that is
        // takes the next arrival at once, so holding the door would cost
        // this batch the wait and save the next one nothing.
        if !config.window.is_zero() {
            let deadline = Instant::now() + config.window;
            let quantum = (config.window / 8).max(Duration::from_micros(20));
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero()
                    || state.idle > 0
                    || state.jobs.len() >= config.max_batch
                    || state.shutdown
                {
                    break;
                }
                let before = state.jobs.len();
                state = recover(shared.arrived.wait_timeout(state, remaining.min(quantum))).0;
                if state.jobs.len() <= before {
                    // Arrivals paused: score what we have (nothing, if
                    // another scorer holding the door took the lot).
                    break;
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
/// parameters and the scorer's reusable scratch.
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
    use st_transrec_core::{recommend_top_k, ModelConfig, STTransRec};

    fn cell() -> (Arc<ModelCell>, st_data::Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        let mut model = STTransRec::new(&d, &split, ModelConfig::test_small());
        model.train_epoch(&d);
        (
            Arc::new(ModelCell::from_frozen(model.snapshot(), None, None)),
            d,
            split,
        )
    }

    fn request(user: UserId, candidates: &Arc<Vec<PoiId>>, k: usize) -> BatchRequest {
        BatchRequest {
            user,
            candidates: candidates.clone(),
            k,
        }
    }

    /// Both sides of the scorer count: the one-CPU process and a host
    /// with more scorers than this sandbox has CPUs.
    const SCORER_COUNTS: [usize; 2] = [1, 4];

    #[test]
    fn batched_replies_match_recommend_top_k() {
        let (cell, d, split) = cell();
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        for scorers in SCORER_COUNTS {
            let metrics = Arc::new(Metrics::new());
            let batcher = MicroBatcher::spawn(
                cell.clone(),
                metrics.clone(),
                BatchConfig {
                    window: Duration::from_millis(2),
                    max_batch: 16,
                    ..BatchConfig::default()
                },
                None,
                scorers,
            );

            // Concurrent submissions from several threads coalesce or
            // spread over the scorers; either way each reply must equal
            // the offline recommend_top_k ranking.
            std::thread::scope(|scope| {
                let handles: Vec<_> = split
                    .test_users
                    .iter()
                    .take(8)
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
                assert_eq!(handles.len(), 8, "fixture has eight test users");
                for h in handles {
                    let (user, reply) = h.join().unwrap();
                    assert_eq!(reply.epoch, 1);
                    let expected = recommend_top_k(
                        &cell.current().frozen,
                        &d,
                        user,
                        split.target_city,
                        5,
                        &[],
                    );
                    assert_eq!(reply.recs, expected, "user {user:?}, {scorers} scorers");
                }
            });
            assert_eq!(metrics.batched_requests.load(Relaxed), 8);
            assert!(metrics.batches.load(Relaxed) >= 1);
            assert_eq!(metrics.batcher_scorers.load(Relaxed), scorers as u64);
        }
    }

    #[test]
    fn one_batch_of_different_users_and_sizes_answers_each_job_its_own() {
        use st_tensor::kernels::TILE_ROWS;
        let (cell, d, split) = cell();
        // Candidate lists around a scoring row tile, empty and single
        // included, each for a different user; the catalog is cycled to
        // reach the longer ones.
        let catalog = d.pois_in_city(split.target_city);
        let sizes = [
            0,
            1,
            2,
            TILE_ROWS - 1,
            TILE_ROWS,
            TILE_ROWS + 1,
            2 * TILE_ROWS,
            2 * TILE_ROWS + 3,
        ];
        let jobs: Vec<(UserId, Arc<Vec<PoiId>>)> = sizes
            .iter()
            .zip(&split.test_users)
            .map(|(&n, &user)| {
                let skip = user.idx() % catalog.len();
                let candidates = catalog.iter().cycle().skip(skip).take(n).copied();
                (user, Arc::new(candidates.collect()))
            })
            .collect();
        assert_eq!(jobs.len(), sizes.len(), "fixture has eight test users");

        for scorers in SCORER_COUNTS {
            let metrics = Arc::new(Metrics::new());
            let injector = Arc::new(FaultInjector::new(1));
            injector.freeze();
            let batcher = MicroBatcher::spawn(
                cell.clone(),
                metrics.clone(),
                BatchConfig {
                    window: Duration::ZERO,
                    ..BatchConfig::default()
                },
                Some(injector.clone()),
                scorers,
            );
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
                    // The pair-at-a-time entry point, user spelled out
                    // per candidate, is the oracle.
                    let users = vec![user.idx(); candidates.len()];
                    let rows: Vec<usize> = candidates.iter().map(|p| p.idx()).collect();
                    let expected = rank_top_k(candidates, &frozen.predict(&users, &rows), 4);
                    assert_eq!(reply.recs, expected, "user {user:?}, {scorers} scorers");
                    assert_eq!(reply.recs.len(), candidates.len().min(4));
                }
            });
            // The backlog is the batch: whichever scorer sees the thaw
            // first takes all of it.
            assert_eq!(metrics.batches.load(Relaxed), 1, "one coalesced batch");
            assert_eq!(metrics.batched_requests.load(Relaxed), 8);
        }
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
    /// reply or a clean `ShuttingDown` error — never a hang — however
    /// many scorers are draining.
    #[test]
    fn concurrent_submit_and_shutdown_loses_no_submitter() {
        let (cell, d, split) = cell();
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let user = split.test_users[0];
        for round in 0..8 {
            let scorers = SCORER_COUNTS[round % 2];
            let metrics = Arc::new(Metrics::new());
            let mut batcher = MicroBatcher::spawn(
                cell.clone(),
                metrics.clone(),
                BatchConfig {
                    window: Duration::ZERO,
                    max_batch: 4,
                    ..BatchConfig::default()
                },
                None,
                scorers,
            );

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
                // Trigger shutdown through the shared state exactly like
                // `shutdown()` does, without taking `&mut` (submitters
                // hold shared borrows).
                recover(batcher.shared.state.lock()).shutdown = true;
                batcher.shared.arrived.notify_all();

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
            assert!(batcher.scorers.is_empty(), "every scorer joined");
            assert_eq!(served + refused, 200, "every submitter resolved");
            assert_eq!(
                metrics.batched_requests.load(Relaxed),
                served as u64,
                "accepted = answered ({scorers} scorers)"
            );
            assert_eq!(metrics.queue_depth.load(Relaxed), 0, "no job left behind");
        }
    }

    /// Wall time from thaw to the last answer for four parked jobs, each
    /// its own batch behind a 50 ms latency pad.
    fn padded_wall(
        cell: &Arc<ModelCell>,
        candidates: &Arc<Vec<PoiId>>,
        scorers: usize,
    ) -> Duration {
        let injector = Arc::new(FaultInjector::new(1));
        injector.set_latency_pad(50_000, 0);
        injector.freeze();
        let batcher = MicroBatcher::spawn(
            cell.clone(),
            Arc::new(Metrics::new()),
            BatchConfig {
                window: Duration::ZERO,
                max_batch: 1,
                ..BatchConfig::default()
            },
            Some(injector.clone()),
            scorers,
        );
        std::thread::scope(|scope| {
            let parked: Vec<_> = (0..4)
                .map(|_| {
                    let batcher = &batcher;
                    scope.spawn(move || batcher.submit(request(UserId(0), candidates, 3)))
                })
                .collect();
            while batcher.queue_depth() < 4 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let thawed = Instant::now();
            injector.thaw();
            for h in parked {
                assert!(h.join().unwrap().is_ok());
            }
            thawed.elapsed()
        })
    }

    #[test]
    fn scorers_overlap_their_batches() {
        let (cell, d, split) = cell();
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let pad = Duration::from_millis(50);
        let one = padded_wall(&cell, &candidates, 1);
        assert!(one >= 4 * pad, "one scorer serialises the pads: {one:?}");
        let two = padded_wall(&cell, &candidates, 2);
        assert!(two < 3 * pad, "two scorers take the pads in pairs: {two:?}");
    }

    /// How long a lone `submit` takes under a 200 ms window once every
    /// scorer is parked on the empty queue.
    fn lone_submit_latency(
        cell: &Arc<ModelCell>,
        candidates: &Arc<Vec<PoiId>>,
        scorers: usize,
    ) -> Duration {
        let batcher = MicroBatcher::spawn(
            cell.clone(),
            Arc::new(Metrics::new()),
            BatchConfig {
                window: Duration::from_millis(200),
                ..BatchConfig::default()
            },
            None,
            scorers,
        );
        while recover(batcher.shared.state.lock()).idle < scorers {
            std::thread::sleep(Duration::from_micros(100));
        }
        let started = Instant::now();
        assert!(batcher.submit(request(UserId(0), candidates, 3)).is_ok());
        started.elapsed()
    }

    #[test]
    fn the_door_is_held_only_when_no_other_scorer_is_idle() {
        let (cell, d, split) = cell();
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        // One scorer: nobody else could take a companion, so it waits a
        // quantum (window / 8) for one before scoring.
        let held = lone_submit_latency(&cell, &candidates, 1);
        assert!(held >= Duration::from_millis(25), "door not held: {held:?}");
        // Two: the other is idle and would take the next arrival at once.
        let open = lone_submit_latency(&cell, &candidates, 2);
        assert!(open < Duration::from_millis(100), "door held: {open:?}");
    }

    #[test]
    fn four_frozen_scorers_leave_the_backlog_whole() {
        let (cell, d, split) = cell();
        let metrics = Arc::new(Metrics::new());
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::spawn(
            cell,
            metrics.clone(),
            BatchConfig {
                window: Duration::ZERO,
                ..BatchConfig::default()
            },
            Some(injector.clone()),
            4,
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());

        std::thread::scope(|scope| {
            let mut parked = Vec::new();
            let mut deepest = 0;
            for &user in split.test_users.iter().take(6) {
                let batcher = &batcher;
                let candidates = candidates.clone();
                parked.push(scope.spawn(move || batcher.submit(request(user, &candidates, 3))));
                // Four scorers are awake on the gate by now; none drains.
                while batcher.queue_depth() < parked.len() {
                    assert!(batcher.queue_depth() >= deepest, "a frozen scorer drained");
                    deepest = batcher.queue_depth();
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(batcher.queue_depth(), 6);
            assert_eq!(metrics.batches.load(Relaxed), 0);
            // The thaw's first taker gets the whole backlog, so one unit
            // of failure budget fails all of it — what the chaos replays
            // count on.
            injector.fail_next_batches(1);
            injector.thaw();
            for h in parked {
                assert_eq!(h.join().unwrap(), Err(SubmitError::ScorerFailed));
            }
        });
        assert_eq!(metrics.injected_failures_total.load(Relaxed), 6);
        assert_eq!(metrics.batches.load(Relaxed), 0);
        assert!(batcher
            .submit(request(split.test_users[0], &candidates, 3))
            .is_ok());
    }

    #[test]
    fn a_poisoned_queue_lock_does_not_stop_serving() {
        let (cell, d, split) = cell();
        let mut batcher = MicroBatcher::spawn(
            cell,
            Arc::new(Metrics::new()),
            BatchConfig::default(),
            None,
            2,
        );
        let shared = batcher.shared.clone();
        let panicked = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("poisoning the batcher queue on purpose");
        })
        .join();
        assert!(panicked.is_err() && batcher.shared.state.is_poisoned());

        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let reply = batcher.submit(request(split.test_users[0], &candidates, 3));
        assert_eq!(reply.expect("still answered").recs.len(), 3);
        batcher.shutdown();
        assert!(batcher.scorers.is_empty(), "every scorer joined");
        assert_eq!(
            batcher.submit(request(split.test_users[0], &candidates, 3)),
            Err(SubmitError::ShuttingDown)
        );
    }
}
