//! The micro-batcher: one queue of recommendation requests in front of
//! the scorer threads, behind overload-safe admission control.
//!
//! The batcher is two layers. `Queue` is the whole queueing policy and
//! reads no clock: every operation takes `now`. It admits a job unless
//! the batcher is shutting down ([`SubmitError::ShuttingDown`]) or the
//! queue holds `queue_capacity` jobs, in which case the submission is
//! shed synchronously ([`SubmitError::QueueFull`]) instead of growing the
//! queue without limit. A drain takes the oldest `min(queued, max_batch)`
//! jobs and expires those among them that waited longer than `deadline`
//! ([`SubmitError::DeadlineExceeded`]), so one slow batch delays the
//! queue but does not cascade into a convoy of doomed work. The model
//! test below drives it through random admit / take / shutdown / clock
//! sequences against a reference FIFO.
//!
//! [`MicroBatcher`] is the threaded shell around it: the mutex and
//! condvar, the fault gate, the reply channels and the metrics. It reads
//! the clock once per submit and once per drain. HTTP workers submit
//! [`BatchRequest`]s and block on a per-request channel. One scorer
//! thread per CPU the process may run on drains the queue. A scorer
//! woken by an arrival takes what is queued and scores it at once — it
//! never waits for companions, so a batch is the backlog that built up
//! while every scorer was busy. The scorer that drained a job (its
//! owner) validates it against the one generation's frozen
//! [`st_transrec_core::ModelSnapshot`] and splits its candidates into
//! `TILE_ROWS`-row ranges behind one cursor (`Tiles`). The owner claims
//! ranges until the cursor runs out; a scorer that finds the queue empty
//! claims ranges of an open job before it parks, so one cold request
//! scores on every free CPU. Each range is tape-free `InferCtx` execution
//! over scratch the claiming scorer owns, and lands in its own slots of
//! the job's score buffer. A row's bits do not depend on the range that
//! scored it, and scores are ranked by `recommend_top_k`'s own rule, so
//! a batched response is bit-identical to an unbatched one.
//!
//! Every submitted job reaches exactly one terminal outcome, from its
//! owner: scored, shed at admission, expired in queue, failed by an
//! injected fault, or answered with a shutdown error. Helpers only score
//! ranges; they never touch the queue, reply, or consult the fault gate.
//! The shutdown flag is part of the queue, under its one mutex, so no job
//! can slip in between the stop flag and the final drain — the
//! conservation invariant the chaos harness asserts end to end.

use crate::fault::FaultInjector;
use crate::metrics::{micros, Metrics, Stage};
use crate::snapshot::{ModelCell, ServingGeneration};
use st_data::{PoiId, UserId};
use st_tensor::kernels::TILE_ROWS;
/// The ranking rule of `recommend_top_k`, at the path the batcher has
/// always exported it from.
pub use st_transrec_core::rank_top_k;
use st_transrec_core::{InferCtx, Recommendation};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize};
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
}

/// The batcher's queue: admission, expiry and shutdown, with the time
/// passed in. Jobs and the shutdown flag live together, so under the
/// shell's one mutex `admit` checks the flag and enqueues atomically: a
/// job either lands before the scorers' final drain (and gets answered)
/// or is refused — never silently parked.
struct Queue<T> {
    /// Admitted jobs, oldest first, each with its admission time.
    jobs: VecDeque<(Instant, T)>,
    capacity: usize,
    /// Zero means no expiry.
    deadline: Duration,
    shutdown: bool,
}

/// What one drain took: the oldest `min(queued, max_batch)` jobs, each
/// with how long it waited, split by the deadline. Both lists are oldest
/// first.
struct Drain<T> {
    fresh: Vec<(Duration, T)>,
    expired: Vec<(Duration, T)>,
}

impl<T> Queue<T> {
    fn new(capacity: usize, deadline: Duration) -> Self {
        Self {
            jobs: VecDeque::new(),
            capacity,
            deadline,
            shutdown: false,
        }
    }

    /// Admits `job` at `now`. After shutdown every submission is refused;
    /// a full queue sheds it.
    fn admit(&mut self, now: Instant, job: T) -> Result<(), SubmitError> {
        if self.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if self.jobs.len() >= self.capacity {
            return Err(SubmitError::QueueFull);
        }
        self.jobs.push_back((now, job));
        Ok(())
    }

    /// Takes the oldest `min(queued, max_batch)` jobs at `now`. Those that
    /// waited longer than the deadline are expired, and still count
    /// toward `max_batch`.
    fn take(&mut self, now: Instant, max_batch: usize) -> Drain<T> {
        let n = self.jobs.len().min(max_batch);
        let mut drain = Drain {
            fresh: Vec::with_capacity(n),
            expired: Vec::new(),
        };
        for (admitted, job) in self.jobs.drain(..n) {
            let waited = now.saturating_duration_since(admitted);
            if !self.deadline.is_zero() && waited > self.deadline {
                drain.expired.push((waited, job));
            } else {
                drain.fresh.push((waited, job));
            }
        }
        drain
    }

    /// Refuses every later admission; jobs already queued stay to be
    /// drained.
    fn shut_down(&mut self) {
        self.shutdown = true;
    }
}

/// One drained job's candidates as `TILE_ROWS`-row ranges behind one
/// cursor. Whoever claims a range scores it into that range's slots of
/// `scores` and then marks it landed; the owner ranks once every range
/// has. Slots hold `f32` bits, so scorers write disjoint parts of one
/// buffer with no lock, and a range scored twice writes the same bits.
struct Tiles {
    /// The generation the owner validated the job against.
    generation: Arc<ServingGeneration>,
    user: UserId,
    candidates: Arc<Vec<PoiId>>,
    /// Index of the next unclaimed range.
    next: AtomicUsize,
    /// One score's bits per candidate.
    scores: Vec<AtomicU32>,
    /// One flag per range, set after its scores are stored.
    landed: Vec<AtomicBool>,
}

/// A scorer's scratch, reused across every range it ever scores: the
/// tower's buffers and one tile of scores.
#[derive(Default)]
struct Scratch {
    ctx: InferCtx,
    tile: Vec<f32>,
}

/// How long an owner whose cursor has run out waits for a range another
/// scorer claimed before it scores that range itself. A range takes tens
/// of microseconds, so only a helper that stalled or panicked mid-range
/// is overtaken; its late stores write the same bits.
const HELPER_GRACE: Duration = Duration::from_millis(1);

impl Tiles {
    /// Opens a job whose ids `generation` has validated.
    fn new(generation: Arc<ServingGeneration>, user: UserId, candidates: Arc<Vec<PoiId>>) -> Self {
        let n = candidates.len();
        Self {
            generation,
            user,
            candidates,
            next: AtomicUsize::new(0),
            scores: (0..n).map(|_| AtomicU32::new(0)).collect(),
            landed: (0..n.div_ceil(TILE_ROWS))
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    fn ranges(&self) -> usize {
        self.landed.len()
    }

    /// The candidates of range `r`.
    fn range(&self, r: usize) -> Range<usize> {
        r * TILE_ROWS..((r + 1) * TILE_ROWS).min(self.candidates.len())
    }

    /// Whether a range is left to claim.
    fn unclaimed(&self) -> bool {
        self.next.load(Relaxed) < self.ranges()
    }

    /// Claims the next range, if one is left.
    fn claim(&self) -> Option<usize> {
        let r = self.next.fetch_add(1, Relaxed);
        (r < self.ranges()).then_some(r)
    }

    /// Scores range `r`, stores its scores and marks it landed.
    fn score(&self, scratch: &mut Scratch, r: usize) {
        let rows = self.range(r);
        scratch.tile.clear();
        self.generation.frozen.score_user_into(
            &mut scratch.ctx,
            self.user,
            &self.candidates[rows.clone()],
            &mut scratch.tile,
        );
        for (slot, score) in self.scores[rows].iter().zip(&scratch.tile) {
            slot.store(score.to_bits(), Relaxed);
        }
        self.landed[r].store(true, Release);
    }

    /// The first range that has not landed.
    fn pending(&self) -> Option<usize> {
        self.landed.iter().position(|l| !l.load(Acquire))
    }

    /// The owner's last step, once the cursor has run out: waits for the
    /// ranges other scorers hold, scores any still missing after
    /// [`HELPER_GRACE`] itself, and returns the scores in candidate
    /// order with how many ranges it scored here.
    fn collect(&self, scratch: &mut Scratch) -> (Vec<f32>, u64) {
        let waiting = Instant::now();
        let mut rescored = 0;
        while let Some(r) = self.pending() {
            if waiting.elapsed() < HELPER_GRACE {
                std::thread::yield_now();
            } else {
                self.score(scratch, r);
                rescored += 1;
            }
        }
        let scores = self.scores.iter().map(|s| f32::from_bits(s.load(Relaxed)));
        (scores.collect(), rescored)
    }
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
}

/// What the scorers share under one mutex: the queue, and the jobs whose
/// ranges any scorer that finds the queue empty may claim.
struct State {
    queue: Queue<Job>,
    open: Vec<Arc<Tiles>>,
}

/// Takes the guard out of a lock result whether or not the lock is
/// poisoned. [`Queue`] changes by whole operations (`push_back`, `drain`,
/// an assignment), as does the open list, so both are consistent
/// wherever a holder unwinds (as is `snapshot`'s one-pointer cell);
/// refusing the guard would only turn one thread's panic into every
/// scorer's and every HTTP worker's.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Handle to the scorer threads.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    scorers: Vec<std::thread::JoinHandle<()>>,
}

/// Queue and batch bounds. There is no coalescing delay: a scorer takes
/// what is queued when it looks, so batches form only from the backlog
/// that accumulates while every scorer is busy.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most requests one scorer takes in one pass. 1 reproduces
    /// one-request-at-a-time scoring through the identical code path.
    pub max_batch: usize,
    /// Most jobs the queue will hold, at least 1; submissions beyond
    /// this are shed with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// How long a job may wait in the queue before the drain path drops
    /// it with [`SubmitError::DeadlineExceeded`] instead of scoring it.
    /// Zero disables deadlines.
    pub deadline: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
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
    pub(crate) fn start_with_faults(
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
        assert!(
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        assert!(scorers >= 1, "a batcher needs a scorer");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: Queue::new(config.queue_capacity, config.deadline),
                open: Vec::new(),
            }),
            arrived: Condvar::new(),
        });
        metrics.batcher_scorers.store(scorers as u64, Relaxed);
        let count = scorers;
        let scorers = (0..count)
            .map(|i| {
                let (shared, cell, metrics) = (shared.clone(), cell.clone(), metrics.clone());
                let injector = injector.clone();
                // Fires only if the OS refuses a thread at start-up, before
                // anything is served; `start` has no error path to return it on.
                std::thread::Builder::new()
                    .name(format!("st-serve-scorer-{i}"))
                    .spawn(move || scorer_loop(shared, cell, metrics, config, injector, count))
                    .expect("spawn scorer thread")
            })
            .collect();
        Self {
            shared,
            metrics,
            scorers,
        }
    }

    /// Submits a request and blocks until it reaches a terminal outcome:
    /// a scored reply, a synchronous shed when the queue is full, or an
    /// error from the drain path (deadline, injected fault, shutdown).
    pub fn submit(&self, req: BatchRequest) -> Result<BatchReply, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        {
            let queue = &mut recover(self.shared.state.lock()).queue;
            if let Err(refused) = queue.admit(now, Job { req, tx }) {
                if refused == SubmitError::QueueFull {
                    self.metrics.shed_total.fetch_add(1, Relaxed);
                }
                return Err(refused);
            }
            self.metrics
                .queue_depth
                .store(queue.jobs.len() as u64, Relaxed);
        }
        // One job needs one owner: wake a parked scorer, if any. A busy
        // one looks at the queue again when its batch, or the range it
        // is helping with, is done.
        self.shared.arrived.notify_one();
        // A closed channel without a message can only mean the scorer
        // died; report it as a shutdown rather than hanging or panicking.
        rx.recv().unwrap_or(Err(SubmitError::ShuttingDown))
    }

    /// Live queue depth (jobs admitted but not yet drained).
    pub(crate) fn queue_depth(&self) -> usize {
        self.metrics.queue_depth.load(Relaxed) as usize
    }

    /// Stops the scorers, answering queued jobs first: jobs already
    /// admitted are scored (or expired) before the last scorer exits, and
    /// submissions from then on get [`SubmitError::ShuttingDown`].
    pub(crate) fn shutdown(&mut self) {
        recover(self.shared.state.lock()).queue.shut_down();
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
    scorers: usize,
) {
    // This scorer's scratch buffers, reused across every range it ever
    // scores: zero allocations per range once warmed up.
    let mut scratch = Scratch::default();
    loop {
        // Wait for the first request (or shutdown), scoring ranges of
        // open jobs meanwhile: one range per look, so a queued job is
        // drained before any further help. Because the shutdown flag
        // shares the queue mutex, "empty and shutting down" is a stable
        // exit condition: nothing can be enqueued after it.
        let mut state = recover(shared.state.lock());
        while state.queue.jobs.is_empty() {
            if state.queue.shutdown {
                return;
            }
            if let Some(tiles) = state.open.iter().find(|t| t.unclaimed()).cloned() {
                drop(state);
                if let Some(r) = tiles.claim() {
                    tiles.score(&mut scratch, r);
                    metrics.score_tiles_helper.fetch_add(1, Relaxed);
                }
                state = recover(shared.state.lock());
                continue;
            }
            state = recover(
                shared
                    .arrived
                    .wait_timeout(state, Duration::from_millis(50)),
            )
            .0;
        }

        // Fault gate, checked with jobs in hand and before any drain:
        // while frozen, stay off the queue so admission (and shedding)
        // continues while the backlog builds — once `freeze()` returns,
        // no new drain can start. Shutdown overrides the freeze so a
        // frozen server still stops cleanly.
        if let Some(inj) = injector.as_deref() {
            if inj.frozen() && !state.queue.shutdown {
                drop(state);
                std::thread::sleep(FREEZE_POLL);
                continue;
            }
        }

        // The backlog is the batch: take what is queued and score it now.
        // Jobs that aged out while queued are answered here, so a slow or
        // stalled batch ahead of them cannot cascade into scoring work
        // whose clients have already given up.
        let drain = state.queue.take(Instant::now(), config.max_batch);
        metrics
            .queue_depth
            .store(state.queue.jobs.len() as u64, Relaxed);
        drop(state);
        for (waited, _) in drain.fresh.iter().chain(&drain.expired) {
            metrics.stage(Stage::Queue).observe(micros(*waited));
        }
        for (_, job) in drain.expired {
            metrics.expired_total.fetch_add(1, Relaxed);
            let _ = job.tx.send(Err(SubmitError::DeadlineExceeded));
        }
        let batch: Vec<Job> = drain.fresh.into_iter().map(|(_, job)| job).collect();
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

        execute_batch(&shared, &cell, &metrics, batch, &mut scratch, scorers);
    }
}

/// Scores, ranks and answers every job of one drained batch, all
/// against one model snapshot, as the jobs' owner.
fn execute_batch(
    shared: &Shared,
    cell: &ModelCell,
    metrics: &Metrics,
    batch: Vec<Job>,
    scratch: &mut Scratch,
    scorers: usize,
) {
    if batch.is_empty() {
        return;
    }
    let generation = cell.current();

    metrics.batches.fetch_add(1, Relaxed);
    metrics
        .batched_requests
        .fetch_add(batch.len() as u64, Relaxed);
    metrics.batch_size.observe(batch.len() as u64);

    for job in batch {
        let BatchRequest {
            user,
            candidates,
            k,
        } = &job.req;
        // A malformed request (unknown user, out-of-range candidate) is
        // validated out against the snapshot that would score it, before
        // any range opens, and answered `InvalidRequest` on its own
        // channel — an error reply, never a worker panic, and the rest
        // of the batch scores normally.
        let scoring = Instant::now();
        let scored = generation.frozen.check_user(*user, candidates).map(|()| {
            let tiles = Tiles::new(generation.clone(), *user, candidates.clone());
            score_as_owner(shared, metrics, scratch, &Arc::new(tiles), scorers)
        });
        metrics.stage(Stage::Score).observe_since(scoring);
        let reply = scored
            .map(|scores| {
                let ranking = Instant::now();
                let recs = rank_top_k(candidates, &scores, *k);
                metrics.stage(Stage::Topk).observe_since(ranking);
                BatchReply {
                    epoch: generation.epoch,
                    recs,
                }
            })
            .map_err(|_| SubmitError::InvalidRequest);
        // A dropped receiver (client hung up) is not an error.
        let _ = job.tx.send(reply);
    }
}

/// Scores `tiles` as its owner: opens its ranges to the other scorers
/// when it has more than one, claims ranges until the cursor runs out,
/// then collects every range's scores.
fn score_as_owner(
    shared: &Shared,
    metrics: &Metrics,
    scratch: &mut Scratch,
    tiles: &Arc<Tiles>,
    scorers: usize,
) -> Vec<f32> {
    // Wake one parked scorer per range beyond the owner's first, up to
    // the other scorers there are.
    let wake = tiles.ranges().min(scorers).saturating_sub(1);
    if wake > 0 {
        recover(shared.state.lock()).open.push(tiles.clone());
        for _ in 0..wake {
            shared.arrived.notify_one();
        }
    }
    let mut own = 0;
    while let Some(r) = tiles.claim() {
        tiles.score(scratch, r);
        own += 1;
    }
    if wake > 0 {
        recover(shared.state.lock())
            .open
            .retain(|open| !Arc::ptr_eq(open, tiles));
    }
    let (scores, rescored) = tiles.collect(scratch);
    metrics.score_tiles_owner.fetch_add(own + rescored, Relaxed);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
                    max_batch: 16,
                    ..BatchConfig::default()
                },
                None,
                scorers,
            );

            // Concurrent submissions from several threads queue up or
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
                BatchConfig::default(),
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
                    let users = vec![*user; candidates.len()];
                    let scores = frozen
                        .try_score_pairs_with(&mut InferCtx::new(), &users, candidates)
                        .unwrap();
                    let expected = rank_top_k(candidates, &scores, 4);
                    assert_eq!(reply.recs, expected, "user {user:?}, {scorers} scorers");
                    assert_eq!(reply.recs.len(), candidates.len().min(4));
                }
            });
            // The backlog is the batch: whichever scorer sees the thaw
            // first takes all of it.
            assert_eq!(metrics.batches.load(Relaxed), 1, "one batch");
            assert_eq!(metrics.batched_requests.load(Relaxed), 8);
        }
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
        let injector = Arc::new(FaultInjector::new(1));
        injector.freeze();
        let batcher = MicroBatcher::start_with_faults(
            cell.clone(),
            metrics.clone(),
            BatchConfig::default(),
            Some(injector.clone()),
        );
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        let good_user = split.test_users[0];
        let ghost_user = UserId(d.num_users() as u32 + 7);
        let ghost_poi = Arc::new(vec![PoiId(d.num_pois() as u32)]);

        // Park two malformed jobs and a well-formed one behind the freeze,
        // so the thaw drains them as one batch: the bad ones error, the
        // good one is answered exactly like an unbatched request.
        std::thread::scope(|scope| {
            let batcher = &batcher;
            let bad_user = scope.spawn(|| batcher.submit(request(ghost_user, &candidates, 3)));
            let bad_poi = scope.spawn(|| batcher.submit(request(good_user, &ghost_poi, 3)));
            let good = scope.spawn(|| batcher.submit(request(good_user, &candidates, 3)));
            while batcher.queue_depth() < 3 {
                std::thread::sleep(Duration::from_micros(100));
            }
            injector.thaw();
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
        // They really were batchmates: one batch of three.
        assert_eq!(metrics.batch_size.count(), 1);
        assert_eq!(metrics.batch_size.sum(), 3);
    }

    /// An unbounded queue is not a configuration: capacity 0 is refused
    /// at start-up, like a zero `max_batch`.
    #[test]
    #[should_panic(expected = "queue_capacity must be at least 1")]
    fn a_zero_queue_capacity_is_refused() {
        let (cell, _, _) = cell();
        let config = BatchConfig {
            queue_capacity: 0,
            ..BatchConfig::default()
        };
        MicroBatcher::start(cell, Arc::new(Metrics::new()), config);
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
            BatchConfig::default(),
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
                // Trigger shutdown through the shared queue exactly like
                // `shutdown()` does, without taking `&mut` (submitters
                // hold shared borrows).
                recover(batcher.shared.state.lock()).queue.shut_down();
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

    #[test]
    fn a_lone_submit_is_scored_at_once() {
        let (cell, d, split) = cell();
        let candidates = Arc::new(d.pois_in_city(split.target_city).to_vec());
        for scorers in SCORER_COUNTS {
            let batcher = MicroBatcher::spawn(
                cell.clone(),
                Arc::new(Metrics::new()),
                BatchConfig::default(),
                None,
                scorers,
            );
            // No scorer waits for companions, a lone one included: after
            // a pause that parks every scorer on the empty queue, a
            // submit is scored as soon as one wakes. The fastest of three
            // keeps a busy test host from reading as a hold.
            let fastest = (0..3)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(10));
                    let started = Instant::now();
                    assert!(batcher.submit(request(UserId(0), &candidates, 3)).is_ok());
                    started.elapsed()
                })
                .min()
                .unwrap();
            assert!(
                fastest < Duration::from_millis(20),
                "{scorers} scorers held a lone submit for {fastest:?}"
            );
        }
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
            BatchConfig::default(),
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

    /// Who claims and lands the ranges of one job, by hand: scratch 0 is
    /// the owner, the rest are helpers.
    enum Script {
        /// The owner claims every range.
        OwnerOnly,
        /// Claims go round the scratches in turn.
        Alternating,
        /// The owner claims the first range, one helper all the others.
        HelperTakesAllButOne,
        /// A helper claims the first range and lands it after the owner
        /// has landed all the others.
        HelperLandsLast,
        /// A helper claims the first range and never lands it, as if it
        /// had panicked mid-range.
        HelperNeverLands,
    }

    /// Runs `script` over a job of `user` against `candidates` and checks
    /// it: the ranges partition the candidates; the cursor hands out each
    /// range once, in order; the collected scores equal
    /// `try_score_user_with`'s bit for bit; and the ranges each scratch
    /// scored are the script's.
    fn run_script(
        generation: &Arc<ServingGeneration>,
        user: UserId,
        candidates: &Arc<Vec<PoiId>>,
        scratch: &mut [Scratch],
        script: &Script,
    ) {
        let tiles = Tiles::new(generation.clone(), user, candidates.clone());
        let ranges = candidates.len().div_ceil(TILE_ROWS);
        assert_eq!(tiles.ranges(), ranges);
        let rows: Vec<usize> = (0..ranges).flat_map(|r| tiles.range(r)).collect();
        let every: Vec<usize> = (0..candidates.len()).collect();
        assert_eq!(rows, every, "the ranges partition the candidates");
        let scratches = scratch.len();
        let claimant = |r: usize| match script {
            Script::OwnerOnly => 0,
            Script::Alternating => r % scratches,
            Script::HelperTakesAllButOne => usize::from(r > 0),
            Script::HelperLandsLast | Script::HelperNeverLands => usize::from(r == 0),
        };
        let held = matches!(script, Script::HelperLandsLast | Script::HelperNeverLands);
        let mut scored = vec![0u64; scratch.len()];
        for r in 0..ranges {
            assert!(tiles.unclaimed());
            assert_eq!(tiles.claim(), Some(r), "ranges are claimed in order, once");
            if held && r == 0 {
                continue;
            }
            let who = claimant(r);
            tiles.score(&mut scratch[who], r);
            scored[who] += 1;
        }
        assert!(!tiles.unclaimed());
        assert_eq!(tiles.claim(), None, "the cursor has run out");
        let mut rescored = 0;
        if held && ranges > 0 {
            assert_eq!(tiles.pending(), Some(0), "the held range has not landed");
            if matches!(script, Script::HelperLandsLast) {
                tiles.score(&mut scratch[1], 0);
                scored[1] += 1;
                assert_eq!(tiles.pending(), None);
            } else {
                rescored = 1;
            }
        } else {
            assert_eq!(tiles.pending(), None, "every range landed");
        }

        let (got, owner_rescored) = tiles.collect(&mut scratch[0]);
        assert_eq!(owner_rescored, rescored, "n = {}", candidates.len());
        let want = generation
            .frozen
            .try_score_user_with(&mut InferCtx::new(), user, candidates)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "n = {}", candidates.len());

        // The abandoned range counts as its owner's rescore, not here.
        let mut expected: Vec<u64> = (0..scratches)
            .map(|who| (0..ranges).filter(|&r| claimant(r) == who).count() as u64)
            .collect();
        expected[1] -= rescored;
        assert_eq!(scored, expected, "n = {}", candidates.len());
    }

    #[test]
    fn scripted_splits_score_the_bits_of_one_pass() {
        let (cell, d, split) = cell();
        let generation = cell.current();
        let catalog = d.pois_in_city(split.target_city);
        let sizes = [
            0,
            1,
            TILE_ROWS - 1,
            TILE_ROWS,
            TILE_ROWS + 1,
            2 * TILE_ROWS + 3,
            33 * TILE_ROWS,
        ];
        let scripts = [
            Script::OwnerOnly,
            Script::Alternating,
            Script::HelperTakesAllButOne,
            Script::HelperLandsLast,
            Script::HelperNeverLands,
        ];
        for (&n, &user) in sizes.iter().zip(split.test_users.iter().cycle()) {
            let skip = user.idx() % catalog.len();
            let candidates = catalog.iter().cycle().skip(skip).take(n).copied();
            let candidates = Arc::new(candidates.collect::<Vec<_>>());
            for script in &scripts {
                for scratches in [2, 3] {
                    let mut scratch: Vec<Scratch> =
                        (0..scratches).map(|_| Scratch::default()).collect();
                    run_script(&generation, user, &candidates, &mut scratch, script);
                }
            }
        }
    }

    /// One operation on a [`Queue`]: admit the next job, take up to
    /// `max_batch`, shut down, or move the clock.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Admit,
        Take(usize),
        ShutDown,
        Advance(Duration),
    }

    /// The queue's contract written plainly: admitted `(at, id)` pairs in
    /// arrival order, a capacity, a deadline and a closed flag.
    struct Reference {
        capacity: usize,
        deadline: Duration,
        queued: Vec<(Instant, u64)>,
        closed: bool,
    }

    /// `(waited, id)` pairs, oldest first.
    type Taken = Vec<(Duration, u64)>;

    impl Reference {
        fn admit(&mut self, now: Instant, id: u64) -> Result<(), SubmitError> {
            if self.closed {
                Err(SubmitError::ShuttingDown)
            } else if self.queued.len() == self.capacity {
                Err(SubmitError::QueueFull)
            } else {
                self.queued.push((now, id));
                Ok(())
            }
        }

        /// `(fresh, expired)`: the oldest `max_batch` jobs, split by age.
        fn take(&mut self, now: Instant, max_batch: usize) -> (Taken, Taken) {
            let n = max_batch.min(self.queued.len());
            let deadline = self.deadline;
            self.queued
                .drain(..n)
                .map(|(at, id)| (now - at, id))
                .partition(|&(waited, _)| deadline.is_zero() || waited <= deadline)
        }
    }

    /// Terminal outcomes the queue handed out over one replay.
    #[derive(Debug, Default, PartialEq)]
    struct Tally {
        admitted: usize,
        shed: usize,
        refused: usize,
        taken: usize,
        expired: usize,
    }

    /// Runs `ops` on a fresh queue and on the reference side by side.
    /// Every admission answer and every drain (order, waits, expiry) must
    /// match, and after every step `admitted = taken + expired + pending`.
    fn replay(capacity: usize, deadline: Duration, ops: &[Op]) -> Result<Tally, TestCaseError> {
        let mut queue = Queue::new(capacity, deadline);
        let mut reference = Reference {
            capacity,
            deadline,
            queued: Vec::new(),
            closed: false,
        };
        let mut now = Instant::now();
        let (mut next_id, mut tally) = (0u64, Tally::default());
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Admit => {
                    let (got, want) = (queue.admit(now, next_id), reference.admit(now, next_id));
                    prop_assert_eq!(got, want, "op {}: admit; ops {:?}", i, ops);
                    match got {
                        Ok(()) => tally.admitted += 1,
                        Err(SubmitError::QueueFull) => tally.shed += 1,
                        Err(_) => tally.refused += 1,
                    }
                    next_id += 1;
                }
                Op::Take(max_batch) => {
                    let drain = queue.take(now, max_batch);
                    let got = (drain.fresh, drain.expired);
                    let want = reference.take(now, max_batch);
                    prop_assert_eq!(&got, &want, "op {}: take; ops {:?}", i, ops);
                    tally.taken += got.0.len();
                    tally.expired += got.1.len();
                }
                Op::ShutDown => {
                    queue.shut_down();
                    reference.closed = true;
                }
                Op::Advance(dt) => now += dt,
            }
            let pending = queue.jobs.len();
            prop_assert_eq!(
                pending,
                reference.queued.len(),
                "op {}: depth; ops {:?}",
                i,
                ops
            );
            prop_assert_eq!(
                tally.admitted,
                tally.taken + tally.expired + pending,
                "op {}: conservation {:?}; ops {:?}",
                i,
                tally,
                ops
            );
        }
        Ok(tally)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn queue_matches_the_reference_fifo(
            capacity in 1usize..6,
            deadline_ms in 0u64..5,
            ops in collection::vec((0u8..20, 0u64..5), 1..120),
        ) {
            // Admit 40 %, take 25 %, advance 30 %, shut down 5 %.
            let ops: Vec<Op> = ops
                .iter()
                .map(|&(code, x)| match code {
                    0..=7 => Op::Admit,
                    8..=12 => Op::Take(1 + x as usize),
                    13..=18 => Op::Advance(Duration::from_millis(x)),
                    _ => Op::ShutDown,
                })
                .collect();
            replay(capacity, Duration::from_millis(deadline_ms), &ops)?;
        }
    }

    #[test]
    fn full_queue_sheds_synchronously() {
        let mut ops = vec![Op::Admit; 7];
        ops.push(Op::Take(64));
        let tally = replay(3, Duration::ZERO, &ops).unwrap();
        let want = Tally {
            admitted: 3,
            shed: 4,
            taken: 3,
            ..Tally::default()
        };
        assert_eq!(tally, want);
    }

    #[test]
    fn frozen_batcher_expires_queued_jobs_past_deadline() {
        // A job exactly at the deadline is still scored; past it, every
        // queued job expires; a fresh one after the storm is scored.
        let ms = Duration::from_millis;
        let ops = [
            [Op::Admit; 3].as_slice(),
            &[Op::Advance(ms(30)), Op::Take(1)],
            &[Op::Advance(ms(50)), Op::Take(64), Op::Admit, Op::Take(64)],
        ]
        .concat();
        let tally = replay(64, ms(30), &ops).unwrap();
        let want = Tally {
            admitted: 4,
            taken: 2,
            expired: 2,
            ..Tally::default()
        };
        assert_eq!(tally, want);
    }

    #[test]
    fn max_batch_one_serves_one_at_a_time() {
        let ops = [[Op::Admit; 3], [Op::Take(1); 3]].concat();
        let tally = replay(64, Duration::ZERO, &ops).unwrap();
        let want = Tally {
            admitted: 3,
            taken: 3,
            ..Tally::default()
        };
        assert_eq!(tally, want);
    }
}
