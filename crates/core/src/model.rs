//! ST-TransRec: the unified model of Fig. 1b.
//!
//! One [`st_tensor::ParamStore`] holds the user, POI and word embedding
//! tables plus the interaction MLP. Each training step differentiates
//! the joint objective of Eq. 3,
//!
//! ```text
//! L = L_I^s + L_Gvw^s + L_I^t + L_Gvw^t + lambda * D(P, Q)
//! ```
//!
//! with the MMD term fed by density-resampled POI batches (Sec. 3.1.4-5)
//! and each ablation variant dropping its corresponding term.
//!
//! A step is *prologue → two lanes → merge → apply*
//! ([`STTransRec::accumulate_step`]): the prologue makes every random
//! draw of the step from one stream, the source lane (`L_I^s`, `L_Gvw^s`,
//! `lambda * D`) and the target lane (`L_I^t`, `L_Gvw^t`) each
//! differentiate their terms, one tape per term, into their own gradient
//! buffer, the target lane's buffer is summed into the source lane's, and
//! Adam applies once. The lanes share nothing but read-only parameters,
//! so they may run on two threads ([`Schedule`]); what is summed with
//! what never depends on that.
//!
//! The prologue reads no parameter — only the model's seed stream and the
//! samplers, graphs and resamplers fixed at [`STTransRec::new`] — so
//! [`STTransRec::train_step`] makes the *next* step's draws while this
//! step merges and applies: *two lanes → merge → apply ‖ next prologue*.
//! The draws are the ones the next step would have made itself.

use crate::interaction::{InteractionBatch, InteractionSampler};
use crate::mmd::mmd_loss;
use crate::resample::{CityResampler, MultiCityResampler};
use crate::skipgram::skipgram_loss;
use crate::ModelConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::{
    CityId, ContextBatch, CrossingCitySplit, Dataset, PoiId, TextualContextGraph, UserId,
};
use st_eval::Scorer;
use st_tensor::{
    Activation, Adam, Embedding, Gradients, InferCtx, MatrixPool, Mlp, Optimizer, PairTower,
    ParamStore, PoolStats, Tape,
};
use std::time::{Duration, Instant};

/// Negative interactions sampled per positive in `L_I` (Eq. 11–13; the
/// paper's 4, after NCF).
const NEGATIVES: usize = 4;
/// Decoupled (AdamW-style) weight decay on every parameter: small but
/// non-zero, so long runs do not memorize source interactions.
const WEIGHT_DECAY: f32 = 1e-5;
/// Gaussian kernel bandwidth `sigma` of `D(P, Q)` (fixed, Sec. 3.1.4).
const MMD_SIGMA: f32 = 1.0;
/// Exponent of the skipgram negative-word distribution (word2vec's).
const UNIGRAM_POWER: f64 = 0.75;

/// Loss values of one training step (zero for disabled terms).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepLosses {
    /// `L_I^s`: source-side interaction loss.
    pub interaction_source: f32,
    /// `L_I^t`: target-side interaction loss.
    pub interaction_target: f32,
    /// `L_Gvw^s`: source-side context-prediction loss.
    pub context_source: f32,
    /// `L_Gvw^t`: target-side context-prediction loss.
    pub context_target: f32,
    /// `D(P, Q)`: the (unweighted) MMD value.
    pub mmd: f32,
}

impl StepLosses {
    /// The weighted total of Eq. 3.
    pub fn total(&self, lambda: f32) -> f32 {
        self.interaction_source
            + self.interaction_target
            + self.context_source
            + self.context_target
            + lambda * self.mmd
    }
}

/// Term by term: the one sum of a step's losses (epochs, workers).
impl std::ops::AddAssign for StepLosses {
    fn add_assign(&mut self, l: Self) {
        self.interaction_source += l.interaction_source;
        self.interaction_target += l.interaction_target;
        self.context_source += l.context_source;
        self.context_target += l.context_target;
        self.mmd += l.mmd;
    }
}

/// Term by term: the one mean of summed losses.
impl std::ops::Div<f32> for StepLosses {
    type Output = Self;
    fn div(self, n: f32) -> Self {
        Self {
            interaction_source: self.interaction_source / n,
            interaction_target: self.interaction_target / n,
            context_source: self.context_source / n,
            context_target: self.context_target / n,
            mmd: self.mmd / n,
        }
    }
}

/// Per-epoch averaged losses.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch number, starting at 0.
    pub epoch: usize,
    /// Mean step losses.
    pub losses: StepLosses,
    /// Steps taken.
    pub(crate) steps: usize,
    /// The tape buffer pool(s) at the end of the epoch, counters since
    /// the model (or trainer) was built: in a healthy run `misses` stops
    /// moving after the first step and `pooled_bytes` stays flat.
    pub(crate) pool: PoolStats,
    /// Where the epoch's [`STTransRec::train_step`]s spent their wall
    /// time. A measurement, not a result: equality ignores it. Zero for
    /// an epoch of [`crate::ParallelTrainer`], whose steps are not
    /// `train_step`.
    pub phases: StepPhases,
}

/// Epochs are equal when their results are: the timings differ from run
/// to run and are left out.
impl PartialEq for EpochStats {
    fn eq(&self, other: &Self) -> bool {
        (self.epoch, self.losses, self.steps, self.pool)
            == (other.epoch, other.losses, other.steps, other.pool)
    }
}

/// Wall time of [`STTransRec::train_step`]'s phases on the calling
/// thread, summed over steps. The phases do not overlap there, so they
/// sum to no more than the steps' wall time. Beside them, the draws' own
/// wall time, wherever they ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepPhases {
    /// Both lanes, the target lane's thread (start and join) included.
    pub lanes: Duration,
    /// Merging the target lane's gradient into the source lane's and the
    /// optimizer's apply.
    pub apply: Duration,
    /// The next step's draws: made on this thread, or starting their
    /// thread and waiting for it after the apply. A step that finds no
    /// draws made ahead counts its own here.
    pub draws: Duration,
    /// The draws' own wall time, measured on the thread that made them.
    /// Under [`Schedule::Concurrent`] they run beside the apply, where
    /// `draws` sees only the spawn and the wait at the join, so this is
    /// no part of [`StepPhases::total`].
    pub drawing: Duration,
}

impl StepPhases {
    /// The three phases of the calling thread together.
    pub fn total(&self) -> Duration {
        self.lanes + self.apply + self.draws
    }
}

/// Where the target lane of a step runs, and where
/// [`STTransRec::train_step`] makes the next step's draws. The arithmetic
/// is the same either way — always two gradient buffers, always merged
/// target into source, always the same draws — so the schedule moves wall
/// time and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Both lanes on the calling thread, source lane first; the next
    /// step's draws after the apply.
    Inline,
    /// The target lane on a scoped thread beside the source lane; the
    /// next step's draws on a scoped thread beside the merge and apply.
    Concurrent,
}

impl Schedule {
    /// [`Schedule::Concurrent`] when the process may run on more than
    /// one CPU.
    fn for_this_process() -> Self {
        match std::thread::available_parallelism().map_or(1, |n| n.get()) {
            1 => Schedule::Inline,
            _ => Schedule::Concurrent,
        }
    }
}

/// What one lane of a step computes with.
#[derive(Debug, Default)]
struct Lane {
    grads: Gradients,
    /// Each term's tape takes every matrix it needs from the pool and
    /// gives every one back, so from the second step on the tape
    /// allocates nothing and the pool stops growing — at the widest
    /// *term* of the lane, not the sum of its terms.
    pool: MatrixPool,
}

/// The gradient buffers and tape pools of [`STTransRec::accumulate_step`],
/// kept across steps by whoever drives it ([`STTransRec::train_step`],
/// each [`crate::ParallelTrainer`] worker) so that a steady-state step
/// allocates no matrix and no gradient storage.
#[derive(Debug, Default)]
pub struct StepBuffers {
    /// Source lane, target lane. Under [`Schedule::Inline`] the target
    /// lane's tapes draw from the source lane's pool too and its own
    /// stays empty.
    lanes: [Lane; 2],
}

impl StepBuffers {
    fn over(store: &ParamStore) -> Self {
        let lane = || Lane {
            grads: Gradients::zeros_like(store),
            pool: MatrixPool::new(),
        };
        Self {
            lanes: [lane(), lane()],
        }
    }

    /// The step's gradient: after [`STTransRec::accumulate_step`], both
    /// lanes' sum.
    pub fn grads(&self) -> &Gradients {
        &self.lanes[0].grads
    }

    /// Mutable access to the step's gradient (merging workers, scaling,
    /// clipping).
    pub(crate) fn grads_mut(&mut self) -> &mut Gradients {
        &mut self.lanes[0].grads
    }

    /// Empties the step's gradient, storage retained, for the next step.
    pub fn clear(&mut self) {
        self.lanes[0].grads.clear();
    }

    /// Sums the target lane's gradient into the source lane's.
    fn merge_lanes(&mut self) {
        let [source, target] = &mut self.lanes;
        source.grads.merge_from(&mut target.grads);
    }

    /// What the tape pools have done and hold, both lanes summed.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        self.lanes.iter().map(|l| l.pool.pool_stats()).sum()
    }
}

/// One lane's share of a step's random draws, made by the prologue.
#[derive(Default)]
struct LaneDraws {
    /// The interaction batch, and the stream positioned at the first of
    /// the term's dropout draws.
    interaction: Option<(InteractionBatch, SmallRng)>,
    context: Option<ContextBatch>,
    /// Resampled source- and target-city POI rows (source lane only).
    mmd: Option<(Vec<usize>, Vec<usize>)>,
}

/// One lane's loss values (zero for terms it does not run).
#[derive(Default)]
struct LaneLosses {
    interaction: f32,
    context: f32,
    mmd: f32,
}

/// Everything a step's random draws are made from besides the stream:
/// the samplers, graphs and resamplers fixed at [`STTransRec::new`], and
/// the batch sizes. No parameter is among them, so one step's draws can
/// be made while another step's update is applied.
struct Prologue {
    /// Source side, target side.
    samplers: [InteractionSampler; 2],
    /// Source side, target side; `None` without the text loss.
    graphs: [Option<TextualContextGraph>; 2],
    source_resampler: Option<MultiCityResampler>,
    target_resampler: Option<CityResampler>,
    batch_size: usize,
    context_batch: usize,
    context_negatives: usize,
    mmd_batch: usize,
    /// Dropout draws one interaction-batch row takes: the width of every
    /// tower layer that has a mask (the embedding layer and each hidden
    /// layer), or 0 without dropout.
    dropout_draws_per_row: usize,
}

impl Prologue {
    /// Every random draw of one step, from one stream, in the order a
    /// step that ran its five terms one after another on `rng` would make
    /// them — interaction batch and dropout masks, source then target;
    /// context batches, source then target; MMD batches. Which batches a
    /// model sees decides what it learns (a stream per term trains a
    /// measurably different model), so the lanes are handed their draws
    /// instead of streams of their own.
    ///
    /// The draws replace what `lanes` held, in its storage: draws kept
    /// across steps and refilled allocate nothing after the first step —
    /// which also keeps a thread that refills them out of the allocator.
    fn draw_step(&self, dataset: &Dataset, rng: &mut SmallRng, lanes: &mut [LaneDraws; 2]) {
        for (sampler, lane) in self.samplers.iter().zip(lanes.iter_mut()) {
            if sampler.is_empty() {
                continue;
            }
            let (batch, masks) = lane
                .interaction
                .get_or_insert_with(|| (InteractionBatch::default(), rng.clone()));
            sampler.sample_batch_into(dataset, self.batch_size, NEGATIVES, rng, batch);
            // The lane draws the term's masks from a copy of the stream;
            // this one jumps over them.
            *masks = rng.clone();
            self.skip_dropout_draws(batch.len(), rng);
        }
        for (graph, lane) in self.graphs.iter().zip(lanes.iter_mut()) {
            let Some(graph) = graph else { continue };
            let batch = lane.context.get_or_insert_with(ContextBatch::default);
            graph.sample_batch_into(self.context_batch, self.context_negatives, rng, batch);
        }
        if let (Some(src), Some(tgt)) = (&self.source_resampler, &self.target_resampler) {
            let (src_rows, tgt_rows) = lanes[0].mmd.get_or_insert_with(Default::default);
            src_rows.clear();
            src_rows.extend((0..self.mmd_batch).map(|_| src.sample_poi(rng).idx()));
            tgt_rows.clear();
            tgt_rows.extend((0..self.mmd_batch).map(|_| tgt.sample_poi(rng).idx()));
        }
    }

    /// Advances `rng` by the draws [`STTransRec::interaction_loss`] makes
    /// on a batch of `rows` pairs: [`Tape::dropout`] draws one `u64` per
    /// element of every masked layer.
    fn skip_dropout_draws(&self, rows: usize, rng: &mut SmallRng) {
        rng.advance((rows * self.dropout_draws_per_row) as u64);
    }
}

/// The trained model.
pub struct STTransRec {
    config: ModelConfig,
    store: ParamStore,
    user_emb: Embedding,
    poi_emb: Embedding,
    word_emb: Embedding,
    tower: Mlp,
    prologue: Prologue,
    optimizer: Adam,
    rng: SmallRng,
    steps_per_epoch: usize,
    history: Vec<EpochStats>,
    /// Carried across [`STTransRec::train_step`] calls; the gradient is
    /// cleared (storage retained) after each apply.
    buffers: StepBuffers,
    /// How [`STTransRec::train_step`] runs its lanes; read once, here.
    schedule: Schedule,
    /// `rng` as it is once the next step has taken its seed, and that
    /// step's draws, made by [`STTransRec::train_step`] beside its apply
    /// in the storage of the draws it had just trained on: the next
    /// `train_step` commits the stream and uses the draws. Anything else
    /// that reads `rng` drops them uncommitted first.
    ahead: Option<(SmallRng, [LaneDraws; 2])>,
    /// [`STTransRec::train_step`]'s timers since the epoch began.
    phases: StepPhases,
}

impl STTransRec {
    /// Builds the model over a training split.
    ///
    /// All data-dependent structures — context graphs per side,
    /// interaction samplers per side, Algorithm 1 segmentations and the
    /// density resamplers — are derived from `split.train` only.
    pub fn new(dataset: &Dataset, split: &CrossingCitySplit, config: ModelConfig) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let target_city = split.target_city;
        let source_cities: Vec<CityId> = dataset
            .cities()
            .iter()
            .map(|c| c.id)
            .filter(|&c| c != target_city)
            .collect();
        assert!(!source_cities.is_empty(), "need at least one source city");

        // Parameters.
        let mut store = ParamStore::new();
        let dim = config.embedding_dim;
        let user_emb = Embedding::new(&mut store, "user_emb", dataset.num_users(), dim, &mut rng);
        let poi_emb = Embedding::new(&mut store, "poi_emb", dataset.num_pois(), dim, &mut rng);
        let word_emb = Embedding::new(
            &mut store,
            "word_emb",
            dataset.vocab().len().max(1),
            dim,
            &mut rng,
        );
        let tower = Mlp::new(
            &mut store,
            "tower",
            &config.tower_widths(),
            Activation::Relu,
            config.dropout,
            &mut rng,
        );

        // Context graphs per side (Def. 2), when the text loss is active.
        let (source_graph, target_graph) = if config.use_text() {
            let src_pois: Vec<PoiId> = source_cities
                .iter()
                .flat_map(|&c| dataset.pois_in_city(c).iter().copied())
                .collect();
            let tgt_pois = dataset.pois_in_city(target_city).to_vec();
            (
                Some(TextualContextGraph::build(
                    dataset,
                    &src_pois,
                    UNIGRAM_POWER,
                )),
                Some(TextualContextGraph::build(
                    dataset,
                    &tgt_pois,
                    UNIGRAM_POWER,
                )),
            )
        } else {
            (None, None)
        };

        // Interaction samplers per side.
        let source_sampler = InteractionSampler::new(dataset, &split.train, &source_cities);
        let target_sampler = InteractionSampler::new(dataset, &split.train, &[target_city]);

        // Density resamplers feeding the MMD layer.
        let (source_resampler, target_resampler) = if config.use_mmd() {
            let per_city: Vec<CityResampler> = source_cities
                .iter()
                .map(|&c| {
                    CityResampler::build(
                        dataset,
                        &split.train,
                        c,
                        config.grid_n,
                        config.delta,
                        config.alpha,
                        &mut rng,
                    )
                })
                .collect();
            let tgt = CityResampler::build(
                dataset,
                &split.train,
                target_city,
                config.grid_n,
                config.delta,
                config.alpha,
                &mut rng,
            );
            (
                Some(MultiCityResampler::new(per_city)),
                tgt.is_usable().then_some(tgt),
            )
        } else {
            (None, None)
        };

        let steps_per_epoch = (split.train.len() / config.batch_size).max(1);
        // Lazy Adam over row-sparse gradients: a step stores, merges and
        // updates only the embedding rows it touched.
        let optimizer = Adam::new(config.learning_rate).with_weight_decay(WEIGHT_DECAY);
        let buffers = StepBuffers::over(&store);
        let prologue = Prologue {
            samplers: [source_sampler, target_sampler],
            graphs: [source_graph, target_graph],
            source_resampler,
            target_resampler,
            batch_size: config.batch_size,
            context_batch: config.context_batch,
            context_negatives: config.context_negatives,
            mmd_batch: config.mmd_batch,
            dropout_draws_per_row: match config.dropout > 0.0 {
                true => config.tower_widths().iter().rev().skip(1).sum(),
                false => 0,
            },
        };

        Self {
            config,
            store,
            user_emb,
            poi_emb,
            word_emb,
            tower,
            prologue,
            optimizer,
            rng,
            steps_per_epoch,
            history: Vec::new(),
            buffers,
            schedule: Schedule::for_this_process(),
            ahead: None,
            phases: StepPhases::default(),
        }
    }

    /// A fresh row-sparse gradient buffer over the model's parameters.
    pub fn new_grad_buffer(&self) -> Gradients {
        Gradients::zeros_like(&self.store)
    }

    /// Fresh buffers for [`STTransRec::accumulate_step`] over the model's
    /// parameters (row-sparse gradients, empty pools).
    pub fn new_step_buffers(&self) -> StepBuffers {
        StepBuffers::over(&self.store)
    }

    /// The model with dense gradient buffers and the dense (non-lazy)
    /// Adam walk: the oracle the row-sparse, lazy training path is held
    /// to.
    #[cfg(test)]
    fn new_dense_oracle(dataset: &Dataset, split: &CrossingCitySplit, config: ModelConfig) -> Self {
        let mut model = Self::new(dataset, split, config);
        for lane in &mut model.buffers.lanes {
            lane.grads = Gradients::dense_like(&model.store);
        }
        model.optimizer = Adam::new(model.config.learning_rate)
            .with_weight_decay(WEIGHT_DECAY)
            .with_lazy(false);
        model
    }

    /// The configuration the model was built with.
    pub(crate) fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter store (read access, e.g. for embedding inspection).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// What the carried tape buffer pools have done and hold, both lanes
    /// summed (see [`PoolStats`]) — an observation, not a setting.
    pub fn pool_stats(&self) -> PoolStats {
        self.buffers.pool_stats()
    }

    /// Number of optimizer steps per epoch.
    pub fn steps_per_epoch(&self) -> usize {
        self.steps_per_epoch
    }

    /// The embedding vector of a POI (current parameters).
    pub fn poi_embedding(&self, poi: PoiId) -> &[f32] {
        self.store.get(self.poi_emb.table()).row(poi.idx())
    }

    /// Computes the gradient of one joint step into `buffers` (read it
    /// with [`StepBuffers::grads`]), returning the loss values. Does NOT
    /// apply the optimizer, and does not clear `buffers` first.
    ///
    /// The prologue makes every random draw of the step from `rng`, on
    /// the calling thread, in one fixed order; the source lane then runs
    /// `L_I^s`, `L_Gvw^s` and `lambda * D`, the target lane `L_I^t` and
    /// `L_Gvw^t`, each into its own gradient buffer, and the target
    /// lane's is summed into the source lane's. `schedule` says where the
    /// target lane runs and changes no bit of the result.
    pub fn accumulate_step(
        &self,
        dataset: &Dataset,
        rng: &mut SmallRng,
        buffers: &mut StepBuffers,
        schedule: Schedule,
    ) -> StepLosses {
        let mut draws = Default::default();
        self.prologue.draw_step(dataset, rng, &mut draws);
        let losses = self.run_lanes(&draws, buffers, schedule);
        buffers.merge_lanes();
        losses
    }

    /// Runs the two lanes of a step on its draws, each into its own
    /// gradient buffer in `buffers`, left unmerged.
    fn run_lanes(
        &self,
        [source_draws, target_draws]: &[LaneDraws; 2],
        buffers: &mut StepBuffers,
        schedule: Schedule,
    ) -> StepLosses {
        let [source, target] = &mut buffers.lanes;
        let (s, t) = match schedule {
            Schedule::Inline => (
                self.run_lane(source_draws, &mut source.grads, &mut source.pool),
                self.run_lane(target_draws, &mut target.grads, &mut source.pool),
            ),
            Schedule::Concurrent => std::thread::scope(|scope| {
                let target_lane = scope
                    .spawn(|| self.run_lane(target_draws, &mut target.grads, &mut target.pool));
                let s = self.run_lane(source_draws, &mut source.grads, &mut source.pool);
                (s, target_lane.join().expect("target lane panicked"))
            }),
        };
        step_losses(s, t)
    }

    /// [`STTransRec::accumulate_step`] under [`Schedule::Inline`] for a
    /// caller that holds one gradient buffer and one pool: both lanes'
    /// tapes draw from `pool`, the step's gradient is summed into
    /// `grads`, and the target lane's gradient buffer is made per call —
    /// an allocation a [`StepBuffers`] kept across steps does not make.
    /// Same bits as `accumulate_step`.
    pub fn accumulate_step_with_pool(
        &self,
        dataset: &Dataset,
        grads: &mut Gradients,
        rng: &mut SmallRng,
        pool: &mut MatrixPool,
    ) -> StepLosses {
        let mut draws = Default::default();
        self.prologue.draw_step(dataset, rng, &mut draws);
        let [source_draws, target_draws] = &draws;
        let mut target_grads = self.new_grad_buffer();
        let s = self.run_lane(source_draws, grads, pool);
        let t = self.run_lane(target_draws, &mut target_grads, pool);
        grads.merge_from(&mut target_grads);
        step_losses(s, t)
    }

    /// Runs one lane's terms in order — interaction, context, MMD — one
    /// tape per term: forward, backward into `grads`, buffers back to
    /// `pool`.
    fn run_lane(
        &self,
        draws: &LaneDraws,
        grads: &mut Gradients,
        pool: &mut MatrixPool,
    ) -> LaneLosses {
        let cfg = &self.config;
        let mut losses = LaneLosses::default();
        if let Some((batch, masks)) = &draws.interaction {
            let mut tape = Tape::with_pool(&self.store, std::mem::take(pool));
            let loss = self.interaction_loss(&mut tape, batch, &mut masks.clone());
            losses.interaction = finish_term(tape, loss, 1.0, grads, pool);
        }
        if let Some(batch) = &draws.context {
            let mut tape = Tape::with_pool(&self.store, std::mem::take(pool));
            let loss = skipgram_loss(
                &mut tape,
                self.poi_emb.table(),
                self.word_emb.table(),
                batch,
            );
            losses.context = finish_term(tape, loss, 1.0, grads, pool);
        }
        // lambda * D(P, Q) over resampled POI embedding batches.
        if let Some((src_rows, tgt_rows)) = &draws.mmd {
            let mut tape = Tape::with_pool(&self.store, std::mem::take(pool));
            let se = tape.gather_param(self.poi_emb.table(), src_rows);
            let te = tape.gather_param(self.poi_emb.table(), tgt_rows);
            let loss = mmd_loss(&mut tape, se, te, MMD_SIGMA, cfg.mmd_estimator);
            losses.mmd = finish_term(tape, loss, cfg.lambda, grads, pool);
        }
        losses
    }

    /// One optimizer step over the joint objective, seeded from the
    /// model's stream: the step's two lanes, then the merge and apply
    /// beside the *next* step's draws, which that step uses instead of
    /// drawing them itself. With more than one CPU available to the
    /// process the target lane and the next draws each get a scoped
    /// thread; with one, everything runs on this thread, the draws after
    /// the apply. The same parameters and losses either way, and the same
    /// as [`STTransRec::accumulate_step`] + [`STTransRec::apply`] on
    /// `SmallRng::seed_from_u64(stream.gen())` per step.
    ///
    /// The next step's draws come from this call's `dataset`: every call
    /// must pass the dataset the model was built on.
    pub fn train_step(&mut self, dataset: &Dataset) -> StepLosses {
        debug_assert!(
            dataset.num_users() == self.store.get(self.user_emb.table()).rows()
                && dataset.num_pois() == self.store.get(self.poi_emb.table()).rows(),
            "train_step on a dataset other than the model's"
        );
        let mut draws = match self.ahead.take() {
            Some((stream, draws)) => {
                self.rng = stream;
                draws
            }
            None => {
                let started = Instant::now();
                let mut draws = Default::default();
                let mut rng = SmallRng::seed_from_u64(self.rng.gen());
                self.prologue.draw_step(dataset, &mut rng, &mut draws);
                let drawn = started.elapsed();
                self.phases.draws += drawn;
                self.phases.drawing += drawn;
                draws
            }
        };
        // The lanes need &self while the buffers need &mut, so they are
        // moved out for the step and put back cleared.
        let mut buffers = std::mem::take(&mut self.buffers);
        let started = Instant::now();
        let losses = self.run_lanes(&draws, &mut buffers, self.schedule);
        let lanes = started.elapsed();
        // The next step's seed, taken from a copy of the stream that step
        // commits; its draws overwrite this step's, which the lanes are
        // done with.
        let mut stream = self.rng.clone();
        let mut rng = SmallRng::seed_from_u64(stream.gen());
        let mut draw_ahead = || {
            let started = Instant::now();
            self.prologue.draw_step(dataset, &mut rng, &mut draws);
            started.elapsed()
        };
        let mut apply = || {
            buffers.merge_lanes();
            self.optimizer.step(&mut self.store, buffers.grads());
        };
        let (apply, draws_ahead, drawing) = match self.schedule {
            Schedule::Inline => {
                let started = Instant::now();
                apply();
                let applied = Instant::now();
                let drawing = draw_ahead();
                (applied - started, applied.elapsed(), drawing)
            }
            Schedule::Concurrent => std::thread::scope(|scope| {
                let started = Instant::now();
                let drawing = scope.spawn(draw_ahead);
                let spawned = Instant::now();
                apply();
                let applied = Instant::now();
                let drawing = drawing.join().expect("the next step's draws panicked");
                (
                    applied - spawned,
                    (spawned - started) + applied.elapsed(),
                    drawing,
                )
            }),
        };
        self.phases.lanes += lanes;
        self.phases.apply += apply;
        self.phases.draws += draws_ahead;
        self.phases.drawing += drawing;
        debug_assert!(!self.store.has_non_finite(), "parameters diverged");
        self.ahead = Some((stream, draws));
        buffers.clear();
        self.buffers = buffers;
        losses
    }

    /// One incremental optimizer step over an externally assembled
    /// interaction batch — the micro-batch path of the `st-online`
    /// pipeline, which trains on streamed check-ins instead of sampling
    /// from a static split.
    ///
    /// Only the interaction-tower objective runs (`L_I` of Eq. 13): the
    /// text and MMD terms need the full offline graph/resampler context
    /// and are already baked into the warm-started parameters. The step
    /// touches exactly the user/POI embedding rows in `batch` plus the
    /// tower (row-sparse gradients, lazy Adam) — per-event cost scales
    /// with the micro-batch, not the tables. Returns the batch BCE loss.
    ///
    /// # Panics
    /// Panics on an empty batch.
    pub fn train_on_interactions(&mut self, batch: &InteractionBatch) -> f32 {
        assert!(!batch.is_empty(), "empty incremental batch");
        let mut buffers = std::mem::take(&mut self.buffers);
        let Lane { grads, pool } = &mut buffers.lanes[0];
        // Draws made ahead for a `train_step` are dropped uncommitted:
        // this step takes the seed they were made from, and the next
        // `train_step` draws its own.
        self.ahead = None;
        let mut rng = SmallRng::seed_from_u64(self.rng.gen());
        let mut tape = Tape::with_pool(&self.store, std::mem::take(pool));
        let loss = self.interaction_loss(&mut tape, batch, &mut rng);
        let loss_value = finish_term(tape, loss, 1.0, grads, pool);
        self.apply(grads);
        buffers.clear();
        self.buffers = buffers;
        loss_value
    }

    /// Applies externally computed gradients (used by the parallel trainer).
    pub fn apply(&mut self, grads: &Gradients) {
        self.optimizer.step(&mut self.store, grads);
        debug_assert!(!self.store.has_non_finite(), "parameters diverged");
    }

    /// One epoch: [`STTransRec::steps_per_epoch`] joint steps.
    pub fn train_epoch(&mut self, dataset: &Dataset) -> EpochStats {
        let mut sum = StepLosses::default();
        let steps = self.steps_per_epoch;
        self.phases = StepPhases::default();
        for _ in 0..steps {
            sum += self.train_step(dataset);
        }
        let phases = std::mem::take(&mut self.phases);
        self.record_epoch(sum, steps, self.pool_stats(), phases)
    }

    /// Appends to the history the epoch of `steps` steps whose losses
    /// summed to `sum`, numbered by its place there.
    pub(crate) fn record_epoch(
        &mut self,
        sum: StepLosses,
        steps: usize,
        pool: PoolStats,
        phases: StepPhases,
    ) -> EpochStats {
        let stats = EpochStats {
            epoch: self.history.len(),
            losses: sum / steps as f32,
            steps,
            pool,
            phases,
        };
        self.history.push(stats.clone());
        stats
    }

    /// Trains for `config.epochs` epochs, returning the history.
    pub fn fit(&mut self, dataset: &Dataset) -> Vec<EpochStats> {
        for _ in 0..self.config.epochs {
            self.train_epoch(dataset);
        }
        self.history.clone()
    }

    /// Builds the interaction tower loss for a training batch on `tape`
    /// (dropout active when configured; inference goes through
    /// [`Scorer::score_batch`], which never touches a tape).
    fn interaction_loss(
        &self,
        tape: &mut Tape<'_>,
        batch: &InteractionBatch,
        rng: &mut SmallRng,
    ) -> st_tensor::Var {
        // Paper: dropout on the embedding layer and each hidden layer.
        let x = tape.gather_concat(
            self.user_emb.table(),
            &batch.users,
            self.poi_emb.table(),
            &batch.pois,
            self.config.dropout,
            rng,
        );
        let logits = self.tower.forward_train(tape, x, rng);
        tape.bce_with_logits(logits, &batch.labels)
    }

    /// The interaction tower's current weights packed for
    /// [`InferCtx::score_run`]. Packing copies ~11k floats for the
    /// paper's tower — noise beside scoring a catalog, so the live model
    /// repacks per call instead of tracking optimizer steps.
    pub(crate) fn pair_tower(&self) -> PairTower {
        let layers = self.tower.layers().iter();
        PairTower::new(
            self.user_emb.dim(),
            layers.map(|l| (self.store.get(l.weight()), self.store.get(l.bias()))),
            self.tower.activation(),
        )
    }

    /// Eq. 12 for `(users[i], pois[i])` pairs evaluated on the autodiff
    /// tape — the differential-testing oracle the tape-free path is held
    /// bit-identical to.
    #[cfg(test)]
    pub(crate) fn predict_tape(&self, users: &[UserId], pois: &[PoiId]) -> Vec<f32> {
        assert_eq!(users.len(), pois.len(), "pair slices must be parallel");
        let users: Vec<usize> = users.iter().map(|u| u.idx()).collect();
        let pois: Vec<usize> = pois.iter().map(|p| p.idx()).collect();
        let mut tape = Tape::new(&self.store);
        let u = tape.gather_param(self.user_emb.table(), &users);
        let p = tape.gather_param(self.poi_emb.table(), &pois);
        let x = tape.concat_cols(u, p);
        let logits = self.tower.forward_inference(&mut tape, x);
        let probs = tape.sigmoid(logits);
        tape.value(probs).as_slice().to_vec()
    }

    /// Captures a frozen [`crate::ModelSnapshot`] of the current
    /// parameters for tape-free serving.
    pub fn snapshot(&self) -> crate::ModelSnapshot {
        crate::ModelSnapshot::capture(self)
    }

    pub(crate) fn user_emb(&self) -> &Embedding {
        &self.user_emb
    }

    pub(crate) fn poi_emb(&self) -> &Embedding {
        &self.poi_emb
    }

    /// Saves all trained parameters (embedding tables + tower weights) to
    /// a writer in the `st-tensor` checkpoint container, tables as f32.
    pub fn save<W: std::io::Write>(&self, out: W) -> std::io::Result<()> {
        st_tensor::save_params_v2(&self.store, st_tensor::StorageEncoding::F32, out)
    }

    /// Restores parameters from a checkpoint written by [`STTransRec::save`].
    ///
    /// The checkpoint must come from a model with the same architecture
    /// (same dataset sizes and config); mismatches are rejected. Every
    /// failure mode — truncated streams, mangled headers, shape
    /// mismatches — surfaces as a clean [`std::io::Error`] and leaves the
    /// current parameters untouched, so a bad hot-reload on a serving
    /// path is rejected while the old model keeps answering.
    pub fn restore<R: std::io::Read>(&mut self, input: R) -> std::io::Result<()> {
        let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let loaded = st_tensor::load_params(input).map_err(std::io::Error::from)?;
        if loaded.len() != self.store.len() {
            return Err(corrupt(format!(
                "parameter count mismatch: checkpoint {} vs model {}",
                loaded.len(),
                self.store.len()
            )));
        }
        for ((_, name, value), (_, l_name, l_value)) in self.store.iter().zip(loaded.iter()) {
            if name != l_name || value.shape() != l_value.shape() {
                return Err(corrupt(format!(
                    "parameter '{name}' {:?} does not match checkpoint '{l_name}' {:?}",
                    value.shape(),
                    l_value.shape()
                )));
            }
        }
        // Shapes verified; copy values in.
        let values: Vec<st_tensor::Matrix> = loaded.iter().map(|(_, _, v)| v.clone()).collect();
        let ids: Vec<_> = self.store.ids().collect();
        for (id, value) in ids.into_iter().zip(values) {
            *self.store.get_mut(id) = value;
        }
        Ok(())
    }
}

/// Closes one loss term's tape: reads the loss value, differentiates
/// `weight * loss` into `grads`, and hands the tape's buffers back to
/// `pool`.
fn finish_term(
    tape: Tape<'_>,
    loss: st_tensor::Var,
    weight: f32,
    grads: &mut Gradients,
    pool: &mut MatrixPool,
) -> f32 {
    let value = tape.value(loss).item();
    tape.backward_scaled(loss, weight, grads);
    *pool = tape.into_pool();
    value
}

/// A step's losses, assembled from its two lanes'.
fn step_losses(source: LaneLosses, target: LaneLosses) -> StepLosses {
    StepLosses {
        interaction_source: source.interaction,
        interaction_target: target.interaction,
        context_source: source.context,
        context_target: target.context,
        mmd: source.mmd,
    }
}

/// Eq. 12's `sigma(W^T e_L)` at inference over the live parameters: one
/// tape-free [`InferCtx::score_run`], the call a [`crate::ModelSnapshot`]
/// scores through — no graph nodes, no backward closures, no RNG.
impl Scorer for STTransRec {
    fn score_batch(&self, user: UserId, pois: &[PoiId]) -> Vec<f32> {
        let mut scores = Vec::with_capacity(pois.len());
        InferCtx::new().score_run(
            &self.pair_tower(),
            self.store.get(self.user_emb.table()),
            user.idx(),
            self.store.get(self.poi_emb.table()),
            pois.iter().map(|p| p.idx()),
            &mut scores,
        );
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Variant;
    use st_data::synth::{generate, SynthConfig};

    fn setup() -> (Dataset, CrossingCitySplit) {
        let cfg = SynthConfig::tiny();
        let (d, _) = generate(&cfg);
        let split = CrossingCitySplit::build(&d, CityId(cfg.target_city as u16));
        (d, split)
    }

    #[test]
    fn train_step_times_its_phases_under_both_schedules() {
        let (d, split) = setup();
        for schedule in [Schedule::Inline, Schedule::Concurrent] {
            let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
            m.schedule = schedule;
            for epoch in 0..2 {
                let started = Instant::now();
                let stats = m.train_epoch(&d);
                let wall = started.elapsed();
                let p = stats.phases;
                let at = format!("{schedule:?}, epoch {epoch}: {p:?}");
                assert!(p.lanes > Duration::ZERO, "{at}");
                assert!(p.apply > Duration::ZERO, "{at}");
                assert!(p.draws > Duration::ZERO, "{at}");
                assert!(p.drawing > Duration::ZERO, "{at}");
                assert!(p.total() <= wall, "{at} against {wall:?}");
                // The timers are no part of the result.
                let untimed = EpochStats {
                    phases: StepPhases::default(),
                    ..stats.clone()
                };
                assert_eq!(untimed, stats);
            }
        }
    }

    #[test]
    fn builds_with_all_components() {
        let (d, split) = setup();
        let m = STTransRec::new(&d, &split, ModelConfig::test_small());
        assert!(m.prologue.graphs.iter().all(Option::is_some));
        assert!(m.prologue.source_resampler.is_some());
        assert!(m.steps_per_epoch() >= 1);
        assert_eq!(m.poi_embedding(PoiId(0)).len(), 16);
        assert_eq!(m.store.get(m.user_emb.table()).cols(), 16);
    }

    #[test]
    fn variants_disable_their_components() {
        let (d, split) = setup();
        let m1 = STTransRec::new(
            &d,
            &split,
            ModelConfig::test_small().with_variant(Variant::NoMmd),
        );
        assert!(m1.prologue.source_resampler.is_none());
        assert!(m1.prologue.graphs[0].is_some());

        let m2 = STTransRec::new(
            &d,
            &split,
            ModelConfig::test_small().with_variant(Variant::NoText),
        );
        assert!(m2.prologue.graphs[0].is_none());
        assert!(m2.prologue.source_resampler.is_some());

        let m3 = STTransRec::new(
            &d,
            &split,
            ModelConfig::test_small().with_variant(Variant::NoResample),
        );
        assert_eq!(m3.config().alpha, 0.0);
    }

    #[test]
    fn single_step_produces_all_loss_terms() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let l = m.train_step(&d);
        assert!(l.interaction_source > 0.0 && l.interaction_source.is_finite());
        assert!(l.interaction_target > 0.0);
        assert!(l.context_source > 0.0);
        assert!(l.context_target > 0.0);
        assert!(l.mmd.is_finite());
        assert!(l.total(1.0).is_finite());
    }

    #[test]
    fn variant_steps_zero_their_terms() {
        let (d, split) = setup();
        let mut m = STTransRec::new(
            &d,
            &split,
            ModelConfig::test_small().with_variant(Variant::NoText),
        );
        let l = m.train_step(&d);
        assert_eq!(l.context_source, 0.0);
        assert_eq!(l.context_target, 0.0);
        assert!(l.interaction_source > 0.0);

        let mut m = STTransRec::new(
            &d,
            &split,
            ModelConfig::test_small().with_variant(Variant::NoMmd),
        );
        let l = m.train_step(&d);
        assert_eq!(l.mmd, 0.0);
    }

    /// The prologue jumps the stream over an interaction term's masks by
    /// count (`SmallRng::advance`); the count must be the draws the term
    /// makes, whatever the tower's depth.
    #[test]
    fn prologue_jumps_over_exactly_the_draws_a_term_makes() {
        let (d, split) = setup();
        for config in [
            ModelConfig::test_small(),
            ModelConfig::foursquare(),
            ModelConfig {
                depth: 1,
                ..ModelConfig::foursquare()
            },
            ModelConfig {
                depth: 4,
                ..ModelConfig::yelp()
            },
        ] {
            let m = STTransRec::new(&d, &split, config);
            let mut rng = SmallRng::seed_from_u64(9);
            let batch = m.prologue.samplers[0].sample_batch(&d, 7, 2, &mut rng);
            let mut masks = rng.clone();
            m.prologue.skip_dropout_draws(batch.len(), &mut rng);
            let mut tape = Tape::new(&m.store);
            m.interaction_loss(&mut tape, &batch, &mut masks);
            assert_eq!(
                masks.gen::<u64>(),
                rng.gen::<u64>(),
                "dropout {} tower {:?}",
                m.config.dropout,
                m.config.tower_widths()
            );
        }
    }

    #[test]
    fn training_reduces_interaction_loss() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let history = m.fit(&d);
        assert_eq!(history.len(), 3);
        let first = history.first().unwrap().losses;
        let last = history.last().unwrap().losses;
        let f = first.interaction_source + first.interaction_target;
        let l = last.interaction_source + last.interaction_target;
        assert!(l < f, "interaction loss did not drop: {f} -> {l}");
        assert!(!m.params().has_non_finite());
    }

    #[test]
    fn training_reduces_mmd() {
        let (d, split) = setup();
        let mut cfg = ModelConfig::test_small();
        cfg.lambda = 2.0;
        cfg.epochs = 4;
        let mut m = STTransRec::new(&d, &split, cfg);
        let history = m.fit(&d);
        let first = history.first().unwrap().losses.mmd;
        let last = history.last().unwrap().losses.mmd;
        assert!(
            last < first + 0.02,
            "MMD should not grow under the transfer loss: {first} -> {last}"
        );
    }

    /// The incremental online step: repeated steps on one fixed batch
    /// must descend, leave untouched embedding rows bit-identical (the
    /// row-sparse + lazy-Adam contract), and stay deterministic.
    #[test]
    fn incremental_interaction_steps_descend_and_stay_sparse() {
        use crate::interaction::InteractionBatch;
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let batch = InteractionBatch {
            users: vec![0, 0, 1, 1, 2, 2],
            pois: vec![0, 1, 2, 3, 4, 5],
            labels: vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        };
        let user_row = |m: &STTransRec| m.store.get(m.user_emb.table()).row(7).to_vec();
        let untouched_user = user_row(&m);
        let first = m.train_on_interactions(&batch);
        let mut last = first;
        for _ in 0..30 {
            last = m.train_on_interactions(&batch);
        }
        assert!(first.is_finite() && first > 0.0);
        assert!(
            last < first,
            "incremental loss did not descend: {first} -> {last}"
        );
        assert_eq!(
            user_row(&m),
            untouched_user,
            "lazy sparse step touched an un-batched user row"
        );
        assert!(!m.params().has_non_finite());

        // Determinism: a same-seeded model walked through the same batch
        // sequence lands on identical parameters.
        let mut twin = STTransRec::new(&d, &split, ModelConfig::test_small());
        for _ in 0..31 {
            twin.train_on_interactions(&batch);
        }
        let pois = d.pois_in_city(split.target_city);
        assert_eq!(
            m.score_batch(UserId(0), pois),
            twin.score_batch(UserId(0), pois)
        );
    }

    #[test]
    fn scorer_outputs_probabilities() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let pois = d.pois_in_city(split.target_city);
        let scores = m.score_batch(UserId(0), pois);
        assert_eq!(scores.len(), pois.len());
        assert!(scores
            .iter()
            .all(|s| (0.0..=1.0).contains(s) && s.is_finite()));
    }

    #[test]
    fn tape_free_scoring_matches_tape_oracle_bitwise() {
        let (d, split) = setup();
        for variant in [Variant::Full, Variant::NoMmd, Variant::NoText] {
            let mut m =
                STTransRec::new(&d, &split, ModelConfig::test_small().with_variant(variant));
            m.train_epoch(&d);
            let pois = d.pois_in_city(split.target_city);
            assert_eq!(
                m.score_batch(UserId(2), pois),
                m.predict_tape(&vec![UserId(2); pois.len()], pois),
                "executors diverged for {variant:?}"
            );
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let pois = d.pois_in_city(split.target_city);
        let a = m.score_batch(UserId(3), pois);
        let b = m.score_batch(UserId(3), pois);
        assert_eq!(a, b);
    }

    #[test]
    fn save_restore_roundtrips_scores() {
        let (d, split) = setup();
        let mut m = STTransRec::new(&d, &split, ModelConfig::test_small());
        m.train_epoch(&d);
        let pois = d.pois_in_city(split.target_city);
        let before = m.score_batch(UserId(1), pois);

        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        // Wreck the weights, then restore.
        let mut wrecked = STTransRec::new(&d, &split, ModelConfig::test_small());
        wrecked.restore(buf.as_slice()).unwrap();
        assert_eq!(wrecked.score_batch(UserId(1), pois), before);
    }

    #[test]
    fn restore_rejects_mismatched_architecture() {
        let (d, split) = setup();
        let m = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let config = ModelConfig {
            embedding_dim: 8,
            ..ModelConfig::test_small()
        };
        let mut other = STTransRec::new(&d, &split, config);
        assert!(other.restore(buf.as_slice()).is_err());
    }

    #[test]
    fn seeded_models_reproduce_exactly() {
        let (d, split) = setup();
        let mut a = STTransRec::new(&d, &split, ModelConfig::test_small());
        let mut b = STTransRec::new(&d, &split, ModelConfig::test_small());
        let la = a.train_step(&d);
        let lb = b.train_step(&d);
        assert_eq!(la, lb);
    }

    /// Convergence parity between the lazy sparse training path and the
    /// dense oracle (same seeds, same batches): lazy Adam skips the dense
    /// path's momentum-tail updates on untouched embedding rows, so the
    /// paths are not bit-identical — but they must descend together.
    #[test]
    fn lazy_sparse_training_converges_like_dense_oracle() {
        let (d, split) = setup();
        let run = |sparse: bool| -> (f32, f32) {
            let cfg = ModelConfig::test_small();
            let mut m = if sparse {
                STTransRec::new(&d, &split, cfg)
            } else {
                STTransRec::new_dense_oracle(&d, &split, cfg)
            };
            // The very first step's losses are computed before any update,
            // so the two paths must agree exactly there.
            let step0 = m.train_step(&d);
            let mut last = m.train_epoch(&d).losses;
            for _ in 0..2 {
                last = m.train_epoch(&d).losses;
            }
            assert!(!m.params().has_non_finite());
            (
                step0.interaction_source + step0.interaction_target,
                last.interaction_source + last.interaction_target,
            )
        };
        let (lazy_first, lazy_last) = run(true);
        let (dense_first, dense_last) = run(false);
        assert!(lazy_last < lazy_first, "lazy path did not descend");
        assert!(dense_last < dense_first, "dense path did not descend");
        // Same start (identical seeds/batches) and comparable end.
        assert_eq!(lazy_first, dense_first, "paths start apart");
        let rel = (lazy_last - dense_last).abs() / dense_last.max(1e-6);
        assert!(
            rel < 0.15,
            "final losses diverged: lazy {lazy_last} vs dense {dense_last}"
        );
    }
}
