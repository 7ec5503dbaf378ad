//! Hyperparameter configuration (Sec. 4.1, "Implementation Details") and
//! the ablation variants of Sec. 4.2.2.

/// Which MMD estimator the transfer layer uses (Sec. 3.2 argues for the
/// linear-time statistic of \[16\] to reach O(D) per iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmdEstimator {
    /// Full quadratic U-statistic over the batch (Eq. 10).
    Quadratic,
    /// Linear-time paired statistic (Gretton et al. \[15\], Sec. 6).
    Linear,
}

/// Ablation variants of ST-TransRec (Sec. 4.1, "Baselines").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full model.
    Full,
    /// ST-TransRec-1: MMD loss removed (`lambda = 0`).
    NoMmd,
    /// ST-TransRec-2: textual context prediction removed.
    NoText,
    /// ST-TransRec-3: density-based resampling removed (`alpha = 0`).
    NoResample,
}

/// All hyperparameters of ST-TransRec.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Embedding size for users, POIs and words (64 on Foursquare,
    /// 128 on Yelp).
    pub embedding_dim: usize,
    /// Hidden widths of the interaction tower, excluding the concatenated
    /// input (`2 * embedding_dim`) and the final scalar. Foursquare:
    /// `[64, 32, 16]` giving 128 -> 64 -> 32 -> 16 -> 1.
    pub hidden: Vec<usize>,
    /// Adam learning rate (searched over {1e-5 .. 5e-3} in the paper).
    pub learning_rate: f32,
    /// Mini-batch size (paper: 128 positive interactions).
    pub batch_size: usize,
    /// Negative interactions sampled per positive (paper: 4, after NCF).
    pub negatives: usize,
    /// Skipgram negative words per positive context edge.
    pub context_negatives: usize,
    /// Context edges sampled per training step for each side's `L_Gvw`.
    /// Skipgram rows are two orders of magnitude cheaper than tower rows,
    /// so this runs much larger than `batch_size` — each edge must be
    /// visited tens of times for the text bridge to form.
    pub context_batch: usize,
    /// Decoupled (AdamW-style) weight decay on all parameters; small but
    /// non-zero to keep long runs from memorizing source interactions.
    pub weight_decay: f32,
    /// MMD loss weight `lambda` in Eq. 3.
    pub lambda: f32,
    /// Gaussian kernel bandwidth `sigma` (fixed, per Sec. 3.1.4).
    pub mmd_sigma: f32,
    /// Which MMD estimator to use.
    pub mmd_estimator: MmdEstimator,
    /// POIs sampled per city side for each MMD term.
    pub mmd_batch: usize,
    /// Resampling punishment rate `alpha` in [0, 1] (0.10 / 0.11 optimal).
    pub alpha: f64,
    /// Region-merge threshold `delta` of Algorithm 1 (0.10 / 0.25).
    pub delta: f64,
    /// City grid resolution `n` (n x n grids; 50 / 60 in the paper).
    pub grid_n: usize,
    /// Dropout rate `rho` on embeddings and hidden layers (0.1 / 0.2).
    pub dropout: f32,
    /// Training epochs (one epoch visits every training check-in once in
    /// expectation).
    pub epochs: usize,
    /// Negative-sampling distribution exponent for skipgram words
    /// (0.75 = word2vec; 0.0 = uniform ablation).
    pub unigram_power: f64,
    /// Ablation variant.
    pub variant: Variant,
    /// RNG seed for initialization and batch sampling.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's Foursquare configuration: embedding 64, tower
    /// 128 -> 64 -> 32 -> 16 -> 1, `n = 50`, `delta = 0.10`, `alpha = 0.10`,
    /// dropout 0.1.
    pub fn foursquare() -> Self {
        Self {
            embedding_dim: 64,
            hidden: vec![64, 32, 16],
            learning_rate: 1e-3,
            batch_size: 128,
            negatives: 4,
            context_negatives: 4,
            context_batch: 1024,
            weight_decay: 1e-5,
            // The source side is a four-city mixture; hard alignment at
            // lambda = 1 over-constrains it, so Foursquare runs softer.
            lambda: 0.3,
            mmd_sigma: 1.0,
            mmd_estimator: MmdEstimator::Quadratic,
            mmd_batch: 64,
            alpha: 0.10,
            delta: 0.10,
            grid_n: 50,
            dropout: 0.1,
            epochs: 5,
            unigram_power: 0.75,
            variant: Variant::Full,
            seed: 1,
        }
    }

    /// The paper's Yelp configuration: embedding 128, tower
    /// 256 -> 128 -> 64 -> 32 -> 1, `n = 60`, `delta = 0.25`,
    /// `alpha = 0.11`, dropout 0.2.
    pub fn yelp() -> Self {
        Self {
            embedding_dim: 128,
            hidden: vec![128, 64, 32],
            learning_rate: 1e-3,
            batch_size: 128,
            negatives: 4,
            context_negatives: 4,
            // 256 (vs Foursquare's 1024): Yelp's denser interactions make
            // text a complement, not the primary signal; at 1024 the text
            // loss alone aligns the spaces and the MMD term goes idle.
            context_batch: 256,
            weight_decay: 1e-5,
            lambda: 1.0,
            mmd_sigma: 1.0,
            mmd_estimator: MmdEstimator::Quadratic,
            mmd_batch: 64,
            alpha: 0.11,
            delta: 0.25,
            grid_n: 60,
            dropout: 0.2,
            epochs: 5,
            unigram_power: 0.75,
            variant: Variant::Full,
            seed: 1,
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn test_small() -> Self {
        Self {
            embedding_dim: 16,
            hidden: vec![16, 8],
            learning_rate: 5e-3,
            batch_size: 64,
            negatives: 4,
            context_negatives: 3,
            context_batch: 256,
            weight_decay: 1e-5,
            lambda: 0.5,
            mmd_sigma: 1.0,
            mmd_estimator: MmdEstimator::Quadratic,
            mmd_batch: 32,
            alpha: 0.10,
            delta: 0.10,
            grid_n: 8,
            dropout: 0.0,
            epochs: 3,
            unigram_power: 0.75,
            variant: Variant::Full,
            seed: 1,
        }
    }

    /// Applies an ablation variant, adjusting the implied hyperparameters
    /// (the paper sets `alpha = 0` for ST-TransRec-3 and drops the MMD
    /// term for ST-TransRec-1).
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        if variant == Variant::NoResample {
            self.alpha = 0.0;
        }
        self
    }

    /// Overrides the embedding size, keeping the paper's 2x tower shape
    /// (used by the Table 4 sweep).
    pub fn with_embedding_dim(mut self, dim: usize) -> Self {
        assert!(dim >= 4, "embedding too small");
        self.embedding_dim = dim;
        self.hidden = vec![dim, dim / 2, (dim / 4).max(1)];
        self
    }

    /// Overrides the tower depth, halving widths from `2 * embedding_dim`
    /// (used by the Table 5 sweep: depth 1..=4).
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "need at least one hidden layer");
        let mut widths = Vec::with_capacity(depth);
        let mut w = self.embedding_dim;
        for _ in 0..depth {
            widths.push(w.max(1));
            w /= 2;
        }
        self.hidden = widths;
        self
    }

    /// Full tower widths including the concatenated input and scalar head.
    pub fn tower_widths(&self) -> Vec<usize> {
        let mut widths = Vec::with_capacity(self.hidden.len() + 2);
        widths.push(2 * self.embedding_dim);
        widths.extend_from_slice(&self.hidden);
        widths.push(1);
        widths
    }

    /// Whether the MMD term is active under the current variant.
    pub fn use_mmd(&self) -> bool {
        self.variant != Variant::NoMmd && self.lambda > 0.0
    }

    /// Whether the skipgram text loss is active under the current variant.
    pub fn use_text(&self) -> bool {
        self.variant != Variant::NoText
    }

    /// Validates invariants; called by the model constructor.
    pub fn validate(&self) {
        assert!(self.embedding_dim > 0);
        assert!(!self.hidden.is_empty(), "tower needs hidden layers");
        assert!(self.learning_rate > 0.0);
        assert!(self.batch_size > 0);
        assert!(self.negatives > 0);
        assert!(self.mmd_batch >= 2, "MMD needs at least 2 samples per side");
        assert!(self.context_batch > 0);
        assert!(self.weight_decay >= 0.0);
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0, 1]");
        assert!((0.0..=1.0).contains(&self.delta), "delta must be in [0, 1]");
        assert!(self.grid_n > 0);
        assert!((0.0..1.0).contains(&self.dropout));
        assert!(self.mmd_sigma > 0.0);
        assert!(self.lambda >= 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_section_4_1() {
        let fsq = ModelConfig::foursquare();
        assert_eq!(fsq.tower_widths(), vec![128, 64, 32, 16, 1]);
        assert_eq!(fsq.grid_n, 50);
        assert!((fsq.delta - 0.10).abs() < 1e-12);
        assert!((fsq.alpha - 0.10).abs() < 1e-12);
        assert!((fsq.dropout - 0.1).abs() < 1e-6);

        let yelp = ModelConfig::yelp();
        assert_eq!(yelp.tower_widths(), vec![256, 128, 64, 32, 1]);
        assert_eq!(yelp.grid_n, 60);
        assert!((yelp.delta - 0.25).abs() < 1e-12);
        assert!((yelp.alpha - 0.11).abs() < 1e-12);
        assert!((yelp.dropout - 0.2).abs() < 1e-6);
        fsq.validate();
        yelp.validate();
    }

    #[test]
    fn variants_toggle_losses() {
        let base = ModelConfig::test_small();
        assert!(base.use_mmd() && base.use_text());
        let v1 = base.clone().with_variant(Variant::NoMmd);
        assert!(!v1.use_mmd() && v1.use_text());
        let v2 = base.clone().with_variant(Variant::NoText);
        assert!(v2.use_mmd() && !v2.use_text());
        let v3 = base.clone().with_variant(Variant::NoResample);
        assert_eq!(v3.alpha, 0.0);
        assert!(v3.use_mmd() && v3.use_text());
    }

    #[test]
    fn embedding_and_depth_sweeps_produce_paper_towers() {
        let c = ModelConfig::foursquare().with_embedding_dim(32);
        assert_eq!(c.tower_widths(), vec![64, 32, 16, 8, 1]);
        let c = ModelConfig::foursquare().with_depth(2);
        assert_eq!(c.tower_widths(), vec![128, 64, 32, 1]);
        let c = ModelConfig::foursquare().with_depth(4);
        assert_eq!(c.tower_widths(), vec![128, 64, 32, 16, 8, 1]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn validate_rejects_bad_alpha() {
        let mut c = ModelConfig::test_small();
        c.alpha = 1.5;
        c.validate();
    }
}
