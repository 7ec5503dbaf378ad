//! Neural-network building blocks over the tape.
//!
//! Layers own [`ParamId`]s into a shared [`ParamStore`] and expose a
//! `forward(&self, tape, x, ...)` method, so one store can back several
//! towers (ST-TransRec registers the user table, two POI tables, the word
//! table, and the interaction MLP in a single store).

use crate::{InferCtx, Init, ParamId, ParamStore, Tape, Var};
use rand::Rng;

/// A fully connected layer `x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim -> out_dim` affine layer (Xavier weights, zero bias).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        let w = store.register(
            format!("{name}.w"),
            in_dim,
            out_dim,
            Init::XavierUniform,
            rng,
        );
        let b = store.register(format!("{name}.b"), 1, out_dim, Init::Zeros, rng);
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter id.
    pub fn bias(&self) -> ParamId {
        self.b
    }

    /// Applies the layer to a `batch x in_dim` input.
    pub fn forward(&self, tape: &mut Tape<'_>, x: Var) -> Var {
        assert_eq!(
            tape.value(x).cols(),
            self.in_dim,
            "Linear input width mismatch"
        );
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        tape.linear(x, w, b)
    }
}

/// Activation applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit — the paper's choice (Eq. 11).
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply(self, tape: &mut Tape<'_>, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// A multi-layer perceptron with per-layer activation and optional
/// inverted dropout after each hidden activation.
///
/// This is the paper's interaction tower (Eq. 11-12): the final layer is
/// produced *without* activation so it can feed `bce_with_logits` (the
/// paper's sigmoid prediction layer, Eq. 12, fused into the loss for
/// numerical stability).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// Builds an MLP from a width list, e.g. `[128, 64, 32, 16, 1]`.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        widths: &[usize],
        activation: Activation,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0, 1)");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            activation,
            dropout,
        }
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// The affine layers, first to last (snapshot capture reads weights
    /// through these ids).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The hidden-layer activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Training forward pass: dropout masks (if configured) are sampled
    /// from `rng` after each hidden activation.
    pub fn forward_train(&self, tape: &mut Tape<'_>, x: Var, rng: &mut impl Rng) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i < last {
                h = self.activation.apply(tape, h);
                if self.dropout > 0.0 {
                    h = tape.dropout(h, self.dropout, rng);
                }
            }
        }
        h
    }

    /// Inference forward pass on the tape: dropout is disabled (inverted
    /// dropout needs no rescaling), so no RNG is ever consulted. Kept for
    /// gradient checking and as the differential-test oracle; the
    /// tape-free path is [`Mlp::forward_infer`].
    pub fn forward_inference(&self, tape: &mut Tape<'_>, x: Var) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i < last {
                h = self.activation.apply(tape, h);
            }
        }
        h
    }

    /// Tape-free inference forward pass: evaluates the tower over `ctx`'s
    /// scratch buffers, reading weights straight from `store`. The input
    /// batch must already be loaded into `ctx` (via [`InferCtx::set_input`]
    /// or [`InferCtx::gather_concat2`]); afterwards `ctx.value()` holds the
    /// final layer's output (logits — no activation after the last layer,
    /// matching the tape paths).
    pub fn forward_infer(&self, store: &ParamStore, ctx: &mut InferCtx) {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            ctx.linear(store.get(layer.weight()), store.get(layer.bias()));
            if i < last {
                ctx.activation(self.activation);
            }
        }
    }
}

/// An embedding table: `count` rows of dimension `dim`.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    count: usize,
    dim: usize,
}

impl Embedding {
    /// Registers a `count x dim` table with Gaussian init (the paper
    /// randomly initializes embeddings; std 0.01 follows NCF practice).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        count: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(count > 0 && dim > 0, "embedding dims must be positive");
        let table = store.register(name, count, dim, Init::Gaussian { std: 0.01 }, rng);
        Self { table, count, dim }
    }

    /// Number of rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying parameter id (for direct reads at inference time).
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Looks up a batch of ids, producing a `ids.len() x dim` matrix.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn forward(&self, tape: &mut Tape<'_>, ids: &[usize]) -> Var {
        for &id in ids {
            assert!(id < self.count, "embedding id {id} out of {}", self.count);
        }
        tape.gather_param(self.table, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gradients, Matrix};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn linear_shapes_and_forward() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        assert_eq!((lin.in_dim(), lin.out_dim()), (3, 2));
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::zeros(5, 3));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    #[test]
    #[should_panic(expected = "Linear input width mismatch")]
    fn linear_rejects_wrong_width() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::zeros(5, 4));
        lin.forward(&mut tape, x);
    }

    #[test]
    fn mlp_paper_tower_shape() {
        // Foursquare tower from Sec. 4.1: 128 -> 64 -> 32 -> 16 -> 1.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "tower",
            &[128, 64, 32, 16, 1],
            Activation::Relu,
            0.1,
            &mut rng,
        );
        assert_eq!(mlp.depth(), 4);
        assert_eq!(mlp.in_dim(), 128);
        assert_eq!(mlp.out_dim(), 1);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::zeros(7, 128));
        let y = mlp.forward_train(&mut tape, x, &mut rng);
        assert_eq!(tape.value(y).shape(), (7, 1));
    }

    #[test]
    fn mlp_inference_is_deterministic_despite_dropout_config() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 3, 1], Activation::Relu, 0.5, &mut rng);
        let x = Matrix::from_vec(2, 4, vec![0.5; 8]);
        let run = || {
            let mut tape = Tape::new(&store);
            let xv = tape.input(x.clone());
            let y = mlp.forward_inference(&mut tape, xv);
            tape.value(y).clone()
        };
        assert_eq!(run(), run(), "inference must be deterministic");
    }

    #[test]
    fn mlp_tape_free_forward_matches_tape_inference_bitwise() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[6, 5, 3, 1],
            Activation::Relu,
            0.3, // dropout configured but irrelevant at inference
            &mut rng,
        );
        let x = Matrix::from_vec(4, 6, (0..24).map(|i| (i as f32) * 0.17 - 2.0).collect());
        let mut tape = Tape::new(&store);
        let xv = tape.input(x.clone());
        let y = mlp.forward_inference(&mut tape, xv);
        let mut ctx = InferCtx::new();
        ctx.set_input(&x);
        mlp.forward_infer(&store, &mut ctx);
        assert_eq!(ctx.value(), tape.value(y), "executors diverged");
    }

    #[test]
    fn mlp_trains_xor() {
        // End-to-end sanity: a 2-16-1 ReLU MLP fits XOR with Adam.
        use crate::{Adam, Optimizer};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "xor",
            &[2, 16, 1],
            Activation::Relu,
            0.0,
            &mut rng,
        );
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let t = Matrix::column(&[0., 1., 1., 0.]);
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..400 {
            let mut tape = Tape::new(&store);
            let xv = tape.input(x.clone());
            let logits = mlp.forward_train(&mut tape, xv, &mut rng);
            let loss = tape.bce_with_logits(logits, t.as_slice());
            final_loss = tape.value(loss).item();
            let mut grads = Gradients::zeros_like(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        assert!(final_loss < 0.1, "XOR loss stayed at {final_loss}");
    }

    #[test]
    fn embedding_lookup_returns_table_rows() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        assert_eq!((emb.count(), emb.dim()), (10, 4));
        let expected = store.get(emb.table()).gather_rows(&[7, 2]);
        let mut tape = Tape::new(&store);
        let v = emb.forward(&mut tape, &[7, 2]);
        assert_eq!(tape.value(v), &expected);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn embedding_rejects_out_of_range_id() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut tape = Tape::new(&store);
        emb.forward(&mut tape, &[10]);
    }
}
