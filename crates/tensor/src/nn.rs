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
}

impl Linear {
    /// Registers a `in_dim -> out_dim` affine layer (Xavier weights, zero bias).
    pub(crate) fn new(
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
        Self { w, b, in_dim }
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
    pub(crate) fn forward(&self, tape: &mut Tape<'_>, x: Var) -> Var {
        let (w, b) = self.params(tape, x);
        tape.linear(x, w, b)
    }

    /// The layer, then `act`, then inverted dropout at rate `p`: one
    /// [`Tape::dense`] node for ReLU and the identity, the op chain for
    /// the other activations. Either way the same bits and draws.
    fn forward_train(
        &self,
        tape: &mut Tape<'_>,
        x: Var,
        act: Activation,
        p: f32,
        rng: &mut impl Rng,
    ) -> Var {
        let (w, b) = self.params(tape, x);
        match act {
            Activation::Relu | Activation::Identity => tape.dense(x, w, b, act, p, rng),
            Activation::Tanh | Activation::Sigmoid => {
                let h = tape.linear(x, w, b);
                let h = act.apply(tape, h);
                tape.dropout(h, p, rng)
            }
        }
    }

    /// Records the weight and bias reads for input `x`.
    fn params(&self, tape: &mut Tape<'_>, x: Var) -> (Var, Var) {
        assert_eq!(
            tape.value(x).cols(),
            self.in_dim,
            "Linear input width mismatch"
        );
        (tape.param(self.w), tape.param(self.b))
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
    /// from `rng` after each hidden activation. With ReLU (the paper's
    /// tower) or the identity, each layer is one fused [`Tape::dense`]
    /// node.
    pub fn forward_train(&self, tape: &mut Tape<'_>, x: Var, rng: &mut impl Rng) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = match i < last {
                true => layer.forward_train(tape, h, self.activation, self.dropout, rng),
                false => layer.forward_train(tape, h, Activation::Identity, 0.0, rng),
            };
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
        Self { table, dim }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying parameter id (for direct reads at inference time).
    pub fn table(&self) -> ParamId {
        self.table
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
        assert_eq!(mlp.layers().len(), 4);
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
        assert_eq!(emb.dim(), 4);
        assert_eq!(store.get(emb.table()).shape(), (10, 4));
        let expected = store.get(emb.table()).gather_rows(&[7, 2]);
        let mut tape = Tape::new(&store);
        let v = tape.gather_param(emb.table(), &[7, 2]);
        assert_eq!(tape.value(v), &expected);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn embedding_rejects_out_of_range_id() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let mut tape = Tape::new(&store);
        tape.gather_param(emb.table(), &[10]);
    }
}
