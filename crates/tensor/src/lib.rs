//! # st-tensor
//!
//! A minimal, dependency-light tensor library with reverse-mode automatic
//! differentiation, written from scratch to power the ST-TransRec
//! reproduction (Rust's deep-learning crates were judged too immature for
//! a faithful, fully-inspectable training pipeline; see DESIGN.md).
//!
//! The library is deliberately scoped to what the paper needs, done well:
//!
//! - [`Matrix`]: dense row-major `f32` storage with cache-friendly kernels.
//! - [`ops`]: the shared forward op layer — every piece of tower math
//!   implemented once, consumed by both executors below.
//! - [`Tape`] / [`Var`]: eager reverse-mode autodiff with sparse embedding
//!   gradients ([`Tape::gather_param`]) and a fused numerically-stable
//!   binary cross-entropy ([`Tape::bce_with_logits`]).
//! - [`InferCtx`]: the tape-free inference executor — same ops, reusable
//!   scratch buffers, bit-identical outputs, zero steady-state
//!   allocations.
//! - `nn`: [`Linear`], [`Mlp`], [`Embedding`] layers over a shared
//!   [`ParamStore`].
//! - `optim`: [`Sgd`] and [`Adam`] with sparse-aware bias correction.
//! - `grad_check` (unit tests only): finite-difference verification of
//!   every backward rule.
//!
//! ## Example
//!
//! ```
//! use st_tensor::{Activation, Adam, Gradients, Matrix, Mlp, Optimizer, ParamStore, Tape};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "net", &[2, 8, 1], Activation::Relu, 0.0, &mut rng);
//! let mut opt = Adam::new(0.05);
//!
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let t = Matrix::column(&[0., 1., 1., 1.]); // learn OR
//! for _ in 0..200 {
//!     let mut tape = Tape::new(&store);
//!     let xv = tape.input(x.clone());
//!     let logits = mlp.forward_train(&mut tape, xv, &mut rng);
//!     let loss = tape.bce_with_logits(logits, t.as_slice());
//!     let mut grads = Gradients::zeros_like(&store);
//!     tape.backward(loss, &mut grads);
//!     opt.step(&mut store, &grads);
//! }
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod grad_check;
mod infer;
mod matrix;
mod tape;

pub mod checkpoint;
pub mod init;
pub mod kernels;
pub(crate) mod nn;
pub mod ops;
pub(crate) mod optim;
pub(crate) mod params;
pub(crate) mod pool;
pub mod quant;
pub mod storage;

pub use checkpoint::{
    load_params, map_params, save_params_atomic, save_params_atomic_as, save_params_v2,
    CheckpointError, MappedParams,
};
pub use infer::{InferCtx, PairTower};
pub use init::Init;
pub use matrix::Matrix;
pub use nn::{Activation, Embedding, Linear, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{GradSlot, Gradients, ParamId, ParamStore, SparseRows};
pub use pool::{MatrixPool, PoolStats};
pub use storage::{Bytes, RowSource, StorageEncoding, TableStorage};
pub use tape::{Tape, Var};
