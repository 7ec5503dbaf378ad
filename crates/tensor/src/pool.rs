//! Reusable backing buffers for tape intermediates.
//!
//! Training builds one [`crate::Tape`] per step and drops it afterwards.
//! The tape owns every buffer it computes with, and a [`MatrixPool`]
//! carried from one tape to the next is where those buffers live between
//! steps. The ownership rule:
//!
//! - **Who acquires.** Only the tape. Every node value, dropout mask, BCE
//!   target, backward adjoint and gradient delta is taken from the pool
//!   (`acquire_*`), filled in one pass, and recorded on the tape.
//!   Parameters are not acquired at all: [`crate::Tape::param`] borrows
//!   the store's matrix.
//! - **Who releases.** Only the tape: adjoints and deltas as soon as the
//!   backward pass has consumed them, everything else in
//!   [`crate::Tape::into_pool`]. A matrix built by the caller and handed to
//!   [`crate::Tape::input`] is released the same way — the pool accepts
//!   buffers it did not allocate.
//! - **What is dropped.** Per capacity class the pool remembers the most
//!   buffers that were ever out at the same time; a released buffer that
//!   would take the class beyond that mark is freed instead of kept. So
//!   the pool holds exactly what one step needs at its widest point, and
//!   foreign buffers can pass through it but cannot make it grow. There
//!   is no limit to configure.
//!
//! Buffers are grouped in power-of-two capacity classes. A request for
//! `n` elements is served from the class `ceil(log2 n)`, whose buffers
//! all hold at least `2^class >= n` elements, so a pooled buffer is never
//! grown and a scalar never takes a megabyte buffer away from the
//! request that needs it. From the second step of a fixed-shape training
//! loop on, every acquisition is a hit: no allocator call, no `realloc`.

use crate::Matrix;

/// One power-of-two capacity class: buffers with capacity in
/// `[2^k, 2^(k+1))`.
#[derive(Debug, Default)]
struct Class {
    /// Free buffers, most recently released last (so the next
    /// acquisition gets the memory that is warmest in cache).
    free: Vec<Vec<f32>>,
    /// Buffers of this class currently out.
    outstanding: usize,
    /// The most buffers of this class that were ever out at once.
    high_water: usize,
}

/// What a pool has done and holds — an observation for tests, benches
/// and [`crate::Tape`] users, never a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served from a pooled buffer.
    pub hits: usize,
    /// Acquisitions that had to allocate.
    pub misses: usize,
    /// Acquisitions whose pooled buffer had to be grown. The capacity
    /// classes make this impossible; the counter is here to show it.
    pub regrown: usize,
    /// Buffers currently pooled.
    pub pooled: usize,
    /// Bytes of capacity currently pooled.
    pub pooled_bytes: usize,
}

impl std::iter::Sum for PoolStats {
    /// Field-wise sum (the pools of a data-parallel trainer's workers).
    fn sum<I: Iterator<Item = PoolStats>>(pools: I) -> PoolStats {
        pools.fold(PoolStats::default(), |sum, pool| PoolStats {
            hits: sum.hits + pool.hits,
            misses: sum.misses + pool.misses,
            regrown: sum.regrown + pool.regrown,
            pooled: sum.pooled + pool.pooled,
            pooled_bytes: sum.pooled_bytes + pool.pooled_bytes,
        })
    }
}

/// Size-classed free-lists of matrix backing buffers; see the module
/// documentation for the ownership rule.
#[derive(Debug, Default)]
pub struct MatrixPool {
    /// `classes[k]` holds buffers with capacity in `[2^k, 2^(k+1))`.
    classes: Vec<Class>,
    hits: usize,
    misses: usize,
    regrown: usize,
    pooled_bytes: usize,
}

/// The class that serves a request for `n >= 1` elements.
fn class_of_request(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// The class a buffer of capacity `cap >= 1` is filed under.
fn class_of_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl MatrixPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An **empty** buffer with capacity for at least `n` elements. The
    /// caller pushes exactly the elements it wants and wraps the buffer
    /// with [`Matrix::from_vec`]; hand it back through
    /// [`MatrixPool::release`].
    pub(crate) fn acquire_buffer(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        let k = class_of_request(n);
        if k >= self.classes.len() {
            self.classes.resize_with(k + 1, Class::default);
        }
        let class = &mut self.classes[k];
        class.outstanding += 1;
        class.high_water = class.high_water.max(class.outstanding);
        match class.free.pop() {
            Some(mut buf) => {
                self.hits += 1;
                self.pooled_bytes -= buf.capacity() * std::mem::size_of::<f32>();
                if buf.capacity() < n {
                    self.regrown += 1;
                }
                buf.clear();
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(1 << k)
            }
        }
    }

    /// A `rows x cols` matrix whose buffer `fill` writes in one pass:
    /// `fill` receives the empty buffer and must push exactly
    /// `rows * cols` elements.
    ///
    /// # Panics
    /// Panics if `fill` leaves any other number of elements.
    pub fn acquire_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<f32>),
    ) -> Matrix {
        let mut buf = self.acquire_buffer(rows * cols);
        fill(&mut buf);
        Matrix::from_vec(rows, cols, buf)
    }

    /// A zero-filled `rows x cols` matrix.
    pub fn acquire_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        self.acquire_with(rows, cols, |buf| buf.resize(rows * cols, 0.0))
    }

    /// A pooled copy of `src` (same shape and contents).
    pub fn acquire_copy(&mut self, src: &Matrix) -> Matrix {
        let (rows, cols) = src.shape();
        self.acquire_with(rows, cols, |buf| buf.extend_from_slice(src.as_slice()))
    }

    /// Takes a matrix's backing storage back. The buffer is kept unless
    /// its class already holds as many buffers as were ever out at once,
    /// in which case it is freed. Accepts buffers the pool did not
    /// allocate.
    pub fn release(&mut self, m: Matrix) {
        self.release_buffer(m.into_vec());
    }

    /// [`MatrixPool::release`] for a bare buffer (one a node keeps
    /// without a shape).
    pub(crate) fn release_buffer(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        // A class nothing was ever acquired from has a high-water mark of
        // zero: the buffer is dropped.
        let Some(class) = self.classes.get_mut(class_of_capacity(cap)) else {
            return;
        };
        class.outstanding = class.outstanding.saturating_sub(1);
        if class.free.len() + class.outstanding < class.high_water {
            self.pooled_bytes += cap * std::mem::size_of::<f32>();
            class.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.free.len()).sum()
    }

    /// True when no buffers are pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of capacity currently pooled.
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes
    }

    /// Acquisitions whose pooled buffer was smaller than the request and
    /// had to grow, since construction (always zero; see [`PoolStats`]).
    pub fn regrown(&self) -> usize {
        self.regrown
    }

    /// `(hits, misses)`: acquisitions served from the pool vs. fresh
    /// allocations, since construction.
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Every counter and gauge at once.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            regrown: self.regrown,
            pooled: self.len(),
            pooled_bytes: self.pooled_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_zeroed_even_after_dirty_release() {
        let mut pool = MatrixPool::new();
        let mut m = pool.acquire_zeroed(3, 4);
        m.as_mut_slice().fill(7.5);
        pool.release(m);
        let again = pool.acquire_zeroed(3, 4);
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn buffers_are_reused_within_their_class_only() {
        let mut pool = MatrixPool::new();
        let m = pool.acquire_zeroed(8, 8);
        pool.release(m);
        // 60 elements round up to the 64-class: a hit.
        let same_class = pool.acquire_zeroed(6, 10);
        assert_eq!(pool.stats(), (1, 1));
        assert!(pool.is_empty());
        pool.release(same_class);
        // A scalar must not take the 64-element buffer.
        let scalar = pool.acquire_zeroed(1, 1);
        assert_eq!(pool.stats(), (1, 2));
        assert_eq!(pool.len(), 1, "the 64-class buffer stays pooled");
        pool.release(scalar);
        assert_eq!(pool.regrown(), 0);
    }

    #[test]
    fn copy_matches_source() {
        let mut pool = MatrixPool::new();
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let cp = pool.acquire_copy(&src);
        assert_eq!(cp, src);
    }

    #[test]
    fn foreign_buffers_pass_through_without_growing_the_pool() {
        let mut pool = MatrixPool::new();
        // Nothing was ever acquired: every foreign buffer is dropped.
        pool.release(Matrix::zeros(16, 16));
        assert_eq!((pool.len(), pool.pooled_bytes()), (0, 0));

        // One 256-class buffer was out at the widest point, so one is
        // kept however many are handed in.
        let m = pool.acquire_zeroed(16, 16);
        pool.release(m);
        for _ in 0..10 {
            pool.release(Matrix::zeros(16, 16));
        }
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.pooled_bytes(), 256 * 4);
        // Empty matrices own nothing and are ignored.
        pool.release(Matrix::default());
        pool.release(Matrix::zeros(0, 5));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pool_keeps_the_widest_point_of_a_step() {
        let mut pool = MatrixPool::new();
        for step in 0..3 {
            let before = pool.pool_stats();
            let a = pool.acquire_zeroed(10, 10);
            let b = pool.acquire_zeroed(10, 10);
            pool.release(a);
            let c = pool.acquire_zeroed(10, 10);
            pool.release(b);
            pool.release(c);
            let after = pool.pool_stats();
            assert_eq!(after.pooled, 2, "two were out at once");
            if step > 0 {
                assert_eq!(after.misses, before.misses, "step {step} allocated");
                assert_eq!(after.pooled_bytes, before.pooled_bytes);
            }
        }
    }
}
