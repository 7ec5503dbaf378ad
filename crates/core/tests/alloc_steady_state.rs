//! The training step's memory behaviour, measured at the allocator — no
//! `/proc`, so it holds on any platform: live heap bytes stay flat over
//! many steps, and a steady-state step calls the allocator a fixed number
//! of times, none of them for matrix storage.
//!
//! One `#[test]` only: the counters belong to the thread that switches
//! them on, but a second test in this binary would share the process
//! heap and move `LIVE_BYTES` under the first.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit};
use st_transrec_core::{ModelConfig, STTransRec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated, process-wide.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocator calls and bytes requested on this thread while `COUNTING`.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn record(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + size));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only
// atomics and const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(calls, bytes requested)` of the allocator calls `f` makes on this
/// thread.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn training_step_memory_is_flat_and_allocation_light() {
    let synth = SynthConfig::tiny();
    let (dataset, _) = generate(&synth);
    let split = CrossingCitySplit::build(&dataset, CityId(synth.target_city as u16));
    let config = ModelConfig::foursquare();
    let context_batch = config.context_batch;
    let mut model = STTransRec::new(&dataset, &split, config);

    let mut live_after_10 = 0;
    let mut pool_after_1 = model.pool_stats();
    let (mut worst_calls, mut worst_bytes) = (0, 0);
    for step in 1..=60 {
        let (calls, bytes) = counted(|| {
            model.train_step(&dataset);
        });
        let pool = model.pool_stats();
        match step {
            1 => pool_after_1 = pool,
            _ => {
                assert_eq!(pool.misses, pool_after_1.misses, "pool miss at step {step}");
                assert_eq!(pool.regrown, 0, "pool regrowth at step {step}");
                assert_eq!(pool.pooled, pool_after_1.pooled);
                assert_eq!(pool.pooled_bytes, pool_after_1.pooled_bytes);
            }
        }
        if step == 10 {
            live_after_10 = LIVE_BYTES.load(Ordering::Relaxed);
        }
        if step > 10 {
            worst_calls = worst_calls.max(calls);
            worst_bytes = worst_bytes.max(bytes);
        }
    }

    // (a) The heap does not grow with the step count.
    let live_after_60 = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        live_after_60 <= live_after_10 + (1 << 20),
        "live heap grew from {live_after_10} B after step 10 to {live_after_60} B after step 60"
    );

    // (b) What a steady-state step still asks the allocator for, as
    // measured: one `Vec<WordId>` of negatives per skipgram sample inside
    // st-data's sampler (2 x context_batch), and 71 calls for the batch
    // and index vectors of the five samplers, the gather nodes' index
    // copies, one node list and one adjoint list per loss term, and one
    // pack panel per product — `a * b`, `a^T * b` and, since it joined
    // the packed kernels, `a * b^T` (the tower's eight `dA = g * W^T` and
    // the MMD term's three pairwise distances) — 1.14 MB in all. The
    // pool holds 15 MB of matrices for this step; one matrix allocated
    // outside it (the smallest recurring one is 40 KiB) or one extra
    // call fails here.
    assert!(
        worst_calls <= 2 * context_batch + 71,
        "a steady-state step made {worst_calls} allocator calls"
    );
    assert!(
        worst_bytes <= 1_140_000,
        "a steady-state step requested {worst_bytes} B from the allocator"
    );
}
