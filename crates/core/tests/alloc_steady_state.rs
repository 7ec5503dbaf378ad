//! The training step's memory behaviour, measured at the allocator — no
//! `/proc`, so it holds on any platform: live heap bytes stay flat over
//! many steps, and a steady-state step calls the allocator a fixed number
//! of times, none of them for matrix storage.
//!
//! One `#[test]` only: the counters are the process's — a step's second
//! lane runs on a thread of its own, which thread-local counters would
//! not see — so a second test in this binary would be counted into the
//! first.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit};
use st_transrec_core::{ModelConfig, STTransRec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};

/// Bytes currently allocated, process-wide.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Allocator calls and bytes requested, on any thread, while `COUNTING`.
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct Counting;

fn record(size: usize) {
    // Statistics that publish no other data: `Relaxed`. The step joins
    // its thread before `counted` reads them.
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only
// atomics and never allocates.
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

/// `(calls, bytes requested)` of the allocator calls made while `f`
/// runs, on whichever thread.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[test]
fn training_step_memory_is_flat_and_allocation_light() {
    let synth = SynthConfig::tiny();
    let (dataset, _) = generate(&synth);
    let split = CrossingCitySplit::build(&dataset, CityId(synth.target_city as u16));
    let mut model = STTransRec::new(&dataset, &split, ModelConfig::foursquare());

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
    // measured, on all its threads: 39 calls for the step itself, over
    // its five loss terms — one node list and one adjoint list per term
    // (10), the index copies of its gathers (8: one per interaction
    // term's `gather_concat`, two per context term's `gather_row_dot`,
    // two for the MMD term's rows), and one pack panel per product (21:
    // six per interaction term, nine in the MMD term); the prologue's
    // batches are refilled in place, so they cost nothing after the
    // first step — and 6 for each of the two scoped threads a step spawns
    // when the process has a second CPU, the target lane's and the next
    // step's draws': `thread::scope`'s shared state, the spawn's thread
    // handle, result slot and boxed closure, and 2 for the test harness's
    // output capture, which every thread spawned under it sets up (gone
    // with `--nocapture`). On one CPU nothing is spawned and the count
    // is 39. 522 552 B in all (522 040 inline), nearly all of it panels
    // and index copies. The two lanes' pools hold 7 255 216 B of matrices
    // for this step (3.7 MB, one pool, when the lanes run inline). One
    // matrix allocated outside them (the smallest recurring one is 40
    // KiB) or one extra call fails here. No term of it grows with
    // `context_batch`.
    assert!(
        worst_calls <= 39 + 2 * (4 + 2),
        "a steady-state step made {worst_calls} allocator calls"
    );
    assert!(
        worst_bytes <= 530_000,
        "a steady-state step requested {worst_bytes} B from the allocator"
    );
    assert!(pool_after_1.pooled_bytes <= 7_255_216, "{pool_after_1:?}");
}
