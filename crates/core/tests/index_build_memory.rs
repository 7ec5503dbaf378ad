//! What building the retrieval index costs in memory, measured at the
//! allocator: `RetrievalIndex::build` reads each city's rows in place out
//! of the snapshot's table, so at its peak it holds the index it returns
//! plus a few `TILE_ROWS` blocks and the centroid sums — never a decoded
//! copy of a catalog.
//!
//! One `#[test]` only: the counters are the process's, so a second test
//! in this binary would be counted into the first.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit};
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, RetrievalConfig, RetrievalIndex, STTransRec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated, process-wide, and the most seen since the
/// last [`reset_peak`].
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grew(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[test]
fn index_build_holds_no_decoded_catalog() {
    // Two cities of 8 000 POIs each, both above the default
    // `min_catalog`, with the paper's 64-wide embeddings.
    let synth = SynthConfig {
        pois: 16_000,
        checkins: 32_000,
        ..SynthConfig::tiny()
    };
    let (dataset, _) = generate(&synth);
    let split = CrossingCitySplit::build(&dataset, CityId(synth.target_city as u16));
    let model = STTransRec::new(&dataset, &split, ModelConfig::foursquare());
    let snapshot = model.snapshot().quantized(StorageEncoding::I8);
    drop(model);
    let cfg = RetrievalConfig {
        // One Lloyd pass holds what five do; fewer keep a debug run short.
        kmeans_iters: 1,
        ..RetrievalConfig::default()
    };

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    reset_peak();
    let index = RetrievalIndex::build(&snapshot, &dataset, cfg);
    let (after, peak) = (
        LIVE_BYTES.load(Ordering::Relaxed),
        PEAK_BYTES.load(Ordering::Relaxed),
    );
    assert_eq!(index.num_indexed_cities(), 2);

    let dim = snapshot.poi_table().cols();
    let largest = dataset
        .cities()
        .iter()
        .map(|c| dataset.pois_in_city(c.id).len())
        .max()
        .expect("two cities");
    let decoded_catalog = (largest * dim * std::mem::size_of::<f32>()) as isize;
    let scratch = peak - after;
    eprintln!(
        "index {} B, scratch at peak {scratch} B, one decoded catalog {decoded_catalog} B",
        after - before
    );
    assert!(
        scratch <= decoded_catalog / 4,
        "the build held {scratch} B beyond its index at its peak; \
         one city's decoded catalog is {decoded_catalog} B"
    );
}
