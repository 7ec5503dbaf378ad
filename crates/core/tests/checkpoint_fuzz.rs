//! Fuzz-ish robustness test for the checkpoint container's loader.
//!
//! There is one container and one parser of it. `STTransRec::restore`
//! reads a file whole and verifies every tensor checksum
//! (`st_tensor::load_params`); a server maps the same file through the
//! same header, index and bounds validation (`st_tensor::map_params` —
//! the sweep in `crates/serve/src/snapshot.rs` feeds it these images).
//! A half-written or corrupted checkpoint must surface as a clean
//! `io::Error` — never a panic, never a huge speculative allocation,
//! never a partially applied parameter store. This test mangles valid
//! containers every way the format can break (truncation at every
//! region, bit flips across header, index, tensor data and scales, pure
//! garbage, index entries that claim more than the file holds) and
//! asserts every one is rejected with the model's weights bit-for-bit
//! intact. Only a flip in alignment padding, which carries nothing, may
//! load.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_eval::Scorer;
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, STTransRec};

fn trained_model() -> (Dataset, CrossingCitySplit, STTransRec) {
    let cfg = SynthConfig::tiny();
    let (dataset, _) = generate(&cfg);
    let split = CrossingCitySplit::build(&dataset, CityId(cfg.target_city as u16));
    let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    model.train_epoch(&dataset);
    (dataset, split, model)
}

/// Which bytes of a container carry meaning: the header, the index, and
/// every tensor's data and scales — the rest is alignment padding. Read
/// by hand from the layout in `st_tensor::checkpoint`'s module doc, so
/// the writer is held to its documented format too. Also returns where
/// the index ends.
fn meaningful_bytes(image: &[u8]) -> (Vec<bool>, usize) {
    let u32_at = |o: usize| u32::from_le_bytes(image[o..o + 4].try_into().unwrap()) as usize;
    let u64_at = |o: usize| u64::from_le_bytes(image[o..o + 8].try_into().unwrap()) as usize;
    let index_end = 32 + u64_at(16);
    let mut used = vec![false; image.len()];
    used[..index_end].fill(true);
    let mut pos = 32;
    for _ in 0..u32_at(8) {
        pos += 4 + u32_at(pos) + 1 + 4 + 4; // name, encoding, rows, cols
        for range in [pos, pos + 16] {
            // (data_offset, data_len), then (scales_offset, scales_len)
            let (off, len) = (u64_at(range), u64_at(range + 8));
            used[off..off + len].fill(true);
        }
        pos += 5 * 8;
    }
    assert_eq!(pos, index_end, "the index is exactly its entries");
    (used, index_end)
}

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A one-entry container with a correct index checksum whose entry
/// claims `rows x cols` f32s, and not one byte of data behind it.
fn container_claiming(rows: u32, cols: u32) -> Vec<u8> {
    let mut index = Vec::new();
    index.extend(1u32.to_le_bytes());
    index.push(b'x');
    index.push(StorageEncoding::F32.code());
    index.extend(rows.to_le_bytes());
    index.extend(cols.to_le_bytes());
    let data_len = (u64::from(rows) * u64::from(cols)).wrapping_mul(4);
    for field in [4096, data_len, 0, 0, 0] {
        index.extend(field.to_le_bytes());
    }
    let mut image = b"STPK".to_vec();
    for field in [2u32, 1, 0] {
        image.extend(field.to_le_bytes()); // version, count, reserved
    }
    image.extend((index.len() as u64).to_le_bytes());
    image.extend(fnv1a_64(&index).to_le_bytes());
    image.extend(index);
    image
}

#[test]
fn mangled_checkpoints_error_cleanly_and_never_corrupt_the_model() {
    let (dataset, split, mut model) = trained_model();
    let user = split.test_users[0];
    let pois = dataset.pois_in_city(split.target_city);
    let baseline = model.score_batch(user, pois);

    let mut pristine = Vec::new();
    model.save(&mut pristine).unwrap();
    model.restore(pristine.as_slice()).unwrap();
    assert_eq!(model.score_batch(user, pois), baseline);
    // The int8 container has what the f32 one lacks: per-row scales.
    let mut int8 = Vec::new();
    st_tensor::save_params_v2(model.params(), StorageEncoding::I8, &mut int8).unwrap();

    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for (format, image) in [("f32", &pristine), ("int8", &int8)] {
        let (used, index_end) = meaningful_bytes(image);

        // Truncation: every prefix of the header region, then strided
        // cuts through index, padding and data, then the last byte.
        let mut cuts: Vec<usize> = (0..64).collect();
        cuts.extend((64..image.len()).step_by(97));
        cuts.push(image.len() - 1);
        for cut in cuts {
            let err = model
                .restore(&image[..cut])
                .expect_err("truncated checkpoint must be rejected");
            let _ = err.to_string(); // clean, displayable io::Error
            assert_eq!(
                model.score_batch(user, pois),
                baseline,
                "{format}: truncation at {cut} must not touch parameters"
            );
        }

        // Bit flips: every byte of header and index, the file's last
        // byte, and random bytes of everything after the index (padding,
        // tensor data, scales).
        let mut positions: Vec<usize> = (0..index_end).collect();
        positions.push(image.len() - 1);
        positions.extend((0..256).map(|_| rng.gen_range(index_end..image.len())));
        let mut padding_flips = 0;
        for pos in positions {
            let mut mangled = image.clone();
            mangled[pos] ^= 1 << rng.gen_range(0..8u32);
            match model.restore(mangled.as_slice()) {
                Err(_) => assert_eq!(
                    model.score_batch(user, pois),
                    baseline,
                    "{format}: rejected flip at byte {pos} must not touch parameters"
                ),
                Ok(()) => {
                    assert!(
                        !used[pos],
                        "{format}: flip at meaningful byte {pos} was accepted"
                    );
                    padding_flips += 1;
                    model.restore(pristine.as_slice()).unwrap();
                    assert_eq!(model.score_batch(user, pois), baseline);
                }
            }
        }
        assert!(padding_flips > 0, "{format}: the sweep never hit padding");
    }

    // Pure garbage of assorted sizes.
    for len in [0usize, 1, 4, 16, 256, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        assert!(
            model.restore(garbage.as_slice()).is_err(),
            "garbage of length {len} must be rejected"
        );
    }
    // A well-formed, correctly checksummed index whose one entry claims
    // an absurd shape, then a plausible one the file does not hold.
    for (rows, cols) in [
        (u32::MAX, u32::MAX),
        (0x4000_0000, 0x4000_0000),
        (1 << 14, 1 << 14),
    ] {
        assert!(
            model
                .restore(container_claiming(rows, cols).as_slice())
                .is_err(),
            "a {rows}x{cols} claim must be rejected without allocating it"
        );
    }
    assert_eq!(model.score_batch(user, pois), baseline);
}
