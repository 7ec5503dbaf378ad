//! The scoring path computes "one user against N candidates"; these
//! tests hold it, bit for bit, to the evaluation it replaced — "N
//! unrelated pairs": gather every `user ⊕ poi` row into one matrix, then
//! each layer as matmul, bias pass, activation pass over the whole
//! batch. That evaluation lives on here, as [`full_concat`], and in
//! `STTransRec::predict_tape`.
//!
//! Nothing below is a tolerance. The user-prefix first layer, the row
//! tiles, the packed weights and the fused bias/activation store are
//! all reorderings of *which elements share a loop*, never of the terms
//! inside one element's sum, so every score must come out with the
//! same bits for every table encoding, tower shape and run structure.

use rand::{rngs::SmallRng, SeedableRng};
use st_data::{PoiId, UserId};
use st_eval::Scorer;
use st_tensor::kernels::TILE_ROWS;
use st_tensor::{Activation, Bytes, InferCtx, Init, Matrix, StorageEncoding, TableStorage};
use st_transrec_core::ModelSnapshot;

const USERS: usize = 5;
const POIS: usize = 300;

/// Random values off any binary grid, so a reordered sum changes bits.
fn random(rng: &mut SmallRng, rows: usize, cols: usize) -> Matrix {
    Init::Gaussian { std: 0.5 }.sample(rows, cols, rng)
}

/// The four table representations a snapshot can hold.
fn encodings(m: &Matrix) -> Vec<(&'static str, TableStorage)> {
    let raw = m.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
    vec![
        ("f32", TableStorage::F32(m.clone())),
        (
            "f32-bytes",
            TableStorage::F32Bytes {
                rows: m.rows(),
                cols: m.cols(),
                data: Bytes::from_vec(raw),
            },
        ),
        ("f16", TableStorage::encode(m, StorageEncoding::F16)),
        ("int8", TableStorage::encode(m, StorageEncoding::I8)),
    ]
}

struct Fixture {
    name: String,
    snapshot: ModelSnapshot,
    user_table: TableStorage,
    poi_table: TableStorage,
    layers: Vec<(Matrix, Matrix)>,
}

/// Every encoding of every tower: the paper's `128→64→32→16→1`,
/// `ModelConfig::test_small`'s `32→16→8→1`, and one whose embedding and
/// hidden widths are not multiples of any tile size.
fn fixtures() -> Vec<Fixture> {
    let mut rng = SmallRng::seed_from_u64(16);
    let mut out = Vec::new();
    for (user_dim, poi_dim, hidden) in [
        (64, 64, vec![64, 32, 16]),
        (16, 16, vec![16, 8]),
        (5, 6, vec![13, 7, 3]),
    ] {
        let users = random(&mut rng, USERS, user_dim);
        let pois = random(&mut rng, POIS, poi_dim);
        let widths: Vec<usize> = [user_dim + poi_dim]
            .into_iter()
            .chain(hidden)
            .chain([1])
            .collect();
        let layers: Vec<(Matrix, Matrix)> = widths
            .windows(2)
            .map(|w| (random(&mut rng, w[0], w[1]), random(&mut rng, 1, w[1])))
            .collect();
        for ((name, user_table), (_, poi_table)) in
            encodings(&users).into_iter().zip(encodings(&pois))
        {
            let snapshot = ModelSnapshot::from_parts(
                user_table.clone(),
                poi_table.clone(),
                layers.clone(),
                Activation::Relu,
            )
            .expect("coherent shapes");
            out.push(Fixture {
                name: format!("{widths:?} {name}"),
                snapshot,
                user_table,
                poi_table,
                layers: layers.clone(),
            });
        }
    }
    out
}

/// The evaluation the scoring path replaced, over any right-hand table.
fn full_concat(
    fixture: &Fixture,
    users: &[usize],
    items: &dyn st_tensor::RowSource,
    rows: &[usize],
) -> Vec<f32> {
    let mut ctx = InferCtx::new();
    ctx.gather_concat2(&fixture.user_table, users, items, rows);
    let last = fixture.layers.len() - 1;
    for (i, (w, b)) in fixture.layers.iter().enumerate() {
        ctx.linear(w, b);
        if i < last {
            ctx.activation(Activation::Relu);
        }
    }
    ctx.sigmoid();
    ctx.value().as_slice().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `len` POI rows that repeat, skip and are out of order.
fn poi_rows(len: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 7 + 3) % POIS).collect()
}

#[test]
fn one_user_calls_match_the_full_concat_evaluation_at_every_length() {
    let lengths = [
        0,
        1,
        TILE_ROWS - 1,
        TILE_ROWS,
        TILE_ROWS + 1,
        4 * TILE_ROWS + 3,
    ];
    for fixture in fixtures() {
        let snap = &fixture.snapshot;
        let mut ctx = InferCtx::new();
        for len in lengths {
            let pois = poi_rows(len);
            let users = vec![3usize; len];
            let want = bits(&full_concat(&fixture, &users, &fixture.poi_table, &pois));
            let case = format!("{}, {len} candidates", fixture.name);

            assert_eq!(bits(&snap.predict(&users, &pois)), want, "{case}");
            assert_eq!(
                bits(&snap.try_predict_with(&mut ctx, &users, &pois).unwrap()),
                want,
                "{case}"
            );
            let poi_ids: Vec<PoiId> = pois.iter().map(|&p| PoiId(p as u32)).collect();
            let user_ids = vec![UserId(3); len];
            assert_eq!(
                bits(
                    &snap
                        .try_score_pairs_with(&mut ctx, &user_ids, &poi_ids)
                        .unwrap()
                ),
                want,
                "{case}"
            );
            assert_eq!(
                bits(
                    &snap
                        .try_score_user_with(&mut ctx, UserId(3), &poi_ids)
                        .unwrap()
                ),
                want,
                "{case}"
            );
            assert_eq!(bits(&snap.score_batch(UserId(3), &poi_ids)), want, "{case}");
        }
    }
}

#[test]
fn mixed_user_calls_match_the_full_concat_evaluation() {
    let (u, v, w) = (0usize, 4, 2);
    for fixture in fixtures() {
        // Runs of 3, 2, 1, 1 — and one long enough to cross a tile
        // between two short ones.
        let mut users = vec![u, u, u, v, v, u, w];
        users.extend(vec![v; TILE_ROWS + 2]);
        users.extend([w, u]);
        let pois = poi_rows(users.len());
        let want = bits(&full_concat(&fixture, &users, &fixture.poi_table, &pois));
        assert_eq!(
            bits(&fixture.snapshot.predict(&users, &pois)),
            want,
            "{}",
            fixture.name
        );
    }
}

#[test]
fn scoring_a_matrix_of_rows_matches_the_full_concat_evaluation() {
    let mut rng = SmallRng::seed_from_u64(5);
    for fixture in fixtures() {
        let dim = fixture.poi_table.cols();
        let mut ctx = InferCtx::new();
        for rows in [0, 1, 37, TILE_ROWS + 9] {
            // IVF centroids: rows in POI-embedding space that are no
            // table's rows.
            let centroids = random(&mut rng, rows, dim);
            let all: Vec<usize> = (0..rows).collect();
            let want = full_concat(&fixture, &vec![1; rows], &centroids, &all);
            assert_eq!(
                bits(&fixture.snapshot.score_rows_with(&mut ctx, 1, &centroids)),
                bits(&want),
                "{}, {rows} centroids",
                fixture.name
            );
        }
    }
}

#[test]
fn scratch_is_settled_after_the_first_call_whatever_comes_next() {
    for fixture in fixtures() {
        let snap = &fixture.snapshot;
        let mut ctx = InferCtx::new();
        // A single pair first: the tile buffers must already be full
        // size, so a catalog-sized request later grows nothing.
        snap.predict_with(&mut ctx, &[0], &[0]);
        let settled = ctx.grow_events();
        for len in [4 * TILE_ROWS + 3, 1, TILE_ROWS, 0] {
            snap.predict_with(&mut ctx, &vec![2; len], &poi_rows(len));
        }
        assert_eq!(ctx.grow_events(), settled, "{}", fixture.name);
    }
}
