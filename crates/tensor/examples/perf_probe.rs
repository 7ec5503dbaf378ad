use st_tensor::{ops, Matrix};
use std::time::Instant;
fn main() {
    let n = 256;
    let a = Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i * 7 + 3) % 13) as f32 * 0.1 - 0.6)
            .collect(),
    );
    let b = Matrix::from_vec(
        n,
        n,
        (0..n * n)
            .map(|i| ((i * 5 + 1) % 11) as f32 * 0.1 - 0.5)
            .collect(),
    );
    let time = |f: &dyn Fn() -> Matrix| {
        let mut best = f64::MAX;
        for _ in 0..7 {
            let t = Instant::now();
            let m = f();
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(m);
        }
        best
    };
    let t_naive = time(&|| a.matmul_naive(&b));
    let t_blocked = time(&|| a.matmul(&b));
    let tb_naive = time(&|| a.matmul_transpose_b_naive(&b));
    let tb_blocked = time(&|| a.matmul_transpose_b(&b));
    let ta_naive = time(&|| a.matmul_transpose_a_naive(&b));
    let ta_blocked = time(&|| a.matmul_transpose_a(&b));
    let flops = 2.0 * (n as f64).powi(3);
    println!(
        "matmul: naive {:.3}ms blocked {:.3}ms speedup {:.2}x ({:.2} GFLOP/s)",
        t_naive * 1e3,
        t_blocked * 1e3,
        t_naive / t_blocked,
        flops / t_blocked / 1e9
    );
    println!(
        "t_b:    naive {:.3}ms blocked {:.3}ms speedup {:.2}x",
        tb_naive * 1e3,
        tb_blocked * 1e3,
        tb_naive / tb_blocked
    );
    println!(
        "t_a:    naive {:.3}ms blocked {:.3}ms speedup {:.2}x",
        ta_naive * 1e3,
        ta_blocked * 1e3,
        ta_naive / ta_blocked
    );

    // The IVF assignment pass at fixture-L size. k = 316 is what a
    // 25k-POI city gets (2 * sqrt(n)); 320 fills whole NR panels, which
    // is what `nearest_centroids` pads to, so the two should read alike.
    let (n, dim) = (25_000, 64);
    let lcg = |len: usize, seed: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 31 + seed) % 257) as f32 / 257.0 - 0.5)
            .collect()
    };
    let points = Matrix::from_vec(n, dim, lcg(n * dim, 7));
    for k in [316, 320, 1000] {
        let centroids = Matrix::from_vec(k, dim, lcg(k * dim, 11));
        let mut assign = Vec::new();
        let mut best = f64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            ops::nearest_centroids(&points, &centroids, &mut assign);
            best = best.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&assign);
        }
        println!(
            "assign: {n}x{dim} -> k={k:<4} {:.1}ms ({:.1} GFLOP/s)",
            best * 1e3,
            2.0 * (n * dim * k) as f64 / best / 1e9
        );
    }
}
