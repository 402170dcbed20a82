//! Property tests for the production gate kernels against the single
//! kernel oracle: on randomised operators, amplitudes, and scattered
//! targets, every dispatch path of `apply_matrix_planes` must agree with the
//! slow `embed` lift (small n) and with the full-range reference scan
//! `apply_matrix_reference` (up to n = 10) to 1e-12 — including the
//! parallel splits, which are forced on by raising the `qdp-par` thread
//! override — and density conjugation on the doubled register must match
//! the dense matrix products.

use qdp_linalg::{C64, CVector, Matrix};
use qdp_sim::kernels::{apply_matrix_planes, apply_matrix_reference, embed, planes_to_aos};
use qdp_sim::DensityMatrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Domain-shaped draws over the workspace's seeded generator.
struct TestRng(StdRng);

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    fn f64(&mut self) -> f64 {
        self.0.gen::<f64>() * 2.0 - 1.0
    }

    fn c64(&mut self) -> C64 {
        C64::new(self.f64(), self.f64())
    }

    fn index(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn amps(&mut self, len: usize) -> Vec<C64> {
        (0..len).map(|_| self.c64()).collect()
    }

    /// `k` distinct targets out of `n`, in random order.
    fn targets(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            out.push(pool.swap_remove(self.index(pool.len())));
        }
        out
    }

    fn dense(&mut self, dim: usize) -> Matrix {
        Matrix::from_data(dim, dim, (0..dim * dim).map(|_| self.c64()).collect())
    }

    fn real_dense(&mut self, dim: usize) -> Matrix {
        Matrix::from_data(
            dim,
            dim,
            (0..dim * dim).map(|_| C64::real(self.f64())).collect(),
        )
    }

    fn diagonal(&mut self, dim: usize) -> Matrix {
        Matrix::diagonal(&(0..dim).map(|_| self.c64()).collect::<Vec<_>>())
    }

    /// A random block-diagonal 4×4 (`|0⟩⟨0|⊗A + |1⟩⟨1|⊗B`, the controlled
    /// shape).
    fn block_diag(&mut self, identity_top: bool) -> Matrix {
        let mut m = Matrix::zeros(4, 4);
        for (row0, col0, ident) in [(0usize, 0usize, identity_top), (2, 2, false)] {
            for i in 0..2 {
                for j in 0..2 {
                    let v = if ident {
                        if i == j { C64::ONE } else { C64::ZERO }
                    } else {
                        self.c64()
                    };
                    m.set(row0 + i, col0 + j, v);
                }
            }
        }
        m
    }
}

/// `m` on `targets` through the production plane kernel, in place on
/// interleaved amplitudes (split, apply, gather).
fn apply_fast(amps: &mut [C64], n: usize, m: &Matrix, targets: &[usize]) {
    let mut re: Vec<f64> = amps.iter().map(|a| a.re).collect();
    let mut im: Vec<f64> = amps.iter().map(|a| a.im).collect();
    apply_matrix_planes(&mut re, &mut im, n, m, targets);
    amps.copy_from_slice(&planes_to_aos(&re, &im));
}

fn assert_close(fast: &[C64], slow: &[C64], what: &str) {
    for (i, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.approx_eq(*b, 1e-12),
            "{what}: entry {i} differs: {a} vs {b}"
        );
    }
}

#[test]
fn random_operators_match_embed_small_n() {
    let mut rng = TestRng::new(1);
    for n in 1..=6usize {
        for k in 1..=3usize.min(n) {
            for rep in 0..8 {
                let targets = rng.targets(n, k);
                let m = rng.dense(1 << k);
                let amps = rng.amps(1 << n);

                let expected = embed(n, &m, &targets).mul_vec(&CVector::new(amps.clone()));
                let mut fast = amps.clone();
                apply_fast(&mut fast, n, &m, &targets);
                assert_close(
                    &fast,
                    expected.as_slice(),
                    &format!("n={n} k={k} rep={rep} targets={targets:?}"),
                );
            }
        }
    }
}

#[test]
fn random_operators_match_reference_up_to_n10() {
    let mut rng = TestRng::new(2);
    for n in [7usize, 8, 9, 10] {
        for k in 1..=3usize {
            for rep in 0..4 {
                let targets = rng.targets(n, k);
                let m = rng.dense(1 << k);
                let amps = rng.amps(1 << n);

                let mut slow = amps.clone();
                apply_matrix_reference(&mut slow, n, &m, &targets);
                let mut fast = amps.clone();
                apply_fast(&mut fast, n, &m, &targets);
                assert_close(
                    &fast,
                    &slow,
                    &format!("n={n} k={k} rep={rep} targets={targets:?}"),
                );
            }
        }
    }
}

#[test]
fn specialised_shapes_match_reference() {
    let mut rng = TestRng::new(3);
    let n = 9usize;
    for rep in 0..6 {
        let amps = rng.amps(1 << n);

        // Real 2×2 (H/RY-shaped).
        let t = rng.targets(n, 1);
        let m = rng.real_dense(2);
        let mut fast = amps.clone();
        apply_fast(&mut fast, n, &m, &t);
        let mut slow = amps.clone();
        apply_matrix_reference(&mut slow, n, &m, &t);
        assert_close(&fast, &slow, &format!("real-2x2 rep={rep} t={t:?}"));

        // Diagonal 1q and 2q (RZ/CZ-shaped).
        for k in 1..=2usize {
            let t = rng.targets(n, k);
            let m = rng.diagonal(1 << k);
            let mut fast = amps.clone();
            apply_fast(&mut fast, n, &m, &t);
            let mut slow = amps.clone();
            apply_matrix_reference(&mut slow, n, &m, &t);
            assert_close(&fast, &slow, &format!("diag-{k}q rep={rep} t={t:?}"));
        }

        // Controlled / block-diagonal 4×4, with and without identity block.
        for identity_top in [true, false] {
            let t = rng.targets(n, 2);
            let m = rng.block_diag(identity_top);
            let mut fast = amps.clone();
            apply_fast(&mut fast, n, &m, &t);
            let mut slow = amps.clone();
            apply_matrix_reference(&mut slow, n, &m, &t);
            assert_close(
                &fast,
                &slow,
                &format!("blockdiag(id={identity_top}) rep={rep} t={t:?}"),
            );
        }
    }
}

#[test]
fn parallel_split_paths_are_bitwise_deterministic() {
    // Force the thread override high enough that both the aligned in-place
    // split and the zipped-halves top-bit path actually engage (the array
    // is one qubit above the fork threshold), then require bitwise equality
    // with the single-threaded result.
    const N: usize = qdp_par::FORK_MIN_WORK.ilog2() as usize + 1;
    const { assert!(1 << N > qdp_par::FORK_MIN_WORK) };
    let mut rng = TestRng::new(4);
    let n = N;
    let amps = rng.amps(1 << n);
    let dense = rng.dense(2);
    let diag = rng.diagonal(4);

    // Low target bit (aligned in-place split), high target bit (gather), and
    // a 2q diagonal.
    let cases: Vec<(Matrix, Vec<usize>)> = vec![
        (dense.clone(), vec![n - 1]), // bit 0: align = 2, chunked split
        (dense.clone(), vec![0]),     // top bit: zipped orbit halves
        (diag.clone(), vec![0, n - 1]),
    ];
    for (m, targets) in &cases {
        qdp_par::set_max_threads(1);
        let mut serial = amps.clone();
        apply_fast(&mut serial, n, m, targets);

        qdp_par::set_max_threads(8);
        let mut parallel = amps.clone();
        apply_fast(&mut parallel, n, m, targets);
        qdp_par::set_max_threads(0); // restore auto-detection

        assert_eq!(
            serial, parallel,
            "parallel result must be bit-identical (targets {targets:?})"
        );
    }
}

#[test]
fn density_conjugation_matches_matrix_products() {
    // A density operator on `n` qubits is a plane pair over `2n` qubits:
    // `m` on the row targets is `ρ ← m·ρ`, `mᵀ` on `targets + n` is
    // `ρ ← ρ·m`, and `apply_conjugation` composes the two into `mρm†`.
    let mut rng = TestRng::new(5);
    for n in 1..=4usize {
        let dim = 1usize << n;
        for k in 1..=2usize.min(n) {
            let targets = rng.targets(n, k);
            let columns: Vec<usize> = targets.iter().map(|&t| t + n).collect();
            let m = rng.dense(1 << k);
            let rho = Matrix::from_data(dim, dim, rng.amps(dim * dim));
            let lifted = embed(n, &m, &targets);

            let mut left = rho.as_slice().to_vec();
            apply_fast(&mut left, 2 * n, &m, &targets);
            assert!(
                Matrix::from_data(dim, dim, left).approx_eq(&lifted.mul(&rho), 1e-12),
                "left n={n} targets={targets:?}"
            );

            let mut right = rho.as_slice().to_vec();
            apply_fast(&mut right, 2 * n, &m.transpose(), &columns);
            assert!(
                Matrix::from_data(dim, dim, right).approx_eq(&rho.mul(&lifted), 1e-12),
                "right n={n} targets={targets:?}"
            );

            let mut conj = DensityMatrix::from_matrix(n, &rho);
            conj.apply_conjugation(&m, &targets);
            let expected = lifted.mul(&rho).mul(&lifted.dagger());
            assert!(
                conj.to_matrix().approx_eq(&expected, 1e-12),
                "conjugation n={n} targets={targets:?}"
            );
        }
    }
}
