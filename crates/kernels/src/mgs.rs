//! Modified Gram-Schmidt: the paper's running example.
//!
//! * [`program`] — the right-looking variant of Figure 1, transcribed
//!   statement-for-statement (statements `SR`/`SU` form the hourglass).
//! * [`tiled_program`] / [`tiled_native`] — the left-looking tiled ordering
//!   of Figure 8 (Appendix A.1) with block size `B`, whose measured I/O is
//!   `≈ ½·M²N²/S` when `B = ⌊S/M⌋ − 1` — the upper bound that matches the
//!   new hourglass lower bound of Theorem 5.
//! * [`native`] / analytic I/O models for the appendix formulas.

use crate::matrix::Matrix;
use iolb_ir::{Access, LoopStep, Program, ProgramBuilder};

/// Right-looking MGS (Figure 1): `A (M×N) → Q (M×N), R (N×N)`.
pub fn program() -> Program {
    let mut b = ProgramBuilder::new("mgs", &["M", "N"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let q = b.array("Q", &[b.p("M"), b.p("N")]);
    let r = b.array("R", &[b.p("N"), b.p("N")]);
    let nrm = b.scalar("nrm");

    let k = b.open("k", b.c(0), b.p("N"));
    let w_nrm = Access::new(nrm, vec![]);
    b.stmt("nrm0", vec![], vec![w_nrm.clone()], move |c| {
        c.wr(nrm, &[], 0.0)
    });
    {
        let i = b.open("i", b.c(0), b.p("M"));
        let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        b.stmt(
            "nrm1",
            vec![r_aik, w_nrm.clone()],
            vec![w_nrm.clone()],
            move |c| {
                let (k, i) = (c.v(0), c.v(1));
                let x = c.rd(a, &[i, k]);
                let v = c.rd(nrm, &[]) + x * x;
                c.wr(nrm, &[], v);
            },
        );
        b.close();
    }
    let w_rkk = Access::new(r, vec![b.d(k), b.d(k)]);
    b.stmt("rkk", vec![w_nrm.clone()], vec![w_rkk.clone()], move |c| {
        let v = c.rd(nrm, &[]).sqrt();
        c.wr(r, &[c.v(0), c.v(0)], v);
    });
    {
        let i = b.open("i", b.c(0), b.p("M"));
        let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        let w_qik = Access::new(q, vec![b.d(i), b.d(k)]);
        b.stmt("qdiv", vec![r_aik, w_rkk.clone()], vec![w_qik], move |c| {
            let (k, i) = (c.v(0), c.v(1));
            let v = c.rd(a, &[i, k]) / c.rd(r, &[k, k]);
            c.wr(q, &[i, k], v);
        });
        b.close();
    }
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let w_rkj = Access::new(r, vec![b.d(k), b.d(j)]);
        b.stmt("r0", vec![], vec![w_rkj.clone()], move |c| {
            c.wr(r, &[c.v(0), c.v(1)], 0.0)
        });
        {
            let i = b.open("i", b.c(0), b.p("M"));
            let r_qik = Access::new(q, vec![b.d(i), b.d(k)]);
            let r_aij = Access::new(a, vec![b.d(i), b.d(j)]);
            b.stmt(
                "SR",
                vec![r_qik, r_aij, w_rkj.clone()],
                vec![w_rkj.clone()],
                move |c| {
                    let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(r, &[k, j]) + c.rd(q, &[i, k]) * c.rd(a, &[i, j]);
                    c.wr(r, &[k, j], v);
                },
            );
            b.close();
        }
        {
            let i = b.open("i", b.c(0), b.p("M"));
            let r_qik = Access::new(q, vec![b.d(i), b.d(k)]);
            let rw_aij = Access::new(a, vec![b.d(i), b.d(j)]);
            b.stmt(
                "SU",
                vec![r_qik, rw_aij.clone(), w_rkj.clone()],
                vec![rw_aij],
                move |c| {
                    let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(a, &[i, j]) - c.rd(q, &[i, k]) * c.rd(r, &[k, j]);
                    c.wr(a, &[i, j], v);
                },
            );
            b.close();
        }
        b.close();
    }
    b.close();
    b.finish()
}

/// Left-looking tiled MGS (Figure 8): parameters `M, N, B`; Q is produced
/// in place of `A`.
pub fn tiled_program() -> Program {
    let mut b = ProgramBuilder::new("mgs_tiled", &["M", "N", "B"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let r = b.array("R", &[b.p("N"), b.p("N")]);
    let bstep = LoopStep::Param(b.pid("B"));

    let j0 = b.open_strided("j0", b.c(0), b.p("N"), bstep);
    // Projection against all columns left of the block.
    {
        let i = b.open("i", b.c(0), b.d(j0));
        let j = b.open_general(
            "j",
            vec![b.d(j0)],
            vec![b.d(j0) + b.p("B"), b.p("N")],
            LoopStep::One,
            false,
        );
        let w_rij = Access::new(r, vec![b.d(i), b.d(j)]);
        b.stmt("Tr0", vec![], vec![w_rij.clone()], move |c| {
            c.wr(r, &[c.v(1), c.v(2)], 0.0)
        });
        {
            let kk = b.open("k", b.c(0), b.p("M"));
            let r_aki = Access::new(a, vec![b.d(kk), b.d(i)]);
            let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            b.stmt(
                "Tr1",
                vec![r_aki, r_akj, w_rij.clone()],
                vec![w_rij.clone()],
                move |c| {
                    let (i, j, k) = (c.v(1), c.v(2), c.v(3));
                    let v = c.rd(r, &[i, j]) + c.rd(a, &[k, i]) * c.rd(a, &[k, j]);
                    c.wr(r, &[i, j], v);
                },
            );
            b.close();
        }
        {
            let kk = b.open("k", b.c(0), b.p("M"));
            let r_aki = Access::new(a, vec![b.d(kk), b.d(i)]);
            let rw_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            b.stmt(
                "Tu",
                vec![r_aki, rw_akj.clone(), w_rij.clone()],
                vec![rw_akj],
                move |c| {
                    let (i, j, k) = (c.v(1), c.v(2), c.v(3));
                    let v = c.rd(a, &[k, j]) - c.rd(a, &[k, i]) * c.rd(r, &[i, j]);
                    c.wr(a, &[k, j], v);
                },
            );
            b.close();
        }
        b.close();
        b.close();
    }
    // Panel factorization inside the block.
    {
        let j = b.open_general(
            "j",
            vec![b.d(j0)],
            vec![b.d(j0) + b.p("B"), b.p("N")],
            LoopStep::One,
            false,
        );
        {
            let i = b.open("i", b.d(j0), b.d(j));
            let w_rij = Access::new(r, vec![b.d(i), b.d(j)]);
            b.stmt("Ts0", vec![], vec![w_rij.clone()], move |c| {
                c.wr(r, &[c.v(2), c.v(1)], 0.0)
            });
            {
                let kk = b.open("k", b.c(0), b.p("M"));
                let r_aki = Access::new(a, vec![b.d(kk), b.d(i)]);
                let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
                b.stmt(
                    "Ts1",
                    vec![r_aki, r_akj, w_rij.clone()],
                    vec![w_rij.clone()],
                    move |c| {
                        let (j, i, k) = (c.v(1), c.v(2), c.v(3));
                        let v = c.rd(r, &[i, j]) + c.rd(a, &[k, i]) * c.rd(a, &[k, j]);
                        c.wr(r, &[i, j], v);
                    },
                );
                b.close();
            }
            {
                let kk = b.open("k", b.c(0), b.p("M"));
                let r_aki = Access::new(a, vec![b.d(kk), b.d(i)]);
                let rw_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
                b.stmt(
                    "Tsu",
                    vec![r_aki, rw_akj.clone(), w_rij.clone()],
                    vec![rw_akj],
                    move |c| {
                        let (j, i, k) = (c.v(1), c.v(2), c.v(3));
                        let v = c.rd(a, &[k, j]) - c.rd(a, &[k, i]) * c.rd(r, &[i, j]);
                        c.wr(a, &[k, j], v);
                    },
                );
                b.close();
            }
            b.close();
        }
        let w_rjj = Access::new(r, vec![b.d(j), b.d(j)]);
        b.stmt("Td0", vec![], vec![w_rjj.clone()], move |c| {
            c.wr(r, &[c.v(1), c.v(1)], 0.0)
        });
        {
            let kk = b.open("k", b.c(0), b.p("M"));
            let r_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            b.stmt(
                "Td1",
                vec![r_akj, w_rjj.clone()],
                vec![w_rjj.clone()],
                move |c| {
                    let (j, k) = (c.v(1), c.v(2));
                    let x = c.rd(a, &[k, j]);
                    let v = c.rd(r, &[j, j]) + x * x;
                    c.wr(r, &[j, j], v);
                },
            );
            b.close();
        }
        b.stmt("Tdsq", vec![w_rjj.clone()], vec![w_rjj.clone()], move |c| {
            let j = c.v(1);
            let v = c.rd(r, &[j, j]).sqrt();
            c.wr(r, &[j, j], v);
        });
        {
            let kk = b.open("k", b.c(0), b.p("M"));
            let rw_akj = Access::new(a, vec![b.d(kk), b.d(j)]);
            b.stmt(
                "Tdd",
                vec![rw_akj.clone(), w_rjj.clone()],
                vec![rw_akj],
                move |c| {
                    let (j, k) = (c.v(1), c.v(2));
                    let v = c.rd(a, &[k, j]) / c.rd(r, &[j, j]);
                    c.wr(a, &[k, j], v);
                },
            );
            b.close();
        }
        b.close();
    }
    b.close();
    b.finish()
}

/// Native right-looking MGS; returns `(Q, R)`.
pub fn native(a0: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut q = Matrix::zeros(m, n);
    let mut r = Matrix::zeros(n, n);
    for k in 0..n {
        let mut nrm = 0.0;
        for i in 0..m {
            nrm += a[(i, k)] * a[(i, k)];
        }
        r[(k, k)] = nrm.sqrt();
        for i in 0..m {
            q[(i, k)] = a[(i, k)] / r[(k, k)];
        }
        for j in k + 1..n {
            r[(k, j)] = 0.0;
            for i in 0..m {
                r[(k, j)] += q[(i, k)] * a[(i, j)];
            }
            for i in 0..m {
                a[(i, j)] -= q[(i, k)] * r[(k, j)];
            }
        }
    }
    (q, r)
}

/// Native tiled left-looking MGS (Figure 8); returns `(Q, R)` with Q in
/// place of A.
pub fn tiled_native(a0: &Matrix, block: usize) -> (Matrix, Matrix) {
    assert!(block >= 1, "block size must be positive");
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut r = Matrix::zeros(n, n);
    let mut j0 = 0;
    while j0 < n {
        let jend = (j0 + block).min(n);
        for i in 0..j0 {
            for j in j0..jend {
                r[(i, j)] = 0.0;
                for k in 0..m {
                    r[(i, j)] += a[(k, i)] * a[(k, j)];
                }
                for k in 0..m {
                    a[(k, j)] -= a[(k, i)] * r[(i, j)];
                }
            }
        }
        for j in j0..jend {
            for i in j0..j {
                r[(i, j)] = 0.0;
                for k in 0..m {
                    r[(i, j)] += a[(k, i)] * a[(k, j)];
                }
                for k in 0..m {
                    a[(k, j)] -= a[(k, i)] * r[(i, j)];
                }
            }
            r[(j, j)] = 0.0;
            for k in 0..m {
                r[(j, j)] += a[(k, j)] * a[(k, j)];
            }
            r[(j, j)] = r[(j, j)].sqrt();
            for k in 0..m {
                a[(k, j)] /= r[(j, j)];
            }
        }
        j0 += block;
    }
    (a, r)
}

/// Appendix A.1 block size: largest `B` with `M(B+1) < S` (at least 1).
pub fn a1_block_size(m: usize, s: usize) -> usize {
    (s / m).saturating_sub(1).max(1)
}

/// Appendix A.1 read-cost model for the tiled ordering at block size `B`:
/// `½·MN²/B` (panel reloads) + `MN` (block loads).
pub fn a1_reads_model(m: usize, n: usize, block: usize) -> f64 {
    let (m, n, b) = (m as f64, n as f64, block as f64);
    0.5 * m * n * n / b + m * n
}

/// Appendix A.1 headline I/O: `½·M²N²/S`.
pub fn a1_io_headline(m: usize, n: usize, s: usize) -> f64 {
    let (m, n, s) = (m as f64, n as f64, s as f64);
    0.5 * m * m * n * n / s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, run_with_inputs};

    #[test]
    fn native_mgs_is_a_qr_factorization() {
        let a = Matrix::random(12, 7, 42);
        let (q, r) = native(&a);
        assert!(q.orthonormality_error() < 1e-10, "Q columns orthonormal");
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10, "QR = A");
        assert_eq!(r.below_diagonal_max(), 0.0, "R upper triangular");
    }

    #[test]
    fn ir_matches_native() {
        let a = Matrix::random(9, 6, 7);
        let p = program();
        let store = run_with_inputs(&p, &[9, 6], &[("A", &a)]);
        let q_ir = extract_matrix(&p, &[9, 6], &store, "Q");
        let r_ir = extract_matrix(&p, &[9, 6], &store, "R");
        let (q, r) = native(&a);
        assert!(q_ir.max_abs_diff(&q) < 1e-13);
        assert!(r_ir.max_abs_diff(&r) < 1e-13);
    }

    #[test]
    fn ir_accesses_are_consistent() {
        let p = program();
        let n = iolb_ir::interp::validate_accesses(&p, &[7, 5]).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn tiled_native_matches_untiled() {
        let a = Matrix::random(14, 9, 3);
        let (q_ref, r_ref) = native(&a);
        for block in [1, 2, 3, 9] {
            let (q, r) = tiled_native(&a, block);
            assert!(q.max_abs_diff(&q_ref) < 1e-9, "B={block}");
            assert!(r.max_abs_diff(&r_ref) < 1e-9, "B={block}");
        }
    }

    #[test]
    fn tiled_ir_matches_tiled_native() {
        let a = Matrix::random(8, 6, 11);
        let p = tiled_program();
        for block in [2i64, 3, 6] {
            let store = run_with_inputs(&p, &[8, 6, block], &[("A", &a)]);
            let q_ir = extract_matrix(&p, &[8, 6, block], &store, "A");
            let r_ir = extract_matrix(&p, &[8, 6, block], &store, "R");
            let (q, r) = tiled_native(&a, block as usize);
            assert!(q_ir.max_abs_diff(&q) < 1e-13, "B={block}");
            assert!(r_ir.max_abs_diff(&r) < 1e-13, "B={block}");
        }
    }

    #[test]
    fn tiled_ir_accesses_are_consistent() {
        let p = tiled_program();
        let n = iolb_ir::interp::validate_accesses(&p, &[8, 6, 3]).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn tiled_io_beats_untiled_under_lru() {
        // M=24, N=12, S=128: B = ⌊S/M⌋−1 = 4.
        let (m, n, s) = (24usize, 12usize, 128usize);
        let block = a1_block_size(m, s) as i64;
        let a = Matrix::random(m, n, 5);
        let (untiled, _) =
            crate::sinks::measure_lru_min_io(&program(), &[m as i64, n as i64], s, {
                let a = a.clone();
                move |arr, f| if arr.0 == 0 { a.data[f] } else { 0.0 }
            });
        let (tiled, _) =
            crate::sinks::measure_lru_min_io(&tiled_program(), &[m as i64, n as i64, block], s, {
                let a = a.clone();
                move |arr, f| if arr.0 == 0 { a.data[f] } else { 0.0 }
            });
        assert!(
            tiled.loads < untiled.loads,
            "tiled {} < untiled {}",
            tiled.loads,
            untiled.loads
        );
    }

    #[test]
    fn appendix_models_are_consistent() {
        // With B = ⌊S/M⌋−1 ≈ S/M, the panel-reload term of the reads model
        // approaches the headline ½M²N²/S (the MN block-move term is lower
        // order in the paper's regime).
        let (m, n, s) = (64usize, 32, 512);
        let b = a1_block_size(m, s);
        let panel = a1_reads_model(m, n, b) - (m * n) as f64;
        let headline = a1_io_headline(m, n, s);
        assert!((panel / headline) < 2.0 && (panel / headline) > 0.5);
    }
}
