//! Householder QR: the A2V (GEQR2, Figure 3) and V2Q (ORG2R, Figure 6)
//! parts, plus the tiled A2V ordering of Figure 9 (Appendix A.2).
//!
//! A2V factors `A = Q·R` storing the reflector essentials `V` below the
//! diagonal (unit implied), `R` on and above it, and the scalars `tau[k]`.
//! V2Q expands `(V, tau)` into the thin `M×N` orthogonal factor, running the
//! outer loop *backwards* so `tau[j]` cells can be reused as temporaries.
//! Both exhibit the hourglass on their `SR`/`SU` statements with parametric
//! width `M − 1 − k ≥ M − N`.

use crate::matrix::Matrix;
use iolb_ir::{Access, LoopStep, Program, ProgramBuilder};

/// A2V (LAPACK GEQR2, Figure 3): in-place `A → V\R`, producing `tau`.
pub fn a2v_program() -> Program {
    let mut b = ProgramBuilder::new("qr_hh_a2v", &["M", "N"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let tau = b.array("tau", &[b.p("N")]);
    let norma2 = b.scalar("norma2");
    let norma = b.scalar("norma");

    let k = b.open("k", b.c(0), b.p("N"));
    let w_n2 = Access::new(norma2, vec![]);
    b.stmt("Hn0", vec![], vec![w_n2.clone()], move |c| {
        c.wr(norma2, &[], 0.0)
    });
    {
        let i = b.open("i", b.d(k) + 1, b.p("M"));
        let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        b.stmt(
            "Hn1",
            vec![r_aik, w_n2.clone()],
            vec![w_n2.clone()],
            move |c| {
                let (k, i) = (c.v(0), c.v(1));
                let x = c.rd(a, &[i, k]);
                let v = c.rd(norma2, &[]) + x * x;
                c.wr(norma2, &[], v);
            },
        );
        b.close();
    }
    let w_nrm = Access::new(norma, vec![]);
    let rw_akk = Access::new(a, vec![b.d(k), b.d(k)]);
    b.stmt(
        "Hnorm",
        vec![rw_akk.clone(), w_n2.clone()],
        vec![w_nrm.clone()],
        move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let v = (akk * akk + c.rd(norma2, &[])).sqrt();
            c.wr(norma, &[], v);
        },
    );
    b.stmt(
        "Hakk",
        vec![rw_akk.clone(), w_nrm.clone()],
        vec![rw_akk.clone()],
        move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { akk + nr } else { akk - nr });
        },
    );
    let w_tauk = Access::new(tau, vec![b.d(k)]);
    b.stmt(
        "Htau",
        vec![w_n2.clone(), rw_akk.clone()],
        vec![w_tauk.clone()],
        move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let v = 2.0 / (1.0 + c.rd(norma2, &[]) / (akk * akk));
            c.wr(tau, &[k], v);
        },
    );
    {
        let i = b.open("i", b.d(k) + 1, b.p("M"));
        let rw_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        b.stmt(
            "Hscale",
            vec![rw_aik.clone(), rw_akk.clone()],
            vec![rw_aik],
            move |c| {
                let (k, i) = (c.v(0), c.v(1));
                let v = c.rd(a, &[i, k]) / c.rd(a, &[k, k]);
                c.wr(a, &[i, k], v);
            },
        );
        b.close();
    }
    b.stmt(
        "Hflip",
        vec![rw_akk.clone(), w_nrm.clone()],
        vec![rw_akk.clone()],
        move |c| {
            let k = c.v(0);
            let akk = c.rd(a, &[k, k]);
            let nr = c.rd(norma, &[]);
            c.wr(a, &[k, k], if akk > 0.0 { -nr } else { nr });
        },
    );
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let rw_akj = Access::new(a, vec![b.d(k), b.d(j)]);
        let w_tauj = Access::new(tau, vec![b.d(j)]);
        b.stmt(
            "Ht0",
            vec![rw_akj.clone()],
            vec![w_tauj.clone()],
            move |c| {
                let (k, j) = (c.v(0), c.v(1));
                let v = c.rd(a, &[k, j]);
                c.wr(tau, &[j], v);
            },
        );
        {
            let i = b.open("i", b.d(k) + 1, b.p("M"));
            let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
            let r_aij = Access::new(a, vec![b.d(i), b.d(j)]);
            b.stmt(
                "SR",
                vec![r_aik, r_aij, w_tauj.clone()],
                vec![w_tauj.clone()],
                move |c| {
                    let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(tau, &[j]) + c.rd(a, &[i, k]) * c.rd(a, &[i, j]);
                    c.wr(tau, &[j], v);
                },
            );
            b.close();
        }
        b.stmt(
            "Ht1",
            vec![w_tauk.clone(), w_tauj.clone()],
            vec![w_tauj.clone()],
            move |c| {
                let (k, j) = (c.v(0), c.v(1));
                let v = c.rd(tau, &[k]) * c.rd(tau, &[j]);
                c.wr(tau, &[j], v);
            },
        );
        b.stmt(
            "Hrow",
            vec![rw_akj.clone(), w_tauj.clone()],
            vec![rw_akj.clone()],
            move |c| {
                let (k, j) = (c.v(0), c.v(1));
                let v = c.rd(a, &[k, j]) - c.rd(tau, &[j]);
                c.wr(a, &[k, j], v);
            },
        );
        {
            let i = b.open("i", b.d(k) + 1, b.p("M"));
            let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
            let rw_aij = Access::new(a, vec![b.d(i), b.d(j)]);
            b.stmt(
                "SU",
                vec![r_aik, rw_aij.clone(), w_tauj.clone()],
                vec![rw_aij],
                move |c| {
                    let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(a, &[i, j]) - c.rd(a, &[i, k]) * c.rd(tau, &[j]);
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

/// V2Q (LAPACK ORG2R, Figure 6): in-place `V\· → Q` given `tau` (M ≥ N).
pub fn v2q_program() -> Program {
    let mut b = ProgramBuilder::new("qr_hh_v2q", &["M", "N"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let tau = b.array("tau", &[b.p("N")]);

    let k = b.open_rev("k", b.c(0), b.p("N"));
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let w_tauj = Access::new(tau, vec![b.d(j)]);
        b.stmt("Vt0", vec![], vec![w_tauj.clone()], move |c| {
            c.wr(tau, &[c.v(1)], 0.0)
        });
        {
            let i = b.open("i", b.d(k) + 1, b.p("M"));
            let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
            let r_aij = Access::new(a, vec![b.d(i), b.d(j)]);
            b.stmt(
                "SR",
                vec![r_aik, r_aij, w_tauj.clone()],
                vec![w_tauj.clone()],
                move |c| {
                    let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                    let v = c.rd(tau, &[j]) + c.rd(a, &[i, k]) * c.rd(a, &[i, j]);
                    c.wr(tau, &[j], v);
                },
            );
            b.close();
        }
        b.close();
    }
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let w_tauj = Access::new(tau, vec![b.d(j)]);
        let r_tauk = Access::new(tau, vec![b.d(k)]);
        b.stmt(
            "Vt1",
            vec![w_tauj.clone(), r_tauk],
            vec![w_tauj.clone()],
            move |c| {
                let (k, j) = (c.v(0), c.v(1));
                let v = c.rd(tau, &[j]) * c.rd(tau, &[k]);
                c.wr(tau, &[j], v);
            },
        );
        b.close();
    }
    let r_tauk = Access::new(tau, vec![b.d(k)]);
    let w_akk = Access::new(a, vec![b.d(k), b.d(k)]);
    b.stmt("Vdiag", vec![r_tauk.clone()], vec![w_akk], move |c| {
        let k = c.v(0);
        let v = 1.0 - c.rd(tau, &[k]);
        c.wr(a, &[k, k], v);
    });
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let r_tauj = Access::new(tau, vec![b.d(j)]);
        let w_akj = Access::new(a, vec![b.d(k), b.d(j)]);
        b.stmt("Vrow", vec![r_tauj], vec![w_akj], move |c| {
            let (k, j) = (c.v(0), c.v(1));
            let v = -c.rd(tau, &[j]);
            c.wr(a, &[k, j], v);
        });
        b.close();
    }
    {
        let j = b.open("j", b.d(k) + 1, b.p("N"));
        let i = b.open("i", b.d(k) + 1, b.p("M"));
        let r_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        let rw_aij = Access::new(a, vec![b.d(i), b.d(j)]);
        let r_tauj = Access::new(tau, vec![b.d(j)]);
        b.stmt(
            "SU",
            vec![r_aik, rw_aij.clone(), r_tauj],
            vec![rw_aij],
            move |c| {
                let (k, j, i) = (c.v(0), c.v(1), c.v(2));
                let v = c.rd(a, &[i, j]) - c.rd(a, &[i, k]) * c.rd(tau, &[j]);
                c.wr(a, &[i, j], v);
            },
        );
        b.close();
        b.close();
    }
    {
        let i = b.open("i", b.d(k) + 1, b.p("M"));
        let rw_aik = Access::new(a, vec![b.d(i), b.d(k)]);
        let r_tauk = Access::new(tau, vec![b.d(k)]);
        b.stmt(
            "Vscale",
            vec![rw_aik.clone(), r_tauk],
            vec![rw_aik],
            move |c| {
                let (k, i) = (c.v(0), c.v(1));
                let v = -c.rd(a, &[i, k]) * c.rd(tau, &[k]);
                c.wr(a, &[i, k], v);
            },
        );
        b.close();
    }
    b.close();
    b.finish()
}

/// Tiled A2V (Figure 9): parameters `M, N, B`; left-looking blocked
/// ordering with I/O `≈ ½(M²N² − MN³/3)/S` at `B = ⌊S/M⌋ − 1`.
pub fn a2v_tiled_program() -> Program {
    let mut b = ProgramBuilder::new("qr_hh_a2v_tiled", &["M", "N", "B"]);
    let a = b.array("A", &[b.p("M"), b.p("N")]);
    let tau = b.array("tau", &[b.p("N")]);
    let tmp = b.scalar("tmp");
    let norma2 = b.scalar("norma2");
    let norma = b.scalar("norma");
    let bstep = LoopStep::Param(b.pid("B"));

    // Emits the "reflect column k by reflector j" block; dims positions are
    // passed in because the two phases nest (j, k) in opposite orders.
    // (pos_j, pos_i) give c.v positions of j and k; the inner i loop is
    // opened here.
    macro_rules! reflect_block {
        ($b:ident, $jd:ident, $kd:ident, $pj:expr, $pk:expr, $prefix:literal) => {{
            let rw_ajk = Access::new(a, vec![$b.d($jd), $b.d($kd)]);
            let w_tmp = Access::new(tmp, vec![]);
            $b.stmt(
                concat!($prefix, "t0"),
                vec![rw_ajk.clone()],
                vec![w_tmp.clone()],
                move |c| {
                    let (j, k) = (c.v($pj), c.v($pk));
                    let v = c.rd(a, &[j, k]);
                    c.wr(tmp, &[], v);
                },
            );
            {
                let i = $b.open("i", $b.d($jd) + 1, $b.p("M"));
                let r_aij = Access::new(a, vec![$b.d(i), $b.d($jd)]);
                let r_aik = Access::new(a, vec![$b.d(i), $b.d($kd)]);
                $b.stmt(
                    concat!($prefix, "t1"),
                    vec![r_aij, r_aik, w_tmp.clone()],
                    vec![w_tmp.clone()],
                    move |c| {
                        let (j, k, i) = (c.v($pj), c.v($pk), c.v(3));
                        let v = c.rd(tmp, &[]) + c.rd(a, &[i, j]) * c.rd(a, &[i, k]);
                        c.wr(tmp, &[], v);
                    },
                );
                $b.close();
            }
            let r_tauj = Access::new(tau, vec![$b.d($jd)]);
            $b.stmt(
                concat!($prefix, "t2"),
                vec![r_tauj, w_tmp.clone()],
                vec![w_tmp.clone()],
                move |c| {
                    let j = c.v($pj);
                    let v = c.rd(tau, &[j]) * c.rd(tmp, &[]);
                    c.wr(tmp, &[], v);
                },
            );
            $b.stmt(
                concat!($prefix, "row"),
                vec![rw_ajk.clone(), w_tmp.clone()],
                vec![rw_ajk.clone()],
                move |c| {
                    let (j, k) = (c.v($pj), c.v($pk));
                    let v = c.rd(a, &[j, k]) - c.rd(tmp, &[]);
                    c.wr(a, &[j, k], v);
                },
            );
            {
                let i = $b.open("i", $b.d($jd) + 1, $b.p("M"));
                let r_aij = Access::new(a, vec![$b.d(i), $b.d($jd)]);
                let rw_aik = Access::new(a, vec![$b.d(i), $b.d($kd)]);
                $b.stmt(
                    concat!($prefix, "su"),
                    vec![r_aij, rw_aik.clone(), w_tmp.clone()],
                    vec![rw_aik],
                    move |c| {
                        let (j, k, i) = (c.v($pj), c.v($pk), c.v(3));
                        let v = c.rd(a, &[i, k]) - c.rd(a, &[i, j]) * c.rd(tmp, &[]);
                        c.wr(a, &[i, k], v);
                    },
                );
                $b.close();
            }
        }};
    }

    let k0 = b.open_strided("k0", b.c(0), b.p("N"), bstep);
    let _ = k0;
    // Phase 1: apply all reflectors j < k0 to the block's columns.
    {
        let j = b.open("j", b.c(0), b.d(k0));
        let kk = b.open_general(
            "k",
            vec![b.d(k0)],
            vec![b.d(k0) + b.p("B"), b.p("N")],
            LoopStep::One,
            false,
        );
        reflect_block!(b, j, kk, 1, 2, "X");
        b.close();
        b.close();
    }
    // Phase 2: panel factorization inside the block.
    {
        let kk = b.open_general(
            "k",
            vec![b.d(k0)],
            vec![b.d(k0) + b.p("B"), b.p("N")],
            LoopStep::One,
            false,
        );
        {
            let j = b.open("j", b.d(k0), b.d(kk));
            reflect_block!(b, j, kk, 2, 1, "Y");
            b.close();
        }
        // Reflector generation for column k (same as the A2V head).
        let w_n2 = Access::new(norma2, vec![]);
        b.stmt("Yn0", vec![], vec![w_n2.clone()], move |c| {
            c.wr(norma2, &[], 0.0)
        });
        {
            let i = b.open("i", b.d(kk) + 1, b.p("M"));
            let r_aik = Access::new(a, vec![b.d(i), b.d(kk)]);
            b.stmt(
                "Yn1",
                vec![r_aik, w_n2.clone()],
                vec![w_n2.clone()],
                move |c| {
                    let (k, i) = (c.v(1), c.v(2));
                    let x = c.rd(a, &[i, k]);
                    let v = c.rd(norma2, &[]) + x * x;
                    c.wr(norma2, &[], v);
                },
            );
            b.close();
        }
        let w_nrm = Access::new(norma, vec![]);
        let rw_akk = Access::new(a, vec![b.d(kk), b.d(kk)]);
        b.stmt(
            "Ynorm",
            vec![rw_akk.clone(), w_n2.clone()],
            vec![w_nrm.clone()],
            move |c| {
                let k = c.v(1);
                let akk = c.rd(a, &[k, k]);
                let v = (akk * akk + c.rd(norma2, &[])).sqrt();
                c.wr(norma, &[], v);
            },
        );
        b.stmt(
            "Yakk",
            vec![rw_akk.clone(), w_nrm.clone()],
            vec![rw_akk.clone()],
            move |c| {
                let k = c.v(1);
                let akk = c.rd(a, &[k, k]);
                let nr = c.rd(norma, &[]);
                c.wr(a, &[k, k], if akk > 0.0 { akk + nr } else { akk - nr });
            },
        );
        let w_tauk = Access::new(tau, vec![b.d(kk)]);
        b.stmt(
            "Ytau",
            vec![w_n2.clone(), rw_akk.clone()],
            vec![w_tauk],
            move |c| {
                let k = c.v(1);
                let akk = c.rd(a, &[k, k]);
                let v = 2.0 / (1.0 + c.rd(norma2, &[]) / (akk * akk));
                c.wr(tau, &[k], v);
            },
        );
        {
            let i = b.open("i", b.d(kk) + 1, b.p("M"));
            let rw_aik = Access::new(a, vec![b.d(i), b.d(kk)]);
            b.stmt(
                "Yscale",
                vec![rw_aik.clone(), rw_akk.clone()],
                vec![rw_aik],
                move |c| {
                    let (k, i) = (c.v(1), c.v(2));
                    let v = c.rd(a, &[i, k]) / c.rd(a, &[k, k]);
                    c.wr(a, &[i, k], v);
                },
            );
            b.close();
        }
        b.stmt(
            "Yflip",
            vec![rw_akk.clone(), w_nrm.clone()],
            vec![rw_akk.clone()],
            move |c| {
                let k = c.v(1);
                let akk = c.rd(a, &[k, k]);
                let nr = c.rd(norma, &[]);
                c.wr(a, &[k, k], if akk > 0.0 { -nr } else { nr });
            },
        );
        b.close();
    }
    b.close();
    b.finish()
}

/// Native A2V; returns `(V\R in place, tau)`.
pub fn a2v_native(a0: &Matrix) -> (Matrix, Vec<f64>) {
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut tau = vec![0.0; n];
    for k in 0..n {
        let mut norma2 = 0.0;
        for i in k + 1..m {
            norma2 += a[(i, k)] * a[(i, k)];
        }
        let norma = (a[(k, k)] * a[(k, k)] + norma2).sqrt();
        a[(k, k)] = if a[(k, k)] > 0.0 {
            a[(k, k)] + norma
        } else {
            a[(k, k)] - norma
        };
        tau[k] = 2.0 / (1.0 + norma2 / (a[(k, k)] * a[(k, k)]));
        for i in k + 1..m {
            a[(i, k)] /= a[(k, k)];
        }
        a[(k, k)] = if a[(k, k)] > 0.0 { -norma } else { norma };
        for j in k + 1..n {
            let mut t = a[(k, j)];
            for i in k + 1..m {
                t += a[(i, k)] * a[(i, j)];
            }
            t *= tau[k];
            a[(k, j)] -= t;
            for i in k + 1..m {
                a[(i, j)] -= a[(i, k)] * t;
            }
        }
    }
    (a, tau)
}

/// Native V2Q; expands `(V, tau)` (as produced by A2V) into thin `Q`.
pub fn v2q_native(vr: &Matrix, tau0: &[f64]) -> Matrix {
    let (m, n) = (vr.rows, vr.cols);
    let mut a = vr.clone();
    let mut tau = tau0.to_vec();
    for k in (0..n).rev() {
        for j in k + 1..n {
            tau[j] = 0.0;
            for i in k + 1..m {
                tau[j] += a[(i, k)] * a[(i, j)];
            }
        }
        for j in k + 1..n {
            tau[j] *= tau[k];
        }
        a[(k, k)] = 1.0 - tau[k];
        for j in k + 1..n {
            a[(k, j)] = -tau[j];
        }
        for j in k + 1..n {
            for i in k + 1..m {
                a[(i, j)] -= a[(i, k)] * tau[j];
            }
        }
        for i in k + 1..m {
            a[(i, k)] = -a[(i, k)] * tau[k];
        }
    }
    a
}

/// Native tiled A2V (Figure 9); returns `(V\R, tau)`.
pub fn a2v_tiled_native(a0: &Matrix, block: usize) -> (Matrix, Vec<f64>) {
    assert!(block >= 1);
    let (m, n) = (a0.rows, a0.cols);
    let mut a = a0.clone();
    let mut tau = vec![0.0; n];
    let reflect = |a: &mut Matrix, tau: &[f64], j: usize, k: usize| {
        let mut t = a[(j, k)];
        for i in j + 1..m {
            t += a[(i, j)] * a[(i, k)];
        }
        t *= tau[j];
        a[(j, k)] -= t;
        for i in j + 1..m {
            a[(i, k)] -= a[(i, j)] * t;
        }
    };
    let mut k0 = 0;
    while k0 < n {
        let kend = (k0 + block).min(n);
        for j in 0..k0 {
            for k in k0..kend {
                reflect(&mut a, &tau, j, k);
            }
        }
        for k in k0..kend {
            for j in k0..k {
                reflect(&mut a, &tau, j, k);
            }
            let mut norma2 = 0.0;
            for i in k + 1..m {
                norma2 += a[(i, k)] * a[(i, k)];
            }
            let norma = (a[(k, k)] * a[(k, k)] + norma2).sqrt();
            a[(k, k)] = if a[(k, k)] > 0.0 {
                a[(k, k)] + norma
            } else {
                a[(k, k)] - norma
            };
            tau[k] = 2.0 / (1.0 + norma2 / (a[(k, k)] * a[(k, k)]));
            for i in k + 1..m {
                a[(i, k)] /= a[(k, k)];
            }
            a[(k, k)] = if a[(k, k)] > 0.0 { -norma } else { norma };
        }
        k0 += block;
    }
    (a, tau)
}

/// Appendix A.2 block size (same constraint as A.1): `B = ⌊S/M⌋ − 1`.
pub fn a2_block_size(m: usize, s: usize) -> usize {
    (s / m).saturating_sub(1).max(1)
}

/// Appendix A.2 read-cost model at block size `B`:
/// `(½MN² − N³/6)/B` (reflector reloads) + `2MN` (block moves).
pub fn a2_reads_model(m: usize, n: usize, block: usize) -> f64 {
    let (m, n, b) = (m as f64, n as f64, block as f64);
    (0.5 * m * n * n - n * n * n / 6.0) / b + 2.0 * m * n
}

/// Appendix A.2 headline I/O: `½(M²N² − MN³/3)/S`.
pub fn a2_io_headline(m: usize, n: usize, s: usize) -> f64 {
    let (m, n, s) = (m as f64, n as f64, s as f64);
    0.5 * (m * m * n * n - m * n * n * n / 3.0) / s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{extract_matrix, extract_vector, run_with_inputs};
    use crate::matrix::dense_q_from_reflectors;

    #[test]
    fn a2v_factors_a() {
        let a0 = Matrix::random(10, 6, 21);
        let (vr, tau) = a2v_native(&a0);
        // Rebuild dense Q from reflectors; A = Q · [R; 0].
        let q = dense_q_from_reflectors(&vr, &tau, 0);
        assert!(q.orthonormality_error() < 1e-10);
        let mut rfull = Matrix::zeros(10, 6);
        for i in 0..6 {
            for j in i..6 {
                rfull[(i, j)] = vr[(i, j)];
            }
        }
        assert!(q.matmul(&rfull).max_abs_diff(&a0) < 1e-9);
    }

    #[test]
    fn v2q_matches_dense_expansion() {
        let a0 = Matrix::random(9, 5, 33);
        let (vr, tau) = a2v_native(&a0);
        let qthin = v2q_native(&vr, &tau);
        let qdense = dense_q_from_reflectors(&vr, &tau, 0);
        // First N columns of the dense Q.
        let expect = Matrix::from_fn(9, 5, |i, j| qdense[(i, j)]);
        assert!(qthin.max_abs_diff(&expect) < 1e-10);
        assert!(qthin.orthonormality_error() < 1e-10);
    }

    #[test]
    fn qr_roundtrip_through_both_parts() {
        let a0 = Matrix::random(12, 8, 4);
        let (vr, tau) = a2v_native(&a0);
        let q = v2q_native(&vr, &tau);
        let r = vr.upper_triangular(8);
        // A ≈ Q_thin · R.
        assert!(q.matmul(&r).max_abs_diff(&a0) < 1e-9);
    }

    #[test]
    fn a2v_ir_matches_native() {
        let a0 = Matrix::random(8, 5, 9);
        let p = a2v_program();
        let store = run_with_inputs(&p, &[8, 5], &[("A", &a0)]);
        let vr_ir = extract_matrix(&p, &[8, 5], &store, "A");
        let tau_ir = extract_vector(&p, &[8, 5], &store, "tau");
        let (vr, tau) = a2v_native(&a0);
        assert!(vr_ir.max_abs_diff(&vr) < 1e-12);
        for (a, b) in tau_ir.iter().zip(&tau) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn v2q_ir_matches_native() {
        let a0 = Matrix::random(8, 5, 10);
        let (vr, tau) = a2v_native(&a0);
        let p = v2q_program();
        let tau_m = Matrix {
            rows: 1,
            cols: 5,
            data: tau.clone(),
        };
        // tau is 1-D; pass through a 1×N matrix view of the data.
        let store = {
            let lookupable = [("A", &vr)];
            let mut store = iolb_ir::Store::init(&p, &[8, 5], |arr, f| {
                let name = &p.arrays[arr.0 as usize].name;
                if name == "A" {
                    lookupable[0].1.data[f]
                } else if name == "tau" {
                    tau_m.data[f]
                } else {
                    0.0
                }
            });
            iolb_ir::Interpreter::new(&p, &[8, 5]).run(&mut store, &mut iolb_ir::NullSink);
            store
        };
        let q_ir = extract_matrix(&p, &[8, 5], &store, "A");
        let q = v2q_native(&vr, &tau);
        assert!(q_ir.max_abs_diff(&q) < 1e-12);
    }

    #[test]
    fn tiled_a2v_matches_untiled() {
        let a0 = Matrix::random(11, 7, 17);
        let (vr_ref, tau_ref) = a2v_native(&a0);
        for block in [1, 2, 3, 7] {
            let (vr, tau) = a2v_tiled_native(&a0, block);
            assert!(vr.max_abs_diff(&vr_ref) < 1e-9, "B={block}");
            for (a, b) in tau.iter().zip(&tau_ref) {
                assert!((a - b).abs() < 1e-9, "B={block}");
            }
        }
    }

    #[test]
    fn tiled_a2v_ir_matches_tiled_native() {
        let a0 = Matrix::random(9, 6, 29);
        let p = a2v_tiled_program();
        for block in [2i64, 3] {
            let store = run_with_inputs(&p, &[9, 6, block], &[("A", &a0)]);
            let vr_ir = extract_matrix(&p, &[9, 6, block], &store, "A");
            let tau_ir = extract_vector(&p, &[9, 6, block], &store, "tau");
            let (vr, tau) = a2v_tiled_native(&a0, block as usize);
            assert!(vr_ir.max_abs_diff(&vr) < 1e-12, "B={block}");
            for (x, y) in tau_ir.iter().zip(&tau) {
                assert!((x - y).abs() < 1e-12, "B={block}");
            }
        }
    }

    #[test]
    fn all_ir_variants_validate() {
        assert!(iolb_ir::interp::validate_accesses(&a2v_program(), &[8, 5]).unwrap() > 0);
        assert!(iolb_ir::interp::validate_accesses(&v2q_program(), &[8, 5]).unwrap() > 0);
        assert!(iolb_ir::interp::validate_accesses(&a2v_tiled_program(), &[8, 5, 2]).unwrap() > 0);
    }

    #[test]
    fn tiled_io_beats_untiled_under_lru() {
        let (m, n, s) = (24usize, 12usize, 128usize);
        let block = a2_block_size(m, s) as i64;
        let a0 = Matrix::random(m, n, 6);
        let mk_init = |a0: &Matrix| {
            let a = a0.clone();
            move |arr: iolb_ir::ArrayId, f: usize| if arr.0 == 0 { a.data[f] } else { 0.0 }
        };
        let (untiled, _) = crate::sinks::measure_lru_min_io(
            &a2v_program(),
            &[m as i64, n as i64],
            s,
            mk_init(&a0),
        );
        let (tiled, _) = crate::sinks::measure_lru_min_io(
            &a2v_tiled_program(),
            &[m as i64, n as i64, block],
            s,
            mk_init(&a0),
        );
        assert!(
            tiled.loads < untiled.loads,
            "tiled {} < untiled {}",
            tiled.loads,
            untiled.loads
        );
    }
}
