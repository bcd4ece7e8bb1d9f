//! The paper's linear-algebra kernels, from scratch.
//!
//! Every kernel of the evaluation (§5) is provided in two synchronized
//! forms:
//!
//! 1. an **IR program** ([`iolb_ir::Program`]) transcribed statement-for-
//!    statement from the paper's listings — the input of the bound
//!    derivation engine, certified by `validate_accesses`, and
//! 2. a **native f64 implementation** used for numerical ground truth
//!    (QR / bidiagonal / Hessenberg reconstruction checks) and performance
//!    benchmarks.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`mgs`] | Modified Gram-Schmidt, right-looking (Fig. 1) + tiled left-looking (Fig. 8, Appendix A.1) |
//! | [`householder`] | QR Householder A2V/GEQR2 (Fig. 3), V2Q/ORG2R (Fig. 6), tiled A2V (Fig. 9, Appendix A.2) |
//! | [`gebd2`] | reduction to bidiagonal form (LAPACK GEBD2) |
//! | [`gehd2`] | reduction to Hessenberg form (Fig. 7) |
//! | [`gemm`] | matrix multiply — the classical K-partitioning baseline (no hourglass) |
//!
//! [`sinks::measure_lru_min_io`] bridges the IR interpreter to the
//! two-level cache simulators so any kernel/schedule's I/O can be measured
//! directly.

pub mod exec;
pub mod gebd2;
pub mod gehd2;
pub mod gemm;
pub mod householder;
pub mod matrix;
pub mod mgs;
pub mod sinks;

pub use matrix::Matrix;

/// A kernel registered for sweeping in benches and validation tests.
pub struct KernelInfo {
    /// Kernel name as used in the paper's tables.
    pub name: &'static str,
    /// IR constructor.
    pub build: fn() -> iolb_ir::Program,
    /// Parameter values for an (M, N) problem, in program-parameter order.
    pub params: fn(m: i64, n: i64) -> Vec<i64>,
    /// Name of the hourglass (broadcast) statement, when the kernel has one.
    pub hourglass_stmt: Option<&'static str>,
}

/// All analyzable (untiled, unit-step) kernels.
pub fn analyzable_kernels() -> Vec<KernelInfo> {
    vec![
        KernelInfo {
            name: "MGS",
            build: mgs::program,
            params: |m, n| vec![m, n],
            hourglass_stmt: Some("SU"),
        },
        KernelInfo {
            name: "QR HH A2V",
            build: householder::a2v_program,
            params: |m, n| vec![m, n],
            hourglass_stmt: Some("SU"),
        },
        KernelInfo {
            name: "QR HH V2Q",
            build: householder::v2q_program,
            params: |m, n| vec![m, n],
            hourglass_stmt: Some("SU"),
        },
        KernelInfo {
            name: "GEBD2",
            build: gebd2::program,
            params: |m, n| vec![m, n],
            hourglass_stmt: Some("SU"),
        },
        KernelInfo {
            name: "GEHD2",
            build: gehd2::program,
            params: |_m, n| vec![n],
            hourglass_stmt: Some("SU1"),
        },
        KernelInfo {
            name: "GEMM",
            build: gemm::program,
            params: |m, n| vec![m, n, (m + n) / 2],
            hourglass_stmt: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_and_validates() {
        for k in analyzable_kernels() {
            let p = (k.build)();
            let params = (k.params)(8, 5);
            let checked = iolb_ir::interp::validate_accesses(&p, &params)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(checked > 0, "{} executed no instance", k.name);
            if let Some(h) = k.hourglass_stmt {
                assert!(p.stmt_id(h).is_some(), "{} lacks statement {h}", k.name);
            }
        }
    }
}
