//! Measures the I/O of the paper's tiled MGS ordering (Fig. 8) in the
//! two-level cache simulator and compares it against the Appendix A.1 cost
//! model and the hourglass lower bound (the upper/lower sandwich that
//! proves tightness).
//!
//! Run with `cargo run --release --example tiled_io_sweep`.

use hourglass_iolb::kernels::{self, Matrix};
use hourglass_iolb::prelude::*;

fn main() {
    let (m, n) = (64usize, 32usize);
    let a = Matrix::random(m, n, 1);
    let report = analyze_kernel(&kernels::mgs::program(), "MGS", "SU").expect("derivation");
    let tiled = kernels::mgs::tiled_program();
    println!("tiled MGS I/O sweep (M={m}, N={n}):");
    println!(
        "{:>7} {:>4} {:>12} {:>12} {:>12} {:>12}",
        "S", "B", "LRU loads", "MIN loads", "model", "lower bound"
    );
    for s in [192usize, 256, 384, 512, 768, 1024] {
        let block = kernels::mgs::a1_block_size(m, s);
        let params = [m as i64, n as i64, block as i64];
        let (lru, min) = kernels::sinks::measure_lru_min_io(&tiled, &params, s, |arr, f| {
            if arr.0 == 0 {
                a.data[f]
            } else {
                0.0
            }
        });
        let lb = report.new.combined.eval_ints_f64(&[
            (Var::new("M"), m as i128),
            (Var::new("N"), n as i128),
            (hourglass_iolb::core::s_var(), s as i128),
        ]);
        println!(
            "{:>7} {:>4} {:>12} {:>12} {:>12.0} {:>12.0}",
            s,
            block,
            lru.loads,
            min.loads,
            kernels::mgs::a1_reads_model(m, n, block),
            lb
        );
        assert!(lb <= min.loads as f64, "lower bound must hold");
    }
    println!("\nlower bound ≤ measured I/O everywhere; measured tracks the ½MN²/B model ✓");
}
