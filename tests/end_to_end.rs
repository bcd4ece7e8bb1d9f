//! Workspace-level end-to-end test: IR → interpreter → numerics → CDAG →
//! dependence analysis → hourglass detection/certification → derived bound
//! → pebble-game soundness, all on the public facade API.

use hourglass_iolb::cdag::{build_cdag, PebbleGame, SpillPolicy};
use hourglass_iolb::core::{self, report::analyze_kernel};
use hourglass_iolb::kernels::{self, Matrix};
use hourglass_iolb::prelude::*;

#[test]
fn full_pipeline_mgs() {
    let program = kernels::mgs::program();

    // Declared accesses match executed accesses.
    let checked = hourglass_iolb::ir::interp::validate_accesses(&program, &[10, 6]).unwrap();
    assert!(checked > 0);

    // Numerics: the IR really computes a QR factorization.
    let a = Matrix::random(10, 6, 99);
    let store = kernels::exec::run_with_inputs(&program, &[10, 6], &[("A", &a)]);
    let q = kernels::exec::extract_matrix(&program, &[10, 6], &store, "Q");
    let r = kernels::exec::extract_matrix(&program, &[10, 6], &store, "R");
    assert!(q.orthonormality_error() < 1e-10);
    assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);

    // Derivation reproduces the paper's formulas.
    let report = analyze_kernel(&program, "MGS", "SU").unwrap();
    assert_eq!(report.old.sigma, Rational::new(3, 2));
    let env = [
        (Var::new("M"), 1024i128),
        (Var::new("N"), 128),
        (core::s_var(), 256),
    ];
    let new = report.new.main_tool.eval_ints_f64(&env);
    let expect = 1024.0f64 * 1024.0 * 127.0 * 126.0 / (8.0 * (1024.0 + 256.0));
    assert!((new / expect - 1.0).abs() < 1e-12);

    // Pebble soundness through the facade.
    let g = build_cdag(&program, &[16, 8]);
    for s in [8usize, 16, 40] {
        let play = PebbleGame::new(&g, s)
            .play_program_order(SpillPolicy::MinNextUse)
            .unwrap();
        let lb = report
            .new
            .eval_floor(&[(Var::new("M"), 16), (Var::new("N"), 8)], s as i128);
        assert!(lb <= play.loads as f64, "S={s}: {lb} vs {}", play.loads);
    }
}

#[test]
fn upper_and_lower_bounds_sandwich_tiled_mgs() {
    // Theorem 5 LB ≤ measured tiled I/O ≤ O(Appendix A.1 model): tightness.
    let (m, n) = (48usize, 24usize);
    let a = Matrix::random(m, n, 5);
    let report = analyze_kernel(&kernels::mgs::program(), "MGS", "SU").unwrap();
    let tiled = kernels::mgs::tiled_program();
    for s in [256usize, 512, 1024] {
        let block = kernels::mgs::a1_block_size(m, s);
        let params = [m as i64, n as i64, block as i64];
        let data = a.data.clone();
        let (_, min) = kernels::sinks::measure_lru_min_io(&tiled, &params, s, move |arr, f| {
            if arr.0 == 0 {
                data[f]
            } else {
                0.0
            }
        });
        let lb = report.new.combined.eval_ints_f64(&[
            (Var::new("M"), m as i128),
            (Var::new("N"), n as i128),
            (core::s_var(), s as i128),
        ]);
        let model = kernels::mgs::a1_reads_model(m, n, block);
        assert!(lb <= min.loads as f64, "S={s}");
        assert!((min.loads as f64) < 3.0 * model, "S={s}");
    }
}

#[test]
fn memsim_agrees_with_pebble_game_ordering() {
    // The LRU cache simulation of the full trace and an LRU pebble play on
    // the CDAG implement the same model from two angles; both must sit
    // above the derived bound and shrink as S grows.
    let program = kernels::mgs::program();
    let params = [16i64, 8];
    let g = build_cdag(&program, &params);
    let mut prev_play = u64::MAX;
    let mut prev_sim = u64::MAX;
    for s in [12usize, 24, 48, 96] {
        let play = PebbleGame::new(&g, s)
            .play_program_order(SpillPolicy::Lru)
            .unwrap();
        let (sim, _) = kernels::sinks::measure_lru_min_io(&program, &params, s, |_, f| f as f64);
        assert!(play.loads <= prev_play);
        assert!(sim.loads <= prev_sim);
        prev_play = play.loads;
        prev_sim = sim.loads;
    }
}

#[test]
fn prelude_surface_is_usable() {
    // Build a custom program through the public builder and derive a bound.
    let mut b = ProgramBuilder::new("user_kernel", &["N"]);
    let x = b.array("x", &[b.p("N")]);
    let acc = b.scalar("acc");
    let wa = hourglass_iolb::ir::Access::new(acc, vec![]);
    b.stmt("Z", vec![], vec![wa.clone()], move |c| c.wr(acc, &[], 0.0));
    let i = b.open("i", b.c(0), b.p("N"));
    let xi = hourglass_iolb::ir::Access::new(x, vec![b.d(i)]);
    b.stmt("S", vec![xi, wa.clone()], vec![wa], move |c| {
        let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
        c.wr(acc, &[], v);
    });
    b.close();
    let p = b.finish();
    let interp = Interpreter::new(&p, &[10]);
    let store = interp.run_numeric(|a, f| if a.0 == 0 { f as f64 } else { 0.0 });
    assert_eq!(store.data[1][0], 45.0);
    let analysis = Analysis::run(&p, &[vec![10]]).unwrap();
    let su = p.stmt_id("S").unwrap();
    let bound = analysis.classical_bound(su);
    assert!(bound.sigma >= Rational::ONE);
}
