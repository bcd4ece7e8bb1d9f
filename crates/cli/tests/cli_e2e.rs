//! End-to-end CLI runs over shipped `.iolb` files: parse → bounds → CDAG →
//! MIN/LRU pebble validation → tightness measurement, every cell sound,
//! non-paper workloads included.

use iolb_cli::{parse_args, run_file, FileOutcome, Options};
use std::path::PathBuf;

fn kernels_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../kernels")
}

fn small_opts() -> Options {
    parse_args(&[
        "--s-grid".to_string(),
        "0,8,64".to_string(),
        "x".to_string(),
    ])
    .unwrap()
}

fn run_ok(file: &str, opts: &Options) -> FileOutcome {
    run_file(&kernels_dir().join(file), opts).expect("pipeline")
}

fn rows(outcome: &FileOutcome) -> &[iolb_bench::sweep::SweepRow] {
    &outcome.report.as_ref().expect("validation ran").rows
}

#[test]
fn cholesky_full_pipeline_is_sound() {
    // The shipped default (N = 64) is the benchmark-suite size; the
    // debug-build test pins a smaller one.
    let mut opts = small_opts();
    opts.analysis.params_override = vec![("N".to_string(), 32)];
    let outcome = run_ok("cholesky.iolb", &opts);
    assert_eq!(outcome.name, "cholesky");
    assert!(outcome.sound, "every cell must be sound");
    assert_eq!(rows(&outcome).len(), 3 * 2, "S grid × {{LRU, MIN}}");
    // A non-paper kernel must still produce non-trivial classical bounds.
    assert!(
        rows(&outcome).iter().all(|r| r.lb_classical > 0.0),
        "cholesky must have a real σ-bound in every cell"
    );
    // The tightness section exists and every ratio is finite and ≥ 1.
    let t = outcome.tightness.expect("tightness measured");
    assert_eq!(t.points.len(), 3);
    for p in &t.points {
        assert!(
            p.ratio().is_finite() && p.ratio() >= 1.0 - 1e-9,
            "S={}",
            p.s
        );
    }
}

#[test]
fn lu_and_syrk_full_pipeline_is_sound() {
    let mut opts = small_opts();
    opts.analysis.params_override = vec![("N".to_string(), 24)];
    for file in ["lu_nopiv.iolb", "syrk.iolb"] {
        let outcome = run_ok(file, &opts);
        assert!(outcome.sound, "{file}: every cell must be sound");
        assert!(
            rows(&outcome).iter().all(|r| r.lb_classical > 0.0),
            "{file}: non-trivial bounds expected"
        );
    }
}

#[test]
fn jacobi_stencil_degrades_gracefully() {
    // No covering projection set and no hourglass: the symbolic bounds
    // are trivial in every cell, but the pipeline must not abort and the
    // graph-level engines now supply a finite positive lower bound (the
    // input floor alone guarantees one — jacobi reads inputs).
    let opts = small_opts();
    let outcome = run_ok("jacobi2d.iolb", &opts);
    assert!(outcome.sound);
    for r in rows(&outcome) {
        assert_eq!(r.lb_classical, 0.0, "S={}", r.s);
        assert_eq!(r.lb_hourglass, 0.0, "S={}", r.s);
        let graph = r.lb_graph().expect("graph engines apply");
        assert!(graph > 0, "S={}", r.s);
        assert_eq!(r.lb(), graph as f64, "S={}", r.s);
        assert!(
            !matches!(
                r.lb_provenance,
                iolb_core::BoundProvenance::Classical | iolb_core::BoundProvenance::Hourglass
            ),
            "best bound must come from a graph engine, got {:?}",
            r.lb_provenance
        );
    }
    let t = outcome.tightness.expect("tightness measured");
    for p in &t.points {
        assert!(p.lb_inputs > 0.0, "jacobi reads inputs");
        assert!(p.ratio().is_finite(), "S={}", p.s);
    }
}

#[test]
fn params_override_applies() {
    let mut opts = small_opts();
    opts.analysis.params_override = vec![("N".to_string(), 12)];
    let outcome = run_ok("cholesky.iolb", &opts);
    assert!(outcome.sound);
    assert!(rows(&outcome).iter().all(|r| r.params == vec![12]));
}

#[test]
fn missing_file_and_bad_args_are_errors() {
    let opts = small_opts();
    let err = run_file(&kernels_dir().join("nope.iolb"), &opts).unwrap_err();
    assert_eq!(err.class_name(), "parse", "{err}");
    assert_eq!(err.exit_code(), 2);
    assert!(parse_args(&["--s-grid".to_string(), "a,b".to_string()]).is_err());
    assert!(parse_args(&[]).is_err());
    assert!(parse_args(&["--params".to_string(), "N".to_string(), "f".to_string()]).is_err());
    // --derive-only writes no cells, so combining it with --json (or the
    // tightness report) is a usage error rather than an empty report.
    let err = parse_args(&[
        "--derive-only".to_string(),
        "--json".to_string(),
        "out.json".to_string(),
        "f.iolb".to_string(),
    ])
    .unwrap_err();
    assert!(err.contains("--derive-only"), "{err}");
    let err = parse_args(&[
        "--derive-only".to_string(),
        "--tightness-json".to_string(),
        "t.json".to_string(),
        "f.iolb".to_string(),
    ])
    .unwrap_err();
    assert!(err.contains("--derive-only"), "{err}");
    let err = parse_args(&[
        "--no-tightness".to_string(),
        "--tightness-json".to_string(),
        "t.json".to_string(),
        "f.iolb".to_string(),
    ])
    .unwrap_err();
    assert!(err.contains("contradicts"), "{err}");
}

#[test]
fn unknown_params_override_is_an_error() {
    let mut opts = small_opts();
    opts.analysis.params_override = vec![("NN".to_string(), 12)];
    let err = run_file(&kernels_dir().join("cholesky.iolb"), &opts).unwrap_err();
    assert_eq!(err.class_name(), "refused", "{err}");
    assert!(err.to_string().contains("unknown parameter NN"), "{err}");
}

#[test]
fn no_tightness_skips_the_measurement() {
    let mut opts = small_opts();
    opts.analysis.params_override = vec![("N".to_string(), 24)];
    opts.analysis.no_tightness = true;
    let outcome = run_ok("cholesky.iolb", &opts);
    assert!(outcome.tightness.is_none());
    assert!(!outcome.output.contains("tightness"));
}

#[test]
fn paper_kernel_through_cli_matches_builder_sweep() {
    // MGS from the shipped file at the default full size: the hourglass
    // bound column must be non-trivial (the tightened bound survives the
    // DSL round-trip into the validation matrix).
    let opts = small_opts();
    let outcome = run_ok("mgs.iolb", &opts);
    assert!(outcome.sound);
    assert!(rows(&outcome).iter().all(|r| r.lb_hourglass > 0.0));
}

#[test]
fn tiled_gemm_is_within_factor_two_of_its_lower_bound() {
    // The paper's tightness methodology: the measured I/O of the blocked
    // execution must sit within a small constant of the derived lower
    // bound. For GEMM (no hourglass pattern; the classical σ-bound is the
    // framework's bound) the auto-tuned blocked schedule must stay within
    // a factor 2 on the swept S grid — except at the feasibility minimum
    // S = indeg + 1, where only 1×1 tiles exist and even the optimal play
    // cannot reach 2·LB (the bound itself is ≈4 % loose there; the gate
    // still pins that point against regression).
    let opts = parse_args(&["x".to_string()]).unwrap(); // default dense S grid
    let outcome = run_ok("gemm_tiled.iolb", &opts);
    assert!(outcome.sound);
    let t = outcome.tightness.expect("tightness measured");
    assert_eq!(
        t.points.len(),
        iolb_bench::sweep::dense_s_offsets().len(),
        "default grid is the dense one"
    );
    let min_s = t.points[0].s;
    for p in &t.points {
        if p.s >= min_s + 4 {
            assert!(
                p.ratio() <= 2.0 + 1e-9,
                "S={}: ratio {:.3} exceeds 2 (schedule {})",
                p.s,
                p.ratio(),
                p.upper_schedule
            );
        } else {
            assert!(
                p.ratio() <= 2.2,
                "near-feasibility point regressed at S={}: {:.3}",
                p.s,
                p.ratio()
            );
        }
    }
}

#[test]
fn scheduled_kernel_tuner_finds_a_blocked_winner() {
    // The shipped tiled-GEMM variant carries `schedule` directives; at a
    // generous S the auto-tuned blocked order must beat program order.
    let opts = small_opts();
    let outcome = run_ok("gemm_tiled.iolb", &opts);
    assert!(outcome.sound);
    let t = outcome.tightness.expect("tightness measured");
    let last = t.points.last().unwrap();
    assert!(
        last.upper_schedule.starts_with("tile"),
        "expected a blocked winner, got {}",
        last.upper_schedule
    );
    assert!(last.upper_loads < last.program_order_loads);
}

// ---------------------------------------------------------------------------
// `iolb fuzz`
// ---------------------------------------------------------------------------

#[test]
fn fuzz_args_require_a_seed_and_report_it() {
    // No wall-clock fallback: a seedless invocation is a usage error.
    let err = iolb_cli::parse_fuzz_args(&["--cases".to_string(), "5".to_string()]).unwrap_err();
    assert!(err.contains("--seed"), "{err}");

    let opts = iolb_cli::parse_fuzz_args(&[
        "--seed".to_string(),
        "9".to_string(),
        "--cases".to_string(),
        "4".to_string(),
        "--max-dims".to_string(),
        "3".to_string(),
    ])
    .unwrap();
    assert_eq!((opts.seed, opts.cases, opts.max_dims), (9, 4, 3));
    assert!(iolb_cli::parse_fuzz_args(&[
        "--seed".to_string(),
        "1".to_string(),
        "--max-dims".to_string(),
        "99".to_string()
    ])
    .is_err());
}

#[test]
fn fuzz_run_is_clean_and_its_json_is_seed_stamped_and_deterministic() {
    let mut config = iolb_fuzz::FuzzConfig::new(2025, 8);
    config.s_offsets = vec![0, 2, 8];
    let a = iolb_fuzz::run_fuzz(&config);
    assert!(
        a.failures.is_empty(),
        "violations: {:?}",
        a.failures
            .iter()
            .map(|f| (f.violation.invariant, f.violation.detail.clone()))
            .collect::<Vec<_>>()
    );
    let json_a = iolb_fuzz::fuzz_report_json(&a);
    let json_b = iolb_fuzz::fuzz_report_json(&iolb_fuzz::run_fuzz(&config));
    assert_eq!(json_a, json_b, "bitwise-deterministic replays");
    assert!(
        json_a.contains("\"seed\": 2025"),
        "seed is a required field"
    );
    assert!(json_a.contains("\"schema\": \"hourglass-iolb/fuzz/v1\""));
}

/// Symbolic bounds render the same text whatever the process analyzed
/// before: gemm's section of a syrk-then-gemm batch (syrk interns `N`
/// and `K` before gemm's `M`) equals gemm's section when it runs alone.
/// One worker keeps the batch in file order, so syrk really runs first.
#[test]
fn bound_text_does_not_depend_on_earlier_kernels() {
    let derive = |files: &[&str]| {
        let mut args = vec!["--derive-only".to_string()];
        args.extend(
            files
                .iter()
                .map(|f| kernels_dir().join(f).to_str().expect("utf8").to_string()),
        );
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_iolb"))
            .args(&args)
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("spawn iolb");
        assert!(out.status.success(), "iolb {args:?} failed");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    let section = |text: &str, kernel: &str| {
        let start = text
            .find(&format!("── {kernel} "))
            .unwrap_or_else(|| panic!("no {kernel} section in:\n{text}"));
        let rest = &text[start..];
        rest[..rest.find("\n\n").unwrap_or(rest.len())].to_string()
    };
    let alone = section(&derive(&["gemm.iolb"]), "gemm");
    let after_syrk = section(&derive(&["syrk.iolb", "gemm.iolb"]), "gemm");
    assert_eq!(after_syrk, alone);
    assert!(
        alone.contains("(N·M·K + -1·N·K)"),
        "gemm's classical bound in render order:\n{alone}"
    );
}

/// The batch sweep JSON reports the batch's own wall time: files run
/// concurrently, so a sum of per-file walls could exceed the time the
/// batch really took.
#[test]
fn sweep_json_wall_time_is_the_batch_wall() {
    let json = std::env::temp_dir().join(format!("iolb-wall-{}.json", std::process::id()));
    let mut args: Vec<String> = ["--s-grid", "0,8", "--no-tightness", "--json"]
        .iter()
        .map(|a| a.to_string())
        .collect();
    args.push(json.to_str().expect("utf8 tmp path").to_string());
    for file in ["gemm.iolb", "syrk.iolb", "gemm_tiled.iolb", "cholesky.iolb"] {
        args.push(kernels_dir().join(file).to_str().expect("utf8").to_string());
    }
    let t = std::time::Instant::now();
    assert_eq!(iolb_cli::run_with_code(&args), 0);
    let measured_ms = t.elapsed().as_secs_f64() * 1e3;
    let text = std::fs::read_to_string(&json).expect("sweep json");
    let _ = std::fs::remove_file(&json);
    let at = text.find("\"total_wall_ms\": ").expect("meta wall") + "\"total_wall_ms\": ".len();
    let end = text[at..].find([',', '}']).expect("field end");
    let wall_ms: f64 = text[at..at + end].trim().parse().expect("number");
    assert!(wall_ms > 0.0, "live wall recorded");
    assert!(
        wall_ms <= measured_ms,
        "reported wall {wall_ms} ms exceeds the measured batch wall {measured_ms} ms"
    );
}

/// Analysis flags go through the shared switchboard, so the CLI reports
/// what the switchboard accepts: a bad `--inject` spec lists every seam,
/// the store seams included, and the retired `--curve-strategy` flag is
/// an unknown option.
#[test]
fn bad_inject_spec_lists_every_seam() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_iolb"))
            .args(args)
            .output()
            .expect("spawn iolb");
        let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
        (out.status.code(), stderr)
    };
    let (code, stderr) = run(&["--inject", "bogus", "x.iolb"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("bad inject spec `bogus`"), "{stderr}");
    assert!(stderr.contains("store_append"), "{stderr}");
    let (code, stderr) = run(&["--curve-strategy", "materialized", "x.iolb"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown option `curve-strategy`"),
        "{stderr}"
    );
}
