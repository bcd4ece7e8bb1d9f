//! The traced replay: `analyze_uncached`'s stage chain called stage by
//! stage from outside, each call inside a span. The sweep's own report
//! splits its span into preparation and the two curve columns; an
//! attribution pass then replays, from outside, the calls the seed
//! revision's sweep and tuner make inside those parts, to split them
//! further by layer.

use crate::span::Recorder;
use iolb_bench::sweep::{coarse_s_offsets, CurveStrategy, SweepReport, SweepRow, CROSS_CHECK_CAP};
use iolb_cdag::{try_build_cdag, SpillPolicy};
use iolb_core::govern::{AnalysisError, CancelToken, Degradation};
use iolb_core::report::{derive_with_split, observation_sizes, SplitBinding};
use iolb_core::Analysis;
use iolb_memsim::CurveEngine;
use iolb_service::pipeline::{
    admission_stage, certify_stage, derive_stage, parse_stage, resolve_params, sweep_stage,
    tightness_stage,
};
use iolb_service::{
    outcome_body, AnalysisOptions, AnalysisOutcome, ClassicalSummary, DegradeInfo,
    HourglassSummary, SplitSummary,
};
use iolb_symbolic::Var;
use std::time::Instant;

/// What one traced request leaves for attribution.
pub struct Traced {
    pub outcome: AnalysisOutcome,
    pub body: String,
    /// Resolved parameters and the S offsets the sweep ran on (`None`
    /// when the sweep was skipped).
    pub params: Vec<i64>,
    pub swept_offsets: Option<Vec<usize>>,
    pub tuned: bool,
    /// The file's own `split` directive, as the sweep receives it.
    pub dsl_split: Option<SplitBinding>,
    /// The sweep's span and its own report of itself (`None` when the
    /// sweep was skipped).
    pub sweep: Option<SweepTimes>,
}

/// One request's sweep as the sweep itself reports it: its timings
/// (`SweepRow::prep_ms`, the per-column `SweepRow::wall_ms`) and sizes,
/// beside the span the benchmark timed around `sweep_stage`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SweepTimes {
    pub span_ms: f64,
    /// Preparation: derivation, CDAG build, reference trace, graph
    /// engines.
    pub prep_ms: f64,
    /// The LRU and OPT columns, which run concurrently after the
    /// preparation: sharded pass plus, under `CROSS_CHECK_CAP`, the
    /// materialized cross-check.
    pub lru_ms: f64,
    pub opt_ms: f64,
    pub nodes: u64,
    pub edges: u64,
    /// Program-order trace events: edges plus computes.
    pub trace_events: u64,
}

impl SweepTimes {
    pub fn of(span_ms: f64, report: &SweepReport) -> SweepTimes {
        let column = |policy: SpillPolicy| {
            report
                .rows
                .iter()
                .find(|r| r.policy == policy)
                .map_or(0.0, |r| r.wall_ms)
        };
        let mut t = SweepTimes {
            span_ms,
            lru_ms: column(SpillPolicy::Lru),
            opt_ms: column(SpillPolicy::MinNextUse),
            ..SweepTimes::default()
        };
        if let Some(r) = report.rows.first() {
            t.prep_ms = r.prep_ms;
            t.nodes = r.nodes as u64;
            t.edges = r.edges as u64;
            t.trace_events = (r.edges as u64).saturating_add(r.computes);
        }
        t
    }

    /// The span less the parts the sweep timed itself: the service's
    /// re-parse, row assembly and scheduling.
    pub fn unattributed_ms(&self) -> f64 {
        unattributed(self.span_ms, &[self.prep_ms, self.lru_ms.max(self.opt_ms)])
    }
}

/// `analyze_uncached` on `src`, stage by stage, each stage inside a span
/// under one `request` span; the body is rendered afterwards inside its
/// own `service.render` span.
pub fn traced_analyze(
    rec: &mut Recorder,
    id: usize,
    src: &str,
    opts: &AnalysisOptions,
) -> Result<Traced, AnalysisError> {
    let token = opts.budget.token();
    let root = rec.begin("request", id);
    let result = chain(rec, id, src, opts, &token);
    rec.end(root);
    let mut traced = result?;
    traced.body = rec.span("service.render", id, || outcome_body(&traced.outcome));
    Ok(traced)
}

fn chain(
    rec: &mut Recorder,
    id: usize,
    src: &str,
    opts: &AnalysisOptions,
    token: &CancelToken,
) -> Result<Traced, AnalysisError> {
    let kernel = rec.span("ir.parse", id, || parse_stage(src))?;
    let program = &kernel.program;
    let params = rec.span("ir.resolve", id, || {
        resolve_params(&kernel, &opts.params_override)
    })?;
    let named: Vec<(String, i64)> = program.params.iter().cloned().zip(params.clone()).collect();
    let (estimate, degradation) = rec.span("ir.admission", id, || {
        admission_stage(program, &params, opts, token)
    })?;
    let certified = rec.span("ir.certify", id, || certify_stage(program, &params))?;
    let derived = rec.span("core.derive", id, || {
        derive_stage(&kernel, &params, opts.stmt_override.as_deref())
    })?;

    let classical = derived.classical.as_ref().map(|b| ClassicalSummary {
        sigma: b.sigma.to_string(),
        m: b.m.to_string(),
        expr: b.expr.to_string(),
    });
    let split = derived.applied_split.as_ref().map(|b| SplitSummary {
        var: b.var.name().to_string(),
        expr: b.expr.to_string(),
    });
    let hourglass = derived.hourglass.as_ref().map(|b| HourglassSummary {
        chains: derived.chains,
        w_min: b.w_min.to_string(),
        w_max: b.w_max.to_string(),
        main_tool: b.main_tool.to_string(),
    });
    let degrade = (degradation != Degradation::Full).then(|| DegradeInfo {
        work_needed: estimate
            .trace_len
            .saturating_mul(opts.s_offsets.len() as u64),
        max_work: opts.budget.max_work,
        coarse_points: coarse_s_offsets().len(),
    });
    let outcome = AnalysisOutcome {
        name: program.name.clone(),
        params: named.clone(),
        certified_instances: certified,
        stmt: derived.stmt_name.clone(),
        classical,
        split,
        hourglass,
        degradation,
        degrade,
        sweep: None,
        tightness: None,
        sound: true,
    };
    let mut traced = Traced {
        outcome,
        body: String::new(),
        params,
        swept_offsets: None,
        tuned: false,
        dsl_split: derived.dsl_split.clone(),
        sweep: None,
    };
    if opts.derive_only || degradation == Degradation::BoundsOnly {
        return Ok(traced);
    }
    let s_offsets = match degradation {
        Degradation::Coarse => coarse_s_offsets(),
        _ => opts.s_offsets.clone(),
    };
    let registry = opts.registry().map_err(AnalysisError::Refused)?;
    let params = &traced.params;
    let outcome = &mut traced.outcome;
    let sweep_span = rec.begin("bench.sweep", id);
    let report = sweep_stage(
        &outcome.name,
        src,
        &derived.stmt_name,
        params,
        derived.dsl_split.clone(),
        &s_offsets,
        &opts.budget,
        token,
        &registry,
        opts.curve_strategy,
    );
    rec.end(sweep_span);
    let mut report = report?;
    traced.sweep = Some(SweepTimes::of(rec.spans[sweep_span].duration_ms(), &report));
    for row in &mut report.degradation {
        row.level = degradation;
    }
    outcome.sound = report.rows.iter().all(SweepRow::sound);
    let tuned = !opts.no_tightness && degradation == Degradation::Full;
    if tuned {
        let mut env: Vec<(Var, i128)> = named
            .iter()
            .map(|(n, v)| (Var::new(n), *v as i128))
            .collect();
        if let Some(b) = &derived.applied_split {
            env.push((b.var, b.eval(&named)));
        }
        outcome.tightness = Some(rec.span("bench.tuner", id, || {
            tightness_stage(
                &outcome.name,
                src,
                &kernel,
                params,
                env,
                &derived,
                &s_offsets,
                &opts.budget,
                token,
            )
        })?);
    }
    outcome.sweep = Some(report);
    traced.tuned = tuned;
    traced.swept_offsets = Some(s_offsets);
    Ok(traced)
}

/// Counts the attribution pass observed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Attributed {
    /// Trace events the materialized reference re-priced.
    pub reference_events: u64,
    /// Parses the sweep and tuner stages perform on the text they are
    /// given.
    pub reparses: u64,
}

/// Replays, from outside, what the seed revision's `sweep_stage` and
/// `tightness_stage` do inside the parts the sweep times itself, for one
/// traced request: the sweep's re-parse and re-derivation, CDAG build
/// and graph engines (inside `prep_ms`), the materialized cross-check
/// under `CROSS_CHECK_CAP` (inside the column walls), and the tuner's
/// re-parse. The replay follows the seed revision's code, not the
/// program under test: a change that removes or reshapes one of these
/// calls must edit this function in the same change, or the replayed
/// metrics keep reporting the removed work.
pub fn attribute(
    rec: &mut Recorder,
    id: usize,
    src: &str,
    opts: &AnalysisOptions,
    t: &Traced,
) -> Result<Attributed, AnalysisError> {
    let mut out = Attributed::default();
    let Some(offsets) = &t.swept_offsets else {
        return Ok(out);
    };
    let token = opts.budget.token();
    let root = rec.begin("bench.sweep.attribution", id);
    let program = rec
        .span("ir.parse.reparse", id, || parse_stage(src))?
        .program;
    out.reparses += 1;
    let params = &t.params;
    rec.span(
        "bench.sweep.rederive",
        id,
        || -> Result<(), AnalysisError> {
            let analysis = Analysis::run(&program, &observation_sizes(params))
                .map_err(|e| AnalysisError::Refused(format!("analysis: {e}")))?;
            let stmt = program
                .stmt_id(&t.outcome.stmt)
                .ok_or_else(|| AnalysisError::Refused("no statement".to_string()))?;
            std::hint::black_box(analysis.try_classical_bound(stmt));
            if let Some(pat) = analysis.detect_hourglass(stmt) {
                std::hint::black_box(
                    derive_with_split(&program, &pat, t.dsl_split.clone())
                        .map_err(AnalysisError::Refused)?,
                );
            }
            Ok(())
        },
    )?;
    let cdag = rec.span("cdag.build", id, || {
        try_build_cdag(&program, params, &opts.budget, &token)
    })?;
    let trace_len = (cdag.num_edges() + cdag.num_computes()) as u64;
    let cross_check = match opts.curve_strategy {
        CurveStrategy::Materialized => true,
        CurveStrategy::Streaming => trace_len <= CROSS_CHECK_CAP,
    };
    let packed = cross_check.then(|| {
        rec.span("memsim.reference", id, || {
            let mut trace = Vec::new();
            cdag.packed_program_order_trace(&mut trace);
            trace
        })
    });
    let min_s = cdag.max_in_degree() + 1;
    let s_values: Vec<usize> = offsets.iter().map(|&o| min_s + o).collect();
    let registry = opts.registry().map_err(AnalysisError::Refused)?;
    rec.span("cdag.engines", id, || {
        std::hint::black_box(registry.evaluate(&cdag, &s_values))
    });
    if let Some(trace) = packed.as_deref() {
        out.reference_events = trace_len;
        let horizon = s_values.iter().copied().max().unwrap_or(1);
        // The two re-pricings run concurrently, as the sweep's columns do.
        let column = |lru: bool| -> Result<(Instant, Instant), AnalysisError> {
            let t0 = Instant::now();
            let mut engine = CurveEngine::new();
            std::hint::black_box(if lru {
                engine.try_lru_packed(trace, horizon, &token)?
            } else {
                engine.try_opt_packed(trace, horizon, &token)?
            });
            Ok((t0, Instant::now()))
        };
        let columns = rec.begin("memsim.reference.columns", id);
        let (lru, opt) = rayon::join(|| column(true), || column(false));
        rec.end(columns);
        for (a, b) in [lru?, opt?] {
            rec.record("memsim.reference", id, a, b, Some(columns));
        }
    }
    rec.end(root);
    if t.tuned {
        let tuner_root = rec.begin("bench.tuner.attribution", id);
        rec.span("ir.parse.reparse", id, || parse_stage(src))?;
        rec.end(tuner_root);
        out.reparses += 1;
    }
    Ok(out)
}

/// What a layer's span leaves once its attributed parts are taken out.
pub fn unattributed(total_ms: f64, parts_ms: &[f64]) -> f64 {
    total_ms - parts_ms.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::busy_by_name;

    #[test]
    fn unattributed_closes_the_sum() {
        let parts = [1.5, 2.0, 0.25];
        let rest = unattributed(10.0, &parts);
        assert_eq!(rest, 6.25);
        assert_eq!(parts.iter().sum::<f64>() + rest, 10.0);
        // Concurrent columns count once, at the longer of the two.
        let sweep = SweepTimes {
            span_ms: 10.0,
            prep_ms: 3.0,
            lru_ms: 4.0,
            opt_ms: 5.5,
            ..SweepTimes::default()
        };
        assert_eq!(sweep.unattributed_ms(), 1.5);
        assert_eq!(
            sweep.prep_ms + sweep.opt_ms + sweep.unattributed_ms(),
            sweep.span_ms
        );
    }

    #[test]
    fn traced_chain_matches_analyze_uncached_and_attributes_the_sweep() {
        let src = "kernel gemm(M, N, K) {\n  array A[M][K];\n  array B[K][N];\n  array C[M][N];\n  analyze SU;\n  default M = 6, N = 6, K = 6;\n  schedule {\n    tile i;\n  }\n\n  for i in 0..M {\n    for j in 0..N {\n      Cz: C[i][j] = op();\n      for k in 0..K {\n        SU: C[i][j] = op(A[i][k], B[k][j], C[i][j]);\n      }\n    }\n  }\n}\n";
        let opts = AnalysisOptions::default();
        let want = iolb_service::analyze_uncached(src, &opts, &opts.budget.token()).unwrap();
        let mut rec = Recorder::default();
        let t = traced_analyze(&mut rec, 0, src, &opts).unwrap();
        assert_eq!(t.body, outcome_body(&want));
        let a = attribute(&mut rec, 0, src, &opts, &t).unwrap();
        assert_eq!(a.reparses, 2);
        let sweep = t.sweep.unwrap();
        assert_eq!(sweep.trace_events, a.reference_events);
        assert_eq!(sweep.edges, 3 * 6 * 6 * 6);
        assert!(sweep.prep_ms > 0.0 && sweep.lru_ms > 0.0 && sweep.opt_ms > 0.0);
        assert!(sweep.unattributed_ms() >= 0.0);
        let busy = busy_by_name(&rec.spans);
        for name in [
            "request",
            "ir.parse",
            "ir.certify",
            "core.derive",
            "bench.sweep",
            "bench.tuner",
            "service.render",
            "cdag.build",
            "cdag.engines",
            "memsim.reference",
            "bench.sweep.rederive",
        ] {
            assert!(busy.contains_key(name), "{name}");
        }
        // The attribution root's direct children and its own remainder
        // add up to its duration.
        let root = rec
            .spans
            .iter()
            .position(|s| s.name == "bench.sweep.attribution")
            .unwrap();
        let children: f64 = rec
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.duration_ms())
            .sum();
        let own = crate::span::self_times(&rec.spans)[root];
        assert!((children + own - rec.spans[root].duration_ms()).abs() < 1e-9);
    }
}
