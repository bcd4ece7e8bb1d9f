//! Upper-bound schedule engine: measured I/O of concrete blocked
//! executions vs the derived lower bounds.
//!
//! The paper's tightness claim is that the hourglass-raised bounds *match*
//! the data movement of known blocked/tiled implementations. This module
//! closes that loop empirically, per kernel and per fast-memory size `S`:
//!
//! 1. one reference pass over the *untiled* program records its
//!    element-granularity access trace and, per statement instance, the
//!    *version* (running write count) of every cell it touches (the
//!    internal `TraceRef`);
//! 2. every candidate schedule — program order plus tile-size assignments
//!    for the kernel's `schedule { tile … }` directives, swept by an
//!    auto-tuner — is emitted as a trace in **one pass** over the tiled
//!    enumeration into a reusable buffer, checking each access's version
//!    against the reference on the way: version equality per instance is
//!    exactly dependence preservation (RAW/WAR/WAW all surface as a
//!    mismatch), so illegal interchanges are rejected without ever
//!    building a CDAG permutation or playing a pebble game;
//! 3. a single OPT stack-distance pass ([`iolb_memsim::ShardedCurveEngine`],
//!    fed through the slice `ChunkedTrace` bridge)
//!    turns the candidate's trace into its exact Belady-MIN miss curve —
//!    the loads of the best possible demand replacement for that schedule
//!    at **every** swept `S` at once, bitwise what a `BeladySim` replay
//!    reports (replacing the old per-`(candidate, S)` MIN pebble replays);
//! 4. the best curve point per `S` is the measured upper bound Q(S); each
//!    winning schedule's final store is cross-checked bit-for-bit against
//!    the untiled interpreter (belt and braces over the version check),
//!    and its LRU curve is reported alongside as the demand-paging view.
//!
//! Steps 2–3 run in parallel across the rayon workers. Each worker pulls
//! candidate indices from a shared cursor, reuses one trace buffer and
//! one version scratch, polls [`Seam::Tuner`] once per candidate, and
//! keeps only the candidate's per-S OPT loads (or "illegal"). The scores
//! are then reduced sequentially in candidate order with a strict `<`:
//! the lowest candidate index wins every tie, so winners and rows are
//! identical to a one-by-one scan whatever order the workers finish in.
//! The first typed error stops every worker at its next candidate. Only
//! the winners are tiled again for step 4.
//!
//! The outcome per `(kernel, S)` is a [`TightnessPoint`]: lower bound,
//! best measured upper bound, and their ratio — emitted as
//! `BENCH_tightness.json` (schema `tightness/v3`) and gated in CI against
//! regressions.
//!
//! Earlier versions scored candidates with MIN-policy pebble plays and
//! reported the trace simulators as a side column; because the old
//! `BeladySim` lacked the write-kill rule it was not exactly optimal, and
//! its loads could land *above* a legal play's (the committed v1 reports
//! had such inversions, e.g. gebd2 at S = 260). With the fixed simulator
//! the optimal trace curve is the strongest witness for a schedule, the
//! orderings are invariants (`upper ≤ program-order`, `upper ≤ LRU view`),
//! and both are checked here.

use crate::sweep::{json_str, DegradationRow, FailureRow};
use iolb_cdag::try_build_cdag;
use iolb_core::report::TightnessPoint;
use iolb_core::{ClassicalBound, HourglassBound};
use iolb_govern::{catch_analysis_mut, AnalysisError, Budget, CancelToken, Degradation, Seam};
use iolb_ir::parse::TileDirective;
use iolb_ir::schedule::{tile_program, TileSpec};
use iolb_ir::{for_each_instance, try_for_each_instance, ArrayId, Interpreter, Program};
use iolb_memsim::{MissCurve, ShardedCurveEngine};
use iolb_symbolic::Var;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// One kernel's tightness measurement inputs.
pub struct TightnessJob {
    /// Display name.
    pub name: String,
    /// The untiled program (instance identity and lower bounds live here).
    pub program: Program,
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// Symbolic evaluation environment for the bounds (parameters plus any
    /// split-variable binding).
    pub env: Vec<(Var, i128)>,
    /// Classical K-partition bound, when derivable.
    pub classical: Option<ClassicalBound>,
    /// Hourglass bound, when the kernel has the pattern.
    pub hourglass: Option<HourglassBound>,
    /// `schedule { tile … }` directives from the kernel file (empty means
    /// only program order is measured).
    pub schedule: Vec<TileDirective>,
    /// Offsets added to the minimum feasible S.
    pub s_offsets: Vec<usize>,
}

/// Tightness outcome of one kernel.
#[derive(Debug, Clone)]
pub struct KernelTightness {
    /// Kernel display name.
    pub kernel: String,
    /// Concrete parameter values.
    pub params: Vec<i64>,
    /// One point per swept S, ascending.
    pub points: Vec<TightnessPoint>,
}

/// Full tightness report across a kernel suite.
#[derive(Debug, Clone)]
pub struct TightnessReport {
    /// Per-kernel outcomes, sorted by kernel name.
    pub kernels: Vec<KernelTightness>,
    /// Degradation level each surviving kernel's grid ran at.
    pub degradation: Vec<DegradationRow>,
    /// Kernels that were attempted but produced no points (typed-error
    /// class + message). Empty outside governed batch runs.
    pub failures: Vec<FailureRow>,
    /// End-to-end wall time (milliseconds) — volatile, excluded from the
    /// comparable JSON sections.
    pub total_wall_ms: f64,
    /// Worker threads actually engaged — volatile, excluded likewise.
    pub threads: usize,
}

/// One candidate schedule of the auto-tuner.
struct Candidate {
    /// Human-readable description (`"program-order"`, `"tile i=8 j=8"`).
    desc: String,
    /// Tile specs; `None` is the untransformed program order.
    tiles: Option<Vec<TileSpec>>,
}

/// Runs the tightness measurement for every job concurrently.
///
/// Ungoverned compatibility wrapper over [`try_run_tightness`] —
/// unlimited budget, no cancellation, errors stringified.
///
/// # Errors
/// Propagates tiling failures, reference-pass failures, and numeric
/// cross-check mismatches.
pub fn run_tightness(jobs: Vec<TightnessJob>) -> Result<TightnessReport, String> {
    try_run_tightness(jobs, &Budget::unlimited(), &CancelToken::unlimited())
        .map_err(|e| e.to_string())
}

/// [`run_tightness`] under a resource budget and a cancellation token.
///
/// The auto-tuner polls the token between candidates ([`Seam::Tuner`]),
/// the reference pass is a governed enumeration charged against
/// `budget.max_instances`, CDAG materialization is admission-checked, and
/// every OPT/LRU curve pass polls the token mid-trace. The first typed
/// error aborts the whole run; per-kernel fault isolation is the CLI
/// batch layer's job.
///
/// # Errors
/// The first typed error any kernel produced.
pub fn try_run_tightness(
    jobs: Vec<TightnessJob>,
    budget: &Budget,
    token: &CancelToken,
) -> Result<TightnessReport, AnalysisError> {
    let t_total = Instant::now();
    // Scoped worker accounting — `meta.threads` describes this run only.
    let workers = rayon::worker_scope();
    // Panics are converted to typed errors *inside* the worker closure:
    // the thread-scope bridge underneath would otherwise replace the
    // payload with a generic "a scoped thread panicked".
    let mut kernels = jobs
        .into_par_iter()
        .map(|job| catch_analysis_mut(|| measure_kernel(job, budget, token)))
        .collect::<Vec<Result<KernelTightness, AnalysisError>>>()
        .into_iter()
        .collect::<Result<Vec<KernelTightness>, AnalysisError>>()?;
    kernels.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    let degradation = kernels
        .iter()
        .map(|k| DegradationRow {
            kernel: k.kernel.clone(),
            level: Degradation::Full,
        })
        .collect();
    Ok(TightnessReport {
        kernels,
        degradation,
        failures: Vec::new(),
        total_wall_ms: t_total.elapsed().as_secs_f64() * 1e3,
        threads: workers.max_workers_used(),
    })
}

/// The auto-tuner's tile-size candidates for one unsized directive: powers
/// of two (plus 1, the pure-interchange driver), capped near the largest
/// concrete parameter so degenerate single-tile candidates are skipped.
fn size_candidates(params: &[i64], n_unsized: usize) -> Vec<i64> {
    let cap = params.iter().copied().max().unwrap_or(1);
    let base: &[i64] = if n_unsized >= 3 {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    base.iter().copied().filter(|&c| c <= cap).collect()
}

/// Expands the schedule directives into the candidate list (program order
/// first, then the cartesian product of per-loop size choices).
fn candidates(schedule: &[TileDirective], params: &[i64]) -> Vec<Candidate> {
    let mut out = vec![Candidate {
        desc: "program-order".to_string(),
        tiles: None,
    }];
    if schedule.is_empty() {
        return out;
    }
    let n_unsized = schedule.iter().filter(|d| d.size.is_none()).count();
    let auto = size_candidates(params, n_unsized);
    let per_loop: Vec<(&str, Vec<i64>)> = schedule
        .iter()
        .map(|d| {
            let sizes = match d.size {
                Some(s) => vec![s],
                None => auto.clone(),
            };
            (d.loop_name.as_str(), sizes)
        })
        .collect();
    let mut chosen: Vec<i64> = Vec::with_capacity(per_loop.len());
    expand(&per_loop, &mut chosen, &mut out);
    out
}

fn expand(per_loop: &[(&str, Vec<i64>)], chosen: &mut Vec<i64>, out: &mut Vec<Candidate>) {
    if chosen.len() == per_loop.len() {
        let desc = per_loop
            .iter()
            .zip(chosen.iter())
            .map(|((n, _), s)| format!("{n}={s}"))
            .collect::<Vec<_>>()
            .join(" ");
        let tiles = per_loop
            .iter()
            .zip(chosen.iter())
            .map(|((n, _), &s)| TileSpec::new(n, s))
            .collect();
        out.push(Candidate {
            desc: format!("tile {desc}"),
            tiles: Some(tiles),
        });
        return;
    }
    let sizes = per_loop[chosen.len()].1.clone();
    for s in sizes {
        chosen.push(s);
        expand(per_loop, chosen, out);
        chosen.pop();
    }
}

// ---------------------------------------------------------------------------
// Reference pass + candidate trace emission
// ---------------------------------------------------------------------------

/// Instance keys are `(stmt, iv)` packed into one u128 (8-bit statement id
/// plus up to eight 15-bit dimension values), hashed with a splitmix-style
/// finisher — the per-instance map lookup is the hottest part of a
/// candidate pass, and `SipHash` over a heap-allocated `Vec<i32>` key was
/// the old auto-tuner's dominant allocation source.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("packed u128 keys only");
    }

    fn write_u128(&mut self, key: u128) {
        let mut x = (key as u64) ^ (key >> 64) as u64 ^ 0x9E37_79B9_7F4A_7C15;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

const KEY_DIM_BITS: u32 = 15;
const KEY_MAX_DIMS: usize = 8;

/// Packs a statement instance into its map key; `None` when the instance
/// falls outside the packable domain (more than eight loop dims, or an
/// index value outside `0..32768` — far beyond anything the exact CDAG
/// pipeline could enumerate anyway).
#[inline]
fn pack_key(stmt: u32, dims: &[i64], sel: &[iolb_ir::DimId]) -> Option<u128> {
    if stmt >= 256 || sel.len() > KEY_MAX_DIMS {
        return None;
    }
    let mut key = stmt as u128;
    let mut shift = 8u32;
    for d in sel {
        let v = dims[d.0 as usize];
        if !(0..1 << KEY_DIM_BITS).contains(&v) {
            return None;
        }
        key |= (v as u128) << shift;
        shift += KEY_DIM_BITS;
    }
    Some(key)
}

/// Reference data of one kernel's untiled execution: cell layout, the
/// packed program-order trace, and per-instance expected cell versions.
///
/// A candidate enumeration is dependence-legal exactly when every instance
/// touches every cell at the *same version* (write count) as in program
/// order: matching write versions pin the per-cell write order (WAW),
/// matching read versions pin each read into its original inter-write
/// window (RAW + WAR) — and reads within one window commute freely, which
/// is precisely the legal reorder space.
struct TraceRef {
    /// Array base offsets (cell id = `base[array] + flat`).
    base: Vec<usize>,
    /// Row-major strides per array.
    strides: Vec<Vec<usize>>,
    /// Total cell universe.
    n_cells: usize,
    /// Packed untiled program-order trace.
    trace: Vec<u64>,
    /// Instance rank → first slot of its expected versions (reads in
    /// declared order, then writes).
    ver_off: Vec<u32>,
    /// Expected versions, CSR under `ver_off`.
    ver: Vec<u32>,
    /// Packed instance key → rank (built only when candidates exist).
    rank_of: HashMap<u128, u32, BuildHasherDefault<KeyHasher>>,
    /// Total instances.
    n_instances: usize,
}

impl TraceRef {
    /// One pass over the untiled enumeration — governed: the instance walk
    /// polls `token` and is charged against `budget.max_instances`.
    ///
    /// # Errors
    /// Refuses instances outside the packable key domain (only when
    /// `with_ranks` — kernels without schedule directives never need the
    /// instance map) and propagates budget/cancellation errors from the
    /// governed walk.
    fn build(
        program: &Program,
        params: &[i64],
        with_ranks: bool,
        budget: &Budget,
        token: &CancelToken,
    ) -> Result<TraceRef, AnalysisError> {
        let n_arrays = program.arrays.len();
        let strides: Vec<Vec<usize>> = (0..n_arrays)
            .map(|i| program.array_strides(ArrayId(i as u32), params))
            .collect();
        let mut base = Vec::with_capacity(n_arrays);
        let mut n_cells = 0usize;
        for i in 0..n_arrays {
            base.push(n_cells);
            n_cells += program.array_len(ArrayId(i as u32), params).max(1);
        }
        let mut r = TraceRef {
            base,
            strides,
            n_cells,
            trace: Vec::new(),
            ver_off: vec![0],
            ver: Vec::new(),
            rank_of: HashMap::default(),
            n_instances: 0,
        };
        let mut wc = vec![0u32; n_cells];
        let mut unpackable = None;
        try_for_each_instance(
            program,
            params,
            token,
            Seam::Instances,
            budget.max_instances,
            |stmt_id, dims| {
                let stmt = program.stmt(stmt_id);
                if with_ranks {
                    match pack_key(stmt_id.0, dims, &stmt.dims) {
                        Some(key) => {
                            r.rank_of.insert(key, r.n_instances as u32);
                        }
                        None => unpackable = Some(stmt.name.clone()),
                    }
                }
                // The version CSR only exists to legality-check candidate
                // enumerations; schedule-free kernels skip it entirely.
                for access in &stmt.reads {
                    let cell = r.cell_of(access, dims, params);
                    if with_ranks {
                        r.ver.push(wc[cell]);
                    }
                    r.trace.push((cell as u64) << 1);
                }
                for access in &stmt.writes {
                    let cell = r.cell_of(access, dims, params);
                    if with_ranks {
                        r.ver.push(wc[cell]);
                        wc[cell] += 1;
                    }
                    r.trace.push(((cell as u64) << 1) | 1);
                }
                if with_ranks {
                    r.ver_off.push(r.ver.len() as u32);
                }
                r.n_instances += 1;
            },
        )?;
        match unpackable {
            Some(stmt) => Err(AnalysisError::Refused(format!(
                "statement {stmt} has instances outside the schedulable key \
                 domain (> {KEY_MAX_DIMS} loop dims or an index ≥ {})",
                1 << KEY_DIM_BITS
            ))),
            None => Ok(r),
        }
    }

    /// Dense cell id of a declared access at one instance.
    #[inline]
    fn cell_of(&self, access: &iolb_ir::Access, dims: &[i64], params: &[i64]) -> usize {
        let a = access.array.0 as usize;
        let st = &self.strides[a];
        let mut f = self.base[a];
        for (axis, aff) in access.idx.iter().enumerate() {
            let v = aff.eval_envs(dims, params);
            debug_assert!(v >= 0, "negative declared subscript");
            f += st[axis] * v as usize;
        }
        f
    }

    /// Emits a candidate enumeration's trace into `out` while checking
    /// dependence legality against the reference versions. Returns whether
    /// the candidate is legal; an illegal candidate aborts emission early.
    fn emit_candidate(
        &self,
        program: &Program,
        params: &[i64],
        out: &mut Vec<u64>,
        wc: &mut [u32],
    ) -> bool {
        out.clear();
        wc.fill(0);
        let mut legal = true;
        let mut count = 0usize;
        for_each_instance(program, params, |stmt_id, dims| {
            if !legal {
                return;
            }
            let stmt = program.stmt(stmt_id);
            let rank = pack_key(stmt_id.0, dims, &stmt.dims)
                .and_then(|key| self.rank_of.get(&key).copied());
            let Some(rank) = rank else {
                legal = false;
                return;
            };
            let mut vp = self.ver_off[rank as usize] as usize;
            for access in &stmt.reads {
                let cell = self.cell_of(access, dims, params);
                if self.ver[vp] != wc[cell] {
                    legal = false;
                    return;
                }
                vp += 1;
                out.push((cell as u64) << 1);
            }
            for access in &stmt.writes {
                let cell = self.cell_of(access, dims, params);
                if self.ver[vp] != wc[cell] {
                    legal = false;
                    return;
                }
                vp += 1;
                wc[cell] += 1;
                out.push(((cell as u64) << 1) | 1);
            }
            count += 1;
        });
        legal && count == self.n_instances
    }
}

/// One candidate's score: its OPT loads at every swept S, or `None` when
/// its enumeration is dependence-illegal.
type Score = Option<Vec<u64>>;

/// Scores candidates `0..n` across the rayon workers and returns the
/// scores in candidate order.
///
/// Each worker builds one scratch with `scratch` and reuses it for every
/// candidate it pulls from a shared cursor. `poll` runs once before each
/// candidate (the [`Seam::Tuner`] poll). A panic inside `score` becomes a
/// typed error in the worker, and the first error — polled or scored —
/// stops every worker at its next candidate; the error of the lowest
/// failed candidate index is returned.
///
/// # Errors
/// The lowest-index typed error any worker hit.
fn score_candidates<W>(
    n: usize,
    poll: impl Fn() -> Result<(), AnalysisError> + Sync,
    scratch: impl Fn() -> W + Sync,
    score: impl Fn(usize, &mut W) -> Result<Score, AnalysisError> + Sync,
) -> Result<Vec<Score>, AnalysisError> {
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let workers = rayon::current_num_threads().clamp(1, n.max(1));
    let mut done: Vec<(usize, Result<Score, AnalysisError>)> = (0..workers)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|_| {
            let mut w = scratch();
            let mut done = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= n {
                    break;
                }
                let r = catch_analysis_mut(|| {
                    poll()?;
                    score(ci, &mut w)
                });
                if r.is_err() {
                    stop.store(true, Ordering::Relaxed);
                }
                done.push((ci, r));
            }
            done
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|&(ci, _)| ci);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The winner per S as `(loads, candidate index)`: a sequential reduction
/// in candidate order with a strict `<`, so the lowest index wins every
/// tie whatever order the workers finished in. `None` when program order
/// (index 0, the baseline every S starts from) did not score.
fn pick_winners(scores: &[Score]) -> Option<Vec<(u64, usize)>> {
    let mut best: Vec<(u64, usize)> = scores.first()?.as_ref()?.iter().map(|&l| (l, 0)).collect();
    for (ci, loads) in scores.iter().enumerate().skip(1) {
        for (b, &l) in best.iter_mut().zip(loads.iter().flatten()) {
            if l < b.0 {
                *b = (l, ci);
            }
        }
    }
    Some(best)
}

fn measure_kernel(
    job: TightnessJob,
    budget: &Budget,
    token: &CancelToken,
) -> Result<KernelTightness, AnalysisError> {
    let cdag = try_build_cdag(&job.program, &job.params, budget, token)?;
    let min_s = cdag.max_in_degree() + 1;
    let s_values: Vec<usize> = job.s_offsets.iter().map(|&off| min_s + off).collect();
    let s_max = s_values.iter().copied().max().unwrap_or(1);

    let cands = candidates(&job.schedule, &job.params);
    let tref = TraceRef::build(&job.program, &job.params, cands.len() > 1, budget, token).map_err(
        |e| match e {
            AnalysisError::Refused(msg) => AnalysisError::Refused(format!("{}: {msg}", job.name)),
            other => other,
        },
    )?;

    // Score every candidate once, in parallel: emit (+ legality-check) its
    // trace into the worker's buffer, then read every S point off one OPT
    // curve. Program order (index 0) is the reference itself and always
    // legal. Candidate traces are necessarily materialized (the version
    // legality check writes them), so they feed the sharded streaming
    // engine through the slice `ChunkedTrace` bridge.
    let engine = ShardedCurveEngine::new();
    let tile = |tiles: &[TileSpec]| {
        tile_program(&job.program, tiles)
            .map_err(|e| AnalysisError::Refused(format!("{}: {e}", job.name)))
    };
    let scores = score_candidates(
        cands.len(),
        // The auto-tuner seam: one poll per candidate bounds how much work
        // a deadline or an external cancel can leave in flight, and is
        // where the fault-injection harness targets `*@tuner` faults.
        || token.check(Seam::Tuner),
        || {
            (
                Vec::with_capacity(tref.trace.len()),
                vec![0u32; tref.n_cells],
            )
        },
        |ci, (trace_buf, wc)| {
            let trace: &[u64] = match &cands[ci].tiles {
                None => &tref.trace,
                Some(tiles) => {
                    let tiled = tile(tiles)?;
                    if !tref.emit_candidate(&tiled, &job.params, trace_buf, wc) {
                        return Ok(None); // illegal interchange: disqualified, not an error
                    }
                    trace_buf
                }
            };
            let curve = engine.try_opt(trace, s_max, token)?;
            Ok(Some(s_values.iter().map(|&s| curve.loads(s)).collect()))
        },
    )?;
    let best = pick_winners(&scores).ok_or_else(|| {
        AnalysisError::Internal(format!(
            "{}: program order did not score (it must always be legal)",
            job.name
        ))
    })?;
    let program_order_loads = scores[0].as_deref().unwrap_or_default();

    // Cross-check every winning tiled schedule against the untiled
    // interpreter — identical final stores, bit for bit — and take the
    // winner's LRU curve (the demand-paging view of the same trace). Only
    // the winners are re-tiled.
    let winning: Vec<usize> = {
        let mut w: Vec<usize> = best.iter().map(|&(_, ci)| ci).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    let init = |a: ArrayId, f: usize| 1.0 + a.0 as f64 + f as f64 * 0.25;
    let base_store = Interpreter::new(&job.program, &job.params).run_numeric(init);
    let mut trace_buf: Vec<u64> = Vec::new();
    let mut wc = vec![0u32; tref.n_cells];
    let mut lru_curves: HashMap<usize, MissCurve> = HashMap::new();
    for &ci in &winning {
        let trace: &[u64] = match &cands[ci].tiles {
            None => &tref.trace, // program order needs no cross-check
            Some(tiles) => {
                let tiled = tile(tiles)?;
                let got = Interpreter::new(&tiled, &job.params).run_numeric(init);
                if got.data != base_store.data {
                    return Err(AnalysisError::Internal(format!(
                        "{}: schedule `{}` changed the numeric result — illegal interchange",
                        job.name, cands[ci].desc
                    )));
                }
                let legal = tref.emit_candidate(&tiled, &job.params, &mut trace_buf, &mut wc);
                debug_assert!(legal, "winner was scored, so it must re-emit");
                &trace_buf
            }
        };
        lru_curves.insert(ci, engine.try_lru(trace, s_max, token)?);
    }

    let mut points = Vec::with_capacity(s_values.len());
    for (si, &s) in s_values.iter().enumerate() {
        let (upper_loads, ci) = best[si];
        let trace_lru_loads = lru_curves[&ci].loads(s);
        // Invariants of the measurement itself (an inversion here is an
        // engine bug, not a tightness result): the optimal curve of the
        // winning trace can be beaten neither by the LRU view of the same
        // trace nor by the tuner's own baseline.
        if trace_lru_loads < upper_loads {
            return Err(AnalysisError::Internal(format!(
                "{}: S={s}: LRU view {trace_lru_loads} beat the optimal curve {upper_loads}",
                job.name
            )));
        }
        if upper_loads > program_order_loads[si] {
            return Err(AnalysisError::Internal(format!(
                "{}: S={s}: winner {upper_loads} loads above the program-order baseline {} \
                 (the tuner must never lose to its own baseline)",
                job.name, program_order_loads[si]
            )));
        }
        points.push(TightnessPoint {
            s,
            lb_classical: job
                .classical
                .as_ref()
                .map(|b| b.eval_floor(&job.env, s as i128))
                .unwrap_or(0.0),
            lb_hourglass: job
                .hourglass
                .as_ref()
                .map(|b| b.eval_floor(&job.env, s as i128))
                .unwrap_or(0.0),
            lb_inputs: cdag.num_inputs() as f64,
            upper_loads,
            upper_schedule: cands[ci].desc.clone(),
            program_order_loads: program_order_loads[si],
            trace_lru_loads,
        });
    }
    Ok(KernelTightness {
        kernel: job.name,
        params: job.params,
        points,
    })
}

/// Renders the tightness report as an aligned table.
pub fn render_tightness_table(report: &TightnessReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>12} {:>6} {:>12} {:>12} {:>12} {:>7} {:>8}  {:<22}\n",
        "kernel", "size", "S", "LB", "upper", "prog-order", "ratio", "hg-rat", "best schedule"
    ));
    for k in &report.kernels {
        for t in &k.points {
            out.push_str(&format!(
                "{:<14} {:>12} {:>6} {:>12.0} {:>12} {:>12} {:>7.2} {:>8}  {:<22}\n",
                k.kernel,
                format!("{:?}", k.params),
                t.s,
                t.lower_bound(),
                t.upper_loads,
                t.program_order_loads,
                t.ratio(),
                t.hourglass_ratio()
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".to_string()),
                t.upper_schedule,
            ));
        }
    }
    out.push_str(&format!(
        "{} kernels on {} threads in {:.1} ms\n",
        report.kernels.len(),
        report.threads,
        report.total_wall_ms
    ));
    out
}

/// Serializes the tightness report as deterministic JSON: kernels sorted
/// by name, points by S, fixed key order, volatile data (threads, wall
/// times) confined to the `meta` object. `redact_volatile` zeroes `meta`
/// for byte-stable golden snapshots.
pub fn tightness_report_json(report: &TightnessReport, redact_volatile: bool) -> String {
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.4}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hourglass-iolb/tightness/v3\",\n");
    let (threads, wall) = if redact_volatile {
        (0, 0.0)
    } else {
        (report.threads, report.total_wall_ms)
    };
    out.push_str(&format!(
        "  \"meta\": {{\"threads\": {threads}, \"total_wall_ms\": {}}},\n",
        num(wall)
    ));
    let mut degradation: Vec<&DegradationRow> = report.degradation.iter().collect();
    degradation.sort_by(|a, b| a.kernel.cmp(&b.kernel));
    let mut failures: Vec<&FailureRow> = report.failures.iter().collect();
    failures.sort_by(|a, b| (&a.kernel, &a.class).cmp(&(&b.kernel, &b.class)));
    out.push_str("  \"degradation\": [\n");
    for (i, d) in degradation.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": {}, \"level\": \"{}\"}}{}\n",
            json_str(&d.kernel),
            d.level.as_str(),
            if i + 1 == degradation.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": {}, \"class\": {}, \"message\": {}}}{}\n",
            json_str(&f.kernel),
            json_str(&f.class),
            json_str(&f.message),
            if i + 1 == failures.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernels\": [\n");
    for (i, k) in report.kernels.iter().enumerate() {
        let params: Vec<String> = k.params.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"params\": [{}], \"points\": [\n",
            k.kernel,
            params.join(", ")
        ));
        for (j, t) in k.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"s\": {}, \"lb_classical\": {}, \"lb_hourglass\": {}, \"lb_inputs\": {}, \"lower_bound\": {}, \"upper_loads\": {}, \"upper_schedule\": \"{}\", \"program_order_loads\": {}, \"trace_lru_loads\": {}, \"ratio\": {}, \"hourglass_ratio\": {}}}{}\n",
                t.s,
                num(t.lb_classical),
                num(t.lb_hourglass),
                num(t.lb_inputs),
                num(t.lower_bound()),
                t.upper_loads,
                t.upper_schedule,
                t.program_order_loads,
                t.trace_lru_loads,
                num(t.ratio()),
                t.hourglass_ratio()
                    .map(num)
                    .unwrap_or_else(|| "null".to_string()),
                if j + 1 == k.points.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == report.kernels.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::Analysis;

    fn job_from_src(src: &str, params: Vec<i64>, stmt: &str) -> TightnessJob {
        let kernel = iolb_ir::parse_kernel(src).expect("parse");
        let observe = iolb_core::report::observation_sizes(&params);
        let analysis = Analysis::run(&kernel.program, &observe).expect("analysis");
        let sid = kernel.program.stmt_id(stmt).expect("stmt");
        let classical = analysis.try_classical_bound(sid);
        let hourglass = analysis.detect_hourglass(sid).map(|pat| {
            iolb_core::report::derive_with_split(&kernel.program, &pat, None)
                .expect("derive")
                .0
        });
        let env: Vec<(Var, i128)> = kernel
            .program
            .params
            .iter()
            .zip(params.iter())
            .map(|(n, &v)| (Var::new(n), v as i128))
            .collect();
        TightnessJob {
            name: kernel.program.name.clone(),
            program: kernel.program,
            params,
            env,
            classical,
            hourglass,
            schedule: kernel.schedule,
            s_offsets: vec![0, 8, 64],
        }
    }

    const GEMM_TILED: &str = "
kernel gemm_mini(M, N, K) {
  array A[M][K];
  array B[K][N];
  array C[M][N];
  analyze SU;
  schedule { tile i; tile j; tile k; }

  for i in 0..M {
    for j in 0..N {
      Cz: C[i][j] = op();
    }
  }
  for i in 0..M {
    for j in 0..N {
      for k in 0..K {
        SU: C[i][j] = op(A[i][k], B[k][j], C[i][j]);
      }
    }
  }
}
";

    #[test]
    fn tuner_beats_or_matches_program_order_and_stays_sound() {
        let job = job_from_src(GEMM_TILED, vec![12, 12, 12], "SU");
        let report = run_tightness(vec![job]).expect("tightness");
        assert_eq!(report.kernels.len(), 1);
        let k = &report.kernels[0];
        assert_eq!(k.points.len(), 3);
        for t in &k.points {
            // Upper bound is a real execution's I/O: it must sit at or
            // above every derived lower bound (soundness), and the tuner
            // never loses to its own baseline nor to the LRU view of the
            // winning trace.
            assert!(t.upper_loads as f64 + 1e-9 >= t.lb_classical, "S={}", t.s);
            assert!(t.upper_loads as f64 + 1e-9 >= t.lb_hourglass, "S={}", t.s);
            assert!(t.upper_loads <= t.program_order_loads, "S={}", t.s);
            assert!(t.trace_lru_loads >= t.upper_loads, "S={}", t.s);
            assert!(
                t.ratio().is_finite() && t.ratio() >= 1.0 - 1e-9,
                "S={}",
                t.s
            );
        }
        // At a generous S the tuner must find a genuinely better blocked
        // schedule than straight program order.
        let last = k.points.last().unwrap();
        assert!(
            last.upper_schedule.starts_with("tile"),
            "expected a tiled winner at S={}, got {}",
            last.s,
            last.upper_schedule
        );
        assert!(last.upper_loads < last.program_order_loads);
    }

    #[test]
    fn kernels_without_schedule_report_program_order() {
        let src = "
kernel plain(N) {
  array A[N];
  scalar acc;
  analyze S;
  for i in 0..N {
    S: acc = op(acc, A[i]);
  }
}
";
        let job = job_from_src(src, vec![32], "S");
        let report = run_tightness(vec![job]).expect("tightness");
        let k = &report.kernels[0];
        for t in &k.points {
            assert_eq!(t.upper_schedule, "program-order");
            assert_eq!(t.upper_loads, t.program_order_loads);
            // The input floor keeps the ratio finite even without bounds.
            assert!(t.lower_bound() >= 32.0);
            assert!(t.ratio().is_finite());
        }
        let json = tightness_report_json(&report, true);
        assert!(json.contains("\"schema\": \"hourglass-iolb/tightness/v3\""));
        assert!(json.contains("\"degradation\": ["));
        assert!(json.contains("\"failures\": ["));
        assert!(json.contains("\"level\": \"full\""));
        assert!(json.contains("\"threads\": 0"), "volatile meta redacted");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// A loop-carried dependence across the temporal loop: hoisting the
    /// spatial tile outward (which the auto-tuner will try) reorders
    /// instances illegally. The version check must disqualify every such
    /// candidate — silently, cheaply, and *before* it can win on loads
    /// (the illegal hoist would look great: each cell stays resident).
    #[test]
    fn illegal_interchange_candidates_are_disqualified() {
        let src = "
kernel carried(T, N) {
  array A[N];
  analyze S;
  schedule { tile i; }
  for t in 0..T {
    for i in 1..N {
      S: A[i] = op(A[i], A[i - 1]);
    }
  }
}
";
        let job = job_from_src(src, vec![6, 24], "S");
        let report = run_tightness(vec![job]).expect("tightness");
        let k = &report.kernels[0];
        assert!(!k.points.is_empty());
        for t in &k.points {
            assert_eq!(
                t.upper_schedule, "program-order",
                "S={}: an illegal hoist must never win",
                t.s
            );
            assert_eq!(t.upper_loads, t.program_order_loads);
        }
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let jobs = vec![
            job_from_src(GEMM_TILED, vec![8, 8, 8], "SU"),
            job_from_src(
                "kernel aaa(N) { array A[N]; analyze S; for i in 0..N { S: A[i] = op(A[i]); } }",
                vec![16],
                "S",
            ),
        ];
        let report = run_tightness(jobs).expect("tightness");
        assert_eq!(report.kernels[0].kernel, "aaa", "sorted by name");
        let a = tightness_report_json(&report, true);
        let jobs = vec![
            job_from_src(GEMM_TILED, vec![8, 8, 8], "SU"),
            job_from_src(
                "kernel aaa(N) { array A[N]; analyze S; for i in 0..N { S: A[i] = op(A[i]); } }",
                vec![16],
                "S",
            ),
        ];
        let b = tightness_report_json(&run_tightness(jobs).expect("tightness"), true);
        assert_eq!(a, b, "same inputs produce byte-identical redacted JSON");
    }

    /// Ties go to the lowest candidate index, in the reduction itself and
    /// end to end through the parallel scorer even when later candidates
    /// finish first.
    #[test]
    fn equal_loads_go_to_the_lowest_candidate_index() {
        let scores: Vec<Score> = vec![
            Some(vec![10, 10, 7]),
            Some(vec![8, 9, 7]),
            None,
            Some(vec![8, 9, 6]),
            Some(vec![9, 9, 6]),
        ];
        assert_eq!(
            pick_winners(&scores),
            Some(vec![(8, 1), (9, 1), (6, 3)]),
            "equal loads at every S keep the earlier candidate"
        );
        assert_eq!(pick_winners(&[None, Some(vec![1])]), None);

        // Every candidate scores the same loads. With two workers or more,
        // candidate 0 finishes last: it waits until the final candidate
        // is scored.
        let n = 12;
        let last_done = Gate::default();
        let forced = rayon::current_num_threads() >= 2;
        let scores = score_candidates(
            n,
            || Ok(()),
            || (),
            |ci, _| {
                if ci == 0 && forced {
                    last_done.wait();
                }
                if ci == n - 1 {
                    last_done.open();
                }
                Ok(Some(vec![5, 5]))
            },
        )
        .expect("scores");
        assert_eq!(scores.len(), n);
        assert_eq!(pick_winners(&scores), Some(vec![(5, 0), (5, 0)]));
    }

    /// A one-shot latch: `wait` blocks until `open` was called.
    #[derive(Default)]
    struct Gate(std::sync::Mutex<bool>, std::sync::Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().expect("gate lock") = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let mut open = self.0.lock().expect("gate lock");
            while !*open {
                open = self.1.wait(open).expect("gate lock");
            }
        }
    }

    /// The first typed error — from a candidate or from the tuner poll —
    /// surfaces with its class and stops the other workers at their next
    /// candidate instead of scoring the rest.
    #[test]
    fn first_tuner_error_stops_every_worker() {
        let n = 64;
        let k = 5;
        // Each other worker finishes the candidate it holds (a few more if
        // the failing worker is descheduled before it raises the stop
        // flag) — far fewer than all `n`.
        let slack = k + 1 + 4 * rayon::current_num_threads();

        // A typed error out of one candidate's scoring. Candidates past
        // `k` wait until it has failed, so the other workers are busy
        // when the error lands.
        let failed = Gate::default();
        let scored = AtomicUsize::new(0);
        let err = score_candidates(
            n,
            || Ok(()),
            || (),
            |ci, _| {
                scored.fetch_add(1, Ordering::Relaxed);
                if ci == k {
                    failed.open();
                    return Err(AnalysisError::BudgetExceeded {
                        resource: "trace_len",
                        needed: 2,
                        limit: 1,
                    });
                }
                if ci > k {
                    failed.wait();
                }
                Ok(Some(vec![ci as u64]))
            },
        )
        .expect_err("the candidate's error surfaces");
        assert_eq!(err.class_name(), "budget");
        let seen = scored.load(Ordering::Relaxed);
        assert!(
            seen <= slack,
            "{seen} candidates scored after an error at {k}"
        );

        // A cancel landing at the k-th `Seam::Tuner` poll: the polls
        // before it pass, every later one fails.
        let token = CancelToken::unlimited();
        let (polls, scored) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let err = score_candidates(
            n,
            || {
                if polls.fetch_add(1, Ordering::Relaxed) + 1 == k {
                    token.cancel();
                }
                token.check(Seam::Tuner)
            },
            || (),
            |ci, _| {
                scored.fetch_add(1, Ordering::Relaxed);
                Ok(Some(vec![ci as u64]))
            },
        )
        .expect_err("the cancel surfaces");
        assert!(matches!(err, AnalysisError::Cancelled), "{err:?}");
        let seen = scored.load(Ordering::Relaxed);
        assert!(
            seen < k,
            "{seen} candidates scored past a cancel at poll {k}"
        );
        assert!(polls.load(Ordering::Relaxed) <= slack);

        // A panic inside a worker is typed there, payload intact.
        let err = score_candidates(
            n,
            || Ok(()),
            || (),
            |ci, _| {
                if ci == k {
                    panic!("candidate {ci} blew up");
                }
                Ok(None)
            },
        )
        .expect_err("the panic surfaces");
        assert!(
            matches!(err, AnalysisError::Internal(ref m) if m.contains("candidate 5 blew up")),
            "{err:?}"
        );
    }

    /// The parallel tuner reproduces the committed `BENCH_tightness.json`
    /// gemm_tiled rows: same winner, same measured loads at every S.
    #[test]
    fn gemm_tiled_rows_match_the_committed_baseline() {
        let committed = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_tightness.json"
        ));
        let field = |row: &str, key: &str| -> String {
            let at = row.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
            let rest = &row[at..];
            let end = rest.find([',', '}']).expect("field end");
            rest[..end].trim_matches('"').to_string()
        };
        let block = committed
            .split("{\"kernel\": \"gemm_tiled\", \"params\"")
            .nth(1)
            .expect("gemm_tiled in BENCH_tightness.json");
        let rows: Vec<&str> = block
            .lines()
            .skip(1)
            .take_while(|l| l.trim_start().starts_with("{\"s\""))
            .collect();
        assert!(rows.len() > 10, "dense grid rows");
        let s_values: Vec<usize> = rows
            .iter()
            .map(|r| field(r, "s").parse().unwrap())
            .collect();

        let src = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../kernels/gemm_tiled.iolb"
        ));
        let mut job = job_from_src(src, vec![24, 24, 24], "SU");
        let min_s = s_values[0]; // max in-degree + 1 for gemm_tiled
        job.s_offsets = s_values.iter().map(|&s| s - min_s).collect();
        let report = run_tightness(vec![job]).expect("tightness");
        let points = &report.kernels[0].points;
        assert_eq!(points.len(), rows.len());
        for (t, row) in points.iter().zip(&rows) {
            let got = (
                t.s.to_string(),
                t.upper_loads.to_string(),
                t.upper_schedule.clone(),
                t.program_order_loads.to_string(),
                t.trace_lru_loads.to_string(),
            );
            let want = (
                field(row, "s"),
                field(row, "upper_loads"),
                field(row, "upper_schedule"),
                field(row, "program_order_loads"),
                field(row, "trace_lru_loads"),
            );
            assert_eq!(got, want, "S={}", t.s);
        }
    }
}
