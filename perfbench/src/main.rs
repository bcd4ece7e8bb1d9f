//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <suite-cold|validate-large|serve-mixed> --seed N
//!           --seconds S --trace <0|1> [--iolbd PATH]
//! perfbench --write-reference
//! ```
//!
//! Run from the repository root (it reads `kernels/` and
//! `perfbench/reference.tsv`). With `--trace 0` it measures the
//! end-to-end metrics; with `--trace 1` it replays the same requests with
//! a span around every stage call and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod calib;
mod check;
mod daemon;
mod gen;
mod reference;
mod serve;
mod span;
mod stages;
mod stats;

use gen::{cold_stream, load_kernels, Request};
use reference::{RefKey, Table};
use span::{busy_by_name, Recorder, Span};
use stages::{attribute, traced_analyze, Attributed, SweepTimes};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Nominal wall time of one pass on a 2-core 2.x GHz Xeon. A run replays
/// `round(seconds / pass)` whole passes, so every run of a workload does
/// the same work whatever the seed.
fn pass_seconds(workload: &str) -> f64 {
    match workload {
        "suite-cold" => 5.6,
        _ => 12.0,
    }
}

/// End-to-end metrics, in the order printed: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("trace_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("bench.tuner.busy_ms", "ms"),
    ("bench.tuner.share", "ratio"),
    ("core.derive.busy_ms", "ms"),
    ("bench.sweep.rederive_ms", "ms"),
    ("ir.parse.busy_ms", "ms"),
    ("ir.parse.calls", "count"),
    ("ir.admission.busy_ms", "ms"),
    ("ir.certify.busy_ms", "ms"),
    ("ir.certify.instances", "count"),
    ("cdag.build.busy_ms", "ms"),
    ("cdag.build.nodes", "count"),
    ("cdag.build.edges", "count"),
    ("cdag.engines.busy_ms", "ms"),
    ("memsim.lru.busy_ms", "ms"),
    ("memsim.opt.busy_ms", "ms"),
    ("memsim.trace_events", "count"),
    ("memsim.reference.busy_ms", "ms"),
    ("memsim.reference_share", "ratio"),
    ("bench.sweep.busy_ms", "ms"),
    ("bench.sweep.prep_ms", "ms"),
    ("bench.sweep.unattributed_ms", "ms"),
    ("service.render.busy_ms", "ms"),
    ("service.cache.report_hit_ratio", "ratio"),
    ("service.cache.parse_hit_ratio", "ratio"),
    ("service.cache.evictions", "count"),
    ("service.store.get_ms", "ms"),
    ("service.store.append_ms", "ms"),
    ("service.store.hits", "count"),
    ("service.store.appends", "count"),
    ("service.store.append_errors", "count"),
    ("service.store.recover_ms", "ms"),
    ("service.store.recovered_records", "count"),
    ("iolbd.http.overhead_ms_p50", "ms"),
    ("iolbd.rejects_503", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_coverage_min", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub iolbd: PathBuf,
}

/// What a run hands to the printer.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, samples)`; printed in this order.
    pub metrics: Vec<(&'static str, f64, String)>,
    /// Extra lines printed before the result (split latencies, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, samples: impl Into<String>) {
        self.metrics.push((name, value, samples.into()));
    }
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iolbd = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--iolbd" => iolbd = Some(PathBuf::from(value()?)),
            "--write-reference" => return Ok(None),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (want one of {})",
            gen::WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        iolbd: iolbd.unwrap_or_else(|| PathBuf::from("target/release/iolbd")),
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return write_reference(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-mixed", trace) => serve::run(&args, trace),
        (_, false) => run_cold(&args),
        (_, true) => run_cold_traced(&args),
    };
    match result {
        Ok(out) => {
            print_result(&args, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_reference() -> ExitCode {
    let kernels = match load_kernels(Path::new("kernels")) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match reference::write(&kernels, Path::new(reference::TABLE_PATH)) {
        Ok(n) => {
            eprintln!("wrote {n} reference digests to {}", reference::TABLE_PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: reference generation failed:\n{e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// in-process workloads
// ---------------------------------------------------------------------------

/// One prepared in-process request.
struct Prepared {
    req: Request,
    opts: iolb_service::AnalysisOptions,
    key: RefKey,
}

/// The state every in-process run builds before its first request.
struct ColdState {
    passes: usize,
    per_pass: usize,
    prepared: Vec<Prepared>,
    table: Table,
    stream_digest: u128,
}

fn cold_setup(args: &Args) -> Result<ColdState, String> {
    let kernels = load_kernels(Path::new("kernels"))?;
    let passes = ((args.seconds / pass_seconds(&args.workload)).round() as usize).max(1);
    let stream = cold_stream(&args.workload, &kernels, args.seed, passes)?;
    let stream_digest = iolb_service::fnv1a_128(&gen::stream_bytes(&stream));
    let table = reference::load(Path::new(reference::TABLE_PATH))?;
    let prepared = stream
        .into_iter()
        .map(|req| {
            let opts = reference::options(&req.sets)?;
            let key = reference::ref_key(&req.text, &opts)?;
            Ok(Prepared { req, opts, key })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Engage the rayon bridge once (its worker count is fixed on first use).
    rayon::join(rayon::current_num_threads, || ());
    Ok(ColdState {
        passes,
        per_pass: prepared.len() / passes,
        prepared,
        table,
        stream_digest,
    })
}

/// Builds the state `SETUP_REPS` times; returns the last state and
/// the median calibrated and raw set-up times.
fn timed_setup(args: &Args) -> Result<(ColdState, f64, f64), String> {
    let mut times = Vec::new();
    let mut raw = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let (s, secs, raw_secs) = calib::timed(|| cold_setup(args));
        state = Some(s?);
        times.push(secs);
        raw.push(raw_secs);
    }
    let median = |v: &[f64]| stats::percentile(v, 0.5).ok_or("no set-up samples");
    Ok((state.ok_or("no set-up")?, median(&times)?, median(&raw)?))
}

/// The end-to-end timings as measured, before calibration.
pub fn raw_note(
    setup_s: f64,
    answered: usize,
    wall: f64,
    latencies: &[f64],
    events: u64,
) -> String {
    let q = |p| stats::percentile(latencies, p).unwrap_or(0.0);
    format!(
        "raw: setup_s {setup_s:?} analyses_per_s {:?} latency_ms_p50 {:?} latency_ms_p90 {:?} trace_events_per_s {:?}",
        answered as f64 / wall,
        q(0.5),
        q(0.9),
        events as f64 / wall
    )
}

/// Checks one body: sound, and equal to its reference (see
/// [`check`]). Returns the key's trace events and whether the body was a
/// history-dependent rendering.
pub fn check_body(
    table: &Table,
    key: &RefKey,
    sound: bool,
    body: &str,
) -> Result<(u64, bool), String> {
    if !sound {
        return Err("sound: false".to_string());
    }
    let entry = table
        .get(key)
        .ok_or_else(|| format!("no reference digest for options {}", key.1))?;
    match check::compare(&check::parts(body), &entry.body) {
        check::Verdict::Identical => Ok((entry.trace_events, false)),
        check::Verdict::Reordered => Ok((entry.trace_events, true)),
        check::Verdict::Differs(e) => Err(e),
    }
}

/// The note every run prints about history-dependent renderings.
pub fn reordered_note(count: usize, of: usize) -> String {
    format!(
        "known defect: {count} of {of} bodies rendered a symbolic bound in another term order \
         than the reference (variable order follows interning history); counted, not failed"
    )
}

fn run_cold(args: &Args) -> Result<Outcome, String> {
    let (state, setup_s, raw_setup_s) = timed_setup(args)?;
    let mut raw = Vec::with_capacity(state.prepared.len());
    let mut results = Vec::with_capacity(state.prepared.len());
    let mut spins = vec![calib::spin_ms()];
    for p in &state.prepared {
        let t = Instant::now();
        let r = iolb_service::analyze_uncached(&p.req.text, &p.opts, &p.opts.budget.token());
        raw.push(t.elapsed().as_secs_f64() * 1e3);
        results.push(r);
        spins.push(calib::spin_ms());
    }
    let latencies: Vec<f64> = raw
        .iter()
        .zip(spins.windows(2))
        .map(|(ms, s)| ms * calib::factor(s[0], s[1]))
        .collect();
    let wall = latencies.iter().sum::<f64>() / 1e3;
    let raw_wall = raw.iter().sum::<f64>() / 1e3;

    let mut out = Outcome {
        attempted: results.len(),
        ..Outcome::default()
    };
    let mut events = 0u64;
    let mut reordered = 0;
    for (p, r) in state.prepared.iter().zip(&results) {
        let checked = match r {
            Ok(o) => check_body(
                &state.table,
                &p.key,
                o.sound,
                &iolb_service::outcome_body(o),
            ),
            Err(e) => Err(e.to_string()),
        };
        match checked {
            Ok((ev, r)) => {
                events += ev;
                reordered += usize::from(r);
            }
            Err(e) => {
                out.failed += 1;
                out.notes
                    .push(format!("FAILED {} {:?}: {e}", p.req.kernel, p.req.sets));
            }
        }
    }
    out.notes.push(reordered_note(reordered, results.len()));
    let lat = stats::summarize(&latencies).ok_or("no requests")?;
    let n = latencies.len();
    out.put(
        "setup_s",
        setup_s,
        format!("median of {SETUP_REPS} set-ups"),
    );
    out.put(
        "analyses_per_s",
        (n - out.failed) as f64 / wall,
        format!("n={n}"),
    );
    put_latency(&mut out, &lat);
    out.put("trace_events_per_s", events as f64 / wall, format!("n={n}"));
    out.put(
        "peak_rss_mb",
        daemon::peak_rss_mb("self")?,
        "perfbench process",
    );
    out.notes.push(format!(
        "run: {} passes of {} requests, {raw_wall:.3} s timed, {wall:.3} s calibrated; stream digest {:032x}",
        state.passes, state.per_pass, state.stream_digest
    ));
    out.notes.push(calibration_note(&spins, &raw));
    out.notes.push(raw_note(
        raw_setup_s,
        n - out.failed,
        raw_wall,
        &raw,
        events,
    ));
    Ok(out)
}

/// The speed samples behind a run's calibration, and the raw latencies.
pub fn calibration_note(spins: &[f64], raw: &[f64]) -> String {
    let q = |v: &[f64], p| stats::percentile(v, p).unwrap_or(0.0);
    format!(
        "calibration: {} spins, median {:.4} ms (reference {} ms), q1 {:.4} q3 {:.4}; raw latency p50 {:.3} ms p90 {:.3} ms",
        spins.len(),
        q(spins, 0.5),
        calib::REFERENCE_SPIN_MS,
        q(spins, 0.25),
        q(spins, 0.75),
        q(raw, 0.5),
        q(raw, 0.9)
    )
}

pub fn put_latency(out: &mut Outcome, lat: &stats::Summary) {
    out.put("latency_ms_p50", lat.p50, format!("n={}", lat.n));
    out.put(
        "latency_ms_p90",
        lat.p90,
        format!(
            "n={}, {} beyond; {} samples give 10 beyond",
            lat.n,
            lat.beyond_p90,
            stats::min_samples(0.9, 10)
        ),
    );
}

/// Per-layer sums of a traced replay.
#[derive(Default)]
pub struct LayerTotals {
    pub attributed: Vec<Attributed>,
    /// The sweeps' reports of themselves, one per swept request.
    pub sweeps: Vec<SweepTimes>,
    pub certified_instances: u64,
}

impl LayerTotals {
    /// Adds one traced request's counts.
    pub fn add(&mut self, t: &stages::Traced, a: Attributed) {
        self.certified_instances += t.outcome.certified_instances;
        self.sweeps.extend(t.sweep);
        self.attributed.push(a);
    }
}

/// Fills the span-derived per-layer metrics.
pub fn layer_metrics(spans: &[Span], totals: &LayerTotals) -> BTreeMap<&'static str, f64> {
    let busy = busy_by_name(spans);
    let b = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let tuner_reparse: f64 = spans
        .iter()
        .filter(|s| {
            s.name == "ir.parse.reparse"
                && s.parent
                    .is_some_and(|p| spans[p].name == "bench.tuner.attribution")
        })
        .map(Span::duration_ms)
        .sum();
    let requests: f64 = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(Span::duration_ms)
        .sum();
    let replayed = |f: fn(&Attributed) -> u64| totals.attributed.iter().map(f).sum::<u64>() as f64;
    let swept = |f: fn(&SweepTimes) -> f64| totals.sweeps.iter().map(f).sum::<f64>();
    let tuner = b("bench.tuner") - tuner_reparse;
    let events = swept(|x| x.trace_events as f64);
    let mut m = BTreeMap::new();
    m.insert("bench.tuner.busy_ms", tuner);
    m.insert("bench.tuner.share", ratio(tuner, requests));
    m.insert("core.derive.busy_ms", b("core.derive"));
    m.insert("bench.sweep.rederive_ms", b("bench.sweep.rederive"));
    m.insert("ir.parse.busy_ms", b("ir.parse") + b("ir.parse.reparse"));
    m.insert(
        "ir.parse.calls",
        count("ir.parse") + replayed(|x| x.reparses),
    );
    m.insert("ir.admission.busy_ms", b("ir.resolve") + b("ir.admission"));
    m.insert("ir.certify.busy_ms", b("ir.certify"));
    m.insert("ir.certify.instances", totals.certified_instances as f64);
    m.insert("cdag.build.busy_ms", b("cdag.build"));
    m.insert("cdag.build.nodes", swept(|x| x.nodes as f64));
    m.insert("cdag.build.edges", swept(|x| x.edges as f64));
    m.insert("cdag.engines.busy_ms", b("cdag.engines"));
    m.insert("memsim.lru.busy_ms", swept(|x| x.lru_ms));
    m.insert("memsim.opt.busy_ms", swept(|x| x.opt_ms));
    m.insert("memsim.trace_events", events);
    m.insert("memsim.reference.busy_ms", b("memsim.reference"));
    m.insert(
        "memsim.reference_share",
        ratio(replayed(|x| x.reference_events), events),
    );
    m.insert("bench.sweep.busy_ms", b("bench.sweep"));
    m.insert("bench.sweep.prep_ms", swept(|x| x.prep_ms));
    m.insert(
        "bench.sweep.unattributed_ms",
        swept(SweepTimes::unattributed_ms),
    );
    m.insert("service.render.busy_ms", b("service.render"));
    m.insert(
        "trace.span_coverage_min",
        span::child_coverage(spans, "request")
            .into_iter()
            .fold(f64::NAN, f64::min),
    );
    m
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_cold_traced(args: &Args) -> Result<Outcome, String> {
    let state = cold_setup(args)?;
    let mut out = Outcome {
        attempted: state.prepared.len(),
        ..Outcome::default()
    };
    // The first pass once without spans: the baseline for the overhead.
    let first = &state.prepared[..state.per_pass];
    let mut untraced_ms = 0.0;
    for p in first {
        let t = Instant::now();
        let r = iolb_service::analyze_uncached(&p.req.text, &p.opts, &p.opts.budget.token());
        untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        r.map_err(|e| format!("{}: {e}", p.req.kernel))?;
    }

    let mut rec = Recorder::default();
    let mut totals = LayerTotals::default();
    let mut reordered = 0;
    for (i, p) in state.prepared.iter().enumerate() {
        let checked = traced_analyze(&mut rec, i, &p.req.text, &p.opts)
            .map_err(|e| e.to_string())
            .and_then(|t| {
                reordered +=
                    usize::from(check_body(&state.table, &p.key, t.outcome.sound, &t.body)?.1);
                let a =
                    attribute(&mut rec, i, &p.req.text, &p.opts, &t).map_err(|e| e.to_string())?;
                totals.add(&t, a);
                Ok(())
            });
        if let Err(e) = checked {
            out.failed += 1;
            out.notes
                .push(format!("FAILED {} {:?}: {e}", p.req.kernel, p.req.sets));
        }
    }
    let traced_first_ms: f64 = rec
        .spans
        .iter()
        .filter(|s| s.name == "request" && s.request < state.per_pass)
        .map(Span::duration_ms)
        .sum();
    out.notes
        .push(reordered_note(reordered, state.prepared.len()));
    let mut m = layer_metrics(&rec.spans, &totals);
    m.insert("trace.overhead_share", traced_first_ms / untraced_ms - 1.0);
    finish_layers(&mut out, m, &rec, args)?;
    out.notes.push(format!(
        "traced: {} passes of {} requests; overhead compares pass 1 traced vs untraced ({:.1} vs {:.1} ms)",
        state.passes, state.per_pass, traced_first_ms, untraced_ms
    ));
    Ok(out)
}

/// Puts every per-layer metric (0 for a layer the workload leaves idle)
/// and writes the spans out.
pub fn finish_layers(
    out: &mut Outcome,
    m: BTreeMap<&'static str, f64>,
    rec: &Recorder,
    args: &Args,
) -> Result<(), String> {
    for (name, _) in PER_LAYER {
        let v = m.get(name).copied().unwrap_or(0.0);
        out.put(name, if v.is_finite() { v } else { 0.0 }, "traced run");
    }
    let dir = Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "spans: {} written to {}",
        rec.spans.len(),
        path.display()
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// output
// ---------------------------------------------------------------------------

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_result(args: &Args, out: &Outcome) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"RAYON_NUM_THREADS\": {}, \"rayon_workers\": {}, \"rev\": {}}}",
        iolb_bench::sweep::json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        iolb_bench::sweep::json_str(&cpu_model()),
        iolb_bench::sweep::json_str(&env("RAYON_NUM_THREADS")),
        rayon::current_num_threads(),
        iolb_bench::sweep::json_str(&env("PERFBENCH_REV")),
    );
    for note in &out.notes {
        println!("{note}");
    }
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, value, samples) in &out.metrics {
        println!(
            "{name:<32} {value:>16.6} {:<6} ({samples})",
            units.get(name).copied().unwrap_or("")
        );
    }
    println!(
        "{:<32} {:>16.6} {:<6} ({} failed of {} attempted)",
        "error_rate",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
        out.failed,
        out.attempted
    );
    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|(name, _, _)| wanted.contains(name))
        .map(|(name, value, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(*value),
                units[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
