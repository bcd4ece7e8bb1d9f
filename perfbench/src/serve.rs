//! The serve-mixed workload: `iolbd --store` driven over loopback HTTP by
//! two keep-alive clients in a closed loop.

use crate::calib;
use crate::check::{self, Verdict};
use crate::daemon::{analyze_body, peak_rss_mb, Conn, Daemon, Response};
use crate::gen::{load_kernels, serve_plan, Kind, Request};
use crate::reference::{self, RefKey, Table};
use crate::span::Recorder;
use crate::stages::{attribute, traced_analyze};
use crate::{finish_layers, layer_metrics, put_latency, ratio, stats, Args, LayerTotals, Outcome};
use iolb_core::govern::CancelToken;
use iolb_service::json::{self, Value};
use iolb_service::{
    analyze_uncached, canonicalize, outcome_body, AnalysisOptions, Pipeline, ReportStore,
    ServeSource, StoreKey, DEFAULT_REPORT_CAPACITY,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Daemon lives whose start-up is timed; the last one serves the stream.
const SETUP_LIVES: usize = 9;

/// Client connections (the box has two cores).
const CLIENTS: usize = 2;

/// Nominal requests per second of the timed stream on a 2-core 2.x GHz
/// Xeon; a run sends `round(seconds × rate)` requests, rounded to whole
/// blocks of 20.
const NOMINAL_RATE: f64 = 60.0;

/// A scratch directory under the checkout, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench").join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", from.display()))?
            .path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, to.join(name))
                .map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

struct Prepared {
    req: Request,
    opts: AnalysisOptions,
    key: RefKey,
    body: String,
}

/// One answered request of the timed stream.
struct Answer {
    /// Latency scaled by its block's calibration.
    latency_ms: f64,
    raw_ms: f64,
    response: Result<Response, String>,
}

/// A timed stream: answers by index, the calibrated and raw wall, and
/// the calibration spins taken between blocks.
struct Timed {
    answers: Vec<Answer>,
    wall: f64,
    raw_wall: f64,
    spins: Vec<f64>,
}

/// Index, raw latency and response of one request, as a client saw it.
type Answered = (usize, f64, Result<Response, String>);

/// Sends every request, `CLIENTS` keep-alive connections each pulling
/// the next index as it finishes, in blocks of `block` requests. Between
/// blocks both connections pause while the benchmark times a calibration
/// spin; a block's latencies and wall are scaled by the spins around it.
fn closed_loop(addr: &str, prepared: &[Prepared], block: usize) -> Result<Timed, String> {
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let go = Barrier::new(CLIENTS + 1);
    let stop = Barrier::new(CLIENTS + 1);
    let answered: Mutex<Vec<Answered>> = Mutex::new(Vec::new());
    let mut spins = vec![calib::spin_ms()];
    let mut walls = Vec::new();
    let opened: Vec<Result<(), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut conn = Conn::open(addr);
                    loop {
                        go.wait();
                        if done.load(Ordering::SeqCst) {
                            return conn.map(|_| ());
                        }
                        let end = limit.load(Ordering::SeqCst);
                        while let Ok(c) = conn.as_mut() {
                            let Ok(i) =
                                next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |i| {
                                    (i < end).then_some(i + 1)
                                })
                            else {
                                break;
                            };
                            let t = Instant::now();
                            let response = c.call("POST", "/analyze", &prepared[i].body);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            if response.is_err() {
                                conn = Conn::open(addr);
                            }
                            answered
                                .lock()
                                .expect("answers lock")
                                .push((i, ms, response));
                        }
                        stop.wait();
                    }
                })
            })
            .collect();
        for start in (0..prepared.len()).step_by(block.max(1)) {
            limit.store((start + block).min(prepared.len()), Ordering::SeqCst);
            go.wait();
            let t0 = Instant::now();
            stop.wait();
            walls.push(t0.elapsed().as_secs_f64());
            spins.push(calib::spin_ms());
        }
        done.store(true, Ordering::SeqCst);
        go.wait();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or(Err("client thread panicked".to_string()))
            })
            .collect()
    });
    for r in opened {
        r?;
    }
    let mut answered = answered.into_inner().expect("answers lock");
    answered.sort_by_key(|(i, _, _)| *i);
    if answered.len() != prepared.len() {
        return Err(format!(
            "{} of {} requests answered",
            answered.len(),
            prepared.len()
        ));
    }
    let factors: Vec<f64> = spins
        .windows(2)
        .map(|s| calib::factor(s[0], s[1]))
        .collect();
    let answers = answered
        .into_iter()
        .map(|(i, raw_ms, response)| Answer {
            latency_ms: raw_ms * factors[i / block.max(1)],
            raw_ms,
            response,
        })
        .collect();
    Ok(Timed {
        answers,
        wall: walls.iter().zip(&factors).map(|(w, f)| w * f).sum(),
        raw_wall: walls.iter().sum(),
        spins,
    })
}

fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = Some(stats);
    for p in path {
        v = v.and_then(|x| x.get(p));
    }
    v.and_then(Value::num).unwrap_or(0.0)
}

/// Checks one HTTP answer: 200, a cache header, `sound: true`, and the
/// reference. Returns whether it was a cache hit and whether its body was
/// a history-dependent rendering.
fn check_answer(table: &Table, p: &Prepared, a: &Answer) -> Result<(bool, bool), String> {
    let r = a.response.as_ref().map_err(Clone::clone)?;
    if r.status != 200 {
        return Err(format!("status {}", r.status));
    }
    let hit = match r.cache.as_deref() {
        Some("hit") => true,
        Some("miss") => false,
        other => return Err(format!("X-Iolb-Cache {other:?}")),
    };
    let body = json::parse(&r.body).map_err(|e| format!("body: {e:?}"))?;
    let sound = body.get("sound").and_then(Value::bool) == Some(true);
    let (_, reordered) = crate::check_body(table, &p.key, sound, &r.body)?;
    Ok((hit, reordered))
}

/// In process, `outcome_body(analyze_uncached(canonical text))` for every
/// distinct key, on `CLIENTS` threads.
fn in_process_bodies(
    keys: &BTreeMap<RefKey, usize>,
    prepared: &[Prepared],
) -> BTreeMap<RefKey, Result<String, String>> {
    let jobs: Vec<(&RefKey, &Prepared)> = keys.iter().map(|(k, &i)| (k, &prepared[i])).collect();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((key, p)) = jobs.get(i) else {
                    break;
                };
                let result = canonicalize(&p.req.text)
                    .and_then(|(canon, _)| {
                        let o = analyze_uncached(&canon, &p.opts, &p.opts.budget.token())?;
                        Ok(outcome_body(&o))
                    })
                    .map_err(|e| e.to_string());
                out.lock()
                    .expect("bodies lock")
                    .insert((*key).clone(), result);
            });
        }
    });
    out.into_inner().expect("bodies lock")
}

pub fn run(args: &Args, trace: bool) -> Result<Outcome, String> {
    let kernels = load_kernels(Path::new("kernels"))?;
    let table = reference::load(Path::new(reference::TABLE_PATH))?;
    let blocks = ((args.seconds * NOMINAL_RATE / 20.0).round() as usize).max(1);
    let (stored, stream) = serve_plan(&kernels, args.seed, blocks * 20)?;
    let stream_digest = iolb_service::fnv1a_128(&crate::gen::stream_bytes(&stream));
    let keys = crate::gen::universe("serve-mixed", &kernels)?;
    let prepare = |req: Request| -> Result<Prepared, String> {
        let opts = reference::options(&req.sets)?;
        let key = reference::ref_key(&req.text, &opts)?;
        let body = analyze_body(&req.text, &req.sets);
        Ok(Prepared {
            req,
            opts,
            key,
            body,
        })
    };
    let prepared: Vec<Prepared> = stream.into_iter().map(prepare).collect::<Result<_, _>>()?;
    let seed_requests: Vec<Prepared> = stored
        .iter()
        .map(|&k| {
            prepare(Request {
                kernel: kernels[keys[k].kernel].name.clone(),
                text: kernels[keys[k].kernel].text.clone(),
                sets: keys[k].sets.clone(),
                key: k,
                kind: Kind::Miss,
            })
        })
        .collect::<Result<_, _>>()?;

    let scratch = Scratch::new()?;
    let store_dir = scratch.0.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("create store: {e}"))?;

    // Untimed first life: write the stored subset into the store.
    let first = Daemon::spawn(&args.iolbd, &store_dir)?;
    let seeded = closed_loop(&first.addr, &seed_requests, seed_requests.len())?.answers;
    first.shutdown()?;
    for (p, a) in seed_requests.iter().zip(&seeded) {
        check_answer(&table, p, a).map_err(|e| format!("store seeding, {}: {e}", p.req.kernel))?;
    }
    let copies = if trace {
        let a = scratch.0.join("replay");
        let b = scratch.0.join("attribution");
        copy_dir(&store_dir, &a)?;
        copy_dir(&store_dir, &b)?;
        Some((a, b))
    } else {
        None
    };

    // Set-up: spawn against the populated store until /healthz answers.
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut live = None;
    for life in 0..SETUP_LIVES {
        let (started, secs, raw_secs) = calib::timed(|| -> Result<_, String> {
            let d = Daemon::spawn(&args.iolbd, &store_dir)?;
            let health = Conn::open(&d.addr)?.call("GET", "/healthz", "")?;
            Ok((d, health))
        });
        let (d, health) = started?;
        setups.push(secs);
        raw_setups.push(raw_secs);
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        if life + 1 < SETUP_LIVES {
            d.shutdown()?;
        } else {
            live = Some(d);
        }
    }
    let daemon = live.ok_or("no daemon life")?;
    let timed = closed_loop(&daemon.addr, &prepared, 20)?;
    let (answers, wall) = (timed.answers, timed.wall);
    let stats_body = Conn::open(&daemon.addr)?.call("GET", "/stats", "")?.body;
    let rss = peak_rss_mb(&daemon.pid().to_string())?;
    daemon.shutdown()?;
    let stats = json::parse(&stats_body).map_err(|e| format!("/stats: {e:?}"))?;

    // Verification, outside the timed region.
    let mut out = Outcome {
        attempted: answers.len(),
        ..Outcome::default()
    };
    let mut failed = vec![None; answers.len()];
    let mut hit = vec![false; answers.len()];
    let mut reordered = vec![false; answers.len()];
    let mut by_key: BTreeMap<RefKey, usize> = BTreeMap::new();
    for (i, (p, a)) in prepared.iter().zip(&answers).enumerate() {
        by_key.entry(p.key.clone()).or_insert(i);
        match check_answer(&table, p, a) {
            Ok((h, r)) => (hit[i], reordered[i]) = (h, r),
            Err(e) => failed[i] = Some(e),
        }
    }
    let local = in_process_bodies(&by_key, &prepared);
    for (i, (p, a)) in prepared.iter().zip(&answers).enumerate() {
        if failed[i].is_some() {
            continue;
        }
        let served = a.response.as_ref().map(|r| r.body.as_str()).unwrap_or("");
        match &local[&p.key] {
            Ok(body) => match check::compare(&check::parts(served), &check::parts(body)) {
                Verdict::Identical => {}
                Verdict::Reordered => reordered[i] = true,
                Verdict::Differs(e) => failed[i] = Some(format!("in-process outcome_body: {e}")),
            },
            Err(e) => failed[i] = Some(format!("in-process analysis failed: {e}")),
        }
    }
    for (i, f) in failed.iter().enumerate() {
        if let Some(e) = f {
            out.failed += 1;
            let p = &prepared[i];
            out.notes.push(format!(
                "FAILED #{i} {} {:?} ({:?}): {e}",
                p.req.kernel, p.req.sets, p.req.kind
            ));
        }
    }

    out.notes.push(crate::reordered_note(
        reordered.iter().filter(|&&r| r).count(),
        answers.len(),
    ));
    let ok = |i: usize| failed[i].is_none();
    let all: Vec<f64> = answers.iter().map(|a| a.latency_ms).collect();
    let split = |want_hit: bool| -> Vec<f64> {
        (0..answers.len())
            .filter(|&i| ok(i) && hit[i] == want_hit)
            .map(|i| answers[i].latency_ms)
            .collect()
    };
    let (hits, misses) = (split(true), split(false));
    let events: u64 = (0..answers.len())
        .filter(|&i| ok(i) && !hit[i])
        .map(|i| table[&prepared[i].key].trace_events)
        .sum();
    let n = answers.len();

    if !trace {
        let lat = stats::summarize(&all).ok_or("no requests")?;
        out.put(
            "setup_s",
            stats::percentile(&setups, 0.5).ok_or("no set-ups")?,
            format!("median of {} daemon start-ups", setups.len()),
        );
        out.put(
            "analyses_per_s",
            (n - out.failed) as f64 / wall,
            format!("n={n}"),
        );
        put_latency(&mut out, &lat);
        out.put(
            "trace_events_per_s",
            events as f64 / wall,
            format!("{} misses of n={n}", misses.len()),
        );
        out.put("peak_rss_mb", rss, "iolbd child");
    }
    for (name, v) in [
        ("hit_latency_ms_p50", &hits),
        ("miss_latency_ms_p50", &misses),
    ] {
        out.notes.push(format!(
            "{name:<32} {:>16.6} ms     (n={})",
            stats::percentile(v, 0.5).unwrap_or(0.0),
            v.len()
        ));
    }
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for p in &prepared {
        *kinds.entry(format!("{:?}", p.req.kind)).or_insert(0) += 1;
    }
    out.notes.push(format!(
        "run: {n} requests {kinds:?} on {CLIENTS} connections, {:.3} s timed, {wall:.3} s calibrated; store seeded with {} keys; stream digest {stream_digest:032x}",
        timed.raw_wall,
        stored.len()
    ));
    let raw: Vec<f64> = answers.iter().map(|a| a.raw_ms).collect();
    out.notes.push(crate::calibration_note(&timed.spins, &raw));
    out.notes.push(crate::raw_note(
        stats::percentile(&raw_setups, 0.5).unwrap_or(0.0),
        n - out.failed,
        timed.raw_wall,
        &raw,
        events,
    ));

    if let Some((replay_dir, attribution_dir)) = copies {
        traced(
            args,
            &mut out,
            &prepared,
            &answers,
            &hit,
            &stats,
            &replay_dir,
            &attribution_dir,
        )?;
    }
    drop(scratch);
    Ok(out)
}

/// The traced half of serve-mixed: the same stream replayed in process
/// through `Pipeline::serve` (for the HTTP overhead), the misses replayed
/// stage by stage with attribution, render and store calls re-timed from
/// outside, and the daemon's own counters.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    out: &mut Outcome,
    prepared: &[Prepared],
    answers: &[Answer],
    hit: &[bool],
    stats: &Value,
    replay_dir: &Path,
    attribution_dir: &Path,
) -> Result<(), String> {
    let store = ReportStore::open(replay_dir).map_err(|e| e.to_string())?;
    let pipeline = Pipeline::with_store(DEFAULT_REPORT_CAPACITY, store);
    let mut sources = Vec::with_capacity(prepared.len());
    let mut inproc_ms = Vec::with_capacity(prepared.len());
    for p in prepared {
        let t = Instant::now();
        let served = pipeline
            .serve(&p.req.text, &p.opts)
            .map_err(|e| e.to_string())?;
        inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sources.push(served.source);
    }
    let memory: Vec<usize> = (0..prepared.len())
        .filter(|&i| hit[i] && sources[i] == ServeSource::Memory)
        .collect();
    // Raw against raw: both sides are wall times as measured.
    let http_hit: Vec<f64> = memory.iter().map(|&i| answers[i].raw_ms).collect();
    let local_hit: Vec<f64> = memory.iter().map(|&i| inproc_ms[i]).collect();

    let mut rec = Recorder::default();
    let mut totals = LayerTotals::default();
    let mut outcomes = BTreeMap::new();
    // Traced span time of each miss `Pipeline::serve` computed; its store
    // append is added once re-timed below.
    let mut traced_misses: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, p) in prepared.iter().enumerate() {
        match p.req.kind {
            Kind::Miss => {
                let first = rec.spans.len();
                let (canon, _) = rec
                    .span("ir.parse", i, || canonicalize(&p.req.text))
                    .map_err(|e| e.to_string())?;
                let t = traced_analyze(&mut rec, i, &canon, &p.opts).map_err(|e| e.to_string())?;
                // Canonicalize, the stage chain and the render: what
                // `Pipeline::serve` does for a first-seen key before it
                // appends the body to the store.
                if sources[i] == ServeSource::Computed {
                    let spans = rec.spans[first..].iter().filter(|s| s.parent.is_none());
                    traced_misses.insert(i, spans.map(|s| s.duration_ms()).sum());
                }
                let a = attribute(&mut rec, i, &canon, &p.opts, &t).map_err(|e| e.to_string())?;
                totals.add(&t, a);
                outcomes.insert(p.key.clone(), t.outcome);
            }
            Kind::Variant => {
                rec.span("ir.parse", i, || canonicalize(&p.req.text))
                    .map_err(|e| e.to_string())?;
            }
            _ => {}
        }
    }
    for &i in &memory {
        if let Some(o) = outcomes.get(&prepared[i].key) {
            std::hint::black_box(rec.span("service.render", i, || outcome_body(o)));
        }
    }

    let t = Instant::now();
    let store = ReportStore::open(attribution_dir).map_err(|e| e.to_string())?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let unlimited = CancelToken::unlimited();
    for (i, p) in prepared.iter().enumerate() {
        match p.req.kind {
            Kind::StoreRead => {
                std::hint::black_box(
                    rec.span("service.store.get", i, || store.get(p.key.0, &p.key.1)),
                );
            }
            Kind::Miss => {
                let body = answers[i]
                    .response
                    .as_ref()
                    .map(|r| r.body.clone())
                    .unwrap_or_default();
                let key = StoreKey {
                    canon_hash: p.key.0,
                    options_fp: p.key.1.clone(),
                    engines_fp: p.opts.engines.clone(),
                };
                rec.span("service.store.append", i, || {
                    store.append(&key, &body, &unlimited)
                })
                .map_err(|e| e.to_string())?;
                if let Some(ms) = traced_misses.get_mut(&i) {
                    *ms += rec.spans.last().map_or(0.0, |s| s.duration_ms());
                }
            }
            _ => {}
        }
    }

    let mut m = layer_metrics(&rec.spans, &totals);
    let busy = crate::span::busy_by_name(&rec.spans);
    let b = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let hits_misses = |layer: &str| {
        let h = stat(stats, &["cache", layer, "hits"]);
        ratio(h, h + stat(stats, &["cache", layer, "misses"]))
    };
    m.insert("service.cache.report_hit_ratio", hits_misses("report"));
    m.insert("service.cache.parse_hit_ratio", hits_misses("parse"));
    m.insert(
        "service.cache.evictions",
        stat(stats, &["cache", "report", "evictions"])
            + stat(stats, &["cache", "parse", "evictions"]),
    );
    m.insert("service.store.get_ms", b("service.store.get"));
    m.insert("service.store.append_ms", b("service.store.append"));
    m.insert(
        "service.store.hits",
        stat(stats, &["store", "persisted_hits"]),
    );
    m.insert("service.store.appends", stat(stats, &["store", "appends"]));
    m.insert(
        "service.store.append_errors",
        stat(stats, &["store", "append_errors"]),
    );
    m.insert("service.store.recover_ms", recover_ms);
    m.insert(
        "service.store.recovered_records",
        stat(stats, &["store", "recovered_records"]) + stat(stats, &["store", "snapshot_records"]),
    );
    m.insert(
        "iolbd.http.overhead_ms_p50",
        stats::percentile(&http_hit, 0.5).unwrap_or(0.0)
            - stats::percentile(&local_hit, 0.5).unwrap_or(0.0),
    );
    m.insert("iolbd.rejects_503", stat(stats, &["overloaded"]));
    let traced_ms: f64 = traced_misses.values().sum();
    let untraced_ms: f64 = traced_misses.keys().map(|&i| inproc_ms[i]).sum();
    m.insert("trace.overhead_share", ratio(traced_ms, untraced_ms) - 1.0);
    out.notes.push(format!(
        "traced: {} misses replayed stage by stage; HTTP overhead over {} memory hits; overhead compares traced misses plus their store appends with their in-process Pipeline::serve ({traced_ms:.1} vs {untraced_ms:.1} ms)",
        totals.attributed.len(),
        memory.len()
    ));
    finish_layers(out, m, &rec, args)
}
