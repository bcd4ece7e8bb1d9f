//! `xtask serve-bench` — benchmark the `iolbd` analysis daemon against
//! the `iolb` CLI on the shipped kernel suite.
//!
//! The harness starts a daemon on an ephemeral loopback port, replays
//! every `kernels/*.iolb` file through `POST /analyze` twice over:
//!
//! * a **cold** pass (empty cache) whose responses must carry
//!   `X-Iolb-Cache: miss` and whose embedded sweep rows must equal, value
//!   for value, the rows the `iolb` CLI emits for the same kernels and
//!   options — the proof that fronting the pipeline with a daemon changed
//!   nothing about the analysis;
//! * several **warm** passes whose responses must all be cache hits and
//!   whose bodies must be byte-identical to the cold bodies.
//!
//! It then writes `BENCH_serve.json` (schema
//! `hourglass-iolb/serve-bench/v2`) with the warm hit rate, the
//! cold-vs-CLI verdict, throughput / latency percentiles, and the
//! persistent-store counters of the bench daemon's scratch store. The
//! hit rate, the verdict, and the store's corruption counter are
//! deterministic and gated; the timing numbers are volatile and
//! reported for trend-watching only.

use crate::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;

/// `serve-bench` options.
pub struct ServeBenchOpts {
    /// Path to the daemon binary.
    pub iolbd: PathBuf,
    /// Path to the CLI binary (the reference implementation).
    pub iolb: PathBuf,
    /// Directory of `.iolb` kernels to replay.
    pub kernels: PathBuf,
    /// Where to write the bench report.
    pub out: PathBuf,
    /// How many warm passes over the batch.
    pub warm_passes: u32,
}

impl Default for ServeBenchOpts {
    fn default() -> Self {
        Self {
            iolbd: PathBuf::from("target/release/iolbd"),
            iolb: PathBuf::from("target/release/iolb"),
            kernels: PathBuf::from("kernels"),
            out: PathBuf::from("BENCH_serve.json"),
            warm_passes: 5,
        }
    }
}

/// Fixed bench analysis options: a small S grid and no tightness tuning,
/// so the batch completes in seconds. Both sides — daemon query string
/// and CLI flags — are derived from these constants.
const S_GRID: &str = "0,16,64";

pub fn parse_serve_bench_args(args: &[String]) -> Result<ServeBenchOpts, String> {
    let mut opts = ServeBenchOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iolbd" => opts.iolbd = PathBuf::from(it.next().ok_or("--iolbd needs a path")?),
            "--iolb" => opts.iolb = PathBuf::from(it.next().ok_or("--iolb needs a path")?),
            "--kernels" => opts.kernels = PathBuf::from(it.next().ok_or("--kernels needs a dir")?),
            "--out" => opts.out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--warm-passes" => {
                opts.warm_passes = it
                    .next()
                    .ok_or("--warm-passes needs a value")?
                    .parse()
                    .map_err(|_| "bad --warm-passes value".to_string())?;
                if opts.warm_passes == 0 {
                    return Err("--warm-passes must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

pub fn run_serve_bench(opts: &ServeBenchOpts) -> ExitCode {
    match serve_bench(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-bench ✗ — {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon child plus the address it reported. Shared with
/// `crash-smoke`, which starts daemons against a persistent store and
/// kills them mid-burst.
pub(crate) struct Daemon {
    pub(crate) child: Child,
    pub(crate) addr: String,
}

impl Daemon {
    /// Starts the daemon with extra command-line arguments appended
    /// (`--store DIR`, deadline overrides, …).
    pub(crate) fn start_with(binary: &Path, extra: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        Ok(Self { child, addr })
    }

    pub(crate) fn shutdown(mut self) -> Result<(), String> {
        let response = exchange(&self.addr, &post("/shutdown", ""))?;
        if !response.starts_with("HTTP/1.1 200") {
            let _ = self.child.kill();
            return Err(format!("shutdown refused: {}", head(&response)));
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt-and-braces: if the bench errored out before the orderly
        // shutdown, don't leave a daemon running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory removed on drop (store directories for the bench
/// and crash-smoke daemons).
pub(crate) struct ScratchDir(pub(crate) PathBuf);

impl ScratchDir {
    pub(crate) fn new(tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        ScratchDir(std::env::temp_dir().join(format!(
            "iolb_xtask_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub(crate) fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
}

pub(crate) fn post(path_query: &str, body: &str) -> String {
    format!(
        "POST {path_query} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// One request / one connection; reads the response to EOF.
pub(crate) fn exchange(addr: &str, request: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(response)
}

/// First line of a response, for error messages.
pub(crate) fn head(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

/// Body of a response (after the blank line).
pub(crate) fn body_of(response: &str) -> Option<&str> {
    response.split_once("\r\n\r\n").map(|(_, b)| b)
}

fn list_kernels(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .iolb kernels in {}", dir.display()));
    }
    files
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("?")
                .to_string();
            let src = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((name, src))
        })
        .collect()
}

/// Runs the CLI over the whole batch with the bench options and returns
/// its combined sweep report.
fn cli_reference(iolb: &Path, kernels_dir: &Path, tmp: &Path) -> Result<Value, String> {
    let out = tmp.join("serve_bench_cli.json");
    let mut cmd = Command::new(iolb);
    cmd.args(["--s-grid", S_GRID, "--no-tightness", "--json"])
        .arg(&out);
    let mut files: Vec<PathBuf> = std::fs::read_dir(kernels_dir)
        .map_err(|e| format!("{}: {e}", kernels_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "iolb"))
        .collect();
    files.sort();
    cmd.args(&files);
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run {}: {e}", iolb.display()))?;
    if !status.success() {
        return Err(format!("CLI reference run failed with {status}"));
    }
    let src = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    json::parse(&src).map_err(|e| format!("CLI report: {e}"))
}

/// Compares the daemon's embedded sweep rows for `kernel` against the
/// CLI's combined report. Returns an error string on any mismatch.
fn rows_match(cli: &Value, kernel: &str, daemon_body: &Value) -> Result<usize, String> {
    let cli_rows: Vec<&Value> = cli
        .get("rows")
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("kernel").and_then(Value::str) == Some(kernel))
        .collect();
    let daemon_rows = daemon_body
        .get("sweep")
        .and_then(|s| s.get("rows"))
        .and_then(Value::arr)
        .unwrap_or(&[]);
    if cli_rows.len() != daemon_rows.len() {
        return Err(format!(
            "{kernel}: CLI emitted {} rows, daemon {}",
            cli_rows.len(),
            daemon_rows.len()
        ));
    }
    if cli_rows.is_empty() {
        return Err(format!("{kernel}: no rows on either side"));
    }
    for (i, (c, d)) in cli_rows.iter().zip(daemon_rows).enumerate() {
        if **c != *d {
            return Err(format!(
                "{kernel}: row {i} differs: CLI {c:?} vs daemon {d:?}"
            ));
        }
    }
    Ok(cli_rows.len())
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64) * p).ceil() as usize;
    sorted_ms[idx.clamp(1, sorted_ms.len()) - 1]
}

struct Phase {
    latencies_ms: Vec<f64>,
    wall_ms: f64,
    hits: u64,
    misses: u64,
}

impl Phase {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn json(&self, label: &str) -> String {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let requests = sorted.len();
        let throughput = if self.wall_ms > 0.0 {
            requests as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        };
        format!(
            r#""{label}": {{"requests": {requests}, "wall_ms": {:.3}, "p50_ms": {:.3}, "p99_ms": {:.3}, "throughput_rps": {:.1}}}"#,
            self.wall_ms,
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            throughput,
        )
    }
}

/// Replays the batch once; checks every response is a 200 with the
/// expected cache disposition and (optionally) records/cross-checks the
/// response bodies.
fn replay(
    addr: &str,
    batch: &[(String, String)],
    expect: &str,
    bodies: &mut Vec<String>,
    check_bodies: bool,
) -> Result<Phase, String> {
    let mut phase = Phase {
        latencies_ms: Vec::with_capacity(batch.len()),
        wall_ms: 0.0,
        hits: 0,
        misses: 0,
    };
    let start = Instant::now();
    for (i, (name, src)) in batch.iter().enumerate() {
        let request = post(&format!("/analyze?s-grid={S_GRID}&no-tightness"), src);
        let t = Instant::now();
        let response = exchange(addr, &request)?;
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !response.starts_with("HTTP/1.1 200") {
            return Err(format!("{name}: {}", head(&response)));
        }
        match () {
            _ if response.contains("X-Iolb-Cache: hit") => phase.hits += 1,
            _ if response.contains("X-Iolb-Cache: miss") => phase.misses += 1,
            _ => return Err(format!("{name}: response lacks X-Iolb-Cache header")),
        }
        let body = body_of(&response)
            .ok_or_else(|| format!("{name}: malformed response"))?
            .to_string();
        if check_bodies && bodies[i] != body {
            return Err(format!(
                "{name}: {expect} body differs from the cold body — responses are not deterministic"
            ));
        }
        if !check_bodies {
            bodies.push(body);
        }
    }
    phase.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let seen = if expect == "miss" {
        phase.misses
    } else {
        phase.hits
    };
    if seen != batch.len() as u64 {
        return Err(format!(
            "expected {} `{expect}` responses, saw {seen} (hits {}, misses {})",
            batch.len(),
            phase.hits,
            phase.misses
        ));
    }
    Ok(phase)
}

fn serve_bench(opts: &ServeBenchOpts) -> Result<(), String> {
    let batch = list_kernels(&opts.kernels)?;
    println!(
        "serve-bench: {} kernel(s), grid {S_GRID}, {} warm pass(es)",
        batch.len(),
        opts.warm_passes
    );

    // Reference: the CLI on the same batch with the same options.
    let cli = cli_reference(&opts.iolb, &opts.kernels, &std::env::temp_dir())?;

    // The bench daemon runs with a scratch persistent store, so the
    // report carries the store counters a production deployment would
    // watch (and the gate can hold skipped_corrupt_records at zero).
    let store_dir = ScratchDir::new("serve_bench_store");
    let store_arg = store_dir.0.to_string_lossy().into_owned();
    let daemon = Daemon::start_with(&opts.iolbd, &["--store", &store_arg])?;
    let addr = daemon.addr.clone();

    // Cold pass: all misses; capture bodies.
    let mut bodies: Vec<String> = Vec::new();
    let cold = replay(&addr, &batch, "miss", &mut bodies, false)?;

    // Cold bodies vs the CLI: every sweep row identical.
    let mut rows_compared = 0usize;
    for ((name, _), body) in batch.iter().zip(&bodies) {
        let doc = json::parse(body).map_err(|e| format!("{name}: daemon body: {e}"))?;
        rows_compared += rows_match(&cli, name, &doc)?;
    }
    println!("serve-bench: cold pass matches CLI ({rows_compared} sweep rows compared, all equal)");

    // Warm passes: all hits, bodies byte-identical to cold.
    let mut warm = Phase {
        latencies_ms: Vec::new(),
        wall_ms: 0.0,
        hits: 0,
        misses: 0,
    };
    for _ in 0..opts.warm_passes {
        let pass = replay(&addr, &batch, "hit", &mut bodies, true)?;
        warm.latencies_ms.extend(pass.latencies_ms);
        warm.wall_ms += pass.wall_ms;
        warm.hits += pass.hits;
        warm.misses += pass.misses;
    }

    // Store counters straight from the daemon before it drains.
    let stats_raw = exchange(&addr, &get("/stats"))?;
    let stats_doc = body_of(&stats_raw)
        .ok_or("malformed /stats response")
        .and_then(|b| json::parse(b).map_err(|_| "/stats body is not JSON"))?;
    let store_num = |field: &str| -> Result<u64, String> {
        stats_doc
            .get("store")
            .and_then(|s| s.get(field))
            .and_then(Value::num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("/stats store.{field} missing — daemon ran without --store?"))
    };
    let store_json = format!(
        "\"store\": {{\"entries\": {}, \"appends\": {}, \"append_errors\": {}, \
         \"persisted_hits\": {}, \"compactions\": {}, \"recovered_records\": {}, \
         \"snapshot_records\": {}, \"skipped_corrupt_records\": {}, \"torn_tail_bytes\": {}}}",
        store_num("entries")?,
        store_num("appends")?,
        store_num("append_errors")?,
        store_num("persisted_hits")?,
        store_num("compactions")?,
        store_num("recovered_records")?,
        store_num("snapshot_records")?,
        store_num("skipped_corrupt_records")?,
        store_num("torn_tail_bytes")?,
    );

    daemon.shutdown()?;

    let kernel_names: Vec<String> = batch
        .iter()
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    let report = format!(
        "{{\n  \"schema\": \"hourglass-iolb/serve-bench/v2\",\n  \
         \"meta\": {{\"kernels\": {}, \"warm_passes\": {}, \"s_grid\": \"{S_GRID}\"}},\n  \
         \"cold_matches_cli\": true,\n  \
         \"warm_hit_rate\": {:.4},\n  \
         {},\n  {},\n  {store_json},\n  \
         \"kernels\": [{}]\n}}\n",
        batch.len(),
        opts.warm_passes,
        warm.hit_rate(),
        cold.json("cold"),
        warm.json("warm"),
        kernel_names.join(", "),
    );
    std::fs::write(&opts.out, &report).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!(
        "serve-bench ✓ — warm hit rate {:.2}%, wrote {}",
        warm.hit_rate() * 100.0,
        opts.out.display()
    );
    Ok(())
}

/// Gate checks for `BENCH_serve.json`: the deterministic fields must hold
/// absolutely (they do not regress by degrees), the timing fields are
/// volatile and ignored — consistent with how the pebble/tightness gates
/// treat wall times.
pub const SERVE_SCHEMAS: &[&str] = &[
    "hourglass-iolb/serve-bench/v1",
    "hourglass-iolb/serve-bench/v2",
];

pub fn gate_serve(base: &Value, new: &Value, violations: &mut Vec<String>) {
    if new.get("cold_matches_cli").and_then(Value::bool) != Some(true) {
        violations.push("serve: fresh cold pass does not match the CLI output".to_string());
    }
    match new.get("warm_hit_rate").and_then(Value::num) {
        Some(rate) if rate >= 0.99 => {}
        Some(rate) => violations.push(format!(
            "serve: warm cache hit rate {rate:.4} below the 0.99 floor"
        )),
        None => violations.push("serve: missing `warm_hit_rate`".to_string()),
    }
    // Coverage: every kernel the baseline served must still be served.
    let fresh_kernels: Vec<&str> = new
        .get("kernels")
        .and_then(Value::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::str)
        .collect();
    for k in base.get("kernels").and_then(Value::arr).unwrap_or(&[]) {
        if let Some(name) = k.str() {
            if !fresh_kernels.contains(&name) {
                violations.push(format!(
                    "serve: baseline kernel missing from fresh run: {name}"
                ));
            }
        }
    }
    // Store health (v2): a fresh run skipping more corrupt records than
    // the baseline knew about means the journal is corrupting data at
    // rest. Pre-v2 baselines carry no store section — noted, counted as
    // zero skipped, and the rest of the gate still applies.
    let skipped = |doc: &Value| {
        doc.get("store")
            .and_then(|s| s.get("skipped_corrupt_records"))
            .and_then(Value::num)
    };
    let base_skipped = skipped(base).unwrap_or_else(|| {
        println!(
            "gate: serve baseline has no store counters (pre-v2 schema) — \
             baseline skipped_corrupt_records taken as 0"
        );
        0.0
    });
    match skipped(new) {
        Some(fresh) if fresh <= base_skipped => {}
        Some(fresh) => violations.push(format!(
            "serve: skipped_corrupt_records {fresh:.0} above baseline {base_skipped:.0} — \
             the persistent store is corrupting records"
        )),
        None => println!(
            "gate: fresh serve report has no store counters (pre-v2 schema) — \
             store health not gated"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = r#"{"schema": "hourglass-iolb/serve-bench/v2",
        "meta": {"kernels": 2, "warm_passes": 5, "s_grid": "0,16,64"},
        "cold_matches_cli": true, "warm_hit_rate": 1.0,
        "cold": {"requests": 2, "wall_ms": 10.0, "p50_ms": 5.0, "p99_ms": 6.0, "throughput_rps": 200.0},
        "warm": {"requests": 10, "wall_ms": 5.0, "p50_ms": 0.5, "p99_ms": 0.9, "throughput_rps": 2000.0},
        "store": {"entries": 2, "appends": 2, "append_errors": 0, "persisted_hits": 0,
                  "compactions": 0, "recovered_records": 0, "snapshot_records": 0,
                  "skipped_corrupt_records": 0, "torn_tail_bytes": 0},
        "kernels": ["a", "b"]}"#;

    #[test]
    fn serve_gate_passes_a_clean_report() {
        let doc = json::parse(CLEAN).unwrap();
        let mut v = Vec::new();
        gate_serve(&doc, &doc, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn serve_gate_flags_mismatch_hit_rate_and_coverage() {
        let clean = json::parse(CLEAN).unwrap();

        let mismatch = json::parse(
            &CLEAN.replace("\"cold_matches_cli\": true", "\"cold_matches_cli\": false"),
        )
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &mismatch, &mut v);
        assert!(v.iter().any(|m| m.contains("does not match")), "{v:?}");

        let lukewarm =
            json::parse(&CLEAN.replace("\"warm_hit_rate\": 1.0", "\"warm_hit_rate\": 0.5"))
                .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &lukewarm, &mut v);
        assert!(
            v.iter().any(|m| m.contains("below the 0.99 floor")),
            "{v:?}"
        );

        let shrunk = json::parse(&CLEAN.replace(r#"["a", "b"]"#, r#"["a"]"#)).unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &shrunk, &mut v);
        assert!(
            v.iter().any(|m| m.contains("missing from fresh run: b")),
            "{v:?}"
        );
    }

    #[test]
    fn serve_gate_holds_store_corruption_at_the_baseline() {
        let clean = json::parse(CLEAN).unwrap();

        // Fresh run skipping corrupt records the baseline never saw: fail.
        let corrupting = json::parse(&CLEAN.replace(
            "\"skipped_corrupt_records\": 0",
            "\"skipped_corrupt_records\": 2",
        ))
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&clean, &corrupting, &mut v);
        assert!(
            v.iter().any(|m| m.contains("skipped_corrupt_records 2")),
            "{v:?}"
        );

        // A pre-v2 baseline (no store section) is accepted — its skipped
        // count is taken as zero, so a clean fresh run passes and a
        // corrupting one still fails.
        let pre_v2 = json::parse(
            r#"{"schema": "hourglass-iolb/serve-bench/v1",
                "cold_matches_cli": true, "warm_hit_rate": 1.0,
                "kernels": ["a", "b"]}"#,
        )
        .unwrap();
        let mut v = Vec::new();
        gate_serve(&pre_v2, &clean, &mut v);
        assert!(v.is_empty(), "{v:?}");
        let mut v = Vec::new();
        gate_serve(&pre_v2, &corrupting, &mut v);
        assert!(v.iter().any(|m| m.contains("above baseline 0")), "{v:?}");

        // A pre-v2 *fresh* report is noted, not failed, on the store axis.
        let mut v = Vec::new();
        gate_serve(&clean, &pre_v2, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn serve_bench_args_parse() {
        let opts = parse_serve_bench_args(&[
            "--iolbd".into(),
            "x/iolbd".into(),
            "--out".into(),
            "o.json".into(),
            "--warm-passes".into(),
            "3".into(),
        ])
        .unwrap();
        assert_eq!(opts.iolbd, PathBuf::from("x/iolbd"));
        assert_eq!(opts.out, PathBuf::from("o.json"));
        assert_eq!(opts.warm_passes, 3);
        assert!(parse_serve_bench_args(&["--warm-passes".into(), "0".into()]).is_err());
        assert!(parse_serve_bench_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn percentiles_pick_the_right_ranks() {
        let ms: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&ms, 0.50), 50.0);
        assert_eq!(percentile(&ms, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.50), 0.0);
    }
}
