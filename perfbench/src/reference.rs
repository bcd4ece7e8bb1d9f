//! The reference digest table: for every key a workload can draw, the
//! digest of its rendered `serve/v1` body (split as in [`crate::check`])
//! and its program-order trace length. Bodies are checked against it
//! outside the timed region.

use crate::check::{parts, Parts};
use crate::gen::{universe, Kernel, WORKLOADS};
use iolb_service::{analyze_uncached, canonicalize, outcome_body, AnalysisOptions};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Location of the table, relative to the repository root.
pub const TABLE_PATH: &str = "perfbench/reference.tsv";

/// `(canonical-text hash, options fingerprint)`.
pub type RefKey = (u128, String);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefEntry {
    pub body: Parts,
    /// CDAG edges plus computes (0 when nothing was priced).
    pub trace_events: u64,
}

pub type Table = BTreeMap<RefKey, RefEntry>;

pub fn options(sets: &[(String, String)]) -> Result<AnalysisOptions, String> {
    let mut opts = AnalysisOptions::default();
    for (k, v) in sets {
        opts.set(k, v)?;
    }
    Ok(opts)
}

pub fn ref_key(text: &str, opts: &AnalysisOptions) -> Result<RefKey, String> {
    let (_, hash) = canonicalize(text).map_err(|e| e.to_string())?;
    Ok((hash, opts.fingerprint()))
}

/// Program-order trace events priced by a rendered outcome's sweep.
pub fn trace_events(outcome: &iolb_service::AnalysisOutcome) -> u64 {
    outcome
        .sweep
        .as_ref()
        .and_then(|s| s.rows.first())
        .map_or(0, |r| (r.edges as u64) + r.computes)
}

pub fn load(path: &std::path::Path) -> Result<Table, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut table = Table::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("{}:{}: malformed reference line", path.display(), i + 1);
        if f.len() != 7 {
            return Err(bad());
        }
        let hash = u128::from_str_radix(f[0], 16).map_err(|_| bad())?;
        let rest_digest = u128::from_str_radix(f[2], 16).map_err(|_| bad())?;
        let trace_events = f[3].parse().map_err(|_| bad())?;
        table.insert(
            (hash, f[1].to_string()),
            RefEntry {
                body: Parts {
                    rest_digest,
                    summaries: [f[4].to_string(), f[5].to_string(), f[6].to_string()],
                },
                trace_events,
            },
        );
    }
    Ok(table)
}

/// Analyzes every key of every workload in process (two threads) and
/// writes the table. A key that fails or renders `sound: false` aborts
/// the write: the workloads must hold only keys that succeed.
pub fn write(kernels: &[Kernel], path: &std::path::Path) -> Result<usize, String> {
    let mut jobs: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for w in WORKLOADS {
        for key in universe(w, kernels)? {
            jobs.push((kernels[key.kernel].text.clone(), key.sets));
        }
    }
    let next = AtomicUsize::new(0);
    let rows: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((text, sets)) = jobs.get(i) else {
                    break;
                };
                let result = (|| -> Result<String, String> {
                    let opts = options(sets)?;
                    let (hash, fp) = ref_key(text, &opts)?;
                    let outcome = analyze_uncached(text, &opts, &opts.budget.token())
                        .map_err(|e| format!("{sets:?}: {e}"))?;
                    if !outcome.sound {
                        return Err(format!("{sets:?}: unsound outcome"));
                    }
                    let p = parts(&outcome_body(&outcome));
                    Ok(format!(
                        "{hash:032x}\t{fp}\t{:032x}\t{}\t{}",
                        p.rest_digest,
                        trace_events(&outcome),
                        p.summaries.join("\t")
                    ))
                })();
                match result {
                    Ok(row) => rows.lock().expect("rows lock").push(row),
                    Err(e) => errors.lock().expect("errors lock").push(e),
                }
            });
        }
    });
    let errors = errors.into_inner().expect("errors lock");
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    let mut rows = rows.into_inner().expect("rows lock");
    rows.sort();
    rows.dedup();
    let mut out = String::from(
        "# perfbench reference digests: canonical-text hash, options fingerprint,\n\
         # FNV-1a-128 of the serve/v1 body without its classical/split/hourglass\n\
         # lines, program-order trace events, and those three lines' values.\n\
         # Regenerate with `python3 perfbench/run.py --write-reference`.\n",
    );
    for r in &rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(rows.len())
}
