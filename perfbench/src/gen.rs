//! Seeded request generation. Every stream is a pure function of
//! `(workload, seed, size)`: the same seed yields a byte-identical stream,
//! and formatting variants only add comments and whitespace, so each one
//! canonicalizes to the text of the kernel it came from.

use std::fmt::Write as _;

/// SplitMix64: a small, fixed generator, so streams never depend on a
/// library's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One shipped kernel: its file stem and source text.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub text: String,
}

/// Reads every `*.iolb` under `dir`, sorted by file name.
pub fn load_kernels(dir: &std::path::Path) -> Result<Vec<Kernel>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .path();
        if path.extension().and_then(|e| e.to_str()) != Some("iolb") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad kernel file name {}", path.display()))?
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        out.push(Kernel { name, text });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    if out.is_empty() {
        return Err(format!("no .iolb kernels under {}", dir.display()));
    }
    Ok(out)
}

/// A formatting-only variant of `text`: an optional leading comment
/// (carrying `tag`, so tagged variants are distinct raw texts), blank
/// lines, trailing blanks and widened indentation, each picked by a
/// seeded bit.
pub fn format_variant(text: &str, rng: &mut Rng, tag: Option<u64>) -> String {
    let bits = rng.next_u64();
    let mut out = String::with_capacity(text.len() + 64);
    if let Some(t) = tag {
        let _ = writeln!(out, "# formatting variant {t}");
    }
    for line in text.lines() {
        if bits & 1 != 0 {
            let depth = line.len() - line.trim_start_matches(' ').len();
            out.push_str(&" ".repeat(depth * 2));
            out.push_str(line.trim_start_matches(' '));
        } else {
            out.push_str(line);
        }
        if bits & 2 != 0 {
            out.push_str("   ");
        }
        out.push('\n');
        if bits & 4 != 0 && line.trim_end().ends_with('{') {
            out.push('\n');
        }
    }
    if bits & 8 != 0 {
        out.push_str("\n# end of kernel\n");
    }
    out
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["suite-cold", "validate-large", "serve-mixed"];

/// How a serve-mixed request is expected to be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An in-process request (no cache in front of it).
    Cold,
    /// First sight of a key: computed, then appended to the store.
    Miss,
    /// A key only the store holds.
    StoreRead,
    /// A key this daemon life already computed.
    Repeat,
    /// A never-seen raw text whose canonical form was already served.
    Variant,
}

/// One request: the kernel text sent and the option pairs, applied in
/// order through `AnalysisOptions::set` (in process) or sent as the typed
/// request's `options` object (over HTTP).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub kernel: String,
    pub text: String,
    pub sets: Vec<(String, String)>,
    /// Index of the request's key in its workload universe.
    pub key: usize,
    pub kind: Kind,
}

/// One analysis key of a workload: a kernel at fixed options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub kernel: usize,
    pub sets: Vec<(String, String)>,
}

/// Validate-large draws: per kernel, three neighbouring sizes (about ±3%
/// of work) around one size class. Trace lengths run from about 1.8·10⁵
/// (cholesky 64) to about 4.5·10⁶ (gemm 104) program-order events: gemm
/// sits above `CROSS_CHECK_CAP` (2²²) and spans five 2²⁰-event chunks,
/// lu_nopiv spans two chunks below the cap, the rest fit in one. The
/// classes next to the median class (mgs) sit well apart from it in
/// latency, so the median of a run's ten requests stays within it.
pub const LARGE_DRAWS: [(&str, [&str; 3]); 5] = [
    (
        "gemm",
        [
            "M=103,N=104,K=104",
            "M=104,N=104,K=104",
            "M=105,N=104,K=104",
        ],
    ),
    ("lu_nopiv", ["N=103", "N=104", "N=105"]),
    ("cholesky", ["N=63", "N=64", "N=65"]),
    ("mgs", ["M=75,N=38", "M=76,N=38", "M=77,N=38"]),
    ("syrk", ["N=47,K=48", "N=48,K=48", "N=49,K=48"]),
];

/// Serve-mixed S grids (offsets over the minimum feasible S).
pub const SERVE_GRIDS: [&str; 2] = ["0,8,32", "0,16,64"];

/// Serve-mixed parameter variants per kernel and grid: the last
/// parameter lowered by 0..SERVE_DELTAS from its `default`.
pub const SERVE_DELTAS: i64 = 12;

/// Keys the untimed first daemon life writes into the store.
pub const SERVE_STORED_KEYS: usize = 16;

/// Requests of each kind in one serve-mixed block of 20. The shares are
/// an assumption, not taken from measured traffic: chosen so that each
/// layer the workload exists for does measurable work in every run.
/// Misses (15%) drive `miss_latency_ms_p50`, `trace_events_per_s` and
/// `latency_ms_p90`, which falls on a miss at this share; store reads
/// drive `service.store.get_ms`, variants `service.cache.parse_hit_ratio`,
/// and all three hit kinds (85%) `hit_latency_ms_p50` and
/// `latency_ms_p50`.
const SERVE_BLOCK: [(Kind, usize); 4] = [
    (Kind::Miss, 3),
    (Kind::StoreRead, 4),
    (Kind::Repeat, 9),
    (Kind::Variant, 4),
];

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Default parameter values of a kernel text (`default A = 1, B = 2;`).
pub fn defaults(text: &str) -> Vec<(String, i64)> {
    let Some(line) = text
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("default "))
    else {
        return Vec::new();
    };
    line.trim_start_matches("default ")
        .trim_end_matches(';')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.trim().to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

fn kernel_index(kernels: &[Kernel], name: &str) -> Result<usize, String> {
    kernels
        .iter()
        .position(|k| k.name == name)
        .ok_or_else(|| format!("kernel {name} is not in the kernel directory"))
}

/// Every key a workload can draw, in a fixed order. The reference digest
/// table covers exactly these.
pub fn universe(workload: &str, kernels: &[Kernel]) -> Result<Vec<Key>, String> {
    match workload {
        "suite-cold" => Ok((0..kernels.len())
            .map(|kernel| Key {
                kernel,
                sets: Vec::new(),
            })
            .collect()),
        "validate-large" => {
            let mut keys = Vec::new();
            for (name, params) in LARGE_DRAWS {
                let kernel = kernel_index(kernels, name)?;
                for p in params {
                    keys.push(Key {
                        kernel,
                        sets: pairs(&[("no-tightness", "1"), ("params", p)]),
                    });
                }
            }
            Ok(keys)
        }
        "serve-mixed" => {
            let mut keys = Vec::new();
            for (kernel, k) in kernels.iter().enumerate() {
                let defs = defaults(&k.text);
                let (last, value) = defs
                    .last()
                    .ok_or_else(|| format!("kernel {} has no default params", k.name))?;
                for grid in SERVE_GRIDS {
                    for delta in 0..SERVE_DELTAS {
                        keys.push(Key {
                            kernel,
                            sets: vec![
                                ("no-tightness".to_string(), "1".to_string()),
                                ("s-grid".to_string(), grid.to_string()),
                                ("params".to_string(), format!("{last}={}", value - delta)),
                            ],
                        });
                    }
                }
            }
            Ok(keys)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn request(kernels: &[Kernel], keys: &[Key], key: usize, text: String, kind: Kind) -> Request {
    Request {
        kernel: kernels[keys[key].kernel].name.clone(),
        text,
        sets: keys[key].sets.clone(),
        key,
        kind,
    }
}

/// The in-process workloads' stream: `passes` passes, each a seeded
/// permutation of one request per draw class (suite-cold: every kernel;
/// validate-large: every `LARGE_DRAWS` kernel at a seeded setting), each
/// sent as a seeded formatting variant. Every pass holds the same
/// classes, so runs with different seeds do comparable work.
pub fn cold_stream(
    workload: &str,
    kernels: &[Kernel],
    seed: u64,
    passes: usize,
) -> Result<Vec<Request>, String> {
    let keys = universe(workload, kernels)?;
    let per_class = if workload == "validate-large" { 3 } else { 1 };
    let classes = keys.len() / per_class;
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(passes * classes);
    for _ in 0..passes {
        let mut order: Vec<usize> = (0..classes).collect();
        rng.shuffle(&mut order);
        for class in order {
            let key = class * per_class + rng.below(per_class);
            let text = format_variant(&kernels[keys[key].kernel].text, &mut rng, None);
            out.push(request(kernels, &keys, key, text, Kind::Cold));
        }
    }
    Ok(out)
}

/// Deals keys round-robin over kernels, each round in a seeded kernel
/// order and each kernel's keys in a seeded order, so any prefix of the
/// deal holds every kernel equally often (within one).
struct Deal {
    lists: Vec<Vec<usize>>,
    round: Vec<usize>,
}

impl Deal {
    fn new(keys: &[Key], kernels: usize, rng: &mut Rng) -> Deal {
        let mut lists = vec![Vec::new(); kernels];
        for (i, k) in keys.iter().enumerate() {
            lists[k.kernel].push(i);
        }
        for list in &mut lists {
            rng.shuffle(list);
        }
        Deal {
            lists,
            round: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Option<usize> {
        loop {
            if self.lists.iter().all(Vec::is_empty) {
                return None;
            }
            if self.round.is_empty() {
                self.round = (0..self.lists.len()).collect();
                rng.shuffle(&mut self.round);
            }
            let kernel = self.round.pop()?;
            if let Some(key) = self.lists[kernel].pop() {
                return Some(key);
            }
        }
    }
}

/// The serve-mixed plan: which keys the untimed first life stores, and
/// the timed stream of `n` requests in blocks of 20 (3 misses, 4 store
/// reads, 9 repeats, 4 formatting variants, in seeded order, no two
/// misses adjacent). Stored and
/// first-seen keys are dealt round-robin over kernels, so every run
/// computes the same mix of kernels. Repeats and variants draw from keys
/// this life has already been sent, so they are answered from memory;
/// the first block, having none yet, turns them into store reads.
pub fn serve_plan(
    kernels: &[Kernel],
    seed: u64,
    n: usize,
) -> Result<(Vec<usize>, Vec<Request>), String> {
    let keys = universe("serve-mixed", kernels)?;
    let mut rng = Rng::new(seed);
    let mut deal = Deal::new(&keys, kernels.len(), &mut rng);
    let stored: Vec<usize> = (0..SERVE_STORED_KEYS)
        .map(|_| deal.next(&mut rng))
        .collect::<Option<_>>()
        .ok_or("serve-mixed: too few keys to seed the store")?;
    let mut sent: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(n);
    let mut variant_tag = 0u64;
    while out.len() < n {
        let mut block: Vec<Kind> = SERVE_BLOCK
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        // Two clients take consecutive requests into one dispatch cycle;
        // keeping misses apart keeps two computations from sharing a cycle.
        let after_miss = out.last().is_some_and(|r: &Request| r.kind == Kind::Miss);
        loop {
            rng.shuffle(&mut block);
            let adjacent = block.windows(2).any(|w| w == [Kind::Miss, Kind::Miss]);
            if !(adjacent || after_miss && block[0] == Kind::Miss) {
                break;
            }
        }
        for mut kind in block {
            if out.len() == n {
                break;
            }
            if matches!(kind, Kind::Repeat | Kind::Variant) && sent.is_empty() {
                kind = Kind::StoreRead;
            }
            let key = match kind {
                Kind::Miss => {
                    let key = deal.next(&mut rng).ok_or_else(|| {
                        format!(
                            "serve-mixed: {n} requests need more than {} keys",
                            keys.len()
                        )
                    })?;
                    sent.push(key);
                    key
                }
                Kind::StoreRead => stored[rng.below(stored.len())],
                _ => sent[rng.below(sent.len())],
            };
            let source = &kernels[keys[key].kernel].text;
            let text = match kind {
                Kind::Variant => {
                    variant_tag += 1;
                    format_variant(source, &mut rng, Some(variant_tag))
                }
                _ => source.clone(),
            };
            out.push(request(kernels, &keys, key, text, kind));
        }
    }
    Ok((stored, out))
}

/// Byte serialization of a stream (determinism checks and the stream
/// digest printed with every run).
pub fn stream_bytes(stream: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in stream {
        out.extend_from_slice(r.kernel.as_bytes());
        out.push(0);
        out.extend_from_slice(r.text.as_bytes());
        out.push(0);
        for (k, v) in &r.sets {
            out.extend_from_slice(format!("{k}={v};").as_bytes());
        }
        out.extend_from_slice(format!("{}:{:?}\n", r.key, r.kind).as_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_service::canonicalize;

    fn kernels() -> Vec<Kernel> {
        load_kernels(&std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../kernels"))
            .expect("kernel directory")
    }

    #[test]
    fn streams_are_byte_identical_per_seed() {
        let ks = kernels();
        for w in ["suite-cold", "validate-large"] {
            let a = stream_bytes(&cold_stream(w, &ks, 7, 3).unwrap());
            let b = stream_bytes(&cold_stream(w, &ks, 7, 3).unwrap());
            let c = stream_bytes(&cold_stream(w, &ks, 8, 3).unwrap());
            assert_eq!(a, b, "{w}");
            assert_ne!(a, c, "{w}: another seed must give another stream");
        }
        let (sa, a) = serve_plan(&ks, 7, 300).unwrap();
        let (sb, b) = serve_plan(&ks, 7, 300).unwrap();
        let (_, c) = serve_plan(&ks, 8, 300).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(stream_bytes(&a), stream_bytes(&b));
        assert_ne!(stream_bytes(&a), stream_bytes(&c));
    }

    #[test]
    fn formatting_variants_canonicalize_to_the_source() {
        let ks = kernels();
        let mut rng = Rng::new(3);
        for k in &ks {
            let want = canonicalize(&k.text).unwrap();
            for tag in [None, Some(1), Some(2)] {
                for _ in 0..8 {
                    let v = format_variant(&k.text, &mut rng, tag);
                    assert_eq!(canonicalize(&v).unwrap(), want, "{}: {v}", k.name);
                }
            }
        }
    }

    #[test]
    fn cold_passes_hold_every_class_once() {
        let ks = kernels();
        let s = cold_stream("suite-cold", &ks, 11, 2).unwrap();
        assert_eq!(s.len(), 2 * ks.len());
        for pass in s.chunks(ks.len()) {
            let mut names: Vec<&str> = pass.iter().map(|r| r.kernel.as_str()).collect();
            names.sort();
            let all: Vec<&str> = ks.iter().map(|k| k.name.as_str()).collect();
            assert_eq!(names, all);
        }
        let v = cold_stream("validate-large", &ks, 11, 2).unwrap();
        assert_eq!(v.len(), 2 * LARGE_DRAWS.len());
    }

    #[test]
    fn serve_plan_follows_the_block_mix() {
        let ks = kernels();
        let (stored, s) = serve_plan(&ks, 5, 400).unwrap();
        assert_eq!(stored.len(), SERVE_STORED_KEYS);
        let misses: Vec<usize> = s
            .iter()
            .filter(|r| r.kind == Kind::Miss)
            .map(|r| r.key)
            .collect();
        assert_eq!(misses.len(), 60);
        let mut distinct = misses.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), misses.len(), "a miss key repeats");
        assert!(misses.iter().all(|k| !stored.contains(k)));
        assert!(s
            .windows(2)
            .all(|w| w[0].kind != Kind::Miss || w[1].kind != Kind::Miss));
        let mut per_kernel = vec![0usize; ks.len()];
        for r in s.iter().filter(|r| r.kind == Kind::Miss) {
            per_kernel[ks.iter().position(|k| k.name == r.kernel).unwrap()] += 1;
        }
        let (lo, hi) = (
            per_kernel.iter().min().unwrap(),
            per_kernel.iter().max().unwrap(),
        );
        assert!(hi - lo <= 2, "misses per kernel {per_kernel:?}");
        for (i, r) in s.iter().enumerate() {
            match r.kind {
                Kind::StoreRead => assert!(stored.contains(&r.key)),
                Kind::Repeat | Kind::Variant => {
                    assert!(s[..i]
                        .iter()
                        .any(|p| p.kind == Kind::Miss && p.key == r.key));
                }
                _ => {}
            }
        }
    }
}
