//! Streaming, sharded stack-distance engines for out-of-core traces.
//!
//! The materialized [`CurveEngine`](crate::CurveEngine) walks one in-memory
//! `&[u64]` slice with 32-bit position bookkeeping — exact and fast up to
//! the `u32` sentinel ceiling, but it requires the whole trace resident
//! and runs single-threaded. This module prices the same curves from a
//! *pull* source ([`ChunkedTrace`]) without materializing the trace, in
//! 64-bit id/position space, sharded across rayon workers:
//!
//! * **LRU** ([`ShardedCurveEngine::try_lru`]) — exact PARDA-style
//!   decomposition. The trace splits into fixed-size chunks; each worker
//!   resolves every *within-chunk* reuse with a local Fenwick pass and
//!   reports its chunk's distance-histogram delta plus two boundary
//!   summaries (first-touch list, distinct cells ordered by last touch).
//!   A sequential merge then replays only the boundary accesses over one
//!   Fenwick tree whose universe is the chunk-last positions of all
//!   chunks (coordinate-compressed, ≤ one entry per distinct cell per
//!   chunk). **Chunk merge invariant:** while chunk `k` replays, every
//!   cell's mark sits either at its last position in the most recent
//!   earlier chunk that touched it (in the Fenwick) or, once re-touched
//!   inside chunk `k`, in a plain per-chunk counter — so
//!   `suffix(mark) + counter + 1` is *exactly* the access's global reuse
//!   distance, and the merged histogram is bitwise the single-threaded
//!   one.
//! * **OPT** ([`ShardedCurveEngine::try_opt`]) — the priority stack is
//!   inherently sequential (every displacement chain depends on all
//!   history), so OPT streams instead of sharding the stack itself:
//!   parallel workers extract per-chunk first/last summaries, one cheap
//!   backward sweep threads cross-chunk next-use positions through them,
//!   and a forward pass runs the Mattson displacement stack chunk by
//!   chunk in `u64` priority space, carrying the (≤ horizon) stack
//!   between chunks. The histogram is bitwise the materialized engine's.
//!
//! Both passes poll the governance token at the [`Seam::LruPass`] /
//! [`Seam::OptPass`] seams inside every shard (every 4096 positions) and
//! in the merge, so cancellation and deadlines land in bounded time no
//! matter which worker is hot.
//!
//! Per-cell bookkeeping is dense: cell ids are trace offsets, so every
//! pass indexes plain `Vec`s by cell instead of hashing. Each shard worker
//! keeps one cell-indexed table (plus its chunk buffer and Fenwick) for
//! all the chunks it takes, and a chunk pass resets only the cells that
//! chunk touched — its first-touch list — so a chunk costs O(chunk length)
//! however large the cell universe grows.

use crate::curve::{Fenwick, MissCurve};
use iolb_govern::{AnalysisError, CancelToken, Seam};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A pull source of packed trace events (`(cell << 1) | write` per
/// `u64`), random-access at chunk granularity so parallel shards can read
/// disjoint windows concurrently. Implementations are stateless readers:
/// `fill` may be called from many threads at once.
pub trait ChunkedTrace: Sync {
    /// Total number of events.
    fn len(&self) -> u64;

    /// True when the trace has no events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the events at positions `start..start + buf.len()`.
    ///
    /// # Panics
    /// Implementations may panic when the window exceeds the trace.
    fn fill(&self, start: u64, buf: &mut [u64]);
}

/// A materialized packed trace is trivially chunked — the bridge that
/// lets every existing `Vec<u64>` trace (tightness candidates, fuzz
/// cases) flow through the sharded engines.
impl ChunkedTrace for [u64] {
    fn len(&self) -> u64 {
        <[u64]>::len(self) as u64
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        let s = start as usize;
        buf.copy_from_slice(&self[s..s + buf.len()]);
    }
}

impl ChunkedTrace for Vec<u64> {
    fn len(&self) -> u64 {
        self.as_slice().len() as u64
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        ChunkedTrace::fill(self.as_slice(), start, buf);
    }
}

impl<T: ChunkedTrace + ?Sized> ChunkedTrace for &T {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn fill(&self, start: u64, buf: &mut [u64]) {
        (**self).fill(start, buf)
    }
}

/// "No position" marker in the 64-bit id space.
const NONE64: u64 = u64::MAX;
/// Priority of a value never read again before overwrite (64-bit twin of
/// the materialized engine's `DEAD`).
const DEAD64: u64 = u64::MAX;
/// Empty priority slot (real next-use positions are ≥ 1: a next use is
/// strictly later than the access that set it).
const EMPTY64: u64 = 0;
/// `idx_of` sentinels — these mark stack *slots* (bounded by the
/// horizon), not cell ids, so the streaming engine only requires
/// `horizon < u32::MAX - 1` while cells and positions live in `u64`.
const NIL32: u32 = u32::MAX;
const DROPPED32: u32 = u32::MAX - 1;

/// Poll cadence inside shard loops (positions between token checks).
const POLL_MASK: usize = 0xFFF;

/// Default shard length: 1 Mi events (8 MiB of buffer per worker).
pub const DEFAULT_CHUNK_LEN: usize = 1 << 20;

/// Sharded/streaming miss-curve engine over a [`ChunkedTrace`].
#[derive(Debug, Clone)]
pub struct ShardedCurveEngine {
    chunk_len: usize,
}

impl Default for ShardedCurveEngine {
    fn default() -> ShardedCurveEngine {
        ShardedCurveEngine::new()
    }
}

/// Per-chunk output of the parallel LRU shard pass.
struct LruChunk {
    /// `(cell, first access is a write)` in first-touch order — the
    /// boundary accesses the merge replays.
    firsts: Vec<(u64, bool)>,
    /// Distinct cells ordered by their last position in the chunk — the
    /// chunk's slice of the merge Fenwick's compressed universe.
    lasts: Vec<u64>,
    /// Within-chunk finite-distance histogram delta (1-indexed).
    hist: Vec<u64>,
    /// Within-chunk beyond-horizon read reuses.
    beyond: u64,
    /// Largest cell id seen.
    max_cell: u64,
}

/// Per-chunk output of the parallel OPT summary pass.
struct OptChunk {
    /// `(cell, packed global position of the first in-chunk access)` in
    /// first-touch order — one entry per distinct cell of the chunk.
    firsts: Vec<(u64, u64)>,
    /// Packed next use *after* this chunk for each entry of `firsts`
    /// ([`NONE64`] when the cell never recurs); filled by the backward
    /// threading sweep.
    nu_after: Vec<u64>,
    /// Largest cell id seen.
    max_cell: u64,
}

/// One shard worker's reusable state: the chunk buffer, a cell-indexed
/// table ([`NIL32`] in every cell between chunks) and the LRU pass's
/// Fenwick tree.
#[derive(Default)]
struct ShardScratch {
    buf: Vec<u64>,
    table: Vec<u32>,
    bit: Fenwick,
}

/// Grows a cell table to cover every cell of `buf` (new cells start at
/// [`NIL32`]) and returns the largest cell id of the chunk.
fn cover_cells(table: &mut Vec<u32>, buf: &[u64]) -> u64 {
    let max_cell = buf.iter().map(|&p| p >> 1).max().unwrap_or(0);
    let need = usize::try_from(max_cell).expect("cell id exceeds the address space") + 1;
    if table.len() < need {
        table.resize(need, NIL32);
    }
    max_cell
}

impl ShardedCurveEngine {
    /// Engine with the default shard length.
    pub fn new() -> ShardedCurveEngine {
        ShardedCurveEngine::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// Engine with an explicit shard length (tests force tiny chunks so
    /// every boundary path is exercised on small traces).
    ///
    /// # Panics
    /// Panics when `chunk_len` is zero.
    pub fn with_chunk_len(chunk_len: usize) -> ShardedCurveEngine {
        assert!(chunk_len >= 1, "chunk length must be positive");
        ShardedCurveEngine { chunk_len }
    }

    /// Exact LRU miss curve for capacities `1..=horizon`, bitwise equal
    /// to [`CurveEngine::lru_packed`](crate::CurveEngine::lru_packed) on
    /// the materialized trace.
    ///
    /// # Errors
    /// Cancellation/deadline from the token (polled at
    /// [`Seam::LruPass`] inside every shard and per merge step).
    pub fn try_lru(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        let len = trace.len();
        if len == 0 {
            return Ok(MissCurve::from_histogram(0, 0, &vec![0; horizon + 1], 0));
        }
        // Shard pass: each chunk resolves its internal reuses exactly and
        // summarizes its boundary.
        let chunks =
            self.map_chunks(trace, |_, scratch| lru_chunk_pass(scratch, horizon, token))?;

        // Sequential boundary merge over the compressed mark universe.
        let cells = chunks.iter().map(|c| c.max_cell + 1).max().unwrap_or(0) as usize;
        let universe: usize = chunks.iter().map(|c| c.lasts.len()).sum();
        let mut bit = Fenwick::default();
        bit.reset(universe);
        let mut mark_idx: Vec<u64> = vec![NONE64; cells];
        let mut total_marks = 0u64;
        let mut hist = vec![0u64; horizon + 1];
        let (mut cold, mut beyond) = (0u64, 0u64);
        let mut base = 0u64;
        for ch in &chunks {
            token.check(Seam::LruPass)?;
            for (replayed, &(cell, write)) in ch.firsts.iter().enumerate() {
                let mi = mark_idx[cell as usize];
                if mi == NONE64 {
                    if !write {
                        cold += 1;
                    }
                } else {
                    // Marks strictly after the previous touch, plus every
                    // distinct cell already replayed in this chunk — the
                    // merge invariant (module docs).
                    let between = (total_marks - bit.prefix(mi as usize)) + replayed as u64;
                    let d = between + 1;
                    if !write {
                        if d as usize <= horizon {
                            hist[d as usize] += 1;
                        } else {
                            beyond += 1;
                        }
                    }
                    bit.add(mi as usize, -1);
                    total_marks -= 1;
                }
            }
            for (d, &h) in ch.hist.iter().enumerate() {
                hist[d] += h;
            }
            beyond += ch.beyond;
            for (rank, &cell) in ch.lasts.iter().enumerate() {
                let idx = base + rank as u64;
                bit.add(idx as usize, 1);
                total_marks += 1;
                mark_idx[cell as usize] = idx;
            }
            base += ch.lasts.len() as u64;
        }
        Ok(MissCurve::from_histogram(cold, beyond, &hist, len))
    }

    /// Exact OPT (Belady MIN) miss curve for capacities `1..=horizon`,
    /// bitwise equal to
    /// [`CurveEngine::opt_packed`](crate::CurveEngine::opt_packed) on the
    /// materialized trace.
    ///
    /// # Errors
    /// Cancellation/deadline from the token (polled at
    /// [`Seam::OptPass`] inside every shard and in the stack pass), and a
    /// typed refusal when the horizon would collide with the stack-slot
    /// sentinel space.
    pub fn try_opt(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        horizon: usize,
        token: &CancelToken,
    ) -> Result<MissCurve, AnalysisError> {
        assert!(horizon >= 1, "curve horizon must be positive");
        if horizon as u64 >= DROPPED32 as u64 {
            return Err(AnalysisError::Refused(format!(
                "sharded OPT: horizon {horizon} collides with the stack-slot \
                 sentinel space (max {})",
                DROPPED32 - 1
            )));
        }
        let len = trace.len();
        if len == 0 {
            return Ok(MissCurve::from_histogram(0, 0, &vec![0; horizon + 1], 0));
        }
        // Parallel summary pass: per-chunk first touches.
        let mut chunks =
            self.map_chunks(trace, |lo, scratch| opt_chunk_pass(lo, scratch, token))?;

        // Backward threading sweep: the next use after each chunk's last
        // touch of a cell is the first touch in the nearest later chunk.
        let cells = chunks.iter().map(|c| c.max_cell + 1).max().unwrap_or(0) as usize;
        let mut future: Vec<u64> = vec![NONE64; cells];
        for ch in chunks.iter_mut().rev() {
            token.check(Seam::OptPass)?;
            ch.nu_after = ch
                .firsts
                .iter()
                .map(|&(cell, _)| future[cell as usize])
                .collect();
            for &(cell, packed) in &ch.firsts {
                future[cell as usize] = packed;
            }
        }

        // Forward streaming stack pass (sequential — the Mattson
        // displacement chain is history-dependent), u64 priorities, the
        // stack (≤ horizon entries) carried across chunk boundaries.
        let mut stack: Vec<u64> = Vec::new();
        let mut pri: Vec<u64> = vec![EMPTY64; horizon];
        let mut idx_of: Vec<u32> = vec![NIL32; cells];
        let mut hist = vec![0u64; horizon + 1];
        let (mut cold, mut beyond) = (0u64, 0u64);
        let mut buf = vec![
            0u64;
            self.chunk_len
                .min(usize::try_from(len).unwrap_or(usize::MAX))
        ];
        let mut chain: Vec<u64> = Vec::new();
        // From here on `future` is the reverse sweep's cell → packed next
        // use table; every cell a chunk touches is re-seeded before its
        // sweep, so the table is never cleared.
        let next = &mut future;
        for (k, ch) in chunks.iter().enumerate() {
            let lo = k as u64 * self.chunk_len as u64;
            let n = self.chunk_len.min((len - lo) as usize);
            let buf = &mut buf[..n];
            trace.fill(lo, buf);
            // Local next-use threading: seed each cell with the cross-chunk
            // position the backward sweep assigned to its last touch, then
            // a reverse sweep resolves the within-chunk successors.
            for (&(cell, _), &nu) in ch.firsts.iter().zip(&ch.nu_after) {
                next[cell as usize] = nu;
            }
            chain.clear();
            chain.resize(n, NONE64);
            for t in (0..n).rev() {
                let packed = buf[t];
                let cell = (packed >> 1) as usize;
                chain[t] = next[cell];
                next[cell] = ((lo + t as u64) << 1) | (packed & 1);
            }
            for (t, &packed) in buf.iter().enumerate() {
                if t & POLL_MASK == 0 {
                    token.check(Seam::OptPass)?;
                }
                let (cell, write) = ((packed >> 1) as usize, packed & 1 == 1);
                // Priority after this access: next-use position, DEAD on a
                // pending overwrite or no further use (the red-white
                // write-kill rule, identical to the materialized engine).
                let nu = chain[t];
                let new_pri = if nu == NONE64 || nu & 1 == 1 {
                    DEAD64
                } else {
                    nu >> 1
                };
                let slot = idx_of[cell];
                if slot == NIL32 || slot == DROPPED32 {
                    if !write {
                        if slot == NIL32 {
                            cold += 1;
                        } else {
                            beyond += 1;
                        }
                    }
                    if stack.is_empty() {
                        stack.push(cell as u64);
                        idx_of[cell] = 0;
                        pri[0] = new_pri;
                    } else {
                        let (carry, carry_pri) =
                            displace_top(&mut stack, &mut pri, &mut idx_of, cell as u64, new_pri);
                        let hi = stack.len() - 1;
                        let (carry, carry_pri) =
                            chain_swaps(&mut stack, &mut pri, &mut idx_of, 1, hi, carry, carry_pri);
                        if stack.len() < pri.len() {
                            let bottom = stack.len();
                            stack.push(carry);
                            idx_of[carry as usize] = bottom as u32;
                            pri[bottom] = carry_pri;
                        } else {
                            idx_of[carry as usize] = DROPPED32;
                        }
                    }
                } else {
                    let slot = slot as usize;
                    let d = slot + 1;
                    if !write {
                        debug_assert!(d <= horizon);
                        hist[d] += 1;
                    }
                    if slot == 0 {
                        pri[0] = new_pri;
                    } else {
                        let (carry, carry_pri) =
                            displace_top(&mut stack, &mut pri, &mut idx_of, cell as u64, new_pri);
                        let (carry, carry_pri) = chain_swaps(
                            &mut stack,
                            &mut pri,
                            &mut idx_of,
                            1,
                            slot - 1,
                            carry,
                            carry_pri,
                        );
                        stack[slot] = carry;
                        idx_of[carry as usize] = slot as u32;
                        pri[slot] = carry_pri;
                    }
                }
            }
        }
        Ok(MissCurve::from_histogram(cold, beyond, &hist, len))
    }

    /// Runs `pass` over every chunk of `trace` in parallel, collecting
    /// per-chunk summaries in chunk order. Each worker pulls chunk indices
    /// from a shared cursor and reuses one [`ShardScratch`] for all of
    /// them; `pass` sees the chunk's global start and the scratch with the
    /// chunk loaded into `buf`. The first error stops every worker at its
    /// next chunk, and the error of the lowest failed chunk wins.
    fn map_chunks<C: Send>(
        &self,
        trace: &(impl ChunkedTrace + ?Sized),
        pass: impl Fn(u64, &mut ShardScratch) -> Result<C, AnalysisError> + Sync,
    ) -> Result<Vec<C>, AnalysisError> {
        let len = trace.len();
        let n_chunks = usize::try_from(len.div_ceil(self.chunk_len as u64))
            .expect("chunk count exceeds the address space");
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let worker = || {
            let mut scratch = ShardScratch::default();
            let mut done: Vec<(usize, Result<C, AnalysisError>)> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n_chunks {
                    break;
                }
                let lo = k as u64 * self.chunk_len as u64;
                let n = self.chunk_len.min((len - lo) as usize);
                // Panics are mapped to typed errors *inside* the chunk
                // worker: the thread-scope bridge underneath would
                // otherwise replace the payload with a generic "a scoped
                // thread panicked".
                let r = iolb_govern::catch_analysis_mut(|| {
                    scratch.buf.resize(n, 0);
                    trace.fill(lo, &mut scratch.buf[..n]);
                    pass(lo, &mut scratch)
                });
                // A failed pass leaves its cells marked in the table, so
                // this worker takes no further chunk.
                let failed = r.is_err();
                done.push((k, r));
                if failed {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            done
        };
        let workers = rayon::current_num_threads().clamp(1, n_chunks.max(1));
        let mut done: Vec<(usize, Result<C, AnalysisError>)> = (0..workers)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|_| worker())
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();
        done.sort_unstable_by_key(|&(k, _)| k);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

/// Local LRU pass over the chunk in `scratch.buf`: exact within-chunk
/// reuse distances via a chunk-local Fenwick, plus the boundary summaries
/// the merge needs. `scratch.table` holds each cell's last local position
/// during the pass and is back to all-[`NIL32`] when it returns `Ok`.
fn lru_chunk_pass(
    scratch: &mut ShardScratch,
    horizon: usize,
    token: &CancelToken,
) -> Result<LruChunk, AnalysisError> {
    let ShardScratch { buf, table, bit } = scratch;
    let max_cell = cover_cells(table, buf);
    let mut firsts: Vec<(u64, bool)> = Vec::new();
    bit.reset(buf.len());
    let mut hist = vec![0u64; horizon + 1];
    let mut beyond = 0u64;
    for (t, &packed) in buf.iter().enumerate() {
        if t & POLL_MASK == 0 {
            token.check(Seam::LruPass)?;
        }
        let (cell, write) = (packed >> 1, packed & 1 == 1);
        let lp = std::mem::replace(&mut table[cell as usize], t as u32);
        if lp == NIL32 {
            firsts.push((cell, write));
        } else {
            let between = bit.prefix(t - 1) - bit.prefix(lp as usize);
            let d = between as usize + 1;
            if !write {
                if d <= horizon {
                    hist[d] += 1;
                } else {
                    beyond += 1;
                }
            }
            bit.add(lp as usize, -1);
        }
        bit.add(t, 1);
    }
    let mut by_last: Vec<(u32, u64)> = firsts
        .iter()
        .map(|&(cell, _)| (std::mem::replace(&mut table[cell as usize], NIL32), cell))
        .collect();
    by_last.sort_unstable();
    Ok(LruChunk {
        firsts,
        lasts: by_last.into_iter().map(|(_, cell)| cell).collect(),
        hist,
        beyond,
        max_cell,
    })
}

/// Summary pass over the chunk in `scratch.buf` (global start `lo`) for
/// the OPT threading phase. `scratch.table` marks the cells seen so far
/// and is back to all-[`NIL32`] when the pass returns `Ok`.
fn opt_chunk_pass(
    lo: u64,
    scratch: &mut ShardScratch,
    token: &CancelToken,
) -> Result<OptChunk, AnalysisError> {
    let ShardScratch { buf, table, .. } = scratch;
    let max_cell = cover_cells(table, buf);
    let mut firsts: Vec<(u64, u64)> = Vec::new();
    for (t, &packed) in buf.iter().enumerate() {
        if t & POLL_MASK == 0 {
            token.check(Seam::OptPass)?;
        }
        let cell = packed >> 1;
        if table[cell as usize] == NIL32 {
            table[cell as usize] = 0;
            firsts.push((cell, ((lo + t as u64) << 1) | (packed & 1)));
        }
    }
    for &(cell, _) in &firsts {
        table[cell as usize] = NIL32;
    }
    Ok(OptChunk {
        firsts,
        nu_after: Vec::new(),
        max_cell,
    })
}

/// Puts `cell` on top of the stack, returning the displaced old top as
/// the initial carry (64-bit twin of the materialized engine's helper).
#[inline]
fn displace_top(
    stack: &mut [u64],
    pri: &mut [u64],
    idx_of: &mut [u32],
    cell: u64,
    new_pri: u64,
) -> (u64, u64) {
    let carry = stack[0];
    let carry_pri = pri[0];
    stack[0] = cell;
    idx_of[cell as usize] = 0;
    pri[0] = new_pri;
    (carry, carry_pri)
}

/// Runs the Mattson displacement chain over slots `[lo, hi]`; a dead
/// carry short-circuits (nothing is strictly farther).
#[inline]
fn chain_swaps(
    stack: &mut [u64],
    pri: &mut [u64],
    idx_of: &mut [u32],
    lo: usize,
    hi: usize,
    mut carry: u64,
    mut carry_pri: u64,
) -> (u64, u64) {
    for k in lo..=hi {
        if carry_pri == DEAD64 {
            break;
        }
        if pri[k] > carry_pri {
            let (c, p) = (stack[k], pri[k]);
            stack[k] = carry;
            idx_of[carry as usize] = k as u32;
            pri[k] = carry_pri;
            (carry, carry_pri) = (c, p);
        }
    }
    (carry, carry_pri)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, CurveEngine};
    use proptest::prelude::*;

    fn pack(t: &[Access]) -> Vec<u64> {
        t.iter()
            .map(|a| ((a.cell as u64) << 1) | a.write as u64)
            .collect()
    }

    fn arb_trace() -> impl Strategy<Value = Vec<Access>> {
        proptest::collection::vec((0usize..12, proptest::bool::ANY), 1..200).prop_map(|v| {
            v.into_iter()
                .map(|(cell, write)| Access { cell, write })
                .collect()
        })
    }

    #[test]
    fn sharded_lru_on_a_hand_trace_across_boundaries() {
        // 0 1 2 0 with one event per chunk: every reuse crosses a chunk
        // boundary, so the whole distance comes from the merge Fenwick.
        let packed = pack(&[
            Access::read(0),
            Access::read(1),
            Access::read(2),
            Access::read(0),
        ]);
        let token = CancelToken::unlimited();
        let sharded = ShardedCurveEngine::with_chunk_len(1);
        let c = sharded.try_lru(&packed, 4, &token).unwrap();
        assert_eq!(c.loads(2), 4);
        assert_eq!(c.loads(3), 3);
        assert_eq!(c.cold_loads(), 3);
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn empty_and_single_chunk_traces() {
        let token = CancelToken::unlimited();
        let e = ShardedCurveEngine::new();
        let empty: Vec<u64> = Vec::new();
        assert_eq!(e.try_lru(&empty, 3, &token).unwrap().loads(1), 0);
        assert_eq!(e.try_opt(&empty, 3, &token).unwrap().loads(1), 0);
        // A trace smaller than one chunk still flows through the shard
        // machinery (single chunk, trivial merge).
        let one = pack(&[Access::write(5), Access::read(5)]);
        assert_eq!(e.try_lru(&one, 3, &token).unwrap().loads(1), 0);
        assert_eq!(e.try_opt(&one, 3, &token).unwrap().loads(1), 0);
    }

    #[test]
    fn sharded_opt_refuses_horizon_in_sentinel_space() {
        let token = CancelToken::unlimited();
        let packed = pack(&[Access::read(0)]);
        let err = ShardedCurveEngine::new()
            .try_opt(&packed, u32::MAX as usize, &token)
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Refused(_)), "{err:?}");
    }

    /// Every shard honors the token: with single-event chunks a trip on
    /// the first check surfaces as `Cancelled` from whichever worker hits
    /// it first, for both policies, at their named seams.
    #[test]
    fn shards_honor_cancellation_at_their_seams() {
        let packed: Vec<u64> = (0..64u64).map(|c| c << 1).collect();
        let e = ShardedCurveEngine::with_chunk_len(1);
        let lru = e.try_lru(&packed, 4, &CancelToken::trip_after_checks(1));
        assert!(matches!(lru, Err(AnalysisError::Cancelled)), "{lru:?}");
        let opt = e.try_opt(&packed, 4, &CancelToken::trip_after_checks(1));
        assert!(matches!(opt, Err(AnalysisError::Cancelled)), "{opt:?}");
        // Injected faults at the pass seams surface as their class.
        use iolb_govern::{Fault, FaultKind};
        let lru = e.try_lru(
            &packed,
            4,
            &CancelToken::with_fault(Fault {
                kind: FaultKind::Deadline,
                seam: Seam::LruPass,
            }),
        );
        assert!(
            matches!(lru, Err(AnalysisError::Deadline { .. })),
            "{lru:?}"
        );
        let opt = e.try_opt(
            &packed,
            4,
            &CancelToken::with_fault(Fault {
                kind: FaultKind::Deadline,
                seam: Seam::OptPass,
            }),
        );
        assert!(
            matches!(opt, Err(AnalysisError::Deadline { .. })),
            "{opt:?}"
        );
    }

    proptest! {
        /// The sharded LRU curve is bitwise the materialized engine at
        /// EVERY capacity, for chunk lengths that force many boundaries.
        #[test]
        fn sharded_lru_matches_materialized(t in arb_trace(), chunk in 1usize..24) {
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().lru_packed(&packed, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_lru(&packed, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// The streaming OPT curve is bitwise the materialized engine at
        /// EVERY capacity.
        #[test]
        fn streaming_opt_matches_materialized(t in arb_trace(), chunk in 1usize..24) {
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let horizon = t.len().max(1);
            let want = CurveEngine::new().opt_packed(&packed, horizon);
            let got = ShardedCurveEngine::with_chunk_len(chunk)
                .try_opt(&packed, horizon, &token)
                .unwrap();
            prop_assert_eq!(got, want);
        }

        /// Truncated horizons agree too (the beyond-bucket path).
        #[test]
        fn sharded_truncated_horizons_agree(t in arb_trace(), chunk in 1usize..16, horizon in 1usize..8) {
            let packed = pack(&t);
            let token = CancelToken::unlimited();
            let mut e = CurveEngine::new();
            let sharded = ShardedCurveEngine::with_chunk_len(chunk);
            prop_assert_eq!(
                sharded.try_lru(&packed, horizon, &token).unwrap(),
                e.lru_packed(&packed, horizon)
            );
            prop_assert_eq!(
                sharded.try_opt(&packed, horizon, &token).unwrap(),
                e.opt_packed(&packed, horizon)
            );
        }
    }
}
