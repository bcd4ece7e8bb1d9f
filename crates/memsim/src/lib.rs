//! Two-level memory simulator at element granularity.
//!
//! The paper's model (§2) has a small fast memory of size `S` and an
//! unbounded slow memory; the I/O cost of a schedule is the number of
//! transfers. This crate measures exactly that for concrete access traces:
//!
//! * [`LruSim`] — fully-associative LRU replacement, O(1) per access,
//!   streaming (no trace materialization needed),
//! * [`BeladySim`] — Belady's MIN (optimal offline replacement for a fixed
//!   schedule), one reverse pass to thread next-use chains through the
//!   trace, then one forward pass over a hierarchical-bitmap "farthest
//!   resident position" structure — no per-access allocation, and all
//!   working buffers are reused across runs,
//! * [`CurveEngine`] — one-pass stack-distance profilers producing the
//!   exact [`MissCurve`] `loads(S)` of a trace for *every* capacity at
//!   once, for both policies (see [`curve`]),
//! * write semantics follow the red-white pebble game: a write *produces*
//!   the value in fast memory (no load on a write miss); evicting a dirty
//!   element counts a writeback. Because an overwrite re-materializes the
//!   value for free, a resident element whose next access is a write is
//!   *dead* — [`BeladySim`] evicts such elements first (alongside the
//!   never-used-again ones), which is what makes it exactly optimal for
//!   this cost model rather than merely next-access-greedy.
//!
//! Cell ids are expected to be *dense* (array base offset + flat element
//! index, as produced by the IR trace sinks); every structure here is a flat
//! slab indexed by cell or by trace position — the hot paths perform no
//! hashing and no ordered-map rebalancing.
//!
//! Measured `loads` of any schedule are an upper bound witness: lower bounds
//! derived by `iolb-core` must sit below them.

pub mod curve;
pub mod stream;

pub use curve::{lru_miss_curve, opt_miss_curve, CurveEngine, MissCurve};
pub use stream::{ChunkedTrace, ShardedCurveEngine, DEFAULT_CHUNK_LEN};

/// One memory access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Global element id.
    pub cell: usize,
    /// True for writes.
    pub write: bool,
}

impl Access {
    /// Read access.
    pub fn read(cell: usize) -> Access {
        Access { cell, write: false }
    }
    /// Write access.
    pub fn write(cell: usize) -> Access {
        Access { cell, write: true }
    }
}

/// I/O statistics of one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStats {
    /// Loads: slow→fast transfers (read misses).
    pub loads: u64,
    /// Writebacks: dirty evictions plus the final dirty flush.
    pub writebacks: u64,
    /// Total accesses processed.
    pub accesses: u64,
    /// Peak number of resident elements.
    pub peak_resident: usize,
}

impl IoStats {
    /// Loads + writebacks.
    pub fn total(&self) -> u64 {
        self.loads + self.writebacks
    }
}

pub(crate) const NIL: u32 = u32::MAX;

/// Reverse-pass next-use threading shared by [`BeladySim`] and the
/// stack-distance profilers in [`curve`]: after the call, `chain[t]` is
/// the next position accessing the same cell as position `t` ([`NIL`]
/// when there is none). Returns the cell-id universe size.
pub(crate) fn thread_next_use(
    len: usize,
    at: &impl Fn(usize) -> (usize, bool),
    chain: &mut Vec<u32>,
    head: &mut Vec<u32>,
) -> usize {
    let mut max_cell = 0usize;
    for t in 0..len {
        max_cell = max_cell.max(at(t).0);
    }
    let cells = if len == 0 { 0 } else { max_cell + 1 };
    chain.clear();
    chain.resize(len, NIL);
    head.clear();
    head.resize(cells, NIL);
    for t in (0..len).rev() {
        let (cell, _) = at(t);
        chain[t] = head[cell];
        head[cell] = t as u32;
    }
    cells
}

/// Fully-associative LRU cache of `capacity` elements, O(1) per access.
///
/// Implemented as an intrusive doubly-linked list over a slab of at most
/// `capacity` slots, with a flat cell→slot table (grown on demand — cell
/// ids are dense program offsets, so this is a plain array lookup, not a
/// hash). Each slab slot packs cell, links, and the dirty flag into one
/// 16-byte record, so a hit touches one cache line of the slab.
#[derive(Debug)]
pub struct LruSim {
    capacity: usize,
    /// cell → slot, NIL when not resident. Grows to the largest cell seen.
    slot_of: Vec<u32>,
    resident: usize,
    slots: Vec<Slot>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: IoStats,
}

/// One slab record of [`LruSim`] (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Slot {
    cell: u32,
    prev: u32,
    next: u32,
    dirty: u32,
}

impl LruSim {
    /// Creates a simulator with the given fast-memory capacity (elements).
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> LruSim {
        assert!(capacity > 0, "cache capacity must be positive");
        LruSim {
            capacity,
            slot_of: Vec::new(),
            resident: 0,
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: IoStats::default(),
        }
    }

    /// Creates a simulator that additionally pre-sizes the cell table for
    /// ids `< num_cells` (avoids growth stalls on the streaming path).
    pub fn with_cells(capacity: usize, num_cells: usize) -> LruSim {
        let mut sim = LruSim::new(capacity);
        sim.slot_of = vec![NIL; num_cells];
        sim
    }

    #[inline]
    fn slot_entry(&mut self, cell: usize) -> u32 {
        if cell >= self.slot_of.len() {
            assert!(cell < NIL as usize, "cell id out of range");
            self.slot_of.resize(cell + 1, NIL);
        }
        self.slot_of[cell]
    }

    /// Processes one access.
    #[inline]
    pub fn access(&mut self, a: Access) {
        self.stats.accesses += 1;
        self.access_uncounted(a);
    }

    /// Access without the `accesses` counter (bulk paths count once).
    #[inline]
    fn access_uncounted(&mut self, a: Access) {
        let slot = self.slot_entry(a.cell);
        if slot != NIL {
            // Hit: refresh recency (no-op when already most recent).
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            if a.write {
                self.slots[slot as usize].dirty = 1;
            }
            return;
        }
        // Miss.
        if !a.write {
            self.stats.loads += 1;
        }
        let slot = if self.resident == self.capacity {
            self.recycle_lru(a.cell, a.write)
        } else {
            self.resident += 1;
            self.stats.peak_resident = self.stats.peak_resident.max(self.resident);
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                cell: a.cell as u32,
                prev: NIL,
                next: NIL,
                dirty: a.write as u32,
            });
            slot
        };
        self.push_front(slot);
        self.slot_of[a.cell] = slot;
    }

    /// Processes a read.
    #[inline]
    pub fn read(&mut self, cell: usize) {
        self.access(Access::read(cell));
    }

    /// Processes a write.
    #[inline]
    pub fn write(&mut self, cell: usize) {
        self.access(Access::write(cell));
    }

    /// Runs a whole trace.
    pub fn run<'a>(&mut self, trace: impl IntoIterator<Item = &'a Access>) -> IoStats {
        for a in trace {
            self.access(*a);
        }
        self.stats
    }

    /// Bulk entry point: runs a materialized trace slice.
    ///
    /// Identical semantics to calling [`access`](LruSim::access) per
    /// element; the slice form lets the compiler unroll the dispatch-free
    /// inner loop.
    pub fn run_trace(&mut self, trace: &[Access]) -> IoStats {
        self.stats.accesses += trace.len() as u64;
        for &a in trace {
            self.access_uncounted(a);
        }
        self.stats
    }

    /// Runs a packed trace (`(cell << 1) | write` per event, the `iolb-ir`
    /// `TraceSink` encoding) without decoding into [`Access`] structs.
    pub fn run_packed(&mut self, packed: &[u64]) -> IoStats {
        self.stats.accesses += packed.len() as u64;
        for &p in packed {
            self.access_uncounted(Access {
                cell: (p >> 1) as usize,
                write: (p & 1) == 1,
            });
        }
        self.stats
    }

    /// Statistics so far (without final flush).
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Flushes remaining dirty elements (counts writebacks) and returns the
    /// final statistics.
    pub fn finish(mut self) -> IoStats {
        let mut v = self.head;
        let mut dirty_resident = 0u64;
        while v != NIL {
            if self.slots[v as usize].dirty != 0 {
                dirty_resident += 1;
            }
            v = self.slots[v as usize].next;
        }
        self.stats.writebacks += dirty_resident;
        self.stats
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot {
            prev: p, next: n, ..
        } = self.slots[slot as usize];
        if p != NIL {
            self.slots[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    /// Evicts the LRU element and reuses its slot for `cell` (unlinked;
    /// caller pushes it to the front).
    #[inline]
    fn recycle_lru(&mut self, cell: usize, dirty: bool) -> u32 {
        let victim = self.tail;
        assert!(victim != NIL, "evict from empty cache");
        self.unlink(victim);
        let s = &mut self.slots[victim as usize];
        if s.dirty != 0 {
            self.stats.writebacks += 1;
        }
        let old_cell = s.cell;
        *s = Slot {
            cell: cell as u32,
            prev: NIL,
            next: NIL,
            dirty: dirty as u32,
        };
        self.slot_of[old_cell as usize] = NIL;
        victim
    }
}

/// Hierarchical bitmap over a dense position universe answering `max` /
/// `set` / `clear` in a handful of word operations (three u64 levels ≈
/// positions up to 2²⁴ in two cache lines of summaries).
///
/// [`BeladySim`]'s replacement-policy workhorse: "farthest next use"
/// queries reduce to `max` over a set of positions.
#[derive(Debug, Default)]
struct MaxPosSet {
    l0: Vec<u64>,
    l1: Vec<u64>,
    l2: Vec<u64>,
}

impl MaxPosSet {
    /// Clears the set and resizes it to positions `0..n`.
    fn reset(&mut self, n: usize) {
        let w0 = n.div_ceil(64);
        let w1 = w0.div_ceil(64);
        let w2 = w1.div_ceil(64).max(1);
        self.l0.clear();
        self.l0.resize(w0.max(1), 0);
        self.l1.clear();
        self.l1.resize(w1.max(1), 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
    }

    /// Inserts `pos`.
    #[inline]
    fn set(&mut self, pos: usize) {
        self.l0[pos >> 6] |= 1 << (pos & 63);
        self.l1[pos >> 12] |= 1 << ((pos >> 6) & 63);
        self.l2[pos >> 18] |= 1 << ((pos >> 12) & 63);
    }

    /// Removes `pos` (no-op when absent... except the summary bits assume
    /// it was present — only clear positions previously set).
    #[inline]
    fn clear(&mut self, pos: usize) {
        let w0 = pos >> 6;
        self.l0[w0] &= !(1 << (pos & 63));
        if self.l0[w0] == 0 {
            let w1 = pos >> 12;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2[pos >> 18] &= !(1 << (w1 & 63));
            }
        }
    }

    /// Highest set position, if any.
    #[inline]
    fn max(&self) -> Option<usize> {
        let w2 = self.l2.iter().rposition(|&w| w != 0)?;
        let b2 = 63 - self.l2[w2].leading_zeros() as usize;
        let w1 = (w2 << 6) | b2;
        let b1 = 63 - self.l1[w1].leading_zeros() as usize;
        let w0 = (w1 << 6) | b1;
        let b0 = 63 - self.l0[w0].leading_zeros() as usize;
        Some((w0 << 6) | b0)
    }
}

/// Belady's MIN: optimal replacement for a fixed trace.
///
/// One reverse pass threads a next-use chain through the trace (`chain[t]` =
/// next position touching `trace[t]`'s cell); the forward pass keeps the
/// resident set as the *set of next-use positions* in a `MaxPosSet` — the
/// victim is the maximum position, and `trace[pos]` recovers its cell, so no
/// ordered map and no per-access allocation is needed.
///
/// A resident element is *dead* when it is never read again before being
/// overwritten (its next access is a write, or there is none): a write
/// miss produces its value in fast memory for free, so evicting a dead
/// element can never cost a load. Dead elements live in their own
/// `MaxPosSet` (keyed by cell, largest cell id first) and are evicted
/// first — they compare as `+∞`. This
/// write-kill rule is what makes the greedy farthest-next-use policy
/// *exactly* optimal under the red-white cost model; without it, MIN
/// pointlessly retains values whose next event is their own overwrite.
///
/// All buffers are reused across [`run`](BeladySim::run) calls on the same
/// simulator.
#[derive(Debug)]
pub struct BeladySim {
    capacity: usize,
    // Reusable buffers (sized per run, never per access).
    chain: Vec<u32>,
    head: Vec<u32>,
    next_pos: Vec<u32>,
    dirty: Vec<bool>,
    is_resident: Vec<bool>,
    alive: MaxPosSet,
    dead: MaxPosSet,
}

impl BeladySim {
    /// Creates a MIN simulator with the given capacity.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> BeladySim {
        assert!(capacity > 0, "cache capacity must be positive");
        BeladySim {
            capacity,
            chain: Vec::new(),
            head: Vec::new(),
            next_pos: Vec::new(),
            dirty: Vec::new(),
            is_resident: Vec::new(),
            alive: MaxPosSet::default(),
            dead: MaxPosSet::default(),
        }
    }

    /// Simulates the trace under optimal replacement.
    pub fn run(&mut self, trace: &[Access]) -> IoStats {
        self.run_by(trace.len(), |t| {
            let a = trace[t];
            (a.cell, a.write)
        })
    }

    /// Simulates a packed trace (`(cell << 1) | write` per event, the
    /// `iolb-ir` `TraceSink` encoding) without decoding it into
    /// [`Access`] structs first.
    pub fn run_packed(&mut self, packed: &[u64]) -> IoStats {
        self.run_by(packed.len(), |t| {
            let p = packed[t];
            ((p >> 1) as usize, (p & 1) == 1)
        })
    }

    /// Core simulation, monomorphized over the trace accessor
    /// (`at(t) -> (cell, write)` must be pure).
    fn run_by(&mut self, len: usize, at: impl Fn(usize) -> (usize, bool)) -> IoStats {
        // Reverse pass: chain[t] = next position accessing the same cell.
        let cells = thread_next_use(len, &at, &mut self.chain, &mut self.head);

        // Forward pass state, all dense by cell or position.
        self.next_pos.clear();
        self.next_pos.resize(cells, NIL);
        self.dirty.clear();
        self.dirty.resize(cells, false);
        self.is_resident.clear();
        self.is_resident.resize(cells, false);
        self.alive.reset(len);
        self.dead.reset(cells);

        let mut stats = IoStats::default();
        let mut resident = 0usize;
        for t in 0..len {
            let (cell, write) = at(t);
            stats.accesses += 1;
            let nu = self.chain[t];
            // The value is dead after this access when it is never read
            // again before its next overwrite (write-kill rule).
            let goes_dead = nu == NIL || at(nu as usize).1;
            if self.is_resident[cell] {
                // Hit: reposition by new next use. The cell was tracked
                // alive exactly when this access is a read (a pending
                // write meant it sat in the dead set).
                debug_assert_eq!(self.next_pos[cell], t as u32);
                if write {
                    self.dead.clear(cell);
                } else {
                    self.alive.clear(t);
                }
                if goes_dead {
                    self.dead.set(cell);
                } else {
                    self.alive.set(nu as usize);
                }
                self.next_pos[cell] = nu;
                if write {
                    self.dirty[cell] = true;
                }
                continue;
            }
            // Miss.
            if !write {
                stats.loads += 1;
            }
            if resident == self.capacity {
                // Victim: any dead element first (+∞ key; largest cell id
                // first), otherwise the maximum next-use position.
                let victim = match self.dead.max() {
                    Some(c) => {
                        self.dead.clear(c);
                        c
                    }
                    None => {
                        let pos = self.alive.max().expect("resident set not empty");
                        self.alive.clear(pos);
                        at(pos).0
                    }
                };
                self.is_resident[victim] = false;
                resident -= 1;
                if std::mem::replace(&mut self.dirty[victim], false) {
                    stats.writebacks += 1;
                }
            }
            self.is_resident[cell] = true;
            self.next_pos[cell] = nu;
            if goes_dead {
                self.dead.set(cell);
            } else {
                self.alive.set(nu as usize);
            }
            self.dirty[cell] = write;
            resident += 1;
            stats.peak_resident = stats.peak_resident.max(resident);
        }
        // Final flush of dirty residents.
        stats.writebacks += self.dirty.iter().filter(|&&d| d).count() as u64;
        stats
    }
}

/// Convenience: LRU stats for a trace (with final dirty flush).
pub fn lru_stats(capacity: usize, trace: &[Access]) -> IoStats {
    let mut sim = LruSim::new(capacity);
    sim.run_trace(trace);
    sim.finish()
}

/// Convenience: MIN (optimal) stats for a trace.
pub fn min_stats(capacity: usize, trace: &[Access]) -> IoStats {
    BeladySim::new(capacity).run(trace)
}

/// Number of distinct cells read before being written (cold loads — the
/// unavoidable input loads of any schedule).
pub fn cold_loads(trace: &[Access]) -> u64 {
    let max_cell = trace.iter().map(|a| a.cell).max().unwrap_or(0);
    // 0 = unseen, 1 = written first, 2 = counted as cold read.
    let mut state = vec![0u8; max_cell + 1];
    let mut loads = 0;
    for a in trace {
        let s = &mut state[a.cell];
        if a.write {
            if *s == 0 {
                *s = 1;
            }
        } else if *s == 0 {
            *s = 2;
            loads += 1;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reads(cells: &[usize]) -> Vec<Access> {
        cells.iter().map(|&c| Access::read(c)).collect()
    }

    #[test]
    fn lru_basic_hits_and_misses() {
        let t = reads(&[0, 1, 0, 2, 0]);
        let s = lru_stats(2, &t);
        assert_eq!(s.loads, 3);
        assert_eq!(s.writebacks, 0);
        assert_eq!(s.accesses, 5);
        assert_eq!(s.peak_resident, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // capacity 2: a b c → evict a; then a misses again.
        let t = reads(&[0, 1, 2, 0]);
        assert_eq!(lru_stats(2, &t).loads, 4);
        // capacity 3 keeps everything.
        assert_eq!(lru_stats(3, &t).loads, 3);
    }

    #[test]
    fn write_miss_costs_no_load() {
        let t = vec![Access::write(0), Access::read(0)];
        let s = lru_stats(4, &t);
        assert_eq!(s.loads, 0);
        // Final flush writes the dirty cell back once.
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        // capacity 1: write 0, read 1 → 0 evicted dirty.
        let t = vec![Access::write(0), Access::read(1)];
        let s = lru_stats(1, &t);
        assert_eq!(s.loads, 1);
        assert_eq!(s.writebacks, 1);
    }

    /// The write-kill rule: a resident value whose next access is its own
    /// overwrite is evicted for free, which plain next-access-greedy
    /// Belady misses. This asymmetry is exactly what made the old
    /// `trace_min_loads` occasionally exceed a legal pebble play's loads
    /// in the tightness harness: the pebble engine's MIN policy keys on
    /// next *reads*, so the trace simulator had to as well.
    #[test]
    fn pending_overwrite_makes_a_value_dead() {
        // cap 2: rA rB rC wB rB rA. At rC the resident set is {A, B} with
        // A next read at 5 and B next *written* at 3: killing B keeps A
        // resident and costs 3 loads total. Next-access-greedy would evict
        // A (5 > 3) and pay a 4th load for the rA at the end.
        let t = vec![
            Access::read(0),
            Access::read(1),
            Access::read(2),
            Access::write(1),
            Access::read(1),
            Access::read(0),
        ];
        assert_eq!(min_stats(2, &t).loads, 3);
    }

    #[test]
    fn belady_beats_lru_on_looping_pattern() {
        // Cyclic scan of 3 cells with capacity 2: LRU misses every access,
        // MIN hits more.
        let t = reads(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let lru = lru_stats(2, &t);
        let min = min_stats(2, &t);
        assert_eq!(lru.loads, 9);
        assert!(min.loads < lru.loads);
    }

    #[test]
    fn belady_with_infinite_capacity_is_cold_misses() {
        let t = reads(&[5, 3, 5, 9, 3, 5, 11]);
        let s = min_stats(100, &t);
        assert_eq!(s.loads, 4);
        assert_eq!(s.loads, cold_loads(&t));
    }

    #[test]
    fn belady_buffers_are_reusable() {
        let mut sim = BeladySim::new(2);
        let t1 = reads(&[0, 1, 2, 0, 1, 2]);
        let a = sim.run(&t1);
        let b = sim.run(&t1);
        assert_eq!(a, b, "same trace twice through one simulator");
        // A different (shorter, different cells) trace after the first.
        let t2 = vec![Access::write(7), Access::read(7)];
        let c = sim.run(&t2);
        assert_eq!(c.loads, 0);
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn packed_trace_matches_access_structs() {
        let t: Vec<Access> = vec![
            Access::write(3),
            Access::read(0),
            Access::read(3),
            Access::read(1),
            Access::read(0),
        ];
        let packed: Vec<u64> = t
            .iter()
            .map(|a| ((a.cell as u64) << 1) | a.write as u64)
            .collect();
        for cap in 1..4 {
            let via_structs = BeladySim::new(cap).run(&t);
            let via_packed = BeladySim::new(cap).run_packed(&packed);
            assert_eq!(via_structs, via_packed, "cap={cap}");
        }
    }

    #[test]
    fn cold_loads_skips_written_cells() {
        let t = vec![
            Access::write(1),
            Access::read(1),
            Access::read(2),
            Access::read(2),
        ];
        assert_eq!(cold_loads(&t), 1);
    }

    #[test]
    fn empty_trace() {
        assert_eq!(min_stats(4, &[]).accesses, 0);
        assert_eq!(lru_stats(4, &[]).accesses, 0);
        assert_eq!(cold_loads(&[]), 0);
    }

    /// Reference MIN implementation (ordered map, two materialized passes) —
    /// the original engine, kept as an executable specification. The
    /// eviction key of a value that is never read again before its next
    /// overwrite is `+∞` (the write-kill rule: a write miss costs nothing,
    /// so dead values are always the cheapest victims).
    fn min_stats_reference(capacity: usize, trace: &[Access]) -> IoStats {
        use std::collections::{BTreeSet, HashMap};
        const INF_POS: usize = usize::MAX;
        let mut next_use = vec![INF_POS; trace.len()];
        let mut last_seen: HashMap<usize, usize> = HashMap::new();
        for (t, a) in trace.iter().enumerate().rev() {
            if let Some(&n) = last_seen.get(&a.cell) {
                next_use[t] = n;
            }
            last_seen.insert(a.cell, t);
        }
        let mut stats = IoStats::default();
        let mut resident: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut resident_key: HashMap<usize, usize> = HashMap::new();
        let mut dirty: HashMap<usize, bool> = HashMap::new();
        for (t, a) in trace.iter().enumerate() {
            stats.accesses += 1;
            // Dead (key +∞) when never accessed again or next access is a
            // write — the overwrite re-materializes the value for free.
            let nu = match next_use[t] {
                INF_POS => INF_POS,
                n if trace[n].write => INF_POS,
                n => n,
            };
            if let Some(&key) = resident_key.get(&a.cell) {
                resident.remove(&(key, a.cell));
                resident.insert((nu, a.cell));
                resident_key.insert(a.cell, nu);
                if a.write {
                    dirty.insert(a.cell, true);
                }
                continue;
            }
            if !a.write {
                stats.loads += 1;
            }
            if resident.len() == capacity {
                let &(victim_key, victim) = resident.iter().next_back().expect("non-empty");
                resident.remove(&(victim_key, victim));
                resident_key.remove(&victim);
                if dirty.remove(&victim).unwrap_or(false) {
                    stats.writebacks += 1;
                }
            }
            resident.insert((nu, a.cell));
            resident_key.insert(a.cell, nu);
            dirty.insert(a.cell, a.write);
            stats.peak_resident = stats.peak_resident.max(resident.len());
        }
        stats.writebacks += resident_key
            .keys()
            .filter(|c| dirty.get(c).copied().unwrap_or(false))
            .count() as u64;
        stats
    }

    fn arb_trace() -> impl Strategy<Value = Vec<Access>> {
        proptest::collection::vec((0usize..12, proptest::bool::ANY), 1..200).prop_map(|v| {
            v.into_iter()
                .map(|(cell, write)| Access { cell, write })
                .collect()
        })
    }

    proptest! {
        /// MIN is optimal: never more loads than LRU.
        #[test]
        fn min_never_beaten_by_lru(t in arb_trace(), cap in 1usize..8) {
            prop_assert!(min_stats(cap, &t).loads <= lru_stats(cap, &t).loads);
        }

        /// Both policies are stack algorithms: loads monotone in capacity.
        #[test]
        fn loads_monotone_in_capacity(t in arb_trace(), cap in 1usize..8) {
            prop_assert!(lru_stats(cap + 1, &t).loads <= lru_stats(cap, &t).loads);
            prop_assert!(min_stats(cap + 1, &t).loads <= min_stats(cap, &t).loads);
        }

        /// Loads never drop below cold misses, and with huge capacity they
        /// equal cold misses.
        #[test]
        fn cold_misses_are_floor(t in arb_trace(), cap in 1usize..8) {
            let floor = cold_loads(&t);
            prop_assert!(lru_stats(cap, &t).loads >= floor);
            prop_assert!(min_stats(cap, &t).loads >= floor);
            prop_assert_eq!(min_stats(1000, &t).loads, floor);
            prop_assert_eq!(lru_stats(1000, &t).loads, floor);
        }

        /// Accesses are all counted and peak residency respects capacity.
        #[test]
        fn bookkeeping_invariants(t in arb_trace(), cap in 1usize..8) {
            let s = lru_stats(cap, &t);
            prop_assert_eq!(s.accesses, t.len() as u64);
            prop_assert!(s.peak_resident <= cap);
            let m = min_stats(cap, &t);
            prop_assert_eq!(m.accesses, t.len() as u64);
            prop_assert!(m.peak_resident <= cap);
        }

        /// The streaming MIN engine matches the ordered-map reference on
        /// loads and total residency (victim ties among dead elements may be
        /// broken differently, which legally reorders *when* a writeback
        /// happens but never how many there are in total).
        #[test]
        fn streaming_min_matches_reference(t in arb_trace(), cap in 1usize..8) {
            let fast = min_stats(cap, &t);
            let slow = min_stats_reference(cap, &t);
            prop_assert_eq!(fast.loads, slow.loads);
            prop_assert_eq!(fast.accesses, slow.accesses);
            prop_assert_eq!(fast.peak_resident, slow.peak_resident);
            prop_assert_eq!(fast.writebacks, slow.writebacks);
        }
    }
}
