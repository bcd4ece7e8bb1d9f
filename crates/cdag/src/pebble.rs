//! The red-white pebble game (Olivry et al., adopted by the paper in §2).
//!
//! Rules implemented exactly as stated:
//!
//! * white pebbles start on the inputs; at most `S` red pebbles exist;
//! * **Load** places a red pebble on a white-pebbled node (this is the
//!   counted I/O);
//! * **Compute** places white+red on a node whose predecessors are all red
//!   (no recomputation: once white, never computed again);
//! * **Spill** removes a red pebble (free — the bound only counts loads).
//!
//! [`PebbleGame::play`] turns a topological schedule into a valid play: it
//! loads missing predecessor pebbles on demand and spills with a pluggable
//! policy (LRU or farthest-next-use) when the red budget is exhausted. The
//! resulting load count is achieved by a *legal* play, so every correct
//! lower bound must sit at or below it — the workspace's empirical
//! validation of `iolb-core`'s derivations.
//!
//! ## Engine
//!
//! The play is the executable specification of these rules, small enough
//! to check by reading. Each red pebble carries a spill key in one ordered
//! set of `(key, node)` pairs, and a spill takes the worst unpinned pair:
//!
//! * **LRU** keys a pebble by a clock stamped at its last touch and spills
//!   the smallest key;
//! * **MinNextUse** keys it by the schedule position of its next use
//!   (`u64::MAX` when it is never used again) and spills the largest key,
//!   so dead nodes go first and ties go towards the larger node id.
//!
//! The node being computed and its predecessors are pinned while it is
//! staged, which is why a MIN play can load more than Belady's MIN on the
//! play's value trace: that bound is checked as `≤` by the
//! `trace_curves_bound_pebble_plays` property.

use crate::graph::{Cdag, NodeId, NodeKind};
use std::collections::BTreeSet;

/// Spill (red-pebble replacement) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpillPolicy {
    /// Spill the least-recently-used red pebble.
    Lru,
    /// Spill the red pebble whose next use in the schedule is farthest
    /// (Belady-style MIN; optimal among demand policies for a fixed order).
    MinNextUse,
}

/// Outcome of a legal play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayStats {
    /// Number of Load moves (the I/O cost of the play).
    pub loads: u64,
    /// Number of Compute moves.
    pub computes: u64,
    /// Peak number of red pebbles in use.
    pub peak_red: usize,
}

/// Why a play could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PebbleError {
    /// A node needs `indegree + 1` red pebbles, more than `S`.
    CapacityTooSmall {
        /// Offending node.
        node: NodeId,
        /// Red pebbles required simultaneously.
        needed: usize,
        /// Budget available.
        budget: usize,
    },
    /// Schedule uses a predecessor that has no white pebble yet.
    PredecessorNotComputed {
        /// Node being computed.
        node: NodeId,
        /// Its not-yet-white predecessor.
        pred: NodeId,
    },
    /// Schedule computes a node twice or misses nodes.
    InvalidSchedule(String),
}

impl std::fmt::Display for PebbleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PebbleError::CapacityTooSmall {
                node,
                needed,
                budget,
            } => write!(
                f,
                "node {node:?} needs {needed} red pebbles but S = {budget}"
            ),
            PebbleError::PredecessorNotComputed { node, pred } => {
                write!(f, "schedule computes {node:?} before predecessor {pred:?}")
            }
            PebbleError::InvalidSchedule(s) => write!(f, "invalid schedule: {s}"),
        }
    }
}

impl std::error::Error for PebbleError {}

/// The red pebbles of a play, each with its spill priority: `key_of` maps
/// a node to its key (`None` when it holds no red pebble) and `by_key`
/// orders the `(key, node)` pairs for eviction.
struct RedSet {
    key_of: Vec<Option<u64>>,
    by_key: BTreeSet<(u64, u32)>,
}

impl RedSet {
    fn contains(&self, v: u32) -> bool {
        self.key_of[v as usize].is_some()
    }

    /// Places or re-keys the red pebble on `v`.
    fn touch(&mut self, v: u32, key: u64) {
        if let Some(old) = self.key_of[v as usize].replace(key) {
            self.by_key.remove(&(old, v));
        }
        self.by_key.insert((key, v));
    }

    /// Spills until one more red pebble fits under `budget`. LRU spills
    /// the smallest unpinned key (the oldest touch), MinNextUse the
    /// largest (the farthest next use, dead nodes first, ties towards
    /// the larger node id).
    fn make_room(
        &mut self,
        budget: usize,
        pinned: &[bool],
        policy: SpillPolicy,
    ) -> Result<(), PebbleError> {
        while self.by_key.len() >= budget {
            let mut unpinned = self.by_key.iter().filter(|(_, v)| !pinned[*v as usize]);
            let victim = match policy {
                SpillPolicy::Lru => unpinned.next(),
                SpillPolicy::MinNextUse => unpinned.next_back(),
            };
            // All red pebbles pinned: cannot happen when needed ≤ budget.
            let Some(&(key, v)) = victim else {
                return Err(PebbleError::InvalidSchedule(
                    "all red pebbles pinned".to_string(),
                ));
            };
            self.by_key.remove(&(key, v));
            self.key_of[v as usize] = None;
        }
        Ok(())
    }
}

/// Next schedule position after `now` that reads a node, given the
/// positions still ahead of it in descending order ([`u64::MAX`] when
/// none is left: the node is dead).
fn next_use(ahead: &mut Vec<u32>, now: u32) -> u64 {
    while ahead.last().is_some_and(|&t| t <= now) {
        ahead.pop();
    }
    ahead.last().map_or(u64::MAX, |&t| u64::from(t))
}

/// A red-white pebble game on one CDAG with red budget `S`.
#[derive(Debug)]
pub struct PebbleGame<'g> {
    cdag: &'g Cdag,
    budget: usize,
}

impl<'g> PebbleGame<'g> {
    /// Creates a game with red budget `s`.
    ///
    /// # Panics
    /// Panics when `s == 0`.
    pub fn new(cdag: &'g Cdag, s: usize) -> PebbleGame<'g> {
        assert!(s > 0, "red budget must be positive");
        PebbleGame { cdag, budget: s }
    }

    /// Plays the compute nodes in schedule order (node-id order) — the
    /// program's own sequential schedule.
    pub fn play_program_order(&self, policy: SpillPolicy) -> Result<PlayStats, PebbleError> {
        let order: Vec<NodeId> = self.cdag.compute_nodes().collect();
        self.play(&order, policy)
    }

    /// Plays an arbitrary schedule of all compute nodes.
    ///
    /// # Errors
    /// Fails when the schedule is not a permutation of the compute nodes,
    /// is not topological, or when `S` cannot hold a node's inputs.
    pub fn play(&self, order: &[NodeId], policy: SpillPolicy) -> Result<PlayStats, PebbleError> {
        let (cdag, budget) = (self.cdag, self.budget);
        let n = cdag.len();
        let mut scheduled = vec![false; n];
        for &v in order {
            if !matches!(cdag.kind(v), NodeKind::Compute { .. }) {
                return Err(PebbleError::InvalidSchedule(format!(
                    "{v:?} is not a compute node"
                )));
            }
            if std::mem::replace(&mut scheduled[v.0 as usize], true) {
                return Err(PebbleError::InvalidSchedule(format!(
                    "{v:?} scheduled twice"
                )));
            }
        }
        if order.len() != cdag.num_computes() {
            return Err(PebbleError::InvalidSchedule(format!(
                "{} of {} compute nodes scheduled",
                order.len(),
                cdag.num_computes()
            )));
        }

        // Every edge `p → v` is one use of `p`, at `v`'s position.
        let mut ahead: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (t, &v) in order.iter().enumerate().rev() {
            for &p in cdag.preds(v) {
                ahead[p as usize].push(t as u32);
            }
        }
        let mut white = vec![false; n];
        for v in cdag.input_nodes() {
            white[v.0 as usize] = true;
        }
        let mut red = RedSet {
            key_of: vec![None; n],
            by_key: BTreeSet::new(),
        };
        let mut pinned = vec![false; n];
        let mut stats = PlayStats {
            loads: 0,
            computes: 0,
            peak_red: 0,
        };
        let mut clock: u64 = 0;
        // LRU keys a red pebble by the clock of its last touch, MIN by
        // the position of its next use.
        let mut key = |v: usize, t: usize| {
            clock += 1;
            match policy {
                SpillPolicy::Lru => clock,
                SpillPolicy::MinNextUse => next_use(&mut ahead[v], t as u32),
            }
        };

        for (t, &v) in order.iter().enumerate() {
            let vi = v.0 as usize;
            let preds = cdag.preds(v);
            let needed = preds.len() + 1;
            if needed > budget {
                return Err(PebbleError::CapacityTooSmall {
                    node: v,
                    needed,
                    budget,
                });
            }
            // Pin v and its inputs against spilling while v is staged.
            for &p in preds {
                pinned[p as usize] = true;
            }
            pinned[vi] = true;

            for &p in preds {
                let pi = p as usize;
                if !white[pi] {
                    return Err(PebbleError::PredecessorNotComputed {
                        node: v,
                        pred: NodeId(p),
                    });
                }
                let k = key(pi, t);
                if !red.contains(p) {
                    // Load rule: red onto a white node.
                    red.make_room(budget, &pinned, policy)?;
                    stats.loads += 1;
                }
                red.touch(p, k);
            }
            // Compute rule: white + red on v.
            let k = key(vi, t);
            red.make_room(budget, &pinned, policy)?;
            white[vi] = true;
            red.touch(v.0, k);
            stats.computes += 1;
            stats.peak_red = stats.peak_red.max(red.by_key.len());

            for &p in preds {
                pinned[p as usize] = false;
            }
            pinned[vi] = false;
        }
        Ok(stats)
    }

    /// Best play across the built-in policies.
    pub fn best_play(&self) -> Result<PlayStats, PebbleError> {
        let lru = self.play_program_order(SpillPolicy::Lru)?;
        let min = self.play_program_order(SpillPolicy::MinNextUse)?;
        Ok(if min.loads <= lru.loads { min } else { lru })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_cdag;
    use iolb_ir::{Access, ProgramBuilder};

    /// Sum reduction over N inputs.
    fn reduction(n: i64) -> (iolb_ir::Program, Cdag) {
        let mut b = ProgramBuilder::new("pebble_red", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let acc = b.scalar("acc");
        let wa = Access::new(acc, vec![]);
        b.stmt("Z", vec![], vec![wa.clone()], move |c| c.wr(acc, &[], 0.0));
        let i = b.open("i", b.c(0), b.p("N"));
        let xi = Access::new(x, vec![b.d(i)]);
        b.stmt("S", vec![xi, wa.clone()], vec![wa], move |c| {
            let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
            c.wr(acc, &[], v);
        });
        b.close();
        let p = b.finish();
        let g = build_cdag(&p, &[n]);
        (p, g)
    }

    #[test]
    fn reduction_loads_each_input_once() {
        let (_, g) = reduction(10);
        let game = PebbleGame::new(&g, 3);
        let stats = game.play_program_order(SpillPolicy::Lru).unwrap();
        // Each x[i] loaded exactly once; acc chain stays red.
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.computes, 11);
        assert!(stats.peak_red <= 3);
    }

    #[test]
    fn capacity_too_small_detected() {
        let (_, g) = reduction(4);
        let game = PebbleGame::new(&g, 1);
        let err = game.play_program_order(SpillPolicy::Lru).unwrap_err();
        assert!(matches!(err, PebbleError::CapacityTooSmall { .. }));
    }

    #[test]
    fn thrashing_when_budget_is_tight() {
        // Two interleaved reductions over the same inputs would thrash, but a
        // simpler witness: re-reading x via two passes.
        let mut b = ProgramBuilder::new("pebble_two_pass", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let acc = b.scalar("acc");
        let wa = Access::new(acc, vec![]);
        b.stmt("Z", vec![], vec![wa.clone()], move |c| c.wr(acc, &[], 0.0));
        for pass in 0..2 {
            let i = b.open("i", b.c(0), b.p("N"));
            let xi = Access::new(x, vec![b.d(i)]);
            let name = format!("S{pass}");
            b.stmt(&name, vec![xi, wa.clone()], vec![wa.clone()], move |c| {
                let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
                c.wr(acc, &[], v);
            });
            b.close();
        }
        let p = b.finish();
        let g = build_cdag(&p, &[6]);
        // Budget 3: inputs cannot stay resident between passes → 12 loads.
        let tight = PebbleGame::new(&g, 3)
            .play_program_order(SpillPolicy::Lru)
            .unwrap();
        assert_eq!(tight.loads, 12);
        // Budget 8 with the MIN policy keeps all 6 inputs resident (dead
        // chain nodes are spilled first) → 6 loads.
        let roomy = PebbleGame::new(&g, 8)
            .play_program_order(SpillPolicy::MinNextUse)
            .unwrap();
        assert_eq!(roomy.loads, 6);
    }

    #[test]
    fn min_policy_not_worse_than_lru() {
        let (_, g) = reduction(12);
        for s in 3..7 {
            let game = PebbleGame::new(&g, s);
            let lru = game.play_program_order(SpillPolicy::Lru).unwrap();
            let min = game.play_program_order(SpillPolicy::MinNextUse).unwrap();
            assert!(min.loads <= lru.loads, "S={s}");
        }
    }

    #[test]
    fn invalid_schedules_rejected() {
        let (p, g) = reduction(3);
        let s = p.stmt_id("S").unwrap();
        let n2 = g.node_of(s, &[2]).unwrap();
        let game = PebbleGame::new(&g, 4);
        // Missing nodes.
        let err = game.play(&[n2], SpillPolicy::Lru).unwrap_err();
        assert!(matches!(err, PebbleError::InvalidSchedule(_)));
        // Non-topological: S[2] before its predecessors.
        let mut order: Vec<NodeId> = g.compute_nodes().collect();
        let last = order.len() - 1;
        order.swap(0, last);
        let err = game.play(&order, SpillPolicy::Lru).unwrap_err();
        assert!(matches!(err, PebbleError::PredecessorNotComputed { .. }));
    }

    #[test]
    fn loads_monotone_in_budget() {
        let (_, g) = reduction(16);
        let mut prev = u64::MAX;
        for s in 3..9 {
            let stats = PebbleGame::new(&g, s)
                .play_program_order(SpillPolicy::MinNextUse)
                .unwrap();
            assert!(stats.loads <= prev, "loads should not grow with S");
            prev = stats.loads;
        }
    }

    /// Three inputs a, b, c (nodes 0–2) read cyclically by six computes
    /// (nodes 3–8: `3←a 4←b 5←c 6←a 7←b 8←c`); no compute is read again.
    /// Worked by hand:
    ///
    /// * LRU at S = 3 and S = 4: each compute leaves its own dead pebble
    ///   behind, so by the time an input comes round again it is the
    ///   oldest pebble and has been spilled. All 6 reads load; 6 computes;
    ///   the set fills to S.
    /// * MIN at S = 3: a and b load (2), c loads (3) after the dead 4 is
    ///   spilled, but computing 5 with c and 5 pinned spills b (next use
    ///   4) before a (next use 3). a is then red at step 3, b reloads at
    ///   step 4 (4) and c is still red at step 5: 4 loads, peak 3.
    /// * MIN at S = 4: only dead computes are ever spilled once a, b and
    ///   c are red, so each input loads once: 3 loads, peak 4.
    #[test]
    fn hand_checked_cyclic_reads() {
        use crate::graph::NodeSpec;
        let mut kinds: Vec<NodeSpec> = (0..3)
            .map(|flat| NodeSpec::Input {
                array: iolb_ir::ArrayId(0),
                flat,
            })
            .collect();
        kinds.extend((0..6).map(|i| NodeSpec::Compute {
            stmt: iolb_ir::StmtId(0),
            iv: vec![i].into(),
        }));
        let edges = (0..6u32).map(|i| (i % 3, 3 + i)).collect();
        let g = Cdag::from_edges(kinds, edges);
        let stats = |s, policy| PebbleGame::new(&g, s).play_program_order(policy).unwrap();
        let want = |loads, peak_red| PlayStats {
            loads,
            computes: 6,
            peak_red,
        };
        assert_eq!(stats(3, SpillPolicy::Lru), want(6, 3));
        assert_eq!(stats(3, SpillPolicy::MinNextUse), want(4, 3));
        assert_eq!(stats(4, SpillPolicy::Lru), want(6, 4));
        assert_eq!(stats(4, SpillPolicy::MinNextUse), want(3, 4));
    }
}
