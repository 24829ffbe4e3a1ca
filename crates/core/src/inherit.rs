//! Priority inheritance.
//!
//! "If a transaction blocks a higher priority transaction, its running
//! priority will inherit that of the higher priority transaction" (paper
//! §5). Inheritance is transitive: if `T_3` blocks `T_2` which blocks
//! `T_1`, `T_3` runs at `P_1`. A transaction returns to its original
//! priority when the blocking edge disappears (here: when the engine clears
//! the edge after a release re-evaluation).
//!
//! The tracker recomputes running priorities by fixpoint iteration over the
//! current blocking edges. The edge set is tiny (bounded by the number of
//! live instances), so the simple algorithm is both obviously correct and
//! fast enough. Entries live in one id-sorted `Vec` — the live-instance
//! population is small and churns constantly, so binary search over a dense
//! vector beats tree maps, and the per-entry blocker `Vec`s are recycled
//! across block/unblock cycles and from departed instances to new ones
//! instead of reallocated.

use rtdb_types::{InstanceId, Priority};

#[derive(Clone, Debug)]
struct Entry {
    id: InstanceId,
    base: Priority,
    running: Priority,
    /// True if a blocking edge is currently recorded for `id`.
    blocked: bool,
    /// The instances blocking `id`; meaningful only while `blocked`.
    /// Kept allocated across cycles.
    blockers: Vec<InstanceId>,
}

/// Base priorities plus the current blocking edges, yielding running
/// priorities.
#[derive(Clone, Debug, Default)]
pub struct PriorityManager {
    /// Live instances, sorted by id.
    entries: Vec<Entry>,
    /// Blocker buffers of removed entries, handed to the next register.
    spare: Vec<Vec<InstanceId>>,
}

impl PriorityManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn idx(&self, who: InstanceId) -> Option<usize> {
        self.entries.binary_search_by_key(&who, |e| e.id).ok()
    }

    /// Register a live instance with its original priority.
    pub fn register(&mut self, who: InstanceId, base: Priority) {
        match self.entries.binary_search_by_key(&who, |e| e.id) {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.base = base;
                e.running = base;
                e.blocked = false;
                e.blockers.clear();
                self.recompute();
            }
            Err(i) => {
                // A fresh instance has no edges, so no running priority
                // (its own included) can change: skip the recompute.
                self.entries.insert(
                    i,
                    Entry {
                        id: who,
                        base,
                        running: base,
                        blocked: false,
                        blockers: self.spare.pop().unwrap_or_default(),
                    },
                );
            }
        }
    }

    /// Remove a completed/aborted instance and any edges touching it.
    pub fn remove(&mut self, who: InstanceId) {
        if let Some(i) = self.idx(who) {
            let mut blockers = self.entries.remove(i).blockers;
            blockers.clear();
            self.spare.push(blockers);
        }
        for e in &mut self.entries {
            if e.blocked {
                e.blockers.retain(|&b| b != who);
                if e.blockers.is_empty() {
                    e.blocked = false;
                }
            }
        }
        self.recompute();
    }

    /// Record that `blocked` is currently blocked by `blockers`
    /// (replacing any previous edge for `blocked`).
    pub fn set_blocked(&mut self, blocked: InstanceId, blockers: &[InstanceId]) {
        debug_assert!(!blockers.contains(&blocked));
        let i = self.idx(blocked).expect("set_blocked on unregistered id");
        let e = &mut self.entries[i];
        e.blocked = true;
        e.blockers.clear();
        e.blockers.extend_from_slice(blockers);
        self.recompute();
    }

    /// Clear `blocked`'s edge (its request was granted or re-evaluated).
    pub fn clear_blocked(&mut self, blocked: InstanceId) {
        if let Some(i) = self.idx(blocked) {
            if self.entries[i].blocked {
                self.entries[i].blocked = false;
                self.entries[i].blockers.clear();
                self.recompute();
            }
        }
    }

    /// Original priority.
    ///
    /// # Panics
    /// Panics if `who` was never registered.
    pub fn base(&self, who: InstanceId) -> Priority {
        self.entries[self.idx(who).expect("unregistered instance")].base
    }

    /// Current running priority (base joined with every priority inherited
    /// through the blocking edges, transitively).
    ///
    /// # Panics
    /// Panics if `who` was never registered.
    pub fn running(&self, who: InstanceId) -> Priority {
        self.entries[self.idx(who).expect("unregistered instance")].running
    }

    /// True if `who` is currently marked blocked.
    #[cfg(test)]
    fn is_blocked(&self, who: InstanceId) -> bool {
        self.idx(who).is_some_and(|i| self.entries[i].blocked)
    }

    /// The instances with a blocking edge, ascending: the wait-for
    /// graph's nodes with out-edges.
    pub fn blocked(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.entries.iter().filter(|e| e.blocked).map(|e| e.id)
    }

    /// The instances `who` waits for, in recorded order (empty unless
    /// `who` is blocked): its out-edges in the wait-for graph.
    pub fn blockers(&self, who: InstanceId) -> &[InstanceId] {
        match self.idx(who) {
            Some(i) if self.entries[i].blocked => &self.entries[i].blockers,
            _ => &[],
        }
    }

    /// True if any blocking edge is currently recorded.
    #[cfg(test)]
    fn has_edges(&self) -> bool {
        self.entries.iter().any(|e| e.blocked)
    }

    /// Is anyone registered?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn recompute(&mut self) {
        // Start from base priorities.
        for e in &mut self.entries {
            e.running = e.base;
        }
        // Propagate to fixpoint: each pass pushes the blocked instance's
        // running priority into its blockers. At most n passes are needed
        // (each pass extends the longest settled chain by one).
        let n = self.entries.len();
        for _ in 0..n {
            let mut changed = false;
            for i in 0..self.entries.len() {
                if !self.entries[i].blocked {
                    continue;
                }
                let p = self.entries[i].running;
                for k in 0..self.entries[i].blockers.len() {
                    let b = self.entries[i].blockers[k];
                    if let Some(j) = self.idx(b) {
                        if self.entries[j].running < p {
                            self.entries[j].running = p;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::TxnId;

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    fn mgr3() -> PriorityManager {
        let mut m = PriorityManager::new();
        m.register(i(0), Priority(3)); // T1, highest
        m.register(i(1), Priority(2));
        m.register(i(2), Priority(1));
        m
    }

    #[test]
    fn no_edges_means_base_priorities() {
        let m = mgr3();
        assert_eq!(m.running(i(0)), Priority(3));
        assert_eq!(m.running(i(2)), Priority(1));
        assert!(!m.is_blocked(i(2)));
    }

    #[test]
    fn direct_inheritance() {
        let mut m = mgr3();
        m.set_blocked(i(0), &[i(2)]); // T3 blocks T1
        assert_eq!(m.running(i(2)), Priority(3));
        assert_eq!(m.base(i(2)), Priority(1));
        m.clear_blocked(i(0));
        assert_eq!(m.running(i(2)), Priority(1));
    }

    #[test]
    fn transitive_inheritance() {
        let mut m = mgr3();
        m.set_blocked(i(0), &[i(1)]); // T2 blocks T1
        m.set_blocked(i(1), &[i(2)]); // T3 blocks T2
        assert_eq!(m.running(i(1)), Priority(3));
        assert_eq!(m.running(i(2)), Priority(3)); // inherited through T2
    }

    #[test]
    fn inheritance_is_max_not_sum() {
        let mut m = mgr3();
        m.set_blocked(i(0), &[i(2)]);
        m.set_blocked(i(1), &[i(2)]); // T3 blocks both T1 and T2
        assert_eq!(m.running(i(2)), Priority(3));
    }

    #[test]
    fn higher_priority_blocker_is_unaffected() {
        let mut m = mgr3();
        m.set_blocked(i(2), &[i(0)]); // T1 "blocks" T3 (conflict hold)
        assert_eq!(m.running(i(0)), Priority(3)); // no change
    }

    #[test]
    fn removal_clears_edges_and_restores() {
        let mut m = mgr3();
        m.set_blocked(i(0), &[i(2)]);
        assert_eq!(m.running(i(2)), Priority(3));
        m.remove(i(0)); // the blocked transaction disappears
        assert_eq!(m.running(i(2)), Priority(1));
        assert!(!m.has_edges());
    }

    #[test]
    fn paper_example1_inheritance_chain() {
        // Example 1: T3 write-locks x; T2 blocked (ceiling) -> T3 inherits
        // P2; then T1 blocked (conflict) -> T3 inherits P1.
        let mut m = mgr3();
        m.set_blocked(i(1), &[i(2)]);
        assert_eq!(m.running(i(2)), Priority(2));
        m.set_blocked(i(0), &[i(2)]);
        assert_eq!(m.running(i(2)), Priority(3));
    }

    #[test]
    fn edges_iterates_blocked_entries_in_id_order() {
        let mut m = mgr3();
        m.set_blocked(i(2), &[i(0)]);
        m.set_blocked(i(1), &[i(2)]);
        let got: Vec<(InstanceId, Vec<InstanceId>)> =
            m.blocked().map(|b| (b, m.blockers(b).to_vec())).collect();
        assert_eq!(got, vec![(i(1), vec![i(2)]), (i(2), vec![i(0)])]);
        assert!(m.blockers(i(0)).is_empty(), "not blocked");
        m.clear_blocked(i(1));
        assert!(m.blockers(i(1)).is_empty(), "edge cleared");
    }
}
