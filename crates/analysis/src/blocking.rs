//! Blocking transaction sets `BTS_i` and worst-case blocking times `B_i`.

use rtdb_types::{Duration, LockMode, TransactionSet, TxnId};

/// Which protocol's blocking-set formula to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnalysisProtocol {
    /// PCP-DA: only lower-priority *readers* of items with `Wceil ≥ P_i`.
    PcpDa,
    /// RW-PCP: lower-priority readers of items with `Wceil ≥ P_i` *or*
    /// writers of items with `Aceil ≥ P_i`.
    RwPcp,
    /// Original PCP (and, conservatively, CCP): lower-priority transactions
    /// accessing any item with `Aceil ≥ P_i`.
    Pcp,
}

impl AnalysisProtocol {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisProtocol::PcpDa => "PCP-DA",
            AnalysisProtocol::RwPcp => "RW-PCP",
            AnalysisProtocol::Pcp => "PCP",
        }
    }

    /// All variants.
    pub fn all() -> [AnalysisProtocol; 3] {
        [
            AnalysisProtocol::PcpDa,
            AnalysisProtocol::RwPcp,
            AnalysisProtocol::Pcp,
        ]
    }

    /// The registry kind whose worst-case blocking this analysis models.
    pub fn kind(self) -> rtdb_core::ProtocolKind {
        match self {
            AnalysisProtocol::PcpDa => rtdb_core::ProtocolKind::PcpDa,
            AnalysisProtocol::RwPcp => rtdb_core::ProtocolKind::RwPcp,
            AnalysisProtocol::Pcp => rtdb_core::ProtocolKind::Pcp,
        }
    }
}

/// `BTS_i`: the lower-priority templates that may block `txn` under
/// `protocol` (paper §9).
pub fn bts(set: &TransactionSet, protocol: AnalysisProtocol, txn: TxnId) -> Vec<TxnId> {
    let p_i = set.priority_of(txn);
    set.templates()
        .iter()
        .filter(|t| set.priority_of(t.id) < p_i)
        .filter(|t| match protocol {
            AnalysisProtocol::PcpDa => t.read_set().iter().any(|&x| !set.wceil(x).cleared_by(p_i)),
            AnalysisProtocol::RwPcp => {
                t.read_set().iter().any(|&x| !set.wceil(x).cleared_by(p_i))
                    || t.write_set().iter().any(|&x| !set.aceil(x).cleared_by(p_i))
            }
            AnalysisProtocol::Pcp => t
                .access_set()
                .iter()
                .any(|&x| !set.aceil(x).cleared_by(p_i)),
        })
        .map(|t| t.id)
        .collect()
}

/// `B_i`: worst-case blocking time of `txn` — the largest WCET in
/// `BTS_i` ([`Duration::ZERO`] when the set is empty).
pub fn worst_blocking(set: &TransactionSet, protocol: AnalysisProtocol, txn: TxnId) -> Duration {
    bts(set, protocol, txn)
        .into_iter()
        .map(|id| set.template(id).wcet())
        .max()
        .unwrap_or(Duration::ZERO)
}

/// `B_i` for every template, indexed by `TxnId`.
pub fn blocking_terms(set: &TransactionSet, protocol: AnalysisProtocol) -> Vec<Duration> {
    set.templates()
        .iter()
        .map(|t| worst_blocking(set, protocol, t.id))
        .collect()
}

/// The lower-priority templates that can participate in a *blocking
/// chain* below `txn` under the **repaired** PCP-DA (the default
/// `PcpDa::new` with erratum clauses A–D).
///
/// The paper's single-blocking bound `B_i = max C_L` relies on the direct
/// blocker never itself waiting on another lower-priority transaction.
/// The erratum repairs introduce exactly such waits — e.g. the
/// commit-order guard (D) makes a low-priority reader wait for a
/// mid-priority write holder — so while `T_i` is blocked (still by a
/// single *direct* blocker, Theorem 1 survives), a **chain** of
/// lower-priority transactions can execute, one after another, before the
/// direct blocker finishes. This function computes a conservative closure
/// of the templates reachable through such chains:
///
/// * seed: `BTS_i` (the possible direct blockers);
/// * grow: any lower-priority template `W` that a chain member `L` could
///   wait on — `W` shares a data item with `L`, or `W` reads an item
///   whose `Wceil` reaches `P_L` (so `W`'s read lock can ceiling-block
///   `L`).
pub fn chain_set(set: &TransactionSet, txn: TxnId) -> Vec<TxnId> {
    let p_i = set.priority_of(txn);
    let lower: Vec<TxnId> = set
        .templates()
        .iter()
        .filter(|t| set.priority_of(t.id) < p_i)
        .map(|t| t.id)
        .collect();
    let mut members: std::collections::BTreeSet<TxnId> =
        bts(set, AnalysisProtocol::PcpDa, txn).into_iter().collect();
    loop {
        let mut grew = false;
        for &w in &lower {
            if members.contains(&w) {
                continue;
            }
            let tw = set.template(w);
            let reachable = members.iter().any(|&l| {
                let tl = set.template(l);
                let p_l = set.priority_of(l);
                !tl.access_set().is_disjoint(&tw.access_set())
                    || tw.read_set().iter().any(|&x| !set.wceil(x).cleared_by(p_l))
            });
            if reachable {
                members.insert(w);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    members.into_iter().collect()
}

/// Worst-case blocking of `txn` under the repaired PCP-DA: the sum of the
/// execution times over [`chain_set`] (each chain member executes at most
/// once per blocking episode, and Theorem 1 still limits `T_i` to one
/// episode per direct blocker).
pub fn repaired_worst_blocking(set: &TransactionSet, txn: TxnId) -> Duration {
    chain_set(set, txn)
        .into_iter()
        .map(|id| set.template(id).wcet())
        .sum()
}

/// [`repaired_worst_blocking`] for every template, indexed by `TxnId`.
pub fn repaired_blocking_terms(set: &TransactionSet) -> Vec<Duration> {
    set.templates()
        .iter()
        .map(|t| repaired_worst_blocking(set, t.id))
        .collect()
}

/// CCP's shortened worst-case blocking of `txn` by one lower-priority
/// template `blocker` — the paper's §2 claim that CCP "reduces the worst
/// case blocking time for some high priority transactions", made
/// concrete against this repository's (lock-point) CCP:
///
/// a blocker stops obstructing `txn` the moment it has *early-released*
/// every item whose `Aceil ≥ P_i`. Walking the blocker's program with the
/// same release rule CCP uses (all locks acquired, item not needed again,
/// remaining ceilings strictly lower), the blocking duration is the
/// prefix length until that release point; if the rule never fires, the
/// whole WCET blocks, exactly like PCP.
pub fn ccp_blocking_of(set: &TransactionSet, blocker: TxnId, txn: TxnId) -> Duration {
    use rtdb_types::Operation;
    let p_i = set.priority_of(txn);
    let t = set.template(blocker);
    let steps = &t.steps;

    // Which prefix still holds a >= P_i ceiling item after step k?
    // Track, per completed step index, the set of items still locked
    // under CCP's rule.
    let mut elapsed = Duration::ZERO;
    let mut held: std::collections::BTreeSet<rtdb_types::ItemId> = Default::default();
    let mut read_locked: std::collections::BTreeSet<rtdb_types::ItemId> = Default::default();
    let mut write_locked: std::collections::BTreeSet<rtdb_types::ItemId> = Default::default();
    // Blocking lasts from the first acquisition of a >=P_i-ceiling item
    // (locks are taken at step start) to the release point.
    let mut first_acquire: Option<Duration> = None;
    let mut release_at: Option<Duration> = None;

    for (k, step) in steps.iter().enumerate() {
        match step.op {
            Operation::Read(item) | Operation::Write(item)
                if first_acquire.is_none() && !set.aceil(item).cleared_by(p_i) =>
            {
                first_acquire = Some(elapsed);
            }
            _ => {}
        }
        match step.op {
            Operation::Read(item) => {
                held.insert(item);
                read_locked.insert(item);
            }
            Operation::Write(item) => {
                held.insert(item);
                write_locked.insert(item);
            }
            Operation::Compute => {}
        }
        elapsed += step.duration;

        let remaining = &steps[k + 1..];
        // Lock point: every remaining access is covered by an
        // already-held lock of a sufficient mode (a write lock covers
        // reads of the same item).
        let at_lock_point = remaining.iter().all(|s| match s.op {
            Operation::Compute => true,
            Operation::Read(x) => read_locked.contains(&x) || write_locked.contains(&x),
            Operation::Write(x) => write_locked.contains(&x),
        });
        if at_lock_point {
            let future_ceiling = remaining
                .iter()
                .filter_map(|s| s.op.item())
                .map(|x| set.aceil(x))
                .max()
                .unwrap_or(rtdb_types::Ceiling::Dummy);
            let no_future_data = remaining.iter().all(|s| matches!(s.op, Operation::Compute));
            held.retain(|&x| {
                let needed = remaining.iter().any(|s| s.op.item() == Some(x));
                let releasable = !needed && (set.aceil(x) > future_ceiling || no_future_data);
                !releasable
            });
        }
        // Once no held item can block txn (measured only after the first
        // relevant acquisition), the obstruction ends here.
        if first_acquire.is_some() && release_at.is_none() {
            let still_blocks = held.iter().any(|&x| !set.aceil(x).cleared_by(p_i));
            if !still_blocks {
                release_at = Some(elapsed);
            }
        }
    }
    let Some(start) = first_acquire else {
        return Duration::ZERO; // never holds a relevant item
    };
    release_at.unwrap_or_else(|| t.wcet()) - start
}

/// CCP's `B_i`: the largest [`ccp_blocking_of`] over `BTS_i` (the PCP
/// blocking set — CCP keeps PCP's ceiling discipline, so the *set* of
/// possible blockers is unchanged; only the duration shrinks).
pub fn ccp_worst_blocking(set: &TransactionSet, txn: TxnId) -> Duration {
    bts(set, AnalysisProtocol::Pcp, txn)
        .into_iter()
        .map(|id| ccp_blocking_of(set, id, txn))
        .max()
        .unwrap_or(Duration::ZERO)
}

/// [`ccp_worst_blocking`] for every template, indexed by `TxnId`.
pub fn ccp_blocking_terms(set: &TransactionSet) -> Vec<Duration> {
    set.templates()
        .iter()
        .map(|t| ccp_worst_blocking(set, t.id))
        .collect()
}

/// Convenience used by reports: which lock modes of a template can block
/// `txn` under the protocol (for explanatory output).
pub fn blocking_modes(
    set: &TransactionSet,
    protocol: AnalysisProtocol,
    blocker: TxnId,
    txn: TxnId,
) -> Vec<LockMode> {
    let p_i = set.priority_of(txn);
    let t = set.template(blocker);
    let mut modes = Vec::new();
    let reads_block = t.read_set().iter().any(|&x| !set.wceil(x).cleared_by(p_i));
    let writes_block = t.write_set().iter().any(|&x| !set.aceil(x).cleared_by(p_i));
    match protocol {
        AnalysisProtocol::PcpDa => {
            if reads_block {
                modes.push(LockMode::Read);
            }
        }
        AnalysisProtocol::RwPcp => {
            if reads_block {
                modes.push(LockMode::Read);
            }
            if writes_block {
                modes.push(LockMode::Write);
            }
        }
        AnalysisProtocol::Pcp => {
            let any = t
                .access_set()
                .iter()
                .any(|&x| !set.aceil(x).cleared_by(p_i));
            if any {
                modes.push(LockMode::Read);
                modes.push(LockMode::Write);
            }
        }
    }
    modes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};

    /// Example 3: T1 reads x,y; T2 writes x,y.
    fn example3() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                5,
                vec![Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![
                    Step::write(ItemId(0), 1),
                    Step::compute(2),
                    Step::write(ItemId(1), 1),
                    Step::compute(1),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn example3_bts_shrinks_under_pcpda() {
        let set = example3();
        let t1 = TxnId(0);
        // Under RW-PCP, T2 (writer of x with Aceil(x) = P1) blocks T1.
        assert_eq!(bts(&set, AnalysisProtocol::RwPcp, t1), vec![TxnId(1)]);
        assert_eq!(
            worst_blocking(&set, AnalysisProtocol::RwPcp, t1),
            Duration(5)
        );
        // Under PCP-DA, T2 only writes — it can never block T1.
        assert!(bts(&set, AnalysisProtocol::PcpDa, t1).is_empty());
        assert_eq!(
            worst_blocking(&set, AnalysisProtocol::PcpDa, t1),
            Duration::ZERO
        );
    }

    #[test]
    fn readers_block_under_both() {
        // L reads x which H writes: Wceil(x) = P_H >= P_H, so L ∈ BTS_H
        // under both protocols.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(0), 2)],
            ))
            .with(TransactionTemplate::new(
                "L",
                20,
                vec![Step::read(ItemId(0), 3)],
            ))
            .build()
            .unwrap();
        let h = TxnId(0);
        for p in [AnalysisProtocol::PcpDa, AnalysisProtocol::RwPcp] {
            assert_eq!(bts(&set, p, h), vec![TxnId(1)], "{}", p.name());
            assert_eq!(worst_blocking(&set, p, h), Duration(3));
        }
    }

    #[test]
    fn lowest_priority_transaction_is_never_blocked() {
        let set = example3();
        let lowest = TxnId(1);
        for p in AnalysisProtocol::all() {
            assert!(bts(&set, p, lowest).is_empty(), "{}", p.name());
        }
    }

    #[test]
    fn pcpda_bts_is_subset_of_rwpcp() {
        // Structural property on a mixed workload.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                20,
                vec![Step::read(ItemId(1), 2), Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "C",
                40,
                vec![Step::write(ItemId(0), 2), Step::read(ItemId(2), 2)],
            ))
            .build()
            .unwrap();
        for t in set.templates() {
            let da: std::collections::BTreeSet<TxnId> = bts(&set, AnalysisProtocol::PcpDa, t.id)
                .into_iter()
                .collect();
            let rw: std::collections::BTreeSet<TxnId> = bts(&set, AnalysisProtocol::RwPcp, t.id)
                .into_iter()
                .collect();
            assert!(da.is_subset(&rw), "BTS_{:?} not a subset", t.id);
            assert!(
                worst_blocking(&set, AnalysisProtocol::PcpDa, t.id)
                    <= worst_blocking(&set, AnalysisProtocol::RwPcp, t.id)
            );
        }
    }

    #[test]
    fn chain_set_contains_bts_and_grows_through_shared_items() {
        // T1 (high) reads z; T5 (lowest) reads z (in BTS_1); T2 (mid)
        // writes an item T5 reads -> T5 can D-wait on T2 -> T2 joins the
        // chain although it never blocks T1 directly under PCP-DA.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                40,
                vec![Step::write(ItemId(2), 2)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                80,
                vec![Step::write(ItemId(0), 5), Step::compute(5)],
            ))
            .with(TransactionTemplate::new(
                "T5",
                160,
                vec![Step::read(ItemId(2), 5), Step::read(ItemId(0), 5)],
            ))
            .build()
            .unwrap();
        let t1 = TxnId(0);
        let bts: std::collections::BTreeSet<TxnId> =
            bts(&set, AnalysisProtocol::PcpDa, t1).into_iter().collect();
        assert!(bts.contains(&TxnId(2)), "T5 reads z with Wceil(z)=P1");
        assert!(!bts.contains(&TxnId(1)), "T2 only writes -> not in BTS");

        let chain: std::collections::BTreeSet<TxnId> = chain_set(&set, t1).into_iter().collect();
        assert!(chain.contains(&TxnId(2)));
        assert!(
            chain.contains(&TxnId(1)),
            "T2 reachable through T5's read of x"
        );

        // The repaired bound sums the chain.
        assert_eq!(
            repaired_worst_blocking(&set, t1),
            set.template(TxnId(1)).wcet() + set.template(TxnId(2)).wcet()
        );
    }

    #[test]
    fn repaired_bound_dominates_paper_bound() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                20,
                vec![Step::write(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                40,
                vec![Step::read(ItemId(0), 2), Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "C",
                80,
                vec![Step::read(ItemId(2), 3), Step::read(ItemId(1), 1)],
            ))
            .build()
            .unwrap();
        for t in set.templates() {
            assert!(
                repaired_worst_blocking(&set, t.id)
                    >= worst_blocking(&set, AnalysisProtocol::PcpDa, t.id),
                "{:?}",
                t.id
            );
        }
        // Lowest-priority template is never blocked under either bound.
        assert_eq!(repaired_worst_blocking(&set, TxnId(2)), Duration::ZERO);
    }

    #[test]
    fn ccp_blocking_shortens_when_high_item_is_released_early() {
        // L: R(hot) then long low-ceiling tail. `hot` is touched by H, so
        // Aceil(hot) = P_H; under PCP, L blocks H for its whole WCET; under
        // CCP, hot is released right after the (single-step lock point).
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                50,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                100,
                vec![Step::read(ItemId(0), 2), Step::compute(8)],
            ))
            .build()
            .unwrap();
        let h = TxnId(0);
        assert_eq!(worst_blocking(&set, AnalysisProtocol::Pcp, h), Duration(10));
        assert_eq!(ccp_worst_blocking(&set, h), Duration(2));
    }

    #[test]
    fn ccp_blocking_is_the_hold_duration() {
        // L acquires the hot item late: blocking spans only the hold
        // (from acquisition to commit), not L's whole WCET.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                50,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                100,
                vec![Step::compute(8), Step::read(ItemId(0), 2)],
            ))
            .build()
            .unwrap();
        let h = TxnId(0);
        assert_eq!(ccp_worst_blocking(&set, h), Duration(2));
        // The paper-style PCP bound charges the whole WCET.
        assert_eq!(worst_blocking(&set, AnalysisProtocol::Pcp, h), Duration(10));
    }

    #[test]
    fn ccp_blocking_respects_mode_aware_lock_point() {
        // L reads x then writes x later: the read does NOT reach the lock
        // point (the write lock is still to come), so no early release
        // until after the write step.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                50,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                100,
                vec![
                    Step::read(ItemId(0), 2),
                    Step::compute(5),
                    Step::write(ItemId(0), 1),
                    Step::compute(2),
                ],
            ))
            .build()
            .unwrap();
        let h = TxnId(0);
        // Release happens after the write step (elapsed 8), not after the
        // read (elapsed 2).
        assert_eq!(ccp_worst_blocking(&set, h), Duration(8));
    }

    #[test]
    fn ccp_bound_never_exceeds_pcp_bound() {
        for seed_shape in 0..4u32 {
            // A few structured shapes rather than RNG (analysis crate has
            // no rand dependency): rotate which step touches the hot item.
            let hot = ItemId(0);
            let mut steps = vec![
                Step::compute(2),
                Step::compute(3),
                Step::compute(2),
                Step::compute(1),
            ];
            steps[seed_shape as usize] = Step::read(hot, 2);
            let set = SetBuilder::new()
                .with(TransactionTemplate::new("H", 50, vec![Step::write(hot, 1)]))
                .with(TransactionTemplate::new("L", 100, steps))
                .build()
                .unwrap();
            let h = TxnId(0);
            assert!(
                ccp_worst_blocking(&set, h) <= worst_blocking(&set, AnalysisProtocol::Pcp, h),
                "shape {seed_shape}"
            );
        }
    }

    #[test]
    fn blocking_modes_explain_membership() {
        let set = example3();
        let modes = blocking_modes(&set, AnalysisProtocol::RwPcp, TxnId(1), TxnId(0));
        assert_eq!(modes, vec![LockMode::Write]);
        let modes = blocking_modes(&set, AnalysisProtocol::PcpDa, TxnId(1), TxnId(0));
        assert!(modes.is_empty());
    }
}
