//! Execution histories.
//!
//! A [`History`] is the complete, ordered log of data-relevant events of one
//! simulation run. It is the input to both correctness oracles
//! ([`crate::SerializationGraph`] and [`crate::replay`]) and to the
//! blocking-time accounting in the analysis tests.

use crate::db::Version;
use rtdb_types::{InstanceId, ItemId, Tick, Value};
use std::collections::BTreeMap;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Instance (re)started executing its program from the first step.
    /// Restart-based protocols (2PL-HP) emit one `Begin` per attempt.
    Begin,
    /// A read was performed: the instance observed `value` at committed
    /// `version` of `item` (`own = true` if served from its own staged
    /// write).
    Read {
        /// Item read.
        item: ItemId,
        /// Value observed.
        value: Value,
        /// Committed version observed.
        version: Version,
        /// Served from the instance's own workspace.
        own: bool,
    },
    /// A write was staged in the private workspace.
    StageWrite {
        /// Item written.
        item: ItemId,
        /// Staged value.
        value: Value,
    },
    /// The instance committed; its staged writes were installed.
    Commit,
    /// One staged write was installed at commit time as `version` of
    /// `item`. Emitted immediately after the corresponding [`Commit`]
    /// event, one per written item.
    ///
    /// [`Commit`]: EventKind::Commit
    Install {
        /// Item installed.
        item: ItemId,
        /// Installed value.
        value: Value,
        /// New committed version.
        version: Version,
    },
    /// The instance was aborted (its workspace discarded). Only
    /// restart-based baselines produce aborts; PCP-DA never does.
    Abort,
}

/// One logged event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// When it happened.
    pub at: Tick,
    /// Which instance it concerns.
    pub instance: InstanceId,
    /// What happened.
    pub kind: EventKind,
}

/// The complete event log of a run.
#[derive(Clone, Debug, Default)]
pub struct History {
    events: Vec<Event>,
    commit_order: Vec<InstanceId>,
}

/// Rebuild a history from its events, in iteration order (how the
/// runtime's per-shard logs merge into one).
impl FromIterator<Event> for History {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let events = events.into_iter();
        let mut history = History::new();
        history.reserve_events(events.size_hint().0);
        for e in events {
            history.push(e.at, e.instance, e.kind);
        }
        history
    }
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the event log for roughly `n` events, so steady-state
    /// runs append without reallocating.
    pub fn reserve_events(&mut self, n: usize) {
        self.events.reserve(n);
    }

    /// Append an event. `Commit` events additionally extend the commit
    /// order.
    pub fn push(&mut self, at: Tick, instance: InstanceId, kind: EventKind) {
        if matches!(kind, EventKind::Commit) {
            self.commit_order.push(instance);
        }
        self.events.push(Event { at, instance, kind });
    }

    /// All events in log order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Instances in commit order — the serialization order PCP-DA
    /// guarantees (Theorem 3).
    pub fn commit_order(&self) -> &[InstanceId] {
        &self.commit_order
    }

    /// Number of committed instances.
    pub fn committed(&self) -> usize {
        self.commit_order.len()
    }

    /// Number of abort events.
    pub fn aborts(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Abort))
            .count()
    }

    /// The reads of each committed instance's *final* (committing) attempt,
    /// in program order: events after the last `Begin` of that instance.
    pub fn committed_reads(&self) -> BTreeMap<InstanceId, Vec<(ItemId, Value, Version, bool)>> {
        let mut last_begin: BTreeMap<InstanceId, usize> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            if matches!(e.kind, EventKind::Begin) {
                last_begin.insert(e.instance, i);
            }
        }
        let mut out: BTreeMap<InstanceId, Vec<(ItemId, Value, Version, bool)>> = BTreeMap::new();
        for &who in &self.commit_order {
            out.insert(who, Vec::new());
        }
        for (i, e) in self.events.iter().enumerate() {
            if let EventKind::Read {
                item,
                value,
                version,
                own,
            } = e.kind
            {
                if let Some(reads) = out.get_mut(&e.instance) {
                    if i >= *last_begin.get(&e.instance).unwrap_or(&0) {
                        reads.push((item, value, version, own));
                    }
                }
            }
        }
        out
    }

    /// Per-item install sequence `(version, writer, value)`, ascending by
    /// version — the ww order of the history.
    pub fn install_order(&self) -> BTreeMap<ItemId, Vec<(Version, InstanceId, Value)>> {
        let mut out: BTreeMap<ItemId, Vec<(Version, InstanceId, Value)>> = BTreeMap::new();
        for e in &self.events {
            if let EventKind::Install {
                item,
                value,
                version,
            } = e.kind
            {
                out.entry(item)
                    .or_default()
                    .push((version, e.instance, value));
            }
        }
        // Keep versions sorted (they are logged in commit order, which is
        // already ascending per item, but be defensive).
        for seq in out.values_mut() {
            seq.sort_by_key(|(v, _, _)| *v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::TxnId;

    fn inst(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    #[test]
    fn commit_order_tracks_commits() {
        let mut h = History::new();
        h.push(Tick(0), inst(0), EventKind::Begin);
        h.push(Tick(1), inst(1), EventKind::Begin);
        h.push(Tick(2), inst(1), EventKind::Commit);
        h.push(Tick(3), inst(0), EventKind::Commit);
        assert_eq!(h.commit_order(), &[inst(1), inst(0)]);
        assert_eq!(h.committed(), 2);
        assert_eq!(h.aborts(), 0);
    }

    #[test]
    fn committed_reads_ignore_aborted_attempts() {
        let mut h = History::new();
        let t = inst(0);
        h.push(Tick(0), t, EventKind::Begin);
        h.push(
            Tick(1),
            t,
            EventKind::Read {
                item: ItemId(0),
                value: Value(1),
                version: 1,
                own: false,
            },
        );
        h.push(Tick(2), t, EventKind::Abort);
        h.push(Tick(3), t, EventKind::Begin); // restart
        h.push(
            Tick(4),
            t,
            EventKind::Read {
                item: ItemId(0),
                value: Value(2),
                version: 2,
                own: false,
            },
        );
        h.push(Tick(5), t, EventKind::Commit);

        let reads = h.committed_reads();
        assert_eq!(reads[&t], vec![(ItemId(0), Value(2), 2, false)]);
        assert_eq!(h.aborts(), 1);
    }

    #[test]
    fn committed_reads_exclude_uncommitted_instances() {
        let mut h = History::new();
        h.push(Tick(0), inst(0), EventKind::Begin);
        h.push(
            Tick(1),
            inst(0),
            EventKind::Read {
                item: ItemId(0),
                value: Value(1),
                version: 0,
                own: false,
            },
        );
        // never commits
        assert!(h.committed_reads().is_empty());
    }

    #[test]
    fn install_order_is_per_item_ascending() {
        let mut h = History::new();
        h.push(Tick(1), inst(0), EventKind::Commit);
        h.push(
            Tick(1),
            inst(0),
            EventKind::Install {
                item: ItemId(0),
                value: Value(10),
                version: 1,
            },
        );
        h.push(Tick(2), inst(1), EventKind::Commit);
        h.push(
            Tick(2),
            inst(1),
            EventKind::Install {
                item: ItemId(0),
                value: Value(20),
                version: 2,
            },
        );
        let order = h.install_order();
        assert_eq!(
            order[&ItemId(0)],
            vec![(1, inst(0), Value(10)), (2, inst(1), Value(20))]
        );
    }
}
