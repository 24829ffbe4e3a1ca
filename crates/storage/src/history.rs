//! Execution histories.
//!
//! A [`History`] is the complete, ordered log of data-relevant events of one
//! simulation run. It is the input to both correctness oracles
//! ([`crate::SerializationGraph`] and [`crate::replay`]) and to the
//! blocking-time accounting in the analysis tests.
//!
//! Logging stays an append: a `History` holds its events and its commit
//! order, nothing more. The oracles read a [`CommittedIndex`], which
//! [`History::committed_index`] builds on demand in one pass over the
//! events: the committed instances, each one's final-attempt reads, and
//! each item's install chain, all in flat arrays.

use crate::db::Version;
use crate::workspace::ReadRecord;
use rtdb_types::{InstanceId, ItemId, Tick, Value};

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

    /// Index the committed part of the history for the oracles, in one
    /// pass over the events. Nothing is indexed while the run logs: the
    /// index is built only when an oracle asks for it.
    pub fn committed_index(&self) -> CommittedIndex {
        CommittedIndex::build(self)
    }
}

/// The committed part of a [`History`], flat: what both Theorem 3 oracles
/// ([`crate::SerializationGraph`] and [`crate::replay`]) read.
///
/// * the committed instances, ascending;
/// * each one's *final-attempt* reads (the reads after its last `Begin`),
///   in program order, as one slice;
/// * per item, its install chain `(version, writer)` ascending by version
///   — the ww order of the history — in a dense array indexed by
///   [`ItemId`].
///
/// Reads and installs sit in two flat arrays, grouped by instance and by
/// item with a counting sort, so building the index costs one pass over
/// the events and one over what it keeps.
#[derive(Clone, Debug, Default)]
pub struct CommittedIndex {
    /// Committed instances, ascending.
    committed: Vec<InstanceId>,
    /// Finds an instance in `committed`.
    positions: Positions,
    /// `reads[read_start[i]..read_start[i + 1]]` are `committed[i]`'s.
    read_start: Vec<usize>,
    reads: Vec<ReadRecord>,
    /// `installs[install_start[x]..install_start[x + 1]]` are item `x`'s.
    install_start: Vec<usize>,
    installs: Vec<(Version, InstanceId)>,
}

impl CommittedIndex {
    fn build(history: &History) -> Self {
        let mut committed = history.commit_order.clone();
        // `InstanceId`'s order, `(txn, seq)`, as one integer compare.
        committed.sort_unstable_by_key(|id| (u64::from(id.txn.0) << 32) | u64::from(id.seq));
        committed.dedup();
        let mut index = CommittedIndex {
            positions: Positions::new(&committed),
            committed,
            ..CommittedIndex::default()
        };

        // Reads of committed instances in log order, each tagged with its
        // instance's position. A `Begin` forgets the reads logged before
        // it: `first_kept[i]` is where `committed[i]`'s last attempt
        // starts in `tagged`.
        let mut first_kept = vec![0; index.committed.len()];
        let mut tagged: Vec<(usize, ReadRecord)> = Vec::with_capacity(history.events.len() / 2);
        let mut raw_installs: Vec<(ItemId, Version, InstanceId)> = Vec::new();
        for e in &history.events {
            match e.kind {
                EventKind::Begin => {
                    if let Ok(i) = index.position(e.instance) {
                        first_kept[i] = tagged.len();
                    }
                }
                EventKind::Read {
                    item,
                    value,
                    version,
                    own,
                } => {
                    if let Ok(i) = index.position(e.instance) {
                        let read = ReadRecord {
                            item,
                            value,
                            version,
                            own,
                        };
                        tagged.push((i, read));
                    }
                }
                EventKind::Install { item, version, .. } => {
                    raw_installs.push((item, version, e.instance));
                }
                EventKind::StageWrite { .. } | EventKind::Commit | EventKind::Abort => {}
            }
        }
        let kept = tagged
            .iter()
            .enumerate()
            .filter(|&(at, &(i, _))| at >= first_kept[i])
            .map(|(_, &(i, read))| (i, read));
        (index.read_start, index.reads) = group(index.committed.len(), kept);

        let items = raw_installs
            .iter()
            .map(|&(item, _, _)| item.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let chains = raw_installs
            .iter()
            .map(|&(item, version, writer)| (item.0 as usize, (version, writer)));
        (index.install_start, index.installs) = group(items, chains);
        // Installs are logged in commit order, already ascending per item;
        // the stable sort only guards the invariant.
        for chain in index.install_start.windows(2) {
            index.installs[chain[0]..chain[1]].sort_by_key(|&(version, _)| version);
        }
        index
    }

    /// Committed instances, ascending.
    pub fn committed(&self) -> &[InstanceId] {
        &self.committed
    }

    /// Where `id` is in [`CommittedIndex::committed`], or where it would
    /// go: `binary_search`'s answer, usually without a search.
    pub(crate) fn position(&self, id: InstanceId) -> Result<usize, usize> {
        self.positions.find(&self.committed, id)
    }

    pub(crate) fn positions(&self) -> &Positions {
        &self.positions
    }

    /// The reads of `who`'s final (committing) attempt, in program order;
    /// empty if `who` did not commit.
    pub fn reads(&self, who: InstanceId) -> &[ReadRecord] {
        match self.position(who) {
            Ok(i) => &self.reads[self.read_start[i]..self.read_start[i + 1]],
            Err(_) => &[],
        }
    }

    /// `item`'s install chain `(version, writer)`, ascending by version;
    /// empty if nobody installed it.
    pub fn installs(&self, item: ItemId) -> &[(Version, InstanceId)] {
        let x = item.0 as usize;
        match self.install_start.get(x..x + 2) {
            Some(&[from, to]) => &self.installs[from..to],
            _ => &[],
        }
    }

    /// Every installed item with its chain, ascending by item.
    pub fn install_chains(&self) -> impl Iterator<Item = (ItemId, &[(Version, InstanceId)])> {
        self.install_start
            .windows(2)
            .enumerate()
            .filter(|(_, span)| span[0] < span[1])
            .map(|(x, span)| (ItemId(x as u32), &self.installs[span[0]..span[1]]))
    }
}

/// Finds an instance in an ascending list of instances. Per template it
/// keeps where the template's instances start; they mostly commit in
/// sequence, so `seq` minus the template's first `seq` is the offset. A
/// gap (an instance that never committed) falls back to a binary search
/// among the template's.
#[derive(Clone, Debug, Default)]
pub(crate) struct Positions {
    /// `sorted[start[t]..start[t + 1]]` are template `t`'s.
    start: Vec<usize>,
}

impl Positions {
    pub(crate) fn new(sorted: &[InstanceId]) -> Self {
        let templates = sorted.last().map_or(0, |id| id.txn.0 as usize + 1);
        let (start, _) = group(templates, sorted.iter().map(|id| (id.txn.0 as usize, ())));
        Positions { start }
    }

    /// `sorted.binary_search(&id)`, where `sorted` is the list `self` was
    /// built from.
    pub(crate) fn find(&self, sorted: &[InstanceId], id: InstanceId) -> Result<usize, usize> {
        let t = id.txn.0 as usize;
        let (Some(&from), Some(&to)) = (self.start.get(t), self.start.get(t + 1)) else {
            return Err(sorted.len());
        };
        let run = &sorted[from..to];
        if let Some(first) = run.first() {
            let offset = id.seq.wrapping_sub(first.seq) as usize;
            if run.get(offset) == Some(&id) {
                return Ok(from + offset);
            }
        }
        run.binary_search(&id)
            .map(|i| from + i)
            .map_err(|i| from + i)
    }
}

/// Counting sort: values, each tagged with a bucket below `buckets`,
/// into one array grouped by bucket (log order kept within a bucket) and
/// the `buckets + 1` offsets that delimit the groups.
pub(crate) fn group<T: Copy>(
    buckets: usize,
    tagged: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut start = vec![0; buckets + 1];
    let Some((_, fill)) = tagged.clone().next() else {
        return (start, Vec::new());
    };
    for (b, _) in tagged.clone() {
        start[b + 1] += 1;
    }
    for b in 0..buckets {
        start[b + 1] += start[b];
    }
    let mut next = start.clone();
    let mut out = vec![fill; start[buckets]];
    for (b, value) in tagged {
        out[next[b]] = value;
        next[b] += 1;
    }
    (start, out)
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
    fn index_keeps_only_the_final_attempts_reads() {
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

        let index = h.committed_index();
        let read = ReadRecord {
            item: ItemId(0),
            value: Value(2),
            version: 2,
            own: false,
        };
        assert_eq!(index.reads(t), &[read]);
        assert_eq!(h.aborts(), 1);
    }

    #[test]
    fn index_excludes_uncommitted_instances() {
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
        let index = h.committed_index();
        assert!(index.committed().is_empty());
        assert!(index.reads(inst(0)).is_empty());
    }

    #[test]
    fn install_chains_are_per_item_ascending() {
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
        let index = h.committed_index();
        assert_eq!(index.installs(ItemId(0)), &[(1, inst(0)), (2, inst(1))]);
        assert!(index.installs(ItemId(1)).is_empty());
        let chains: Vec<_> = index.install_chains().collect();
        assert_eq!(chains, vec![(ItemId(0), &[(1, inst(0)), (2, inst(1))][..])]);
    }
}
