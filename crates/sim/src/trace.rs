//! Execution traces: what ran when, and every scheduling-relevant event.
//!
//! The trace is the raw material for the Gantt renderer ([`crate::gantt`])
//! and for the figure-reproduction assertions: the paper's Figures 1–5 are
//! statements about exactly these segments and events.

use rtdb_types::{Ceiling, InstanceId, ItemId, LockMode, Tick};
use rtdb_util::Json;

/// What an instance was doing during a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// Executing on the CPU.
    Running,
    /// Blocked on a lock request (the paper's blocking; preemption while
    /// ready is *not* recorded as a segment — ready time is implicit).
    Blocked,
}

/// A contiguous activity segment of one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Instance concerned.
    pub who: InstanceId,
    /// Segment start.
    pub from: Tick,
    /// Segment end (exclusive).
    pub to: Tick,
    /// Activity.
    pub kind: SegKind,
}

/// A scheduling-relevant event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Instance released (arrived).
    Arrive { at: Tick, who: InstanceId },
    /// Lock granted.
    Granted {
        at: Tick,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
    },
    /// Lock denied; the instance blocks on `blockers`.
    Denied {
        at: Tick,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
        blockers: Vec<InstanceId>,
    },
    /// A previously denied request was granted after re-evaluation.
    Resumed {
        at: Tick,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
    },
    /// Early release of a lock before commit (CCP).
    EarlyRelease {
        at: Tick,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
    },
    /// Instance committed.
    Commit { at: Tick, who: InstanceId },
    /// Instance aborted (2PL-HP victim or deadlock resolution).
    Abort { at: Tick, who: InstanceId },
    /// Deadline passed before completion.
    DeadlineMiss { at: Tick, who: InstanceId },
    /// A deadlock was detected on the wait-for graph.
    DeadlockDetected { at: Tick, cycle: Vec<InstanceId> },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Tick {
        match self {
            TraceEvent::Arrive { at, .. }
            | TraceEvent::Granted { at, .. }
            | TraceEvent::Denied { at, .. }
            | TraceEvent::Resumed { at, .. }
            | TraceEvent::EarlyRelease { at, .. }
            | TraceEvent::Commit { at, .. }
            | TraceEvent::Abort { at, .. }
            | TraceEvent::DeadlineMiss { at, .. }
            | TraceEvent::DeadlockDetected { at, .. } => *at,
        }
    }
}

fn inst_json(who: InstanceId) -> Json {
    Json::obj().set("txn", who.txn.0).set("seq", who.seq)
}

fn mode_json(mode: LockMode) -> Json {
    match mode {
        LockMode::Read => Json::from("read"),
        LockMode::Write => Json::from("write"),
    }
}

fn ceiling_json(c: Ceiling) -> Json {
    match c {
        Ceiling::Dummy => Json::Null,
        Ceiling::At(p) => Json::from(p.level()),
    }
}

impl TraceEvent {
    /// The event as a tagged JSON object (`{"kind": "arrive", ...}`).
    pub fn json(&self) -> Json {
        let (kind, at) = (self.kind_name(), self.at());
        let mut obj = Json::obj().set("kind", kind).set("at", at.raw());
        match self {
            TraceEvent::Arrive { who, .. }
            | TraceEvent::Commit { who, .. }
            | TraceEvent::Abort { who, .. }
            | TraceEvent::DeadlineMiss { who, .. } => {
                obj = obj.set("who", inst_json(*who));
            }
            TraceEvent::Granted {
                who, item, mode, ..
            }
            | TraceEvent::Resumed {
                who, item, mode, ..
            }
            | TraceEvent::EarlyRelease {
                who, item, mode, ..
            } => {
                obj = obj
                    .set("who", inst_json(*who))
                    .set("item", item.0)
                    .set("mode", mode_json(*mode));
            }
            TraceEvent::Denied {
                who,
                item,
                mode,
                blockers,
                ..
            } => {
                obj = obj
                    .set("who", inst_json(*who))
                    .set("item", item.0)
                    .set("mode", mode_json(*mode))
                    .set(
                        "blockers",
                        Json::Arr(blockers.iter().map(|&b| inst_json(b)).collect()),
                    );
            }
            TraceEvent::DeadlockDetected { cycle, .. } => {
                obj = obj.set(
                    "cycle",
                    Json::Arr(cycle.iter().map(|&b| inst_json(b)).collect()),
                );
            }
        }
        obj
    }

    /// The snake_case tag used in the JSON encoding.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Arrive { .. } => "arrive",
            TraceEvent::Granted { .. } => "granted",
            TraceEvent::Denied { .. } => "denied",
            TraceEvent::Resumed { .. } => "resumed",
            TraceEvent::EarlyRelease { .. } => "early_release",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Abort { .. } => "abort",
            TraceEvent::DeadlineMiss { .. } => "deadline_miss",
            TraceEvent::DeadlockDetected { .. } => "deadlock_detected",
        }
    }
}

/// The complete trace of one run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    segments: Vec<Segment>,
    events: Vec<TraceEvent>,
    /// `(tick, ceiling)` samples of the global system ceiling, recorded
    /// after every change — the paper's `Max_Sysceil` dotted line.
    ceiling_samples: Vec<(Tick, Ceiling)>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the segment and event logs, so steady-state runs append
    /// without reallocating.
    pub fn reserve(&mut self, segments: usize, events: usize) {
        self.segments.reserve(segments);
        self.events.reserve(events);
    }

    /// Record a segment; zero-length segments are dropped, and a segment
    /// contiguous with the previous one of the same instance and kind is
    /// merged into it.
    pub fn push_segment(&mut self, who: InstanceId, from: Tick, to: Tick, kind: SegKind) {
        if from >= to {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            if last.who == who && last.kind == kind && last.to == from {
                last.to = to;
                return;
            }
        }
        self.segments.push(Segment {
            who,
            from,
            to,
            kind,
        });
    }

    /// Record an event.
    pub fn push_event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Record a system-ceiling sample (deduplicated against the previous
    /// sample's value; a later sample at the same tick replaces it).
    pub fn push_ceiling(&mut self, at: Tick, ceiling: Ceiling) {
        if let Some(&(last_at, last_c)) = self.ceiling_samples.last() {
            if last_c == ceiling {
                return;
            }
            if last_at == at {
                self.ceiling_samples.pop();
                if let Some(&(_, prev_c)) = self.ceiling_samples.last() {
                    if prev_c == ceiling {
                        return;
                    }
                }
            }
        }
        self.ceiling_samples.push((at, ceiling));
    }

    /// All segments in chronological order of their start.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The ceiling samples.
    pub fn ceiling_samples(&self) -> &[(Tick, Ceiling)] {
        &self.ceiling_samples
    }

    /// Highest system ceiling observed over the run (`Max_Sysceil`).
    pub fn max_system_ceiling(&self) -> Ceiling {
        self.ceiling_samples
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(Ceiling::Dummy)
    }

    /// Total blocked time per instance, from the Blocked segments.
    #[cfg(test)]
    fn blocked_time(&self) -> std::collections::BTreeMap<InstanceId, u64> {
        let mut out = std::collections::BTreeMap::new();
        for s in &self.segments {
            if s.kind == SegKind::Blocked {
                *out.entry(s.who).or_insert(0) += s.to.raw() - s.from.raw();
            }
        }
        out
    }

    /// Serialize the whole trace (segments, events, ceiling samples) to
    /// pretty JSON — for external timeline viewers and post-processing.
    pub fn to_json(&self) -> String {
        self.json().pretty()
    }

    /// The trace as a JSON value (segments, events, ceiling samples).
    pub fn json(&self) -> Json {
        let segments: Vec<Json> = self
            .segments
            .iter()
            .map(|s| {
                Json::obj()
                    .set("who", inst_json(s.who))
                    .set("from", s.from.raw())
                    .set("to", s.to.raw())
                    .set(
                        "kind",
                        match s.kind {
                            SegKind::Running => "running",
                            SegKind::Blocked => "blocked",
                        },
                    )
            })
            .collect();
        let events: Vec<Json> = self.events.iter().map(TraceEvent::json).collect();
        let samples: Vec<Json> = self
            .ceiling_samples
            .iter()
            .map(|&(at, c)| Json::Arr(vec![Json::from(at.raw()), ceiling_json(c)]))
            .collect();
        Json::obj()
            .set("segments", Json::Arr(segments))
            .set("events", Json::Arr(events))
            .set("ceiling_samples", Json::Arr(samples))
    }

    /// End of the last segment / event (the makespan).
    pub fn end(&self) -> Tick {
        let seg_end = self.segments.iter().map(|s| s.to).max();
        let ev_end = self.events.iter().map(|e| e.at()).max();
        seg_end
            .into_iter()
            .chain(ev_end)
            .max()
            .unwrap_or(Tick::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{Priority, TxnId};

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    #[test]
    fn contiguous_segments_merge() {
        let mut tr = Trace::new();
        tr.push_segment(i(0), Tick(0), Tick(2), SegKind::Running);
        tr.push_segment(i(0), Tick(2), Tick(3), SegKind::Running);
        assert_eq!(tr.segments().len(), 1);
        assert_eq!(tr.segments()[0].to, Tick(3));

        // Different kind does not merge.
        tr.push_segment(i(0), Tick(3), Tick(4), SegKind::Blocked);
        assert_eq!(tr.segments().len(), 2);
    }

    #[test]
    fn zero_length_segments_dropped() {
        let mut tr = Trace::new();
        tr.push_segment(i(0), Tick(1), Tick(1), SegKind::Running);
        assert!(tr.segments().is_empty());
    }

    #[test]
    fn ceiling_samples_dedupe() {
        let mut tr = Trace::new();
        tr.push_ceiling(Tick(0), Ceiling::Dummy);
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(2)));
        tr.push_ceiling(Tick(2), Ceiling::At(Priority(2))); // same value
        tr.push_ceiling(Tick(3), Ceiling::Dummy);
        assert_eq!(tr.ceiling_samples().len(), 3);
        assert_eq!(tr.max_system_ceiling(), Ceiling::At(Priority(2)));
    }

    #[test]
    fn ceiling_same_tick_replaces() {
        let mut tr = Trace::new();
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(1)));
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(5)));
        assert_eq!(tr.ceiling_samples(), &[(Tick(1), Ceiling::At(Priority(5)))]);
    }

    #[test]
    fn trace_serializes_to_json() {
        let mut tr = Trace::new();
        let who = i(0);
        tr.push_event(TraceEvent::Arrive { at: Tick(0), who });
        tr.push_segment(who, Tick(0), Tick(2), SegKind::Running);
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(3)));
        let json = tr.to_json();
        assert!(json.contains("\"arrive\""), "{json}");
        assert!(json.contains("segments"));
        assert!(json.contains("ceiling_samples"));
        // Round-trippable enough to be consumed by jq etc.
        let v = Json::parse(&json).unwrap();
        assert!(v.get("events").unwrap().is_array());
        assert_eq!(
            v.get("ceiling_samples").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[1]
                .as_i64(),
            Some(3)
        );
    }

    #[test]
    fn blocked_time_sums_blocked_segments() {
        let mut tr = Trace::new();
        tr.push_segment(i(0), Tick(1), Tick(5), SegKind::Blocked);
        tr.push_segment(i(0), Tick(7), Tick(8), SegKind::Blocked);
        tr.push_segment(i(1), Tick(0), Tick(9), SegKind::Running);
        let bt = tr.blocked_time();
        assert_eq!(bt[&i(0)], 5);
        assert!(!bt.contains_key(&i(1)));
        assert_eq!(tr.end(), Tick(9));
    }
}
