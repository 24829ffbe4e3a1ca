//! Execution traces: what ran when, and every scheduling-relevant event.
//!
//! The trace is the raw material for the Gantt renderer ([`crate::gantt`])
//! and for the figure-reproduction assertions: the paper's Figures 1–5 are
//! statements about exactly these segments and events. An event is one
//! kernel [`Effect`] as the engine applied it, stamped with the tick it
//! was applied at — grants, parks, early releases, aborts, wakes, gates,
//! cycles, commits — or one of the engine's own (an arrival, a deadline
//! miss, a stall), in the same vocabulary. The instances an event names
//! through a [`Span`] are copied into the trace's one buffer
//! ([`Trace::ids`]).

use rtdb_core::{Effect, Effects, Span};
use rtdb_types::{Ceiling, InstanceId, LockMode, Tick};
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

fn inst_json(who: InstanceId) -> Json {
    Json::obj().set("txn", who.txn.0).set("seq", who.seq)
}

fn list_json(ids: &[InstanceId]) -> Json {
    Json::Arr(ids.iter().map(|&b| inst_json(b)).collect())
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

/// One event as a tagged JSON object; `ids` is the buffer its span
/// indexes. The shape is documented on [`Trace::json`].
fn event_json(at: Tick, effect: Effect, ids: &[InstanceId]) -> Json {
    use Effect as E;
    let (kind, who, lock, reason, span) = match effect {
        E::Granted(r, _) => ("granted", r.who, Some((r.item, r.mode)), None, None),
        E::Parked(r, on) => (
            "parked",
            r.who,
            Some((r.item, r.mode)),
            None,
            Some(("on", on)),
        ),
        E::Gated(who, on) => ("gated", who, None, None, Some(("on", on))),
        E::Released(who, item, mode) => ("released", who, Some((item, mode)), None, None),
        E::Aborted(who, why, cause) => ("aborted", who, None, Some(why), Some(("cause", cause))),
        E::Foreign(who, why, cause) => ("foreign", who, None, Some(why), Some(("cause", cause))),
        E::Woken(who) => ("woken", who, None, None, None),
        E::GateOpened(who) => ("gate_opened", who, None, None, None),
        E::HoldReleased(who) => ("hold_released", who, None, None, None),
        E::Cycle(cycle, victim) => ("cycle", victim, None, None, Some(("cycle", cycle))),
        E::Committed(who) => ("committed", who, None, None, None),
        E::Arrived(who) => ("arrived", who, None, None, None),
        E::DeadlineMissed(who) => ("deadline_missed", who, None, None, None),
        E::Stalled(live) => {
            let obj = Json::obj().set("kind", "stalled").set("at", at.raw());
            return obj.set("live", list_json(live.of(ids)));
        }
    };
    let mut obj = Json::obj()
        .set("kind", kind)
        .set("at", at.raw())
        .set("who", inst_json(who));
    if let Some((item, mode)) = lock {
        obj = obj.set("item", item.0).set("mode", mode_json(mode));
    }
    if let E::Granted(_, Some(rule)) = effect {
        obj = obj.set("rule", format!("{rule:?}").as_str());
    }
    if let Some(reason) = reason {
        obj = obj.set("reason", format!("{reason:?}").as_str());
    }
    match span {
        Some((key, span)) => obj.set(key, list_json(span.of(ids))),
        None => obj,
    }
}

/// The complete trace of one run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    segments: Vec<Segment>,
    /// Every event, in the order the engine applied it.
    events: Vec<(Tick, Effect)>,
    /// The instances the events' spans name.
    ids: Vec<InstanceId>,
    /// `(tick, ceiling)` samples of the global system ceiling, recorded
    /// after every change — the paper's `Max_Sysceil` dotted line.
    ceiling_samples: Vec<(Tick, Ceiling)>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the segment, event and ceiling-sample logs, so
    /// steady-state runs append without reallocating.
    pub fn reserve(&mut self, segments: usize, events: usize, ceiling_samples: usize) {
        self.segments.reserve(segments);
        self.events.reserve(events);
        self.ceiling_samples.reserve(ceiling_samples);
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

    /// Record `effect` at `at`, copying the instances its span names out
    /// of `from`, the buffer it was made in.
    #[inline]
    pub fn push(&mut self, at: Tick, effect: Effect, from: &Effects) {
        let effect = effect.copied(from, &mut self.ids);
        self.events.push((at, effect));
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

    /// All events, in the order the engine applied them.
    pub fn events(&self) -> &[(Tick, Effect)] {
        &self.events
    }

    /// The instances an event's `span` names.
    pub fn ids(&self, span: Span) -> &[InstanceId] {
        span.of(&self.ids)
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

    /// The trace as a JSON value, the shape `rtdbsim --trace` writes:
    ///
    /// ```text
    /// {"segments": [{"who": {"txn": 0, "seq": 0}, "from": 0, "to": 2, "kind": "running"|"blocked"}, ...],
    ///  "events": [{"kind": "arrived", "at": 0, "who": {"txn": 0, "seq": 0}}, ...],
    ///  "ceiling_samples": [[0, null], [1, 3], ...]}
    /// ```
    ///
    /// Each event is one [`Effect`], tagged by `kind` in snake_case, with
    /// `at` and these fields:
    /// - `granted`, `released`: `who`, `item`, `mode` (`"read"`/`"write"`);
    ///   a grant by a protocol that names its rules (PCP-DA) also `rule`,
    ///   the locking condition (`"Lc1"` … `"Lc4"`);
    /// - `parked`: the same and `on`, the blockers;
    /// - `gated`: `who` and `on`, the commit gate's entries;
    /// - `aborted`, `foreign`: `who`, `reason` (`"Wound"`, `"Cascade"`,
    ///   `"DeadlockVictim"`, `"CeilingBlock"`) and `cause`;
    /// - `cycle`: `cycle` and `who`, its victim; `stalled`: `live`;
    /// - `woken`, `gate_opened`, `hold_released`, `committed`, `arrived`,
    ///   `deadline_missed`: `who`.
    ///
    /// A ceiling sample is `[tick, level]`, `null` for the dummy ceiling.
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
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|&(at, e)| event_json(at, e, &self.ids))
            .collect();
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
        let ev_end = self.events.iter().map(|&(at, _)| at).max();
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
    use rtdb_core::{AbortReason, GrantRule, LockRequest};
    use rtdb_types::{ItemId, Priority, TxnId};

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
        tr.push(Tick(0), Effect::Arrived(who), &Effects::default());
        tr.push_segment(who, Tick(0), Tick(2), SegKind::Running);
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(3)));
        let json = tr.to_json();
        assert!(json.contains("\"arrived\""), "{json}");
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

    /// A span is copied out of the buffer it was made in, which the
    /// kernel clears and reuses, into the trace's own.
    #[test]
    fn an_event_keeps_the_instances_it_names() {
        let mut tr = Trace::new();
        let mut fx = Effects::default();
        let req = LockRequest {
            who: i(0),
            item: ItemId(4),
            mode: LockMode::Write,
        };
        let on = fx.span(&[i(1), i(2)]);
        tr.push(Tick(3), Effect::Parked(req, on), &fx);
        fx.clear();
        let cause = fx.span(&[i(0)]);
        tr.push(
            Tick(5),
            Effect::Aborted(i(1), AbortReason::Wound, cause),
            &fx,
        );
        let [(Tick(3), Effect::Parked(_, on)), (Tick(5), Effect::Aborted(.., cause))] =
            *tr.events()
        else {
            panic!("{:?}", tr.events());
        };
        assert_eq!(
            (tr.ids(on), tr.ids(cause)),
            (&[i(1), i(2)][..], &[i(0)][..])
        );
        let events = tr.json();
        let events = events.get("events").unwrap().as_array().unwrap();
        assert_eq!(
            events[0].to_string(),
            r#"{"kind":"parked","at":3,"who":{"txn":0,"seq":0},"item":4,"mode":"write","on":[{"txn":1,"seq":0},{"txn":2,"seq":0}]}"#
        );
        assert_eq!(
            events[1].to_string(),
            r#"{"kind":"aborted","at":5,"who":{"txn":1,"seq":0},"reason":"Wound","cause":[{"txn":0,"seq":0}]}"#
        );
    }

    /// A grant by a protocol that names its rules carries the rule in
    /// the JSON; one by a protocol that does not has no `rule`.
    #[test]
    fn a_grant_names_its_rule() {
        let mut tr = Trace::new();
        let fx = Effects::default();
        let req = LockRequest {
            who: i(0),
            item: ItemId(1),
            mode: LockMode::Read,
        };
        tr.push(Tick(2), Effect::Granted(req, Some(GrantRule::Lc4)), &fx);
        tr.push(Tick(3), Effect::Granted(req, None), &fx);
        let events = tr.json();
        let events = events.get("events").unwrap().as_array().unwrap();
        assert_eq!(
            events[0].to_string(),
            r#"{"kind":"granted","at":2,"who":{"txn":0,"seq":0},"item":1,"mode":"read","rule":"Lc4"}"#
        );
        assert_eq!(
            events[1].to_string(),
            r#"{"kind":"granted","at":3,"who":{"txn":0,"seq":0},"item":1,"mode":"read"}"#
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
