//! "Allocation-free" as an assertion.
//!
//! The protocol state under a lock transition and a protocol decision —
//! lock table, ceiling index, static ceiling and read/write-set tables,
//! inheritance entries, kernel records — is flat and keeps its capacity,
//! so once every buffer has reached its working size a begin / decide /
//! grant / commit / release cycle must not touch the heap. This test
//! drives such cycles through a [`StateKernel`] under PCP-DA, RW-PCP and
//! 2PL-HP behind a counting global allocator and asserts exactly zero
//! allocations after a warm-up. So must the pairs of instances that
//! exercise the rest of the kernel's per-instance state: a 2PL-HP wound
//! and a Brook-2PL die, from the abort through the restart hold and its
//! release to the victim's commit; a Bamboo dirty read, through the
//! reader's commit gate and its drain, and a Bamboo cascade; and a PCP-DA
//! read granted over a live write holder.
//!
//! Every call goes through the kernel's entry points with one
//! [`Effects`] buffer reused from call to call, so the resolution policy
//! — the wound, the die, the abort on its cause, the commit gate, the
//! re-evaluations — is inside the count.
//!
//! A *denied*, *wounding* or *dying* request is inside the claim too: the
//! protocol's [`rtdb_core::Decision`] names the instances in its way in
//! place (up to four, [`rtdb_core::Holders`]). What is deliberately
//! outside it: a step that retires a write lock names it in a `Vec` —
//! the protocol's retire list, exactly that allocation left out of the
//! count (the released lock is an effect); and the history is the run's
//! output and grows by design — it is pre-sized here, and its unreserved
//! commit order is left out by logging no Commit event.
//!
//! The simulator itself is counted on Bamboo gate openings run through
//! [`Engine::run`], a pair and a two-deep chain: its output grows with the
//! run, but a gate opening — a commit nested inside the commit that opened
//! it — must not allocate, nor must the deadlock search a gate park runs
//! beside another waiter, so the run's count does not grow with the
//! openings.
//!
//! A whole simulated PCP-DA run is counted too, on a generated set of the
//! benchmark's shape at a horizon and at twice it: the engine's per-run
//! buffers are pre-sized from the set, so the longer run may allocate
//! more only by its lower-blocked instances' lists of lower blockers
//! (metrics, output like the history) and a few log doublings.
//!
//! The allocator needs `unsafe`; it is confined to this file (an
//! integration test is its own crate, the libraries stay
//! `#![forbid(unsafe_code)]`), and it counts only on the thread that asks,
//! so the test harness's own threads cannot disturb the count.

use rtdb_core::{
    AbortReason, CeilingFlavor, Decision, Effect, Effects, EngineView, GrantRule, LockRequest,
    ProtocolFor, Record, StateKernel, UpdateModel,
};
use rtdb_protocols::{Bamboo, Brook2Pl, PcpDa, RwPcp, TwoPlHp};
use rtdb_sim::{Engine, SimConfig, WorkloadParams};
use rtdb_storage::{EventKind, Workspace};
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionSet, TransactionTemplate,
    TxnId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so tests measuring side by side do not count each
    /// other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was promised; the counter on the side
// touches no allocator state (`const`-initialised thread-local `Cell`s,
// which do not allocate).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Run `f` counted on its own: its allocations are returned, not added
/// to an enclosing count.
fn counted_apart<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let counting = COUNTING.with(|c| c.replace(true));
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    let n = ALLOCATIONS.with(|a| a.replace(before)) - before;
    COUNTING.with(|c| c.set(counting));
    (r, n)
}

/// Add `n` allocations to the count, if it runs.
fn charge(n: u64) {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|a| a.set(a.get() + n));
    }
}

/// `P` with each non-empty retire list left out of the count: a retiring
/// step names the write locks it retires in a `Vec`, the protocol's own —
/// that one allocation and nothing more. Every decision is counted whole
/// (it names the instances in its way in place), and so is what the
/// kernel does with it or with a retire.
struct RetireLists<P>(P);

impl<V: EngineView + ?Sized, P: ProtocolFor<V>> ProtocolFor<V> for RetireLists<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        self.0.request(view, req)
    }
    fn early_releases(
        &mut self,
        view: &V,
        who: InstanceId,
        step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        self.0.early_releases(view, who, step)
    }
    fn retires(&mut self, view: &V, who: InstanceId, step: usize) -> Vec<ItemId> {
        let (retired, n) = counted_apart(|| self.0.retires(view, who, step));
        // The returned list's own allocation; anything more is counted.
        charge(n - u64::from(!retired.is_empty()));
        retired
    }
    fn update_model(&self) -> UpdateModel {
        self.0.update_model()
    }
    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        self.0.ceiling_flavor()
    }
    fn may_abort(&self) -> bool {
        self.0.may_abort()
    }
    fn commit_victims(&mut self, view: &V, who: InstanceId) -> Vec<InstanceId> {
        self.0.commit_victims(view, who)
    }
}

/// Cycles run before counting starts, and cycles counted.
const WARM_UP: u32 = 100;
const MEASURED: u32 = 1_000;

const A: ItemId = ItemId(0);
const B: ItemId = ItemId(1);
const C: ItemId = ItemId(2);
const D: ItemId = ItemId(3);
const F: ItemId = ItemId(4);
const HOT: ItemId = ItemId(5);
const E: ItemId = ItemId(6);

/// `H` and `M` cycle; `L` stands by holding a read lock on `HOT`, whose
/// write ceiling is `M`'s priority, and a write lock on `E`. Every
/// ceiling query of the cycling transactions therefore returns a real
/// ceiling with a holder: `H` clears it (LC2; RW-PCP's one rule), `M`
/// does not — RW-PCP would block it, so it sits that protocol out — and
/// PCP-DA grants it through LC3 and clause (C)'s slow path. No request
/// conflicts, so 2PL-HP grants throughout.
fn set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new(
            "H",
            100,
            vec![
                Step::read(A, 1),
                Step::write(B, 1),
                Step::read(C, 1),
                Step::write(A, 1),
            ],
        ))
        .with(TransactionTemplate::new(
            "M",
            100,
            vec![Step::read(D, 1), Step::write(F, 1), Step::write(HOT, 1)],
        ))
        .with(TransactionTemplate::new(
            "L",
            100,
            vec![Step::read(HOT, 1), Step::write(E, 1)],
        ))
        .build()
        .unwrap()
}

/// The rules the grants named, by [`GrantRule`] index.
type RulesSeen = [bool; 4];

/// One instance from begin to commit: every step but the last `skip`
/// acquires its lock (decide + grant + data operation, noting the rule
/// the grant names in `rules`) and reports the step done; then the
/// commit: the gate, the installs and the release of everything.
#[allow(clippy::too_many_arguments)]
fn run_instance<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    ws: &mut Workspace,
    fx: &mut Effects,
    who: InstanceId,
    skip: usize,
    clock: &mut u64,
    rules: &mut RulesSeen,
) {
    let mut tick = || {
        *clock += 1;
        Tick(*clock)
    };
    ws.reset(who);
    k.begin(who, None);
    let steps = &set.template(who.txn).steps;
    for (i, step) in steps[..steps.len() - skip].iter().enumerate() {
        let (item, mode) = step.op.access().expect("data step");
        assert!(k.request(protocol, who, i, item, mode, ws, &mut tick, fx));
        let req = LockRequest { who, item, mode };
        let [Effect::Granted(granted, rule)] = *fx.log() else {
            panic!("{who} step {i}: {fx:?}");
        };
        assert_eq!(granted, req);
        if let Some(rule) = rule {
            rules[rule as usize] = true;
        }
        k.step_done(protocol, who, i, ws, &mut tick, fx);
        assert!(fx.log().is_empty());
    }
    let record = commit(k, protocol, who, ws, fx, &mut tick);
    assert!(record.block_events == 0 && fx.log() == [Effect::Committed(who)]);
}

/// Allocations of `MEASURED` cycles after `WARM_UP`, with the rules
/// the grants named.
fn steady_state_allocations<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    protocol: &mut P,
    m_runs: bool,
) -> (u64, RulesSeen) {
    let mut k = StateKernel::new(set, protocol.ceiling_flavor());
    // Ten events an iteration at most (seven data operations, three
    // installs), on top of the bystander's.
    k.reserve_history(10 * (WARM_UP + MEASURED) as usize + 16);
    let mut clock = 0;
    let mut ws = Workspace::new(InstanceId::first(TxnId(0)));
    let mut ws_l = Workspace::new(InstanceId::first(TxnId(2)));
    let mut fx = Effects::default();
    let mut rules = RulesSeen::default();

    let l = InstanceId::first(TxnId(2));
    k.begin(l, None);
    for (i, (item, mode)) in [(HOT, LockMode::Read), (E, LockMode::Write)]
        .into_iter()
        .enumerate()
    {
        assert!(k.request(protocol, l, i, item, mode, &mut ws_l, || Tick(0), &mut fx));
        let req = LockRequest { who: l, item, mode };
        assert!(matches!(*fx.log(), [Effect::Granted(r, _)] if r == req));
    }

    let mut iteration = |k: &mut StateKernel<'a>, seq: u32| {
        let h = InstanceId::new(TxnId(0), seq);
        let m = InstanceId::new(TxnId(1), seq);
        let (ws, fx, clock, rules) = (&mut ws, &mut fx, &mut clock, &mut rules);
        run_instance(set, k, protocol, ws, fx, h, 0, clock, rules);
        if m_runs {
            // `M` stops short of its write of `HOT`, which `L` read-holds.
            run_instance(set, k, protocol, ws, fx, m, 1, clock, rules);
        }
    };
    for seq in 0..WARM_UP {
        iteration(&mut k, seq);
    }
    let n = allocations_in(|| {
        for seq in WARM_UP..WARM_UP + MEASURED {
            iteration(&mut k, seq);
        }
    });
    (n, rules)
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    // The counter itself works.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![0u8; 64]))),
        1
    );

    let set = set();
    let (pcpda, rules) = steady_state_allocations(&set, &mut RetireLists(PcpDa::new()), true);
    assert_eq!(pcpda, 0, "PCP-DA");
    // The cycles went where the comment on `set` says they go.
    for rule in [GrantRule::Lc1, GrantRule::Lc2, GrantRule::Lc3] {
        assert!(rules[rule as usize], "{rule:?}");
    }
    let rwpcp = steady_state_allocations(&set, &mut RetireLists(RwPcp::new()), false);
    assert_eq!(rwpcp, (0, RulesSeen::default()), "RW-PCP names no rules");
    let twoplhp = steady_state_allocations(&set, &mut RetireLists(TwoPlHp::new()), true);
    assert_eq!(twoplhp, (0, RulesSeen::default()), "2PL-HP names no rules");
}

const X: ItemId = ItemId(0);

/// The abort pairs' set: `H` outranks `L` and, arriving with the same
/// sequence number from the lower template index, is its senior. `L`'s
/// write of `X` conflicts with `H`'s read either way round.
fn pair_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new("H", 10, vec![Step::read(X, 1)]))
        .with(TransactionTemplate::new("L", 20, vec![Step::write(X, 1)]))
        .build_rate_monotonic()
        .unwrap()
}

/// Buffers one pair after another reuses: a workspace per template and
/// the effects buffer.
struct PairScratch {
    ws: [Workspace; 3],
    fx: Effects,
    clock: u64,
}

/// `who`'s request, granted; the rule the grant names.
#[allow(clippy::too_many_arguments)]
fn granted<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    who: InstanceId,
    step: usize,
    item: ItemId,
    mode: LockMode,
    ws: &mut Workspace,
    fx: &mut Effects,
    tick: &mut impl FnMut() -> Tick,
) -> Option<GrantRule> {
    assert!(k.request(protocol, who, step, item, mode, ws, &mut *tick, fx));
    let req = LockRequest { who, item, mode };
    let [Effect::Granted(granted, rule)] = *fx.log() else {
        panic!("{who} step {step}: {fx:?}");
    };
    assert_eq!(granted, req);
    rule
}

/// The one effect of an abort pair's aborting request: `victim`
/// aborted for `reason`, held on `cause`.
fn assert_aborted(fx: &Effects, victim: InstanceId, reason: AbortReason, cause: InstanceId) {
    let [Effect::Aborted(who, r, c)] = *fx.log() else {
        panic!("{fx:?}");
    };
    assert_eq!((who, r, fx.ids(c)), (victim, reason, &[cause][..]));
}

/// One abort pair: one of `H` and `L` takes `X` and the other's request
/// aborts `L` — a wound by `H` when `L` went first (`l_first`), a die of
/// `L` when `H` did — and `L` is held on `H`; `H` takes `X` if it has
/// not, commits and hands the released `L` back, which then takes `X`
/// and commits in turn. The aborting decision is counted too.
fn abort_pair<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    seq: u32,
    l_first: bool,
) {
    let PairScratch {
        ws: [ws_h, ws_l, _],
        fx,
        clock,
        ..
    } = x;
    let mut tick = || {
        *clock += 1;
        Tick(*clock)
    };
    let (h, l) = (
        InstanceId::new(TxnId(0), seq),
        InstanceId::new(TxnId(1), seq),
    );
    ws_h.reset(h);
    ws_l.reset(l);
    k.begin(h, None);
    k.begin(l, None);
    if l_first {
        granted(k, protocol, l, 0, X, LockMode::Write, ws_l, fx, &mut tick);
        assert!(!k.request(protocol, h, 0, X, LockMode::Read, ws_h, &mut tick, fx));
        assert_aborted(fx, l, AbortReason::Wound, h);
    } else {
        granted(k, protocol, h, 0, X, LockMode::Read, ws_h, fx, &mut tick);
        assert!(!k.request(protocol, l, 0, X, LockMode::Write, ws_l, &mut tick, fx));
        assert_aborted(fx, l, AbortReason::CeilingBlock, h);
    }
    assert!(k.held(l));

    if l_first {
        granted(k, protocol, h, 0, X, LockMode::Read, ws_h, fx, &mut tick);
    }
    commit(k, protocol, h, ws_h, fx, &mut tick);
    assert_eq!(
        fx.log()[1..],
        [Effect::HoldReleased(l)],
        "H's commit ends L's hold"
    );
    assert!(!k.held(l));

    ws_l.reset(l);
    granted(k, protocol, l, 0, X, LockMode::Write, ws_l, fx, &mut tick);
    let record = commit(k, protocol, l, ws_l, fx, &mut tick);
    assert!(record.restarts == 1 && fx.log() == [Effect::Committed(l)]);
}

/// A PCP-DA pair: `H` reads `X` while `L` holds its write lock on it —
/// the grant that sets PCP-DA apart from RW-PCP, which puts `H` on `L`'s
/// commit gate — and both commit, `H` first, whose commit opens the gate.
fn read_over_write_pair<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    seq: u32,
) {
    let PairScratch {
        ws: [ws_h, ws_l, _],
        fx,
        clock,
        ..
    } = x;
    let mut tick = || {
        *clock += 1;
        Tick(*clock)
    };
    let (h, l) = (
        InstanceId::new(TxnId(0), seq),
        InstanceId::new(TxnId(1), seq),
    );
    ws_h.reset(h);
    ws_l.reset(l);
    k.begin(l, None);
    k.begin(h, None);
    let lc1 = granted(k, protocol, l, 0, X, LockMode::Write, ws_l, fx, &mut tick);
    let lc2 = granted(k, protocol, h, 0, X, LockMode::Read, ws_h, fx, &mut tick);
    assert_eq!((lc1, lc2), (Some(GrantRule::Lc1), Some(GrantRule::Lc2)));
    assert!(k.locks().holds(l, X, LockMode::Write), "granted over L");
    assert!(k.gated(l), "L waits for H to leave");
    commit(k, protocol, h, ws_h, fx, &mut tick);
    assert_eq!(
        fx.log()[1..],
        [Effect::GateOpened(l)],
        "H's commit opens L's gate"
    );
    commit(k, protocol, l, ws_l, fx, &mut tick);
    assert_eq!(fx.log(), [Effect::Committed(l)]);
}

const Y: ItemId = ItemId(1);

/// The Bamboo pairs' set: `W` writes `X` — and retires it, its last
/// access — then `Y`; `R` reads `X`; `H` reads `Y`, outranking `W`.
fn bamboo_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new("H", 10, vec![Step::read(Y, 1)]))
        .with(TransactionTemplate::new("R", 20, vec![Step::read(X, 1)]))
        .with(TransactionTemplate::new(
            "W",
            30,
            vec![Step::write(X, 1), Step::write(Y, 1)],
        ))
        .build_rate_monotonic()
        .unwrap()
}

/// `W` takes `X`, retires it and `R` reads `W`'s dirty value, gated on
/// `W`. The retiring step allocates the protocol's retire list and
/// nothing else.
fn retire_and_read_dirty<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    [r, w]: [InstanceId; 2],
    tick: &mut impl FnMut() -> Tick,
) {
    let PairScratch {
        ws: [_, ws_r, ws_w],
        fx,
        ..
    } = x;
    ws_r.reset(r);
    ws_w.reset(w);
    k.begin(w, None);
    k.begin(r, None);
    granted(k, protocol, w, 0, X, LockMode::Write, ws_w, fx, tick);
    k.step_done(protocol, w, 0, ws_w, &mut *tick, fx);
    assert_eq!(fx.log(), [Effect::Released(w, X, LockMode::Write)]);
    granted(k, protocol, r, 0, X, LockMode::Read, ws_r, fx, tick);
    let dirty = ws_w.staged_value(X).unwrap();
    let read = k.history().events().last().map(|e| (e.instance, e.kind));
    assert!(
        matches!(read, Some((who, EventKind::Read { value, .. })) if who == r && value == dirty)
    );
    assert!(k.gated(r));
    granted(k, protocol, w, 1, Y, LockMode::Write, ws_w, fx, tick);
}

/// A Bamboo dirty-read pair: `R` reads `W`'s retired write and parks at
/// its commit gate; `W` commits, which opens the gate, and `R` commits.
fn dirty_read_pair<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    seq: u32,
) {
    let mut clock = x.clock;
    let mut tick = || {
        clock += 1;
        Tick(clock)
    };
    let (r, w) = (
        InstanceId::new(TxnId(1), seq),
        InstanceId::new(TxnId(2), seq),
    );
    retire_and_read_dirty(k, protocol, x, [r, w], &mut tick);
    let PairScratch {
        ws: [_, ws_r, ws_w],
        fx,
        ..
    } = x;
    let at = tick();
    let parked = k.commit(protocol, r, ws_r, false, None, &mut tick, || at, fx);
    assert!(parked.is_none(), "R parks at the gate");
    assert!(matches!(*fx.log(), [Effect::Gated(who, gate)] if who == r && fx.ids(gate) == [w]));
    commit(k, protocol, w, ws_w, fx, &mut tick);
    assert_eq!(
        fx.log()[1..],
        [Effect::GateOpened(r)],
        "W's commit opens R's gate"
    );
    let record = commit(k, protocol, r, ws_r, fx, &mut tick);
    assert!(record.restarts == 0 && fx.log() == [Effect::Committed(r)]);
    x.clock = clock;
}

/// A Bamboo cascade pair: `R` reads `W`'s retired write, `H` wounds `W`
/// over `Y` and `R` cascades; both are held on `H`, whose commit hands
/// them back, and both rerun clean and commit. The wounding decision is
/// counted too.
fn cascade_pair<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    seq: u32,
) {
    let mut clock = x.clock;
    let mut tick = || {
        clock += 1;
        Tick(clock)
    };
    let (h, r, w) = (
        InstanceId::new(TxnId(0), seq),
        InstanceId::new(TxnId(1), seq),
        InstanceId::new(TxnId(2), seq),
    );
    retire_and_read_dirty(k, protocol, x, [r, w], &mut tick);
    let PairScratch {
        ws: [ws_h, ws_r, ws_w],
        fx,
        ..
    } = x;
    ws_h.reset(h);
    k.begin(h, None);
    assert!(!k.request(protocol, h, 0, Y, LockMode::Read, ws_h, &mut tick, fx));
    let [Effect::Aborted(w1, AbortReason::Wound, cause), Effect::Aborted(r1, AbortReason::Cascade, ..)] =
        *fx.log()
    else {
        panic!("{fx:?}");
    };
    assert!((w1, r1) == (w, r) && fx.ids(cause) == [h]);
    assert!(!k.gated(r));
    assert!(k.held(w) && k.held(r));

    granted(k, protocol, h, 0, Y, LockMode::Read, ws_h, fx, &mut tick);
    commit(k, protocol, h, ws_h, fx, &mut tick);
    assert_eq!(
        fx.log()[1..],
        [Effect::HoldReleased(r), Effect::HoldReleased(w)],
        "H's commit ends both holds"
    );

    // W reruns and commits before R reruns: R outranks W, and its read
    // of X would wound a W holding the write lock.
    ws_w.reset(w);
    for (i, item) in [X, Y].into_iter().enumerate() {
        granted(
            k,
            protocol,
            w,
            i,
            item,
            LockMode::Write,
            ws_w,
            fx,
            &mut tick,
        );
    }
    let record = commit(k, protocol, w, ws_w, fx, &mut tick);
    assert!(record.restarts == 1 && fx.log() == [Effect::Committed(w)]);
    ws_r.reset(r);
    granted(k, protocol, r, 0, X, LockMode::Read, ws_r, fx, &mut tick);
    let record = commit(k, protocol, r, ws_r, fx, &mut tick);
    assert!(record.restarts == 1 && fx.log() == [Effect::Committed(r)]);
    x.clock = clock;
}

/// `who` passes its open gate, invalidates nobody and commits; `fx`
/// receives what that did.
fn commit<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    who: InstanceId,
    ws: &Workspace,
    fx: &mut Effects,
    tick: &mut impl FnMut() -> Tick,
) -> Record {
    let at = tick();
    let record = k.commit(protocol, who, ws, false, None, &mut *tick, || at, fx);
    assert_eq!(
        fx.log().first(),
        Some(&Effect::Committed(who)),
        "no victims"
    );
    record.expect("the gate is open")
}

/// Allocations of `MEASURED` pairs run by `pair` after `WARM_UP`, each
/// logging at most `events` history events.
fn pair_allocations<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    protocol: &mut P,
    events: usize,
    mut pair: impl FnMut(&mut StateKernel<'a>, &mut P, &mut PairScratch, u32),
) -> u64 {
    let mut k = StateKernel::new(set, protocol.ceiling_flavor());
    k.reserve_history(events * (WARM_UP + MEASURED) as usize);
    let mut x = PairScratch {
        ws: std::array::from_fn(|t| Workspace::new(InstanceId::first(TxnId(t as u32)))),
        fx: Effects::default(),
        clock: 0,
    };
    for seq in 0..WARM_UP {
        pair(&mut k, protocol, &mut x, seq);
    }
    allocations_in(|| {
        for seq in WARM_UP..WARM_UP + MEASURED {
            pair(&mut k, protocol, &mut x, seq);
        }
    })
}

#[test]
fn abort_pairs_do_not_allocate() {
    let set = pair_set();
    // Six events a pair at most: three data operations, `L`'s install,
    // an Abort and a Begin.
    let wound = pair_allocations(&set, &mut RetireLists(TwoPlHp::new()), 6, |k, p, x, seq| {
        abort_pair(k, p, x, seq, true)
    });
    assert_eq!(wound, 0, "2PL-HP wound pair");
    let die = pair_allocations(
        &set,
        &mut RetireLists(Brook2Pl::new()),
        6,
        |k, p, x, seq| abort_pair(k, p, x, seq, false),
    );
    assert_eq!(die, 0, "Brook-2PL die pair");
}

#[test]
fn bamboo_gate_pairs_do_not_allocate() {
    let set = bamboo_set();
    // Five events: three data operations and `W`'s two installs.
    let dirty = pair_allocations(&set, &mut RetireLists(Bamboo::new()), 5, dirty_read_pair);
    assert_eq!(dirty, 0, "Bamboo dirty-read pair");
    // Thirteen: three data operations, two Abort/Begin pairs, `H`'s read,
    // the reruns' three data operations and `W`'s two installs.
    let cascade = pair_allocations(&set, &mut RetireLists(Bamboo::new()), 13, cascade_pair);
    assert_eq!(cascade, 0, "Bamboo cascade pair");
}

#[test]
fn a_pcpda_read_over_a_write_holder_does_not_allocate() {
    let set = pair_set();
    let n = pair_allocations(
        &set,
        &mut RetireLists(PcpDa::new()),
        3,
        read_over_write_pair,
    );
    assert_eq!(n, 0, "PCP-DA read-over-write pair");
}

/// Ticks between the releases of one gate pair and the next.
const GATE_PERIOD: u64 = 10;

/// One Bamboo gate opening a period: `W` writes `X`, retires it and
/// computes; `R`, of higher priority and released a tick later, reads
/// `X` dirty, reaches its commit first and parks at its gate on `W`, and
/// `W`'s commit opens it — so `R` commits inside `W`'s commit.
fn gate_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new("R", GATE_PERIOD, vec![Step::read(X, 1)]).with_offset(1))
        .with(TransactionTemplate::new(
            "W",
            GATE_PERIOD,
            vec![Step::write(X, 1), Step::compute(5)],
        ))
        .build()
        .unwrap()
}

/// Ticks between the releases of one chain and the next.
const CHAIN_PERIOD: u64 = 20;

/// A Bamboo chain a period, two openings deep: `W` writes `X`, retires
/// it and computes; `R1` reads `X` dirty, writes `Y`, retires it and
/// computes; `R2`, the top priority, reads `Y` dirty. `R2` parks at its
/// gate on `R1`, then `R1` at its gate on `W` — two instances waiting,
/// so a deadlock search runs — and `W`'s commit opens `R1`'s gate, whose
/// commit opens `R2`'s.
fn chain_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new("R2", CHAIN_PERIOD, vec![Step::read(Y, 1)]).with_offset(3))
        .with(
            TransactionTemplate::new(
                "R1",
                CHAIN_PERIOD,
                vec![Step::read(X, 1), Step::write(Y, 1), Step::compute(2)],
            )
            .with_offset(1),
        )
        .with(TransactionTemplate::new(
            "W",
            CHAIN_PERIOD,
            vec![Step::write(X, 1), Step::compute(8)],
        ))
        .build()
        .unwrap()
}

#[test]
fn a_simulated_gate_chain_allocates_nothing_per_opening() {
    // The allocations of a run of `periods` periods of `set` under Bamboo,
    // and its openings.
    let run = |set: &TransactionSet, period: u64, periods: u64| {
        let engine = Engine::new(set, SimConfig::with_horizon(periods * period));
        let mut protocol = RetireLists(Bamboo::new());
        let mut opened = 0;
        let n = allocations_in(|| {
            let run = engine.run(&mut protocol).unwrap();
            let events = run.trace.events();
            // Each opening commits its instance at once, inside the
            // commit that opened it.
            for (i, &(at, e)) in events.iter().enumerate() {
                if let Effect::GateOpened(who) = e {
                    assert_eq!(events[i + 1], (at, Effect::Committed(who)));
                    opened += 1;
                }
            }
        });
        (opened, n)
    };
    // The gate pair, one opening a period, and the chain, two.
    for (set, period, periods, depth) in [
        (gate_set(), GATE_PERIOD, 256, 1),
        (chain_set(), CHAIN_PERIOD, 128, 2),
    ] {
        let (short, long) = (run(&set, period, periods), run(&set, period, 2 * periods));
        assert_eq!(
            (short.0, long.0),
            (depth * periods, 2 * depth * periods),
            "{depth} openings a period"
        );
        // Doubling the run may add a reallocation to each run-long log
        // that outgrows its reserve (the trace's segments and span ids),
        // never one per opening or per deadlock search.
        assert!(long.1 - short.1 <= 4, "{short:?} -> {long:?}");
    }
}

/// `P`, counting its denials.
struct Denials<P> {
    protocol: P,
    denied: u64,
}

impl<V: EngineView + ?Sized, P: ProtocolFor<V>> ProtocolFor<V> for Denials<P> {
    fn name(&self) -> &'static str {
        self.protocol.name()
    }
    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let decision = self.protocol.request(view, req);
        if matches!(decision, Decision::Block { .. }) {
            self.denied += 1;
        }
        decision
    }
    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        self.protocol.system_ceiling(view)
    }
    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        self.protocol.ceiling_flavor()
    }
}

#[test]
fn a_simulated_pcpda_run_allocates_only_per_lower_blocked_instance() {
    // The benchmark's set shape: six templates over sixteen items.
    let set = WorkloadParams {
        templates: 6,
        items: 16,
        target_utilization: 0.6,
        hotspot_items: 3,
        hotspot_prob: 0.5,
        write_fraction: 0.4,
        seed: 7,
        ..WorkloadParams::default()
    }
    .generate()
    .unwrap()
    .set;
    // A run's allocations, its denials and its instances a lower one
    // blocked.
    let run = |horizon: u64| {
        let engine = Engine::new(&set, SimConfig::with_horizon(horizon));
        let mut protocol = Denials {
            protocol: PcpDa::new(),
            denied: 0,
        };
        let mut blocked_by_lower = 0;
        let n = allocations_in(|| {
            let run = engine.run(&mut protocol).unwrap();
            blocked_by_lower = run
                .metrics
                .instances()
                .filter(|m| !m.distinct_lower_blockers.is_empty())
                .count() as u64;
        });
        (n, protocol.denied, blocked_by_lower)
    };
    const HORIZON: u64 = 5_000;
    let (short, long) = (run(HORIZON), run(2 * HORIZON));
    assert!(
        long.1 > short.1,
        "the set must block: {short:?} -> {long:?}"
    );
    // Doubling the run adds one list of lower blockers per instance a
    // lower one blocked (the metrics keep it, so it is output, like the
    // history), and may add a reallocation to each run-long log that
    // outgrows its reserve. A denial names its blockers in place.
    let allowed = (long.2 - short.2) + 8;
    assert!(
        long.0 - short.0 <= allowed,
        "(allocations, denials, blocked by a lower instance): {short:?} -> {long:?}"
    );
}
