//! "Allocation-free" as an assertion.
//!
//! The protocol state under a lock transition and a protocol decision —
//! lock table, ceiling index, static ceiling and read/write-set tables,
//! inheritance entries, kernel records — is flat and keeps its capacity,
//! so once every buffer has reached its working size a begin / decide /
//! grant / commit / release cycle must not touch the heap. This test
//! drives such cycles through a [`StateKernel`] under PCP-DA, RW-PCP and
//! 2PL-HP behind a counting global allocator and asserts exactly zero
//! allocations after a warm-up. So must an abort pair — a 2PL-HP wound
//! and a Brook-2PL die — from the abort through the restart hold and its
//! release to the victim's commit.
//!
//! What is deliberately outside the claim: a *denied*, *wounding* or
//! *dying* request names the instances in its way in a `Vec` (the
//! protocol's [`rtdb_core::Decision`]), and the history is the run's
//! output and grows by design — it is pre-sized here, and its unreserved
//! commit order is left out by logging no Commit event.
//!
//! The allocator needs `unsafe`; it is confined to this file (an
//! integration test is its own crate, the libraries stay
//! `#![forbid(unsafe_code)]`), and it counts only on the thread that asks,
//! so the test harness's own threads cannot disturb the count.

use rtdb_baselines::{RwPcp, TwoPlHp};
use rtdb_cc::{GrantRule, PcpDa};
use rtdb_contention::Brook2Pl;
use rtdb_core::{AbortReason, Aborts, Acquire, ProtocolFor, StateKernel};
use rtdb_storage::Workspace;
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

/// Run `f` with the count paused: what it allocates is outside the claim.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let counting = COUNTING.with(|c| c.replace(false));
    let r = f();
    COUNTING.with(|c| c.set(counting));
    r
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

/// One instance from begin to commit: every step but the last `skip`
/// acquires its lock (decide + grant + data operation) and reports the
/// step done; then the gate, the installs and the release of everything.
fn run_instance<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    ws: &mut Workspace,
    who: InstanceId,
    skip: usize,
    clock: &mut u64,
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
        let got = k.acquire(protocol, who, i, item, mode, ws, &mut tick);
        assert_eq!(got, Acquire::Done { granted: true }, "{who} step {i}");
        let done = k.step_done(protocol, who, i, ws, &mut tick);
        assert!(done.released.is_empty() && done.woken.is_empty());
    }
    assert!(!k.gate(who));
    assert!(k.commit_victims(protocol, who).is_empty());
    k.install(who, ws, tick(), false, None);
    let mut drained = Vec::new();
    let record = k.finish_commit(who, &mut drained);
    assert!(record.block_events == 0 && drained.is_empty());
    assert!(k.reevaluate(protocol).is_empty());
}

fn steady_state_allocations<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    protocol: &mut P,
    m_runs: bool,
) -> u64 {
    let mut k = StateKernel::new(set, protocol.ceiling_flavor());
    // Ten events an iteration at most (seven data operations, three
    // installs), on top of the bystander's.
    k.reserve_history(10 * (WARM_UP + MEASURED) as usize + 16);
    let mut clock = 0;
    let mut ws = Workspace::new(InstanceId::first(TxnId(0)));
    let mut ws_l = Workspace::new(InstanceId::first(TxnId(2)));

    let l = InstanceId::first(TxnId(2));
    k.begin(l, None);
    for (i, (item, mode)) in [(HOT, LockMode::Read), (E, LockMode::Write)]
        .into_iter()
        .enumerate()
    {
        let got = k.acquire(protocol, l, i, item, mode, &mut ws_l, || Tick(0));
        assert_eq!(got, Acquire::Done { granted: true });
    }

    let mut iteration = |k: &mut StateKernel<'a>, seq: u32| {
        let h = InstanceId::new(TxnId(0), seq);
        let m = InstanceId::new(TxnId(1), seq);
        run_instance(set, k, protocol, &mut ws, h, 0, &mut clock);
        if m_runs {
            // `M` stops short of its write of `HOT`, which `L` read-holds.
            run_instance(set, k, protocol, &mut ws, m, 1, &mut clock);
        }
    };
    for seq in 0..WARM_UP {
        iteration(&mut k, seq);
    }
    allocations_in(|| {
        for seq in WARM_UP..WARM_UP + MEASURED {
            iteration(&mut k, seq);
        }
    })
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    // The counter itself works.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![0u8; 64]))),
        1
    );

    let set = set();
    let mut pcpda = PcpDa::new();
    assert_eq!(
        steady_state_allocations(&set, &mut pcpda, true),
        0,
        "PCP-DA"
    );
    // The cycles went where the comment on `set` says they go.
    for rule in [GrantRule::Lc1, GrantRule::Lc2, GrantRule::Lc3] {
        assert!(
            pcpda.grant_log().iter().any(|&(_, r)| r == rule),
            "{rule:?}"
        );
    }
    assert_eq!(pcpda.grant_log().len(), PcpDa::GRANT_LOG_CAPACITY);
    let rwpcp = steady_state_allocations(&set, &mut RwPcp::new(), false);
    assert_eq!(rwpcp, 0, "RW-PCP");
    let twoplhp = steady_state_allocations(&set, &mut TwoPlHp::new(), true);
    assert_eq!(twoplhp, 0, "2PL-HP");
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

/// Buffers one abort pair after another reuses.
struct PairScratch {
    ws_h: Workspace,
    ws_l: Workspace,
    fx: Aborts,
    proceed: Vec<InstanceId>,
    clock: u64,
}

/// One abort pair: one of `H` and `L` takes `X` and the other's request
/// aborts `L` — a wound by `H` when `L` went first (`l_first`), a die of
/// `L` when `H` did — and `L` is held on `H`; `H` takes `X` if it has
/// not, commits and hands the released `L` back, which then takes `X`
/// and commits in turn. Only the aborting decision is uncounted.
fn abort_pair<'a, P: ProtocolFor<StateKernel<'a>>>(
    k: &mut StateKernel<'a>,
    protocol: &mut P,
    x: &mut PairScratch,
    seq: u32,
    l_first: bool,
) {
    let PairScratch {
        ws_h,
        ws_l,
        fx,
        proceed,
        clock,
    } = x;
    let mut tick = || {
        *clock += 1;
        Tick(*clock)
    };
    let (h, l) = (
        InstanceId::new(TxnId(0), seq),
        InstanceId::new(TxnId(1), seq),
    );
    let granted = Acquire::Done { granted: true };
    ws_h.reset(h);
    ws_l.reset(l);
    k.begin(h, None);
    k.begin(l, None);
    let reason = if l_first {
        assert_eq!(
            k.acquire(protocol, l, 0, X, LockMode::Write, ws_l, &mut tick),
            granted
        );
        let got = uncounted(|| k.acquire(protocol, h, 0, X, LockMode::Read, ws_h, &mut tick));
        assert!(
            matches!(&got, Acquire::Wound { victims } if victims[..] == [l]),
            "{got:?}"
        );
        AbortReason::Wound
    } else {
        assert_eq!(
            k.acquire(protocol, h, 0, X, LockMode::Read, ws_h, &mut tick),
            granted
        );
        let got = uncounted(|| k.acquire(protocol, l, 0, X, LockMode::Write, ws_l, &mut tick));
        assert!(
            matches!(&got, Acquire::Die { blockers } if blockers[..] == [h]),
            "{got:?}"
        );
        AbortReason::CeilingBlock
    };
    k.abort(protocol, l, reason, &mut tick, fx);
    assert!(fx.aborted[..] == [(l, reason)] && fx.released.is_empty());
    assert!(k.reevaluate(protocol).is_empty());
    k.hold(l, &[h]);
    assert!(k.held(l));

    if l_first {
        assert_eq!(
            k.acquire(protocol, h, 0, X, LockMode::Read, ws_h, &mut tick),
            granted
        );
    }
    assert!(!k.gate(h) && k.commit_victims(protocol, h).is_empty());
    k.install(h, ws_h, tick(), false, None);
    k.finish_commit(h, proceed);
    assert!(proceed[..] == [l] && !k.held(l), "H's commit ends L's hold");
    assert!(k.reevaluate(protocol).is_empty());

    ws_l.reset(l);
    assert_eq!(
        k.acquire(protocol, l, 0, X, LockMode::Write, ws_l, &mut tick),
        granted
    );
    assert!(!k.gate(l) && k.commit_victims(protocol, l).is_empty());
    k.install(l, ws_l, tick(), false, None);
    let record = k.finish_commit(l, proceed);
    assert!(record.restarts == 1 && proceed.is_empty());
}

fn abort_pair_allocations<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    protocol: &mut P,
    l_first: bool,
) -> u64 {
    let mut k = StateKernel::new(set, protocol.ceiling_flavor());
    // Six events a pair at most: three data operations, `L`'s install,
    // an Abort and a Begin.
    k.reserve_history(6 * (WARM_UP + MEASURED) as usize);
    let mut x = PairScratch {
        ws_h: Workspace::new(InstanceId::first(TxnId(0))),
        ws_l: Workspace::new(InstanceId::first(TxnId(1))),
        fx: Aborts::default(),
        proceed: Vec::new(),
        clock: 0,
    };
    for seq in 0..WARM_UP {
        abort_pair(&mut k, protocol, &mut x, seq, l_first);
    }
    allocations_in(|| {
        for seq in WARM_UP..WARM_UP + MEASURED {
            abort_pair(&mut k, protocol, &mut x, seq, l_first);
        }
    })
}

#[test]
fn abort_pairs_do_not_allocate() {
    let set = pair_set();
    let wound = abort_pair_allocations(&set, &mut TwoPlHp::new(), true);
    assert_eq!(wound, 0, "2PL-HP wound pair");
    let die = abort_pair_allocations(&set, &mut Brook2Pl::new(), false);
    assert_eq!(die, 0, "Brook-2PL die pair");
}
