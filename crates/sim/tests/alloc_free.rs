//! "Allocation-free" as an assertion.
//!
//! The protocol state under a lock transition and a protocol decision —
//! lock table, ceiling index, static ceiling and read/write-set tables,
//! inheritance entries, kernel records — is flat and keeps its capacity,
//! so once every buffer has reached its working size a begin / decide /
//! grant / commit / release cycle must not touch the heap. This test
//! drives such cycles through a [`StateKernel`] under PCP-DA, RW-PCP and
//! 2PL-HP behind a counting global allocator and asserts exactly zero
//! allocations after a warm-up.
//!
//! What is deliberately outside the claim: a *denied* request names its
//! blockers in a `Vec` ([`rtdb_core::Decision::Block`]), and the history
//! is the run's output and grows by design — it is pre-sized here, and
//! its unreserved commit order is left out by logging no Commit event.
//!
//! The allocator needs `unsafe`; it is confined to this file (an
//! integration test is its own crate, the libraries stay
//! `#![forbid(unsafe_code)]`), and it counts only on the thread that asks,
//! so the test harness's own threads cannot disturb the count.

use rtdb_baselines::{RwPcp, TwoPlHp};
use rtdb_cc::{GrantRule, PcpDa};
use rtdb_core::{Acquire, ProtocolFor, StateKernel};
use rtdb_storage::Workspace;
use rtdb_types::{
    InstanceId, ItemId, LockMode, SetBuilder, Step, Tick, TransactionSet, TransactionTemplate,
    TxnId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was promised; the counter on the side
// touches no allocator state (a `const`-initialised thread-local `Cell`
// and an atomic, neither of which allocates).
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

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
    let (record, drained) = k.finish_commit(who);
    assert!(record.block_events == 0 && drained.is_empty());
    assert!(k.reevaluate(protocol).is_empty());
}

fn steady_state_allocations<'a, P: ProtocolFor<StateKernel<'a>>>(
    set: &'a TransactionSet,
    protocol: &mut P,
    m_runs: bool,
) -> u64 {
    const WARM_UP: u32 = 100;
    const MEASURED: u32 = 1_000;
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
