//! Isolated probes of single layers: tight loops over one public call,
//! run in the traced pass of every workload. They say what a layer costs
//! with nothing else on the CPU; the workloads say what that is worth end
//! to end.

use crate::harness::Ctx;
use crate::{inputs, stats};
use rtdb::cc::testkit::StaticView;
use rtdb::cc::{CeilingTable, LockRequest, LockTable, ProtocolFor, ProtocolKind};
use rtdb::net::{FrameBuf, Request, Response};
use rtdb::sim::instantiate;
use rtdb::storage::{Database, Workspace};
use rtdb::types::{InstanceId, ItemId, LockMode, Tick, TransactionSet, TxnId};
use std::hint::black_box;
use std::time::Instant;

/// Calls per batch at full size; a probe reports the median of five.
const BATCH: u64 = 200_000;
const BATCHES: usize = 5;

/// Median ns per call of `f` over the batches.
fn ns_per_call(ctx: &Ctx, mut f: impl FnMut()) -> f64 {
    let calls = ctx.sized(BATCH);
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&per_batch)
}

/// A lock table in mid-run: the lower-priority half of the templates each
/// hold a read lock (with the read recorded) and a write lock.
fn populated_view(set: &TransactionSet) -> StaticView<'_> {
    let mut view = StaticView::new(set);
    let n = set.len() as u32;
    for t in (n / 2)..n {
        let who = InstanceId::first(TxnId(t));
        let template = set.template(TxnId(t));
        if let Some(&item) = template.read_set().iter().next() {
            view.grant(who, item, LockMode::Read);
            view.record_read(who, item);
        }
        if let Some(&item) = template.write_set().iter().next() {
            view.grant(who, item, LockMode::Write);
        }
    }
    view
}

pub fn run(ctx: &Ctx, layer: &mut Vec<(&'static str, f64)>) {
    let set = inputs::standard_set();

    // One read request against the populated table, per protocol.
    let view = populated_view(&set);
    let req = LockRequest {
        who: InstanceId::first(TxnId(0)),
        item: *set
            .template(TxnId(0))
            .access_set()
            .iter()
            .next()
            .expect("every generated template accesses an item"),
        mode: LockMode::Read,
    };
    for (name, kind) in [
        ("cc.decide_read_ns", ProtocolKind::PcpDa),
        ("baselines.rwpcp.decide_read_ns", ProtocolKind::RwPcp),
        ("baselines.2plhp.decide_read_ns", ProtocolKind::TwoPlHp),
    ] {
        let mut protocol = instantiate(kind);
        let ns = ns_per_call(ctx, || {
            black_box(protocol.request(black_box(&view), black_box(req)));
        });
        layer.push((name, ns));
    }

    // Three grants and a release_all on an indexed lock table.
    let mut table = LockTable::with_index(&CeilingTable::new(&set));
    let who = InstanceId::first(TxnId(1));
    layer.push((
        "core.locktable_cycle_ns",
        ns_per_call(ctx, || {
            table.grant(who, ItemId(0), LockMode::Read);
            table.grant(who, ItemId(1), LockMode::Write);
            table.grant(who, ItemId(2), LockMode::Read);
            black_box(table.release_all(who).len());
        }),
    ));

    // One transaction's worth of workspace traffic: reset, read, write,
    // install.
    let mut db = Database::new();
    let mut ws = Workspace::new(who);
    layer.push((
        "storage.workspace_rw_ns",
        ns_per_call(ctx, || {
            ws.reset(who);
            black_box(ws.read(&db, ItemId(0)));
            black_box(ws.write(1, ItemId(1)));
            black_box(ws.commit_into(&mut db, Tick(0)).len());
        }),
    ));

    // The wire codec: one request and its terminal response.
    let request = Request::Submit {
        ticket: 7,
        txn: 3,
        tenant: 0,
        release_ns: 123_456,
        deadline_ns: Some(987_654),
    };
    let response = Response::Committed {
        ticket: 7,
        commit_ns: 1_234_567,
        latency_ns: 2_345,
        queue_ns: 345,
        service_ns: 2_000,
        restarts: 0,
        missed_deadline: false,
    };
    let mut bytes = Vec::with_capacity(128);
    layer.push((
        "net.encode_ns",
        ns_per_call(ctx, || {
            bytes.clear();
            black_box(&request).encode(&mut bytes);
            black_box(&response).encode(&mut bytes);
            black_box(bytes.len());
        }),
    ));
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    request.encode(&mut req_bytes);
    response.encode(&mut resp_bytes);
    let mut frames = FrameBuf::new();
    layer.push((
        "net.decode_ns",
        ns_per_call(ctx, || {
            frames.extend(black_box(&req_bytes));
            let payload = frames.next_frame().expect("well-formed").expect("complete");
            black_box(Request::decode(&payload).expect("round-trips"));
            frames.extend(black_box(&resp_bytes));
            let payload = frames.next_frame().expect("well-formed").expect("complete");
            black_box(Response::decode(&payload).expect("round-trips"));
        }),
    ));
}
