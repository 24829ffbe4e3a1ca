//! Loopback acceptance tests: real TCP clients against [`rtdb_net::serve`]
//! on 127.0.0.1, validated against the simulator and the admission
//! accounting invariants.
//!
//! The burst test extends the PR 5 sim-vs-rt acceptance pattern through
//! the socket: the same conflict-free burst workload, submitted by N
//! *client connections* instead of an in-process submitter, must
//! reproduce the simulator's commit order and final database bit-for-bit
//! on one worker. Timing margins follow the in-process test's rules —
//! every met/missed verdict has tens of milliseconds of slack, and the
//! admission order is forced by waiting for each submission's `Accepted`
//! before sending the next.

use rtdb_core::ProtocolKind;
use rtdb_net::{serve, FrameBuf, NetClient, NetConfig, Request, Response, MAX_FRAME_LEN};
use rtdb_rt::{AdmissionPolicy, FrontConfig, RtConfig};
use rtdb_sim::{Engine, RunOutcome, SimConfig};
use rtdb_types::{InstanceId, ItemId, SetBuilder, Step, TransactionSet, TransactionTemplate};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Milliseconds in nanoseconds.
const MS: u64 = 1_000_000;

/// Generous per-response wait: loopback round-trips are microseconds,
/// but CI schedulers stall.
const WAIT: Duration = Duration::from_secs(20);

/// The conflict-free burst workload of `crates/rt/tests/front.rs`:
/// template k has service 10 ticks, cumulative completion 10·(k+1), and
/// a period chosen so the met/missed pattern is forced by arithmetic
/// with ≥ 3 ticks of margin.
fn burst_set() -> TransactionSet {
    let periods = [16u64, 17, 40, 45, 46];
    let mut b = SetBuilder::new();
    for (k, &p) in periods.iter().enumerate() {
        b.add(
            TransactionTemplate::new(format!("T{k}"), p, vec![Step::write(ItemId(k as u32), 10)])
                .with_instances(1),
        );
    }
    b.build().expect("burst set")
}

/// A tiny two-template write workload for the overload tests.
fn small_set() -> TransactionSet {
    SetBuilder::new()
        .with(TransactionTemplate::new(
            "a",
            100,
            vec![Step::write(ItemId(0), 2)],
        ))
        .with(TransactionTemplate::new(
            "b",
            100,
            vec![Step::write(ItemId(1), 2)],
        ))
        .build()
        .expect("set")
}

/// Acceptance criterion: N client connections submit the burst through
/// the TCP edge on 1 worker and reproduce the simulator's commit order,
/// miss pattern and final database bit-for-bit.
#[test]
fn loopback_burst_reproduces_sim_commit_order_bit_for_bit() {
    const TICK: u64 = 4 * MS;
    let kind = ProtocolKind::PcpDa;
    let set = burst_set();

    // Ground truth: the simulator's commit order and miss verdicts.
    let sim = Engine::new(&set, SimConfig::default())
        .run_kind(kind)
        .expect("sim run");
    assert_eq!(sim.outcome, RunOutcome::Completed);
    let sim_order: Vec<InstanceId> = sim.history.commit_order().to_vec();
    let sim_missed: Vec<bool> = sim_order
        .iter()
        .map(|id| {
            !sim.metrics
                .instance(*id)
                .expect("sim metrics")
                .met_deadline()
        })
        .collect();
    assert_eq!(sim_missed, [false, true, false, false, true]);

    let front = FrontConfig::new(kind)
        .with_policy(AdmissionPolicy::Block)
        .with_rt(RtConfig::new(kind).with_threads(1).with_tick_ns(TICK));
    let (rt, client_missed) = serve(&set, NetConfig::new(front), |addr| {
        // One connection per template, submitting in priority order.
        // Waiting for each Accepted before the next client submits
        // forces the admission (and thus dispatch) order, exactly like
        // the in-process submitter's program order does.
        let mut clients: Vec<NetClient> = (0..set.len())
            .map(|_| NetClient::connect(addr).expect("connect"))
            .collect();
        for (k, client) in clients.iter_mut().enumerate() {
            let period = set.template(rtdb_types::TxnId(k as u32)).period.raw();
            client
                .submit(Request::Submit {
                    ticket: k as u64,
                    txn: k as u32,
                    tenant: 0,
                    release_ns: 0,
                    deadline_ns: Some(period * TICK),
                })
                .expect("submit");
            match client.wait_response(WAIT).expect("accept") {
                Response::Accepted { ticket } => assert_eq!(ticket, k as u64),
                other => panic!("client {k}: expected Accepted, got {other:?}"),
            }
        }
        // Every client waits for its terminal Committed.
        let mut missed = vec![false; clients.len()];
        for (k, client) in clients.iter_mut().enumerate() {
            match client.wait_response(WAIT).expect("terminal") {
                Response::Committed {
                    ticket,
                    missed_deadline,
                    latency_ns,
                    queue_ns,
                    service_ns,
                    ..
                } => {
                    assert_eq!(ticket, k as u64);
                    assert_eq!(queue_ns + service_ns, latency_ns);
                    missed[k] = missed_deadline;
                }
                other => panic!("client {k}: expected Committed, got {other:?}"),
            }
        }
        missed
    })
    .expect("serve");

    assert_eq!(rt.committed, 5);
    assert_eq!((rt.shed, rt.rejected), (0, 0));
    let rt_order: Vec<InstanceId> = rt.jobs.iter().map(|j| j.id).collect();
    assert_eq!(rt_order, sim_order, "commit order diverged through TCP");
    let rt_missed: Vec<bool> = rt.jobs.iter().map(|j| j.missed_deadline()).collect();
    assert_eq!(rt_missed, sim_missed, "miss pattern diverged through TCP");
    assert_eq!(
        rt.db.snapshot(),
        sim.db.snapshot(),
        "final database diverged through TCP"
    );
    // The wire told each client the same verdict the server recorded:
    // client k submitted template k.
    for (job, &sim_order_id) in rt.jobs.iter().zip(&sim_order) {
        assert_eq!(job.id, sim_order_id);
        assert_eq!(job.missed_deadline(), client_missed[job.id.txn.index()]);
    }
}

/// A client disconnecting mid-job neither loses the job nor wedges the
/// server: the orphaned job still executes and commits into the result,
/// and later submissions from other connections proceed normally.
#[test]
fn disconnect_mid_job_still_commits_and_server_survives() {
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::Block)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(10 * MS),
        );
    let (rt, ()) = serve(&set, NetConfig::new(front), |addr| {
        let mut doomed = NetClient::connect(addr).expect("connect");
        doomed
            .submit(Request::Submit {
                ticket: 1,
                txn: 0,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            doomed.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 1 }
        ));
        // Disconnect while the 20 ms job runs (or queues).
        drop(doomed);

        let mut survivor = NetClient::connect(addr).expect("connect");
        survivor
            .submit(Request::Submit {
                ticket: 2,
                txn: 1,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            survivor.wait_response(WAIT).expect("accept"),
            Response::Accepted { ticket: 2 }
        ));
        // The survivor queues behind the orphan on the single worker, so
        // its Committed proves the orphan ran to completion first.
        assert!(matches!(
            survivor.wait_response(WAIT).expect("terminal"),
            Response::Committed { ticket: 2, .. }
        ));
    })
    .expect("serve");

    assert_eq!(rt.committed, 2, "the orphaned job still committed");
    assert_eq!((rt.shed, rt.rejected), (0, 0));
}

/// Invalid submissions are rejected — an unknown template by the
/// submitter, a tenant above the cap at the edge — without disturbing
/// the run; an undecodable frame kills only its own connection.
#[test]
fn invalid_submissions_bounce_at_the_edge() {
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_rt(RtConfig::new(ProtocolKind::PcpDa).with_threads(1));
    let (rt, ()) = serve(&set, NetConfig::new(front), |addr| {
        let mut client = NetClient::connect(addr).expect("connect");
        client
            .submit(Request::Submit {
                ticket: 1,
                txn: 99, // no such template
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            client.wait_response(WAIT).expect("response"),
            Response::Rejected { ticket: 1 }
        ));
        client
            .submit(Request::Submit {
                ticket: 2,
                txn: 0,
                tenant: rtdb_net::MAX_TENANT + 1,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        assert!(matches!(
            client.wait_response(WAIT).expect("response"),
            Response::Rejected { ticket: 2 }
        ));
        // A valid submission on the same connection still works.
        client
            .submit(Request::Submit {
                ticket: 3,
                txn: 0,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            })
            .expect("submit");
        let mut saw_commit = false;
        for _ in 0..2 {
            match client.wait_response(WAIT).expect("response") {
                Response::Accepted { ticket: 3 } => {}
                Response::Committed { ticket: 3, .. } => {
                    saw_commit = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_commit);
    })
    .expect("serve");

    assert_eq!(rt.committed, 1);
    // The unknown template was offered to the front-end, which rejected
    // and counted it; the edge's tenant bounce never got that far.
    assert_eq!(rt.rejected, 1);
}

/// Multi-connection overload through sockets: every tenant's offered
/// load is fully accounted — exactly one terminal response per
/// submission on the wire, and `committed + shed + rejected == offered`
/// per tenant in the server's result.
#[test]
fn overload_accounting_balances_per_tenant_through_sockets() {
    const PER_TENANT: u64 = 12;
    let set = small_set();
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::LeastSlack)
        .with_capacity(2)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(MS),
        );
    let (rt, wire_counts) = serve(&set, NetConfig::new(front), |addr| {
        let tenants = 3u32;
        let mut clients: Vec<NetClient> = (0..tenants)
            .map(|_| NetClient::connect(addr).expect("connect"))
            .collect();
        // Burst-fire all submissions: a 2-slot queue against a worker
        // doing 2 ms per job guarantees shed traffic. Half the requests
        // carry an already-past deadline (negative slack), half none.
        for (t, client) in clients.iter_mut().enumerate() {
            for i in 0..PER_TENANT {
                client
                    .submit(Request::Submit {
                        ticket: i,
                        txn: (i % 2) as u32,
                        tenant: t as u32,
                        release_ns: 0,
                        deadline_ns: if i % 2 == 0 { Some(1) } else { None },
                    })
                    .expect("submit");
            }
        }
        // Drain until every submission has its terminal response.
        let mut counts = Vec::new();
        for client in clients.iter_mut() {
            let (mut committed, mut shed, mut rejected) = (0u64, 0u64, 0u64);
            while committed + shed + rejected < PER_TENANT {
                match client.wait_response(WAIT).expect("response") {
                    Response::Accepted { .. } => {}
                    Response::Committed { .. } => committed += 1,
                    Response::Shed { .. } => shed += 1,
                    Response::Rejected { .. } => rejected += 1,
                }
            }
            counts.push((committed, shed, rejected));
        }
        counts
    })
    .expect("serve");

    let offered = 3 * PER_TENANT;
    assert_eq!(
        rt.committed + rt.shed + rt.rejected,
        offered,
        "submissions leaked"
    );
    assert_eq!(rt.tenants.len(), 3);
    for (t, row) in rt.tenants.iter().enumerate() {
        assert_eq!(row.tenant, t as u32);
        assert_eq!(
            row.offered(),
            PER_TENANT,
            "tenant {t}: committed {} + shed {} + rejected {}",
            row.committed,
            row.shed,
            row.rejected
        );
        // The wire's view agrees with the server's ledger.
        let (committed, shed, rejected) = wire_counts[t];
        assert_eq!(
            (row.committed, row.shed, row.rejected),
            (committed, shed, rejected),
            "tenant {t}: wire and ledger disagree"
        );
    }
    // Per-template shed telemetry covers every shed job.
    assert_eq!(rt.shed_by_txn.iter().sum::<u64>(), rt.shed);
}

/// A deadline-free submission of template `txn` for tenant 0.
fn submit_of(ticket: u64, txn: u32) -> Request {
    Request::Submit {
        ticket,
        txn,
        tenant: 0,
        release_ns: 0,
        deadline_ns: None,
    }
}

/// One worker at `tick_ns` per tick behind the default 1024-slot queue.
fn one_worker(tick_ns: u64) -> NetConfig {
    let rt = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(1)
        .with_tick_ns(tick_ns);
    NetConfig::new(FrontConfig::new(ProtocolKind::PcpDa).with_rt(rt))
}

/// A socket speaking the wire protocol by hand, for what [`NetClient`]
/// cannot do: send garbage, stop reading, outlive the driver.
struct RawConn {
    stream: TcpStream,
    rbuf: FrameBuf,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(WAIT)).expect("read timeout");
        RawConn {
            stream,
            rbuf: FrameBuf::new(),
        }
    }

    /// The next response, or `None` once the server has closed the
    /// connection (end-of-stream or reset).
    fn next(&mut self) -> Option<Response> {
        loop {
            if let Some(payload) = self.rbuf.next_frame().expect("well-formed frame") {
                return Some(Response::decode(&payload).expect("decodes"));
            }
            let mut tmp = [0u8; 4096];
            match self.stream.read(&mut tmp) {
                Ok(0) => return None,
                Ok(n) => self.rbuf.extend(&tmp[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    panic!("the server neither answered nor closed within {WAIT:?}")
                }
                Err(_) => return None,
            }
        }
    }

    /// Pipeline `n` submissions of template 0 and read until each one is
    /// `Accepted`; returns how many `Committed` frames arrived meanwhile.
    fn admit(&mut self, n: u64) -> u64 {
        let mut bytes = Vec::new();
        for ticket in 0..n {
            submit_of(ticket, 0).encode(&mut bytes);
        }
        self.stream.write_all(&bytes).expect("submit");
        let (mut accepted, mut committed) = (0, 0);
        while accepted < n {
            match self.next().expect("open connection") {
                Response::Accepted { .. } => accepted += 1,
                Response::Committed { .. } => committed += 1,
                other => panic!("expected Accepted or Committed, got {other:?}"),
            }
        }
        committed
    }
}

/// Keep `window` of `n` tickets in flight on one connection; returns every
/// response in the order the byte stream carried it.
fn pipelined(addr: SocketAddr, conn: u64, n: u64, window: u64) -> Vec<Response> {
    let mut client = NetClient::connect(addr).expect("connect");
    let mut stream = Vec::new();
    let (mut next, mut done) = (0, 0);
    while done < n {
        while next < n && next - done < window {
            client
                .submit(submit_of(conn << 32 | next, (next % 2) as u32))
                .expect("submit");
            next += 1;
        }
        let resp = client.wait_response(WAIT).expect("response");
        done += resp.is_terminal() as u64;
        stream.push(resp);
    }
    assert!(
        client.poll_response().expect("open").is_none(),
        "a frame followed the last terminal"
    );
    stream
}

/// Check one connection's byte stream: tickets `conn << 32 | 0..n` and no
/// others, at most one `Accepted` and exactly one terminal frame each, the
/// `Accepted` first, and never both `Accepted` and `Rejected`. Returns the
/// stream's (committed, shed, rejected) counts.
fn check_stream(conn: u64, n: u64, stream: &[Response]) -> (u64, u64, u64) {
    let mut accepted_at: HashMap<u64, usize> = HashMap::new();
    let mut terminal_at: HashMap<u64, usize> = HashMap::new();
    let mut counts = (0, 0, 0);
    for (at, resp) in stream.iter().enumerate() {
        let ticket = resp.ticket();
        assert_eq!(
            ticket >> 32,
            conn,
            "conn {conn}: foreign ticket {ticket:#x}"
        );
        assert!(ticket & 0xffff_ffff < n, "conn {conn}: unknown ticket");
        let seen = if resp.is_terminal() {
            &mut terminal_at
        } else {
            &mut accepted_at
        };
        assert!(
            seen.insert(ticket, at).is_none(),
            "conn {conn}: {resp:?} repeats"
        );
        match resp {
            Response::Accepted { .. } => assert!(
                !terminal_at.contains_key(&ticket),
                "conn {conn}: ticket {ticket:#x} accepted after its terminal frame"
            ),
            Response::Committed { .. } => counts.0 += 1,
            Response::Shed { .. } => counts.1 += 1,
            Response::Rejected { .. } => {
                assert!(
                    !accepted_at.contains_key(&ticket),
                    "accepted, then rejected"
                );
                counts.2 += 1
            }
        }
    }
    assert_eq!(
        terminal_at.len() as u64,
        n,
        "conn {conn}: unanswered tickets"
    );
    counts
}

/// Four connections pipelining against two workers: on every connection
/// each ticket is answered once, `Accepted` before its terminal frame,
/// with no frame of another connection — with room in the queue, and
/// with a 4-slot `Reject` queue whose `Rejected` frames (written by the
/// reader) interleave with the writer's terminal frames.
#[test]
fn pipelined_connections_get_ordered_once_only_answers() {
    const CONNS: u64 = 4;
    const PER_CONN: u64 = 300;
    const WINDOW: u64 = 32;
    let set = small_set();
    for (capacity, tick_ns) in [(256, 1_000), (4, 20_000)] {
        let front = FrontConfig::new(ProtocolKind::PcpDa)
            .with_policy(AdmissionPolicy::Reject)
            .with_capacity(capacity)
            .with_rt(
                RtConfig::new(ProtocolKind::PcpDa)
                    .with_threads(2)
                    .with_tick_ns(tick_ns),
            );
        let (rt, streams) = serve(&set, NetConfig::new(front), |addr| {
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CONNS)
                    .map(|conn| scope.spawn(move || pipelined(addr, conn, PER_CONN, WINDOW)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client"))
                    .collect::<Vec<_>>()
            })
        })
        .expect("serve");

        let (mut committed, mut shed, mut rejected) = (0, 0, 0);
        for (conn, stream) in streams.iter().enumerate() {
            let counts = check_stream(conn as u64, PER_CONN, stream);
            committed += counts.0;
            shed += counts.1;
            rejected += counts.2;
        }
        assert_eq!(
            (rt.committed, rt.shed, rt.rejected),
            (committed, shed, rejected),
            "capacity {capacity}: wire and result disagree"
        );
        assert_eq!(committed + shed + rejected, CONNS * PER_CONN);
        assert_eq!(rt.jobs.len() as u64, committed);
        if capacity == 4 {
            assert!(rejected > 0 && committed > 0, "no interleaving exercised");
        } else {
            assert_eq!(committed, CONNS * PER_CONN, "the queue had room");
        }
    }
}

/// One submit/commit round trip on a healthy connection.
fn round_trip(client: &mut NetClient, ticket: u64) {
    client.submit(submit_of(ticket, 1)).expect("submit");
    for expect_terminal in [false, true] {
        let resp = client.wait_response(WAIT).expect("response");
        assert_eq!(resp.ticket(), ticket);
        assert_eq!(resp.is_terminal(), expect_terminal, "{resp:?}");
    }
}

/// A fault on one connection — after `admitted` of its jobs were accepted
/// — kills that connection only: a healthy neighbour keeps completing
/// round trips, every job admitted before the fault commits into the
/// result exactly once, and `serve` returns.
fn fault_kills_one_connection(admitted: u64, fault: impl FnOnce(RawConn)) {
    let (rt, ()) = serve(&small_set(), one_worker(MS), |addr| {
        let mut healthy = NetClient::connect(addr).expect("connect");
        round_trip(&mut healthy, 1);
        let mut faulty = RawConn::connect(addr);
        faulty.admit(admitted);
        fault(faulty);
        // One worker: this commits behind everything the fault orphaned.
        round_trip(&mut healthy, 2);
    })
    .expect("serve");
    assert_eq!(rt.committed, admitted + 2, "an admitted job was lost");
    assert_eq!(rt.jobs.len() as u64, admitted + 2, "a job ran twice");
    assert_eq!((rt.shed, rt.rejected), (0, 0));
}

/// After a protocol error the server owes nothing more and hangs up.
fn expect_hangup(mut conn: RawConn) {
    while let Some(resp) = conn.next() {
        assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
    }
}

#[test]
fn oversized_length_prefix_kills_one_connection() {
    fault_kills_one_connection(3, |mut conn| {
        let len = MAX_FRAME_LEN as u32 + 1;
        conn.stream.write_all(&len.to_le_bytes()).expect("write");
        expect_hangup(conn);
    });
}

#[test]
fn junk_opcode_kills_one_connection() {
    fault_kills_one_connection(5, |mut conn| {
        conn.stream.write_all(&[1, 0, 0, 0, 0x7f]).expect("write");
        expect_hangup(conn);
    });
}

#[test]
fn frame_cut_mid_payload_then_close_loses_nothing() {
    fault_kills_one_connection(3, |mut conn| {
        let mut bytes = Vec::new();
        submit_of(99, 0).encode(&mut bytes);
        conn.stream.write_all(&bytes[..10]).expect("write");
    });
}

#[test]
fn reset_with_jobs_in_flight_loses_nothing() {
    // 8 jobs of 2 ms on one worker: most are still queued at the drop.
    fault_kills_one_connection(8, drop);
}

/// Shutdown (a): a connection idling in `read` on another thread does not
/// hold `serve` up, and sees a clean end-of-stream.
#[test]
fn shutdown_with_an_idle_connection_returns_promptly() {
    let (addr_tx, addr_rx) = channel();
    let (ready_tx, ready_rx) = channel();
    let returned = std::thread::scope(|scope| {
        let idle = scope.spawn(move || {
            let mut conn = RawConn::connect(addr_rx.recv().expect("address"));
            // One round trip first, so the server has this connection's
            // threads running before the driver returns.
            conn.admit(1);
            ready_tx.send(()).expect("driver alive");
            let mut rest = Vec::new();
            while let Some(resp) = conn.next() {
                rest.push(resp);
            }
            rest
        });
        let (rt, returned) = serve(&small_set(), one_worker(1_000), |addr| {
            addr_tx.send(addr).expect("idle client alive");
            ready_rx.recv().expect("idle client connected");
            Instant::now()
        })
        .expect("serve");
        let took = returned.elapsed();
        assert_eq!(rt.committed, 1);
        let rest = idle.join().expect("idle client");
        assert!(rest.len() <= 1, "at most the owed Committed: {rest:?}");
        took
    });
    assert!(returned < Duration::from_secs(5), "serve took {returned:?}");
}

/// Shutdown (b): a client that pipelines requests and never reads, until
/// both directions' socket buffers are full, holds `serve` for the
/// server's write timeout at most, and every job it got admitted is in
/// the result.
#[test]
fn shutdown_with_a_client_that_stopped_reading_is_bounded() {
    // The server's write timeout is 1 s; the rest is scheduling slack.
    const BOUND: Duration = Duration::from_secs(6);
    let front = FrontConfig::new(ProtocolKind::PcpDa)
        .with_policy(AdmissionPolicy::Reject)
        .with_capacity(64)
        .with_rt(
            RtConfig::new(ProtocolKind::PcpDa)
                .with_threads(1)
                .with_tick_ns(0),
        );
    let (rt, (mut conn, sent, returned)) = serve(&small_set(), NetConfig::new(front), |addr| {
        let mut conn = RawConn::connect(addr);
        let mut block = Vec::new();
        for ticket in 0..1024 {
            submit_of(ticket, (ticket % 2) as u32).encode(&mut block);
        }
        // Write until a write makes no progress for 300 ms (the server's
        // reader is stuck in its own write) or fails (the server already
        // gave up on us). `at` keeps the byte stream frame-aligned.
        conn.stream
            .set_write_timeout(Some(Duration::from_millis(300)))
            .expect("write timeout");
        let (mut at, mut sent) = (0, 0u64);
        while let Ok(n) = conn.stream.write(&block[at..]) {
            at = (at + n) % block.len();
            sent += n as u64;
        }
        let frame_len = (block.len() / 1024) as u64;
        (conn, sent / frame_len, Instant::now())
    })
    .expect("serve");
    let took = returned.elapsed();
    assert!(took < BOUND, "serve returned {took:?} after its driver");

    // What reached the client's receive buffer is still readable: every
    // `Accepted` in it is a job the result must hold.
    let mut accepted = 0;
    while let Some(resp) = conn.next() {
        accepted += matches!(resp, Response::Accepted { .. }) as u64;
    }
    assert!(accepted > 0, "nothing was admitted");
    assert!(rt.committed >= accepted, "an admitted job is missing");
    assert_eq!(rt.jobs.len() as u64, rt.committed);
    assert_eq!(rt.shed, 0);
    assert!(rt.committed + rt.rejected <= sent, "more jobs than frames");
}

/// Shutdown (c): the drain barrier. A client with K slow jobs admitted
/// whose driver returns at once still receives all K `Committed` frames,
/// then end-of-stream.
#[test]
fn shutdown_delivers_every_owed_terminal_frame() {
    const K: u64 = 6;
    let (addr_tx, addr_rx) = channel();
    let (ready_tx, ready_rx) = channel();
    std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let mut conn = RawConn::connect(addr_rx.recv().expect("address"));
            let mut committed = conn.admit(K);
            ready_tx.send(()).expect("driver alive");
            while let Some(resp) = conn.next() {
                assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
                committed += 1;
            }
            committed
        });
        // 2 ticks × 2 ms per job on one worker: K jobs outlast the driver.
        let (rt, ()) = serve(&small_set(), one_worker(2 * MS), |addr| {
            addr_tx.send(addr).expect("client alive");
            ready_rx.recv().expect("client admitted its jobs");
        })
        .expect("serve");
        assert_eq!(rt.committed, K);
        assert_eq!(client.join().expect("client"), K, "owed answers dropped");
    });
}

/// One slow round trip under `timeout`: one worker at 1 ms a tick runs the
/// 2-tick job for ≥ 2 ms, ten times `NetClient`'s poll phase, so the
/// `Committed` frame arrives through the blocking `read` after it.
fn slow_round_trip(timeout: Duration) {
    let (rt, ()) = serve(&small_set(), one_worker(MS), |addr| {
        let mut client = NetClient::connect(addr).expect("connect");
        let sent = Instant::now();
        client.submit(submit_of(1, 0)).expect("submit");
        assert!(matches!(
            client.wait_response(timeout).expect("accept"),
            Response::Accepted { ticket: 1 }
        ));
        assert!(matches!(
            client.wait_response(timeout).expect("terminal"),
            Response::Committed { ticket: 1, .. }
        ));
        let took = sent.elapsed();
        assert!(took >= Duration::from_millis(2), "a 2 ms job took {took:?}");
    })
    .expect("serve");
    assert_eq!(rt.committed, 1);
}

#[test]
fn a_reply_later_than_the_poll_phase_arrives_by_blocking_read() {
    slow_round_trip(WAIT);
}

/// `Duration::MAX` waits for as long as it takes: no deadline overflows
/// the clock, and the blocking `read` runs without a timeout.
#[test]
fn wait_response_without_a_deadline() {
    slow_round_trip(Duration::MAX);
}

/// A peer that accepts and never writes, and a client connected to it.
fn silent_peer() -> (TcpStream, NetClient) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = NetClient::connect(listener.local_addr().expect("address")).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    (peer, client)
}

/// The poll phase is clipped to the caller's timeout, and the blocking
/// `read` after it waits out the rest.
#[test]
fn wait_response_times_out_on_the_callers_clock() {
    let (_peer, mut client) = silent_peer();
    for (timeout, within) in [
        (
            Duration::from_micros(100),
            Duration::ZERO..Duration::from_millis(5),
        ),
        (Duration::from_millis(50), Duration::from_millis(50)..WAIT),
    ] {
        let started = Instant::now();
        let err = client.wait_response(timeout).expect_err("nothing was sent");
        let took = started.elapsed();
        assert_eq!(err.kind(), ErrorKind::TimedOut, "{err}");
        assert!(
            within.contains(&took),
            "wait_response({timeout:?}) took {took:?}"
        );
    }
}

/// A peer that hangs up while the client polls ends the wait at once.
#[test]
fn a_peer_closing_during_the_poll_phase_is_an_unexpected_eof() {
    let (peer, mut client) = silent_peer();
    let started = Instant::now();
    let err = std::thread::scope(|scope| {
        scope.spawn(move || drop(peer));
        client.wait_response(WAIT).expect_err("the peer closed")
    });
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    let took = started.elapsed();
    assert!(took < WAIT / 4, "the close took {took:?} to notice");
}

/// Each `wait_response` leaves the socket in whichever mode its last look
/// needed; `poll_response` after it still returns at once on an empty
/// socket, and `submit` and `wait_response` after that still work.
#[test]
fn poll_after_wait_returns_at_once_and_the_connection_keeps_working() {
    let (rt, ()) = serve(&small_set(), one_worker(MS), |addr| {
        let mut client = NetClient::connect(addr).expect("connect");
        for ticket in 0..3 {
            round_trip(&mut client, ticket);
            let polled = Instant::now();
            assert!(client.poll_response().expect("open").is_none());
            let took = polled.elapsed();
            assert!(took < Duration::from_secs(1), "poll_response took {took:?}");
        }
    })
    .expect("serve");
    assert_eq!(rt.committed, 3);
}
