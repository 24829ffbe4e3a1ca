//! The TCP service edge: blocking threads that bridge socket clients onto
//! the admission front-end.
//!
//! [`serve`] wraps [`rtdb_rt::run_front`]: it binds a listener, starts the edge's
//! threads inside the front-end's scope, and hands the caller's driver the
//! bound address. An *acceptor* blocks in `accept`; each connection gets a
//! *reader* blocked in `read`, which decodes [`Request`] frames and submits
//! them through [`Submitter::submit`] (a full admission queue bounces or
//! sheds a frame, it never parks the reader), and a *writer* blocked on the
//! connection's completion channel, which turns [`Completion`]s into
//! terminal [`Response`] frames. No thread here polls or waits on a timer:
//! a request pays for the wake-ups on its path (reader, worker, writer).
//!
//! **One lock per connection** covers the socket's write half and the
//! `server ticket → client ticket` map. The reader holds it from
//! `submit` until the batch's answers are written, so a ticket's
//! `Accepted` is on the wire before its terminal frame and its map entry
//! exists before the completion looks it up. Each side answers a batch —
//! every frame one `read` returned, every completion the channel held —
//! with one `write`. Workers never write: only a connection's own writer
//! can be stalled by a slow client.
//!
//! **Faults.** A malformed frame, a reset or a failed write ends one
//! connection. Jobs it got admitted still commit into the [`RtResult`] —
//! admission is a promise to the system, not to the socket.
//!
//! **Shutdown** is a drain barrier. When the driver returns, `serve` stops
//! accepting and shuts down the read half of every connection: readers see
//! end-of-stream and drop their submitters, and each writer runs until its
//! channel disconnects, i.e. until every job its connection got admitted
//! has reported. A client still reading gets every terminal frame it is
//! owed, then end-of-stream; one that stopped reading holds `serve` for
//! `WRITE_TIMEOUT` at most. Only then does the admission queue close.

use crate::wire::{FrameBuf, Request, Response};
use rtdb_rt::clock::{Clock, WallClock};
use rtdb_rt::front::{run_front_on, FrontHandle};
use rtdb_rt::{Completion, FrontConfig, JobRequest, RtResult, SubmitOutcome, Submitter};
use rtdb_types::{TransactionSet, TxnId};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc::Receiver, Arc, Mutex};
use std::thread::{Builder, Scope};
use std::time::Duration;

/// Configuration of one [`serve`] run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// The admission front-end behind the socket (worker pool, queue
    /// capacity, admission policy).
    pub front: FrontConfig,
    /// Port to bind on 127.0.0.1; `0` (the default) picks an ephemeral
    /// port — the actual address is handed to the driver.
    pub port: u16,
}

/// Connection cap; accepts beyond it are dropped at once. It bounds the
/// threads (two per connection) a flood of connects can make the edge spawn.
const MAX_CONNS: usize = 1024;

/// Longest a write may make no progress before its connection is dropped:
/// what a client that stopped reading can cost `serve`'s shutdown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Stack of a connection thread: its loops are a few frames deep, so
/// `MAX_CONNS` connections need not reserve 4 GiB of default stacks.
const CONN_STACK: usize = 128 * 1024;

impl NetConfig {
    /// Defaults: ephemeral port.
    pub fn new(front: FrontConfig) -> Self {
        NetConfig { front, port: 0 }
    }

    /// Bind a specific port instead of an ephemeral one.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }
}

/// What a connection's reader and writer share, under one lock.
struct Outbound<'c> {
    stream: &'c TcpStream,
    /// server ticket → client ticket, for completions still owed.
    tickets: HashMap<u64, u64>,
}

impl Outbound<'_> {
    /// Write `out` with one call and clear it. A failure (the timeout
    /// included) closes both directions, which also wakes the reader.
    fn send(&mut self, out: &mut Vec<u8>) -> bool {
        let sent = self.stream.write_all(out).is_ok();
        out.clear();
        if !sent {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        sent
    }

    /// Submit one request and encode its immediate answer.
    fn admit<C: Clock>(&mut self, req: Request, sub: &Submitter<'_, C>, out: &mut Vec<u8>) {
        let Request::Submit {
            ticket,
            txn,
            tenant,
            release_ns,
            deadline_ns,
        } = req;
        let mut job = JobRequest::new(TxnId(txn))
            .released_at(release_ns)
            .for_tenant(tenant);
        job.deadline_ns = deadline_ns;
        match sub.submit(job) {
            SubmitOutcome::Admitted { ticket: server } => {
                self.tickets.insert(server, ticket);
                Response::Accepted { ticket }.encode(out);
            }
            SubmitOutcome::Shed { .. } => Response::Shed { ticket }.encode(out),
            SubmitOutcome::Rejected | SubmitOutcome::Closed => {
                Response::Rejected { ticket }.encode(out)
            }
        }
    }

    /// Encode the terminal frame a completion owes its client.
    fn complete(&mut self, completion: Completion, out: &mut Vec<u8>) {
        let (Completion::Committed { ticket, .. } | Completion::Shed { ticket, .. }) = &completion;
        let Some(ticket) = self.tickets.remove(ticket) else {
            return;
        };
        match completion {
            Completion::Committed { report, .. } => Response::Committed {
                ticket,
                commit_ns: report.commit_ns,
                latency_ns: report.latency_ns,
                queue_ns: report.queue_ns,
                service_ns: report.service_ns,
                restarts: report.restarts,
                missed_deadline: report.missed_deadline(),
            },
            Completion::Shed { .. } => Response::Shed { ticket },
        }
        .encode(out);
    }
}

/// The reader: block in `read`, submit every frame it returned, answer
/// them with one write. Ends (dropping the submitter) on any stream error.
fn read_loop<C: Clock>(outbound: &Mutex<Outbound<'_>>, sub: Submitter<'_, C>) {
    let mut stream = outbound.lock().expect("connection lock").stream;
    let mut rbuf = FrameBuf::new();
    let mut out = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match stream.read(&mut tmp) {
            Ok(n) if n > 0 => rbuf.extend(&tmp[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            _ => return,
        }
        let mut outbound = outbound.lock().expect("connection lock");
        let well_formed = loop {
            let frame = rbuf.next_frame().map(|p| p.map(|p| Request::decode(&p)));
            match frame {
                Ok(Some(Ok(req))) => outbound.admit(req, &sub, &mut out),
                Ok(None) => break true,
                Ok(Some(Err(_))) | Err(_) => break false,
            }
        };
        // What was admitted before a malformed frame is still answered.
        if !(outbound.send(&mut out) && well_formed) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// The writer: block on the completion channel, answer all it holds with
/// one write; until the channel disconnects (drained) or a write fails.
fn write_loop(outbound: &Mutex<Outbound<'_>>, completions: Receiver<Completion>) {
    let mut out = Vec::new();
    while let Ok(first) = completions.recv() {
        let mut outbound = outbound.lock().expect("connection lock");
        outbound.complete(first, &mut out);
        while let Ok(next) = completions.try_recv() {
            outbound.complete(next, &mut out);
        }
        if !outbound.send(&mut out) {
            return;
        }
    }
}

/// The edge's shared state: where to submit, and who is connected.
struct Edge<'e, C> {
    front: FrontHandle<'e, C>,
    /// Live connections by peer address; `None` once `serve` is stopping.
    conns: Mutex<Option<HashMap<SocketAddr, Arc<TcpStream>>>>,
}

impl<C: Clock> Edge<'_, C> {
    /// One connection, start to end: the reader on this thread, the writer
    /// beside it, both gone before the slot is freed.
    fn connection(&self, peer: SocketAddr, stream: &TcpStream) {
        let (sub, completions) = self.front.submitter();
        let outbound = Mutex::new(Outbound {
            stream,
            tickets: HashMap::new(),
        });
        std::thread::scope(|scope| {
            let writer = Builder::new().stack_size(CONN_STACK);
            // Out of threads: the connection is refused, not half-served.
            if (writer.spawn_scoped(scope, || write_loop(&outbound, completions))).is_ok() {
                read_loop(&outbound, sub);
            }
        });
        self.forget(peer);
    }

    fn forget(&self, peer: SocketAddr) {
        if let Some(conns) = self.conns.lock().expect("connection table").as_mut() {
            conns.remove(&peer);
        }
    }

    /// The acceptor: block in `accept`, give each connection its threads.
    /// Returns once [`Edge::stop`] has run (it is woken by a connect).
    fn accept_loop<'s>(&'s self, scope: &'s Scope<'s, '_>, listener: &TcpListener) {
        loop {
            let (stream, peer) = match listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A connection that died in the backlog; the next is fine.
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                // Out of descriptors or memory: retrying would spin, so
                // stop accepting and serve the connections there are.
                Err(_) => return,
            };
            let stream = Arc::new(stream);
            {
                let mut conns = self.conns.lock().expect("connection table");
                let Some(conns) = conns.as_mut() else { return };
                if conns.len() >= MAX_CONNS
                    || stream.set_nodelay(true).is_err()
                    || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
                {
                    continue;
                }
                conns.insert(peer, Arc::clone(&stream));
            }
            let reader = Builder::new().stack_size(CONN_STACK);
            if (reader.spawn_scoped(scope, move || self.connection(peer, &stream))).is_err() {
                self.forget(peer);
            }
        }
    }

    /// Stop accepting and end every reader; writers drain on their own.
    fn stop(&self, addr: SocketAddr) {
        let conns = self.conns.lock().expect("connection table").take();
        for stream in conns.iter().flat_map(HashMap::values) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // The acceptor is blocked in `accept`: a connect is its wake-up.
        let _ = TcpStream::connect(addr);
    }
}

/// Serve `set` over TCP on 127.0.0.1. Binds the listener, starts the
/// admission front-end (`config.front`) and the edge's threads, and calls
/// `driver` with the bound address on the current thread. When it returns
/// the edge drains (module docs); yields the [`RtResult`] and its value.
pub fn serve<R>(
    set: &TransactionSet,
    config: NetConfig,
    driver: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<(RtResult, R)> {
    serve_on(set, config, WallClock::now(), driver)
}

/// [`serve`] on `clock`, e.g. an `rtdb_rt::testkit::TestClock`.
pub fn serve_on<C: Clock, R>(
    set: &TransactionSet,
    config: NetConfig,
    clock: C,
    driver: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<(RtResult, R)> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    Ok(run_front_on(set, config.front, clock, |front| {
        let edge = Edge {
            front,
            conns: Mutex::new(Some(HashMap::new())),
        };
        std::thread::scope(|scope| {
            scope.spawn(|| edge.accept_loop(scope, &listener));
            let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver(addr)));
            edge.stop(addr);
            value
        })
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }))
}
