//! The TCP service edge: a single-threaded non-blocking event loop that
//! bridges socket clients onto the admission front-end.
//!
//! [`serve`] wraps [`run_front`]: it binds a listener, spawns the event
//! loop inside the front-end's scope, and hands the caller's driver the
//! bound address. The event loop accepts connections, decodes
//! [`Request`] frames, submits them through a *non-blocking* submitter
//! adapter ([`Submitter::try_submit`] — a full admission queue bounces a
//! frame, it never parks the loop), and pumps [`Completion`]s back out as
//! [`Response`] frames. One OS thread multiplexes every connection; the
//! worker pool behind the admission queue does the heavy lifting, exactly
//! as in the in-process front-end.
//!
//! **Client disconnect mid-job.** Dropping a connection drops its
//! submitter and completion receiver. Jobs it already got admitted keep
//! their place in the admission queue and still execute and commit into the
//! run's [`RtResult`] — admission is a promise to the *system*, not to
//! the socket — but their completion sends fail silently into the closed
//! channel. Nothing leaks: the ticket map dies with the connection.
//!
//! **Shutdown.** When the driver returns, the loop stops accepting,
//! performs a final drain/flush pass, and exits; then the front-end
//! closes the admission queue with its usual drain semantics. Jobs still
//! in flight at that point execute and are counted in the result, but
//! their completions have no socket to go to — a client that wants its
//! terminal responses must wait for them *before* the driver returns.

use crate::wire::{FrameBuf, Request, Response, MAX_TENANT};
use rtdb_rt::front::FrontHandle;
use rtdb_rt::{run_front, Completion, FrontConfig, JobRequest, RtResult, SubmitOutcome, Submitter};
use rtdb_types::{TransactionSet, TxnId};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::time::Duration;

/// Configuration of one [`serve`] run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// The admission front-end behind the socket (worker pool, queue
    /// capacity, admission policy, fairness budgets).
    pub front: FrontConfig,
    /// Port to bind on 127.0.0.1; `0` (the default) picks an ephemeral
    /// port — the actual address is handed to the driver.
    pub port: u16,
}

/// Connection cap; accepts beyond it are dropped immediately. A constant,
/// not a setting: it only bounds what one poll pass walks and what a
/// flood of connects can make the loop allocate, and no caller, test or
/// benchmark ever set another value.
const MAX_CONNS: usize = 1024;

/// Event-loop sleep when a full pass made no progress (no accepts, no
/// bytes, no completions). Keeps the idle loop off the CPU the workers
/// need. A constant for the same reason as [`MAX_CONNS`]; it is also the
/// floor under a lone client's round trip, which the benchmark's
/// `net-rtt` workload measures.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

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

/// One live connection's server-side state.
struct Conn<'e> {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// Pending outbound bytes; `out_start` is the flush cursor.
    out: Vec<u8>,
    out_start: usize,
    sub: Submitter<'e>,
    rx: Receiver<Completion>,
    /// server ticket → client ticket, for completions still owed.
    tickets: HashMap<u64, u64>,
    dead: bool,
}

impl Conn<'_> {
    fn queue_response(&mut self, resp: Response) {
        resp.encode(&mut self.out);
    }

    /// Write as much pending output as the socket accepts.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_start += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start > self.out.len() / 2 {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        progressed
    }

    /// Read what the socket has, decode frames, submit requests.
    fn pump_reads(&mut self, templates: usize) -> bool {
        let mut progressed = false;
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    self.rbuf.extend(&tmp[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        loop {
            let payload = match self.rbuf.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => {
                    // Protocol error: drop the connection.
                    self.dead = true;
                    break;
                }
            };
            match Request::decode(&payload) {
                Ok(req) => self.handle_request(req, templates),
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    fn handle_request(&mut self, req: Request, templates: usize) {
        let Request::Submit {
            ticket,
            txn,
            tenant,
            release_ns,
            deadline_ns,
        } = req;
        // Validate before touching the admission queue: an unknown
        // template or an absurd tenant id is the client's bug, not an
        // overload signal.
        if txn as usize >= templates || tenant > MAX_TENANT {
            self.queue_response(Response::Rejected { ticket });
            return;
        }
        let mut job = JobRequest::new(TxnId(txn))
            .released_at(release_ns)
            .for_tenant(tenant);
        job.deadline_ns = deadline_ns;
        match self.sub.try_submit(job) {
            SubmitOutcome::Admitted { ticket: server } => {
                self.tickets.insert(server, ticket);
                self.queue_response(Response::Accepted { ticket });
            }
            SubmitOutcome::Shed { .. } => self.queue_response(Response::Shed { ticket }),
            SubmitOutcome::Rejected | SubmitOutcome::Closed => {
                self.queue_response(Response::Rejected { ticket })
            }
        }
    }

    /// Translate arrived completions into response frames.
    fn pump_completions(&mut self) -> bool {
        let mut progressed = false;
        while let Ok(c) = self.rx.try_recv() {
            progressed = true;
            match c {
                Completion::Committed { ticket, report } => {
                    if let Some(client) = self.tickets.remove(&ticket) {
                        self.queue_response(Response::Committed {
                            ticket: client,
                            commit_ns: report.commit_ns,
                            latency_ns: report.latency_ns,
                            queue_ns: report.queue_ns,
                            service_ns: report.service_ns,
                            restarts: report.restarts,
                            missed_deadline: report.missed_deadline(),
                        });
                    }
                }
                Completion::Shed { ticket, .. } => {
                    if let Some(client) = self.tickets.remove(&ticket) {
                        self.queue_response(Response::Shed { ticket: client });
                    }
                }
            }
        }
        progressed
    }
}

fn event_loop(front: FrontHandle<'_>, listener: &TcpListener, templates: usize, stop: &AtomicBool) {
    let mut conns: Vec<Conn<'_>> = Vec::new();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let mut progressed = false;
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        progressed = true;
                        if conns.len() >= MAX_CONNS {
                            drop(stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let (sub, rx) = front.submitter();
                        conns.push(Conn {
                            stream,
                            rbuf: FrameBuf::new(),
                            out: Vec::new(),
                            out_start: 0,
                            sub,
                            rx,
                            tickets: HashMap::new(),
                            dead: false,
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            progressed |= conn.pump_reads(templates);
            progressed |= conn.pump_completions();
            progressed |= conn.flush();
        }
        conns.retain(|c| !c.dead);
        if stopping {
            // One final drain already happened above; anything still
            // undelivered has no client waiting on it by contract.
            break;
        }
        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Serve `set` over TCP on 127.0.0.1. Binds the listener, starts the
/// admission front-end (`config.front`), runs the event loop on its own
/// scoped thread, and calls `driver` with the bound address on the
/// current thread. When the driver returns the loop stops and the
/// front-end shuts down with drain semantics. Returns the run's
/// [`RtResult`] together with the driver's value.
pub fn serve<R>(
    set: &TransactionSet,
    config: NetConfig,
    driver: impl FnOnce(SocketAddr) -> R,
) -> std::io::Result<(RtResult, R)> {
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let templates = set.len();
    let stop = AtomicBool::new(false);

    let (result, value) = run_front(set, config.front, |front| {
        std::thread::scope(|scope| {
            let net = scope.spawn(|| event_loop(front, &listener, templates, &stop));
            let value = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver(addr)));
            stop.store(true, Ordering::Release);
            net.join().expect("event loop panicked");
            match value {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    });
    Ok((result, value))
}
