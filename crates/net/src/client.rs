//! A small blocking client for the wire protocol — the load generator's
//! (and the tests') view of the service edge.
//!
//! It waits on the wire, never on a timer: [`NetClient::wait_response`]
//! polls the socket before it blocks in `read`, so a prompt reply does
//! not pay the client's own wake-up, whose cost is 2 µs or 20 µs by where
//! the scheduler put the threads (DESIGN.md §6g). When it polls, blocks
//! or gives up is one pure decision, [`next_wait`], over readings of the
//! runtime's clock ([`rtdb_rt::clock`]), so a test can drive it exactly.

use crate::wire::{FrameBuf, Request, Response, WireError};
use rtdb_rt::clock::{Clock, WallClock};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One client connection. Submissions are pipelined: [`NetClient::submit`]
/// returns as soon as the frame is written; responses are pulled with
/// [`NetClient::poll_response`] / [`NetClient::wait_response`] and
/// correlated by the client-chosen ticket. Every read of time is a
/// reading of its clock `C`.
pub struct NetClient<C: Clock = WallClock> {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// `submit`'s encode buffer, reused across calls.
    wbuf: Vec<u8>,
    /// The socket's mode, switched only when a call needs the other one.
    nonblocking: bool,
    clock: C,
}

/// How long `wait_response` polls an empty socket before it blocks:
/// several times a lone round trip on a 2-CPU host (≈25 µs with the
/// server's threads stacked on one CPU, ≈45 µs with them spread over
/// both), so such a reply never waits for the client's wake-up, while a
/// client waiting on a slow job spends at most this much CPU per call
/// before it blocks.
pub const REPLY_SPIN: Duration = Duration::from_micros(200);

/// What [`NetClient::wait_response`] does after a look at the socket
/// found no response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// Yield, then look again: the poll phase.
    Poll,
    /// Block in `read` for at most this long.
    Block(Duration),
    /// The caller's timeout has passed.
    GiveUp,
}

/// The client's wait policy: `now` and `start` are clock readings in ns,
/// `timeout` the caller's. The first [`REPLY_SPIN`] of the wait polls,
/// clipped to the timeout, so a timeout the poll phase covers never
/// reaches a blocking `read`; then the wait blocks for what is left of
/// the timeout, and gives up once it has passed.
pub fn next_wait(now: u64, start: u64, timeout: Duration) -> Wait {
    let waited = Duration::from_nanos(now.saturating_sub(start));
    if waited < REPLY_SPIN.min(timeout) {
        Wait::Poll
    } else if waited < timeout {
        Wait::Block(timeout - waited)
    } else {
        Wait::GiveUp
    }
}

fn wire_err(e: WireError) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e)
}

impl NetClient {
    /// Connect to a [`crate::serve`] endpoint.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        NetClient::connect_on(addr, WallClock::now())
    }
}

impl<C: Clock> NetClient<C> {
    /// [`NetClient::connect`], reading time on `clock`.
    pub fn connect_on(addr: SocketAddr, clock: C) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::with_capacity(40),
            nonblocking: false,
            clock,
        })
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        if self.nonblocking != nonblocking {
            self.stream.set_nonblocking(nonblocking)?;
            self.nonblocking = nonblocking;
        }
        Ok(())
    }

    /// Write one request frame; blocks only while the server is stalled.
    pub fn submit(&mut self, req: Request) -> io::Result<()> {
        self.wbuf.clear();
        req.encode(&mut self.wbuf);
        self.set_nonblocking(false)?;
        self.stream.write_all(&self.wbuf)
    }

    /// The next response: buffered, else after one `read` that blocks
    /// for `block` at most (`None`: a poll, which does not block);
    /// `Ok(None)` if no whole one came.
    fn next(&mut self, block: Option<Duration>) -> io::Result<Option<Response>> {
        let mut tmp = [0u8; 4096];
        let mut read = false;
        loop {
            if let Some(payload) = self.rbuf.next_frame().map_err(wire_err)? {
                return Response::decode(&payload).map(Some).map_err(wire_err);
            }
            if read {
                return Ok(None);
            }
            self.set_nonblocking(block.is_none())?;
            if block.is_some() {
                self.stream.set_read_timeout(block)?;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend(&tmp[..n]);
                    read = true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Never blocks: the next response the buffer or the socket holds, if any.
    pub fn poll_response(&mut self) -> io::Result<Option<Response>> {
        self.next(None)
    }

    /// The next response within `timeout` ([`ErrorKind::TimedOut`];
    /// [`Duration::MAX`] waits for as long as it takes): looks at the
    /// socket, then does what [`next_wait`] says until a response comes —
    /// polls with a `yield_now` between looks, blocks in `read`, or gives
    /// up.
    pub fn wait_response(&mut self, timeout: Duration) -> io::Result<Response> {
        let start = self.clock.now_ns();
        let mut look = None;
        loop {
            if let Some(resp) = self.next(look)? {
                return Ok(resp);
            }
            look = match next_wait(self.clock.now_ns(), start, timeout) {
                Wait::Poll => {
                    std::thread::yield_now();
                    None
                }
                Wait::Block(left) => Some(left),
                Wait::GiveUp => return Err(ErrorKind::TimedOut.into()),
            };
        }
    }
}
