//! A small blocking client for the wire protocol — the load generator's
//! (and the tests') view of the service edge.
//!
//! It waits on the wire, never on a timer: [`NetClient::wait_response`]
//! polls the socket before it blocks in `read`, so a prompt reply does
//! not pay the client's own wake-up, whose cost is 2 µs or 20 µs by where
//! the scheduler put the threads (DESIGN.md §6g).

use crate::wire::{FrameBuf, Request, Response, WireError};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client connection. Submissions are pipelined: [`NetClient::submit`]
/// returns as soon as the frame is written; responses are pulled with
/// [`NetClient::poll_response`] / [`NetClient::wait_response`] and
/// correlated by the client-chosen ticket.
pub struct NetClient {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// `submit`'s encode buffer, reused across calls.
    wbuf: Vec<u8>,
    /// The socket's mode, switched only when a call needs the other one.
    nonblocking: bool,
}

/// How long `wait_response` polls an empty socket before it blocks:
/// several times a lone round trip on a 2-CPU host (≈25 µs with the
/// server's threads stacked on one CPU, ≈45 µs with them spread over
/// both), so such a reply never waits for the client's wake-up, while a
/// client waiting on a slow job spends at most this much CPU per call
/// before it blocks.
const REPLY_SPIN: Duration = Duration::from_micros(200);

fn wire_err(e: WireError) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e)
}

impl NetClient {
    /// Connect to a [`crate::serve`] endpoint.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::with_capacity(40),
            nonblocking: false,
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

    /// The next response: buffered, else after a `read` that waits until
    /// `deadline` at most (`None`: for as long as it takes; past: not at
    /// all); `Ok(None)` if none came.
    fn next(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        let mut tmp = [0u8; 4096];
        loop {
            if let Some(payload) = self.rbuf.next_frame().map_err(wire_err)? {
                return Response::decode(&payload).map(Some).map_err(wire_err);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let poll = left.is_some_and(|left| left.is_zero());
            self.set_nonblocking(poll)?;
            if !poll {
                self.stream.set_read_timeout(left)?;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Nothing there: final for a poll, a wait re-reads its clock.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if poll {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Never blocks: the next response the buffer or the socket holds, if any.
    pub fn poll_response(&mut self) -> io::Result<Option<Response>> {
        self.next(Some(Instant::now()))
    }

    /// The next response within `timeout` ([`ErrorKind::TimedOut`];
    /// [`Duration::MAX`] waits for as long as it takes): looks at the
    /// socket, polls it for up to `REPLY_SPIN` with a `yield_now` between
    /// looks, then blocks in `read` for what is left of `timeout`.
    pub fn wait_response(&mut self, timeout: Duration) -> io::Result<Response> {
        let start = Instant::now();
        let spin_until = start + REPLY_SPIN.min(timeout);
        loop {
            if let Some(resp) = self.poll_response()? {
                return Ok(resp);
            }
            if Instant::now() >= spin_until {
                break;
            }
            std::thread::yield_now();
        }
        self.next(start.checked_add(timeout))?
            .ok_or(ErrorKind::TimedOut.into())
    }
}
