//! A small blocking client for the wire protocol — the load generator's
//! (and the tests') view of the service edge.

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

/// What `wait_response` sleeps before it blocks on an empty socket. The
/// reply to a request just sent is there by then, so the caller pays this
/// timer (≈90 µs with the kernel's slack) and not a wake-up, whose cost is
/// 2 µs or 20 µs by where the scheduler put the threads (DESIGN.md §6g).
const REPLY_PAUSE: Duration = Duration::from_micros(20);

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
    /// `deadline` at most (`None` or past: not at all); `Ok(None)` if none.
    fn next(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        let mut tmp = [0u8; 4096];
        loop {
            if let Some(payload) = self.rbuf.next_frame().map_err(wire_err)? {
                return Response::decode(&payload).map(Some).map_err(wire_err);
            }
            let wait = deadline
                .map(|d| d.saturating_duration_since(Instant::now()))
                .filter(|left| !left.is_zero());
            self.set_nonblocking(wait.is_none())?;
            if wait.is_some() {
                self.stream.set_read_timeout(wait)?;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Nothing there: final for a poll, a wait re-reads its clock.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if wait.is_none() {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Never blocks: the next response the buffer or the socket holds, if any.
    pub fn poll_response(&mut self) -> io::Result<Option<Response>> {
        self.next(None)
    }

    /// The next response within `timeout` ([`ErrorKind::TimedOut`]): a
    /// look, `REPLY_PAUSE` if the socket was empty, then a blocking `read`.
    pub fn wait_response(&mut self, timeout: Duration) -> io::Result<Response> {
        let deadline = Instant::now() + timeout;
        if let Some(resp) = self.next(None)? {
            return Ok(resp);
        }
        std::thread::sleep(REPLY_PAUSE.min(timeout));
        self.next(Some(deadline))?.ok_or(ErrorKind::TimedOut.into())
    }
}
