//! The wire protocol: little-endian, length-prefixed binary frames.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload; the first payload byte is the opcode. Clients send
//! [`Request`] frames, the server answers with [`Response`] frames. The
//! client supplies its own `ticket` with every submission and the server
//! echoes it on every response for that submission, so a client can
//! pipeline arbitrarily many requests over one connection and correlate
//! out-of-order completions.
//!
//! ```text
//! Submit (client → server), opcode 0x01:
//!   u8  opcode          u64 ticket          u32 txn
//!   u32 tenant          u64 release_ns      u8  has_deadline
//!   [u64 deadline_ns]   (present iff has_deadline == 1)
//!
//! Accepted  (server → client), opcode 0x81:  u8 opcode, u64 ticket
//! Committed (server → client), opcode 0x82:
//!   u8  opcode        u64 ticket        u64 commit_ns
//!   u64 latency_ns    u64 queue_ns      u64 service_ns
//!   u32 restarts      u8  missed_deadline
//! Shed      (server → client), opcode 0x83:  u8 opcode, u64 ticket
//! Rejected  (server → client), opcode 0x84:  u8 opcode, u64 ticket
//! ```
//!
//! A submission is answered by `Accepted` (it entered the admission
//! queue; a terminal `Committed` or `Shed` follows later) or terminally
//! by `Rejected`/`Shed` right away. Exactly one terminal response
//! eventually arrives per accepted submission, in commit order, not
//! submission order.
//!
//! Malformed frames (unknown opcode, truncated payload, oversized
//! length) are protocol errors: the server drops the connection. The
//! frame length is capped far below anything a legal frame needs, so a
//! desynchronized or hostile peer cannot make the server buffer
//! unbounded data.

/// Hard cap on a frame's payload length. The largest legal frame
/// (Submit with a deadline) is 34 bytes; anything near the cap is a
/// desynchronized peer.
pub const MAX_FRAME_LEN: usize = 256;

/// Client → server messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit one transaction-template instantiation.
    Submit {
        /// Client-chosen correlation ticket, echoed on every response.
        ticket: u64,
        /// Template index ([`rtdb_types::TxnId`]).
        txn: u32,
        /// Tenant the job's shed and reject counts go to, at most
        /// [`rtdb_rt::MAX_TENANT`].
        tenant: u32,
        /// Intended release time, ns since the server's front-end epoch.
        release_ns: u64,
        /// Absolute deadline, same clock; `None` = no deadline.
        deadline_ns: Option<u64>,
    },
}

/// Server → client messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// The submission entered the admission queue; a terminal
    /// [`Response::Committed`] or [`Response::Shed`] follows.
    Accepted {
        /// The client's correlation ticket.
        ticket: u64,
    },
    /// The job committed (terminal).
    Committed {
        /// The client's correlation ticket.
        ticket: u64,
        /// Commit completion time, ns since the front-end epoch.
        commit_ns: u64,
        /// Admission → commit latency.
        latency_ns: u64,
        /// Queueing share of the latency.
        queue_ns: u64,
        /// Service share of the latency.
        service_ns: u64,
        /// Aborts absorbed before committing.
        restarts: u32,
        /// Whether the job committed after its deadline.
        missed_deadline: bool,
    },
    /// The job was shed — at admission (least-slack victim, terminal and
    /// immediate) or later from the queue (terminal, follows an
    /// [`Response::Accepted`]).
    Shed {
        /// The client's correlation ticket.
        ticket: u64,
    },
    /// The submission was rejected at admission (full queue, unknown
    /// template, tenant above [`rtdb_rt::MAX_TENANT`], or server shutting
    /// down).
    /// Terminal and immediate.
    Rejected {
        /// The client's correlation ticket.
        ticket: u64,
    },
}

const OP_SUBMIT: u8 = 0x01;
const OP_ACCEPTED: u8 = 0x81;
const OP_COMMITTED: u8 = 0x82;
const OP_SHED: u8 = 0x83;
const OP_REJECTED: u8 = 0x84;

/// A malformed frame: the connection that produced it must be dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos + n;
        if end > self.buf.len() {
            return Err(WireError(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after frame payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

impl Request {
    /// Append this request as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Submit {
                ticket,
                txn,
                tenant,
                release_ns,
                deadline_ns,
            } => {
                let mut p = Vec::with_capacity(34);
                p.push(OP_SUBMIT);
                p.extend_from_slice(&ticket.to_le_bytes());
                p.extend_from_slice(&txn.to_le_bytes());
                p.extend_from_slice(&tenant.to_le_bytes());
                p.extend_from_slice(&release_ns.to_le_bytes());
                match deadline_ns {
                    Some(d) => {
                        p.push(1);
                        p.extend_from_slice(&d.to_le_bytes());
                    }
                    None => p.push(0),
                }
                frame(&p, out);
            }
        }
    }

    /// Decode one frame payload (without the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        match r.u8()? {
            OP_SUBMIT => {
                let ticket = r.u64()?;
                let txn = r.u32()?;
                let tenant = r.u32()?;
                let release_ns = r.u64()?;
                let deadline_ns = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    b => return Err(WireError(format!("bad has_deadline byte {b:#04x}"))),
                };
                r.finish()?;
                Ok(Request::Submit {
                    ticket,
                    txn,
                    tenant,
                    release_ns,
                    deadline_ns,
                })
            }
            op => Err(WireError(format!("unknown request opcode {op:#04x}"))),
        }
    }
}

impl Response {
    /// Append this response as one length-prefixed frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Response::Accepted { ticket } => {
                let mut p = Vec::with_capacity(9);
                p.push(OP_ACCEPTED);
                p.extend_from_slice(&ticket.to_le_bytes());
                frame(&p, out);
            }
            Response::Committed {
                ticket,
                commit_ns,
                latency_ns,
                queue_ns,
                service_ns,
                restarts,
                missed_deadline,
            } => {
                let mut p = Vec::with_capacity(46);
                p.push(OP_COMMITTED);
                p.extend_from_slice(&ticket.to_le_bytes());
                p.extend_from_slice(&commit_ns.to_le_bytes());
                p.extend_from_slice(&latency_ns.to_le_bytes());
                p.extend_from_slice(&queue_ns.to_le_bytes());
                p.extend_from_slice(&service_ns.to_le_bytes());
                p.extend_from_slice(&restarts.to_le_bytes());
                p.push(missed_deadline as u8);
                frame(&p, out);
            }
            Response::Shed { ticket } => {
                let mut p = Vec::with_capacity(9);
                p.push(OP_SHED);
                p.extend_from_slice(&ticket.to_le_bytes());
                frame(&p, out);
            }
            Response::Rejected { ticket } => {
                let mut p = Vec::with_capacity(9);
                p.push(OP_REJECTED);
                p.extend_from_slice(&ticket.to_le_bytes());
                frame(&p, out);
            }
        }
    }

    /// Decode one frame payload (without the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            OP_ACCEPTED => Response::Accepted { ticket: r.u64()? },
            OP_COMMITTED => Response::Committed {
                ticket: r.u64()?,
                commit_ns: r.u64()?,
                latency_ns: r.u64()?,
                queue_ns: r.u64()?,
                service_ns: r.u64()?,
                restarts: r.u32()?,
                missed_deadline: match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(WireError(format!("bad missed byte {b:#04x}"))),
                },
            },
            OP_SHED => Response::Shed { ticket: r.u64()? },
            OP_REJECTED => Response::Rejected { ticket: r.u64()? },
            op => return Err(WireError(format!("unknown response opcode {op:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// True for responses that end a submission's life (everything but
    /// [`Response::Accepted`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Accepted { .. })
    }

    /// The echoed client ticket.
    pub fn ticket(&self) -> u64 {
        match *self {
            Response::Accepted { ticket }
            | Response::Committed { ticket, .. }
            | Response::Shed { ticket }
            | Response::Rejected { ticket } => ticket,
        }
    }
}

/// An incremental frame accumulator: feed it raw socket bytes, pop
/// complete payloads. Enforces [`MAX_FRAME_LEN`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once the
    /// cursor passes half the buffer.
    start: usize,
}

impl FrameBuf {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Append raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError(format!(
                "frame length {len} exceeds cap {MAX_FRAME_LEN}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.start += 4 + len;
        if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Submit {
                ticket: 7,
                txn: 3,
                tenant: 1,
                release_ns: 123,
                deadline_ns: Some(456),
            },
            Request::Submit {
                ticket: u64::MAX,
                txn: 0,
                tenant: 0,
                release_ns: 0,
                deadline_ns: None,
            },
        ];
        for req in reqs {
            let mut bytes = Vec::new();
            req.encode(&mut bytes);
            let mut fb = FrameBuf::new();
            fb.extend(&bytes);
            let payload = fb.next_frame().expect("well formed").expect("complete");
            assert_eq!(Request::decode(&payload), Ok(req));
            assert_eq!(fb.next_frame(), Ok(None));
        }
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Accepted { ticket: 1 },
            Response::Committed {
                ticket: 2,
                commit_ns: 3,
                latency_ns: 4,
                queue_ns: 1,
                service_ns: 3,
                restarts: 5,
                missed_deadline: true,
            },
            Response::Shed { ticket: 6 },
            Response::Rejected { ticket: 7 },
        ];
        let mut bytes = Vec::new();
        for r in &resps {
            r.encode(&mut bytes);
        }
        let mut fb = FrameBuf::new();
        // Feed byte-by-byte: reassembly must be split-agnostic.
        for b in bytes {
            fb.extend(&[b]);
        }
        let mut decoded = Vec::new();
        while let Some(p) = fb.next_frame().expect("well formed") {
            decoded.push(Response::decode(&p).expect("decodes"));
        }
        assert_eq!(decoded, resps);
        assert!(decoded[1].is_terminal() && !decoded[0].is_terminal());
    }

    #[test]
    fn malformed_frames_are_errors() {
        // Oversized length prefix.
        let mut fb = FrameBuf::new();
        fb.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(fb.next_frame().is_err());
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x7f]).is_err());
        // Truncated payload.
        assert!(Request::decode(&[OP_SUBMIT, 1, 2]).is_err());
        // Trailing garbage.
        let mut bytes = Vec::new();
        Response::Accepted { ticket: 9 }.encode(&mut bytes);
        let mut with_junk = bytes[4..].to_vec();
        with_junk.push(0xee);
        assert!(Response::decode(&with_junk).is_err());
    }
}
