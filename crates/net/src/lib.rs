//! The TCP service edge for the rtdb runtime.
//!
//! Everything before this crate submits work in-process: the closed
//! loop's workers *are* the admitters, and the admission front-end
//! ([`rtdb_rt::front`]) takes requests over channels from threads in the
//! same address space. This crate is the missing network surface — the
//! front door real open-loop traffic would actually arrive through:
//!
//! * [`wire`] — a little-endian, length-prefixed binary protocol
//!   (submit a template instantiation with release/deadline/tenant;
//!   receive accepted/committed/shed/rejected), with an incremental
//!   frame accumulator hardened against desynchronized peers;
//! * [`server`] — [`serve`]: blocking `std::net` threads (the build is
//!   offline and pure-std, so no tokio/mio) — an acceptor, and per
//!   connection a reader that submits through a non-blocking submitter
//!   adapter and a writer that delivers completions, so a request waits
//!   for wake-ups, never for a timer;
//! * [`client`] — [`NetClient`]: the blocking, pipelining client the load
//!   generator and the loopback tests drive the edge with (its
//!   `wait_response` polls the socket for a bounded moment before it
//!   blocks, so no thread of the crate, client or server, waits on a
//!   timer: DESIGN.md §6g).
//!
//! The edge adds *transport*, not *policy*: admission decisions
//! (least-slack shedding, per-tenant fairness budgets) live in
//! [`rtdb_rt::admission`] and apply identically to in-process and
//! socket submissions, which is what lets the loopback tests replay a
//! socket run against the simulator bit-for-bit.

#![forbid(unsafe_code)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::NetClient;
pub use server::{serve, NetConfig};
pub use wire::{FrameBuf, Request, Response, WireError, MAX_FRAME_LEN, MAX_TENANT};
