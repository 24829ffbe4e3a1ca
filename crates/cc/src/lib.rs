//! **PCP-DA** — the Priority Ceiling Protocol with Dynamic Adjustment of
//! serialization order (Lam, Son, Hung; ICDE 1997).
//!
//! # The idea
//!
//! Classical real-time priority-ceiling protocols (PCP, RW-PCP, CCP) fix
//! the serialization order between two transactions at the moment of their
//! first conflicting access, because they assume updates take effect in
//! place. That forces a higher-priority transaction `T_H` to *block* behind
//! a lower-priority writer `T_L` even when nothing about data consistency
//! requires it.
//!
//! PCP-DA assumes the **update-in-workspace** model instead: writes are
//! buffered privately and installed at commit. The serialization order
//! between conflicting transactions is then decided only at commit time,
//! which lets the protocol *dynamically adjust* it:
//!
//! * **Write/Read** (`T_L` write-locked `x`, `T_H` wants to read): `T_H`
//!   may preempt, reading the committed pre-image and serializing
//!   `T_H → T_L` — provided `T_H` is guaranteed to commit first, i.e.
//!   `DataRead(T_L) ∩ WriteSet(T_H) = ∅` (otherwise `T_H` would later
//!   block behind `T_L` and `T_L`'s commit would invalidate `T_H`'s read).
//! * **Read/Write** (`T_L` read-locked `x`, `T_H` wants to write): `T_H`
//!   must block — its write would otherwise invalidate `T_L`'s read and
//!   force a restart, which PCP-DA forbids.
//! * **Write/Write**: blind writes never conflict under deferred updates;
//!   the commit order serializes them. Both proceed.
//!
//! Consequently **write locks never raise a ceiling**; only read locks do.
//! Each item needs a single static ceiling, the *write priority ceiling*
//! `Wceil(x)` — the priority of the highest-priority transaction that may
//! write `x` — and the system ceiling `Sysceil_i` is the highest `Wceil`
//! among items read-locked by transactions other than `T_i`.
//!
//! # Locking conditions (paper §5)
//!
//! A request by `T_i` on item `x` is granted iff one of:
//!
//! | | condition |
//! |----|-----------|
//! | LC1 | write-lock request and no other transaction read-holds `x` |
//! | LC2 | read-lock request and `P_i > Sysceil_i` |
//! | LC3 | read-lock request and `P_i > HPW(x)` and `x ∉ WriteSet(T*)` |
//! | LC4 | read-lock request and `P_i = HPW(x)` and `No_Rlock(x)` and `x ∉ WriteSet(T*)` and `DataRead(T*) ∩ WriteSet(T_i) = ∅` |
//!
//! where `T*` holds the read-locked item whose `Wceil` equals `Sysceil_i`,
//! and `HPW(x) = Wceil(x)`. Denied requests block; blockers inherit the
//! requester's priority.
//!
//! PCP-DA keeps RW-PCP's two guarantees — **single blocking** (Theorem 1)
//! and **deadlock freedom** (Theorem 2) — produces only serializable
//! histories with the commit order as a serialization order (Theorem 3),
//! and never aborts or restarts a transaction.
//!
//! # Priority convention
//!
//! The locking conditions compare the requester's **original** (base)
//! priority against ceilings, as in the classical PCP literature; the
//! *running* (possibly inherited) priority governs CPU scheduling only.
//! Ceilings are computed from base priorities, so comparing an inherited
//! priority against them would let a temporarily-boosted transaction take
//! locks its own priority does not justify, breaking Lemma 4 ("`T_i` will
//! not write-lock `x`" is an inference from `P_i > HPW(x)` about `T_i`'s
//! *identity*, valid only for its original priority).
//!
//! # Example
//!
//! ```
//! use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate, LockMode, InstanceId, TxnId};
//! use rtdb_core::{Decision, LockRequest, ProtocolFor};
//! use rtdb_cc::PcpDa;
//!
//! // Paper Example 3: T1 reads x,y; T2 writes x,y.
//! let set = SetBuilder::new()
//!     .with(TransactionTemplate::new("T1", 5, vec![
//!         Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)]))
//!     .with(TransactionTemplate::new("T2", 10, vec![
//!         Step::write(ItemId(0), 1), Step::compute(2),
//!         Step::write(ItemId(1), 1), Step::compute(1)]))
//!     .build().unwrap();
//!
//! let t1 = InstanceId::first(TxnId(0));
//! let t2 = InstanceId::first(TxnId(1));
//! let mut view = rtdb_core::testkit::StaticView::new(&set);
//! let mut proto = PcpDa::new();
//!
//! // T2 write-locks x (LC1: nobody read-holds x).
//! let d = proto.request(&view, LockRequest { who: t2, item: ItemId(0), mode: LockMode::Write });
//! assert_eq!(d, Decision::Grant);
//! view.grant(t2, ItemId(0), LockMode::Write);
//!
//! // T1 read-locks x although T2 write-holds it (LC2: Sysceil is dummy).
//! let d = proto.request(&view, LockRequest { who: t1, item: ItemId(0), mode: LockMode::Read });
//! assert_eq!(d, Decision::Grant);
//! ```

#![forbid(unsafe_code)]

pub mod compat;
pub mod protocol;

pub use compat::{compatible, CompatInput};
pub use protocol::{GrantRule, PcpDa};
