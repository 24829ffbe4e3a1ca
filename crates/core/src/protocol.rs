//! The protocol trait and the engine-side view it consults.

use crate::ceiling_index::CeilingFlavor;
use crate::ceilings::{CeilingTable, Holders};
use crate::locks::LockTable;
use rtdb_types::{InstanceId, ItemId, LockMode, Priority, TransactionSet};

/// How writes reach the committed store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateModel {
    /// Deferred updates: writes stay in the private workspace and are
    /// installed at commit (paper §4, the model PCP-DA assumes). Under
    /// strict locking this also faithfully emulates update-in-place for
    /// the 2PL/PCP/RW-PCP baselines.
    Workspace,
    /// Writes are installed the moment a write lock is *released early*
    /// (before commit). Only CCP needs this: it may unlock a written item
    /// before the transaction ends, and later readers must see the value.
    InstallOnEarlyRelease,
}

/// A sentinel instance that holds no locks — used as the "observer" when
/// computing the global system ceiling (every `Sysceil` computation
/// excludes the observer's own locks, and this observer has none).
pub fn ceiling_observer() -> InstanceId {
    InstanceId::new(rtdb_types::TxnId(u32::MAX), u32::MAX)
}

/// A lock request presented to a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRequest {
    /// Requesting instance.
    pub who: InstanceId,
    /// Item requested.
    pub item: ItemId,
    /// Mode requested.
    pub mode: LockMode,
}

/// Which of PCP-DA's locking conditions (paper §5) granted a request —
/// the conditions the paper's worked examples name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantRule {
    /// Write lock, no foreign read lock on the item.
    Lc1,
    /// Read lock, `P_i > Sysceil_i`.
    Lc2,
    /// Read lock, `P_i > HPW(x)` and `x ∉ WriteSet(T*)`.
    Lc3,
    /// Read lock, `P_i = HPW(x)`, `No_Rlock(x)`, `x ∉ WriteSet(T*)`,
    /// `DataRead(T*) ∩ WriteSet(T_i) = ∅`.
    Lc4,
}

/// A protocol's answer to a lock request. The instances a refusal names
/// are a [`Holders`] list — ascending, each once, up to
/// [`Holders::INLINE`] of them in place — so deciding allocates only past
/// that many.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Grant the lock now, naming the rule that decided it when the
    /// protocol names its rules (PCP-DA's LC1–LC4); the kernel logs it
    /// with the grant it applies ([`crate::Effect::Granted`]).
    Grant(Option<GrantRule>),
    /// Deny; the requester blocks and `blockers` inherit its priority.
    /// `blockers` must be non-empty and must not contain the requester.
    Block {
        /// The instances responsible for the denial (the paper's blocking
        /// lower-priority transaction; possibly higher-priority conflict
        /// holders, for which inheritance is a no-op).
        blockers: Holders,
    },
    /// Abort the listed holders, then grant (2PL-HP: the requester has
    /// higher priority than every victim). Victims restart from scratch.
    AbortHolders {
        /// Instances to abort; must not contain the requester.
        victims: Holders,
    },
    /// The *requester* aborts itself and restarts (wait-die style: the
    /// protocol's ordering rule forbids both waiting for and wounding
    /// the conflict holders). `blockers` names the instances responsible;
    /// engines may delay the restart until the last of them has committed
    /// or aborted, so the retry can make progress.
    AbortSelf {
        /// The conflicting instances; must be non-empty and must not
        /// contain the requester.
        blockers: Holders,
    },
}

/// What a protocol may observe about the running system.
///
/// Implemented by [`crate::StateKernel`] for both engines (and by the
/// static [`crate::testkit::StaticView`] for protocol unit tests); keeps
/// protocols free of any dependency on an engine's internals.
pub trait EngineView {
    /// The static transaction set.
    fn set(&self) -> &TransactionSet;
    /// The current lock table.
    fn locks(&self) -> &LockTable;
    /// Precomputed static ceilings and write sets.
    fn ceilings(&self) -> &CeilingTable;
    /// Original (base) priority of an instance.
    fn base_priority(&self, who: InstanceId) -> Priority;
    /// Current running priority (base joined with inherited).
    fn running_priority(&self, who: InstanceId) -> Priority;
    /// `DataRead(T)`: items the instance has read so far, sorted ascending.
    fn data_read(&self, who: InstanceId) -> &[ItemId];

    /// The lock request `who` is currently blocked on, if any. Lets a
    /// protocol reason about *why* a holder is stalled (PCP-DA's
    /// commit-order guard needs to know whether a higher-priority write
    /// holder is hard-blocked on the requester).
    fn pending_request(&self, who: InstanceId) -> Option<LockRequest>;

    /// All currently live (released, uncommitted) instances, sorted
    /// ascending by id.
    fn active_instances(&self) -> &[InstanceId];

    /// The items `who` has staged writes for (its actual, dynamic write
    /// set — used by optimistic validation), sorted ascending.
    fn staged_write_items(&self, who: InstanceId) -> &[ItemId];

    /// The owner of the latest live retired write on `item` — the
    /// instance a grant of `item` now would put on the grantee's commit
    /// gate — or `None` when nothing on it is retired. Early-release
    /// protocols (Brook-2PL) decide against it.
    fn latest_retiree(&self, item: ItemId) -> Option<InstanceId>;
}

/// True if two ascending-sorted slices share no element — the slice
/// counterpart of `BTreeSet::is_disjoint`, used by protocols on the
/// [`EngineView::data_read`] / write-set slices.
pub fn sorted_disjoint<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// A concurrency-control protocol, generic over the view it observes.
///
/// The one protocol trait: implementations write it, the kernel and both
/// engines drive it. It is generic over the view type `V` so both sides
/// of the engine/protocol conversation are monomorphized — the engine
/// runs its steady-state loop against `ProtocolFor<StateKernel>` with no
/// virtual call in either direction. Implementations are blanket impls
/// over any view (`impl<V: EngineView + ?Sized> ProtocolFor<V> for P`),
/// so the same protocol answers the kernel and the
/// [`crate::testkit::StaticView`] of a unit test; `rtdb_sim::Engine::run`
/// has a compiled example. A protocol chosen at run time is an
/// `rtdb_protocols::AnyProtocol` (an enum over the registered kinds),
/// never a trait object.
pub trait ProtocolFor<V: EngineView + ?Sized> {
    /// Short stable name used in reports ("PCP-DA", "RW-PCP", ...).
    fn name(&self) -> &'static str;

    /// Decide a lock request. Must not mutate the lock table — the engine
    /// applies the decision. The kernel also asks again whether a parked
    /// request would now pass ([`crate::StateKernel::reevaluate`]), so a
    /// decision is a verdict, not a grant: what was granted is what the
    /// kernel logs ([`crate::Effect::Granted`]).
    fn request(&mut self, view: &V, req: LockRequest) -> Decision;

    /// Called after `who` finished executing its `completed_step`-th step.
    /// Returns locks to release before commit (CCP's early unlock); the
    /// engine installs staged writes for early-released write locks when
    /// the update model is [`UpdateModel::InstallOnEarlyRelease`].
    fn early_releases(
        &mut self,
        _view: &V,
        _who: InstanceId,
        _completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        Vec::new()
    }

    /// Called after `who` finished its `completed_step`-th step: the
    /// *write* locks to **retire** — release before commit into the
    /// item's retired chain, staged value and all, so later lockers can
    /// read the dirty value and be gated behind `who` (DESIGN.md §6h).
    /// Unlike [`ProtocolFor::early_releases`], retired writes install
    /// only at commit.
    fn retires(&mut self, _view: &V, _who: InstanceId, _completed_step: usize) -> Vec<ItemId> {
        Vec::new()
    }

    /// The update model this protocol requires.
    fn update_model(&self) -> UpdateModel {
        UpdateModel::Workspace
    }

    /// The *global* system ceiling currently in effect (the paper's
    /// `Max_Sysceil`, the dotted line of Figures 4 and 5): the ceiling an
    /// arriving transaction that holds nothing would face. Protocols
    /// without a ceiling notion (2PL) report [`rtdb_types::Ceiling::Dummy`].
    ///
    /// It must be a function of the lock table ([`EngineView::locks`],
    /// with the set's fixed [`EngineView::ceilings`]): the simulator
    /// samples it only when [`crate::LockTable::version`] has moved since
    /// its last sample, and checks that premise in debug builds and under
    /// `oracle-checks`.
    fn system_ceiling(&self, _view: &V) -> rtdb_types::Ceiling {
        rtdb_types::Ceiling::Dummy
    }

    /// The `Sysceil` flavor this protocol queries, if any. An engine
    /// builds its lock table to maintain exactly that one incrementally
    /// ([`crate::LockTable::with_flavor`]); a query for an undeclared
    /// flavor is answered by its from-scratch scan — slower, never wrong.
    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        None
    }

    /// True if the protocol may abort transactions (2PL-HP, OCC).
    /// Protocols with this property invalidate the paper's schedulability
    /// analysis — the flag lets tests assert PCP-DA never aborts.
    fn may_abort(&self) -> bool {
        false
    }

    /// Called just before `who` commits: return the active instances this
    /// commit *invalidates* — they are aborted and restarted before the
    /// writes install (optimistic concurrency control with forward
    /// validation). Lock-based protocols never need this.
    fn commit_victims(&mut self, _view: &V, _who: InstanceId) -> Vec<InstanceId> {
        Vec::new()
    }
}

impl Decision {
    /// Convenience constructor that deduplicates and drops the requester
    /// from the blocker list — protocols use it to express "blocked by
    /// whoever holds these locks".
    pub fn block_on<I: IntoIterator<Item = InstanceId>>(who: InstanceId, blockers: I) -> Decision {
        let list: Holders = blockers.into_iter().filter(|&b| b != who).collect();
        assert!(
            !list.is_empty(),
            "a Block decision needs at least one blocker (requester {who})"
        );
        Decision::Block { blockers: list }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::TxnId;

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    #[test]
    fn block_on_dedupes_and_drops_requester() {
        let d = Decision::block_on(i(0), vec![i(1), i(0), i(1), i(2)]);
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(1), i(2)].into()
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one blocker")]
    fn block_on_rejects_empty() {
        let _ = Decision::block_on(i(0), vec![i(0)]);
    }
}
