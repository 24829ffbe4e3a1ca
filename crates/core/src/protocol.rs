//! The protocol trait and the engine-side view it consults.

use crate::ceiling_index::CeilingFlavor;
use crate::ceilings::CeilingTable;
use crate::deps::DepTracker;
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

/// Whether a transaction instance may write.
///
/// Templates with an empty write set run as [`TxnMode::ReadOnly`]; engines
/// offer protocols the chance to run such instances on the lock-free
/// multiversion snapshot path via [`ProtocolFor::lock_exempt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnMode {
    /// May read and write; always takes the lock-based path.
    ReadWrite,
    /// Provably never writes (no `Write` step in the template); a
    /// candidate for lock-exempt snapshot reads.
    ReadOnly,
}

impl TxnMode {
    /// The mode of `template`: [`TxnMode::ReadOnly`] iff no step writes.
    pub fn of(template: &rtdb_types::TransactionTemplate) -> TxnMode {
        if template.is_read_only() {
            TxnMode::ReadOnly
        } else {
            TxnMode::ReadWrite
        }
    }
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

/// A protocol's answer to a lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Grant the lock now.
    Grant,
    /// Deny; the requester blocks and `blockers` inherit its priority.
    /// `blockers` must be non-empty and must not contain the requester.
    Block {
        /// The instances responsible for the denial (the paper's blocking
        /// lower-priority transaction; possibly higher-priority conflict
        /// holders, for which inheritance is a no-op).
        blockers: Vec<InstanceId>,
    },
    /// Abort the listed holders, then grant (2PL-HP: the requester has
    /// higher priority than every victim). Victims restart from scratch.
    AbortHolders {
        /// Instances to abort; must not contain the requester.
        victims: Vec<InstanceId>,
    },
    /// The *requester* aborts itself and restarts (wait-die style: the
    /// protocol's ordering rule forbids both waiting for and wounding
    /// the conflict holders). `blockers` names the instances responsible;
    /// engines may delay the restart until one of them commits or aborts
    /// so the retry can make progress.
    AbortSelf {
        /// The conflicting instances; must be non-empty and must not
        /// contain the requester.
        blockers: Vec<InstanceId>,
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

    /// The dependency tracker (retired-lock lists + commit-dependency
    /// graph), when the engine maintains one. Early-release protocols
    /// (Bamboo, Brook-2PL) consult it to decide against retired writers;
    /// `None` (the default, kept by minimal views such as the testkit)
    /// reads as "nothing retired".
    fn deps(&self) -> Option<&DepTracker> {
        None
    }
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
/// This is the trait protocol *implementations* write. It is generic over
/// the view type `V` so both sides of the engine/protocol conversation can
/// be monomorphized: the engine runs its steady-state loop against
/// `ProtocolFor<ConcreteView>` with zero virtual calls in either
/// direction. Implementations should be written as blanket impls over any
/// view —
///
/// ```ignore
/// impl<V: EngineView + ?Sized> ProtocolFor<V> for MyProtocol { ... }
/// ```
///
/// — which makes them usable both statically and as trait objects: any
/// type implementing `ProtocolFor` over every view automatically
/// implements the view-erased, object-safe [`Protocol`] trait, so
/// `Box<dyn Protocol>` call sites keep working, and [`DynProtocol`]
/// adapts such an object back into a `ProtocolFor<V>` for any concrete
/// view.
pub trait ProtocolFor<V: EngineView + ?Sized> {
    /// Short stable name used in reports ("PCP-DA", "RW-PCP", ...).
    fn name(&self) -> &'static str;

    /// Decide a lock request. Must not mutate the lock table — the engine
    /// applies the decision.
    fn request(&mut self, view: &V, req: LockRequest) -> Decision;

    /// Notification: the request was granted and recorded.
    fn on_grant(&mut self, _view: &V, _req: LockRequest) {}

    /// Notification: `who` committed; its locks have been released.
    fn on_commit(&mut self, _view: &V, _who: InstanceId) {}

    /// Notification: `who` aborted; its locks have been released.
    fn on_abort(&mut self, _view: &V, _who: InstanceId) {}

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
    /// dependency tracker's retired list, staged value and all, so later
    /// lockers can read the dirty value and be gated behind `who`
    /// (DESIGN.md §6h). Unlike [`ProtocolFor::early_releases`], retired
    /// writes install only at commit; the engine must maintain a
    /// [`DepTracker`] for any protocol returning non-empty here.
    fn retires(&mut self, _view: &V, _who: InstanceId, _completed_step: usize) -> Vec<ItemId> {
        Vec::new()
    }

    /// The update model this protocol requires.
    fn update_model(&self) -> UpdateModel {
        UpdateModel::Workspace
    }

    /// True if instances running in `mode` may bypass this protocol
    /// entirely and read from a multiversion snapshot (never locking,
    /// never raising `Sysceil`, never blocking or being blocked).
    ///
    /// Sound by default exactly for read-only transactions under the
    /// deferred-update model: every commit installs atomically at a global
    /// commit stamp, so a snapshot at stamp `S` equals the serial state
    /// after the first `S` committed writers and the reader serialises
    /// right there. Protocols that install writes *before* commit
    /// ([`UpdateModel::InstallOnEarlyRelease`], i.e. CCP) decline: a
    /// snapshot taken between an early install's commit and the commit of
    /// the transaction whose dirty value it read is not a committed
    /// prefix, so their read-only instances stay on the lock-based path.
    fn lock_exempt(&self, mode: TxnMode) -> bool {
        mode == TxnMode::ReadOnly && self.update_model() == UpdateModel::Workspace
    }

    /// The *global* system ceiling currently in effect (the paper's
    /// `Max_Sysceil`, the dotted line of Figures 4 and 5): the ceiling an
    /// arriving transaction that holds nothing would face. Protocols
    /// without a ceiling notion (2PL) report [`rtdb_types::Ceiling::Dummy`].
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

    /// True if the protocol can reach a deadlock (2PL-PI, Naive-DA, the
    /// literal pre-erratum PCP-DA). Drivers consult this to enable the
    /// engine's wait-for deadlock resolution; every repaired ceiling
    /// protocol is provably deadlock-free and reports `false`.
    fn may_deadlock(&self) -> bool {
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

/// A concurrency-control protocol as a view-erased trait object.
///
/// The object-safe face of [`ProtocolFor`]: every method takes
/// `&dyn EngineView`, whose object lifetime elaborates per call site, so a
/// `Box<dyn Protocol>` can be driven with the engine's short-lived views.
/// Do not implement this trait directly — write a blanket
/// `ProtocolFor<V>` impl instead and this trait comes for free.
pub trait Protocol {
    /// See [`ProtocolFor::name`].
    fn name(&self) -> &'static str;
    /// See [`ProtocolFor::request`].
    fn request(&mut self, view: &dyn EngineView, req: LockRequest) -> Decision;
    /// See [`ProtocolFor::on_grant`].
    fn on_grant(&mut self, view: &dyn EngineView, req: LockRequest);
    /// See [`ProtocolFor::on_commit`].
    fn on_commit(&mut self, view: &dyn EngineView, who: InstanceId);
    /// See [`ProtocolFor::on_abort`].
    fn on_abort(&mut self, view: &dyn EngineView, who: InstanceId);
    /// See [`ProtocolFor::early_releases`].
    fn early_releases(
        &mut self,
        view: &dyn EngineView,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)>;
    /// See [`ProtocolFor::retires`].
    fn retires(
        &mut self,
        view: &dyn EngineView,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<ItemId>;
    /// See [`ProtocolFor::update_model`].
    fn update_model(&self) -> UpdateModel;
    /// See [`ProtocolFor::lock_exempt`].
    fn lock_exempt(&self, mode: TxnMode) -> bool;
    /// See [`ProtocolFor::system_ceiling`].
    fn system_ceiling(&self, view: &dyn EngineView) -> rtdb_types::Ceiling;
    /// See [`ProtocolFor::ceiling_flavor`].
    fn ceiling_flavor(&self) -> Option<CeilingFlavor>;
    /// See [`ProtocolFor::may_abort`].
    fn may_abort(&self) -> bool;
    /// See [`ProtocolFor::may_deadlock`].
    fn may_deadlock(&self) -> bool;
    /// See [`ProtocolFor::commit_victims`].
    fn commit_victims(&mut self, view: &dyn EngineView, who: InstanceId) -> Vec<InstanceId>;
}

/// Every view-generic protocol is a view-erased [`Protocol`].
impl<P> Protocol for P
where
    P: for<'v> ProtocolFor<dyn EngineView + 'v>,
{
    fn name(&self) -> &'static str {
        ProtocolFor::<dyn EngineView>::name(self)
    }

    fn request(&mut self, view: &dyn EngineView, req: LockRequest) -> Decision {
        ProtocolFor::request(self, view, req)
    }

    fn on_grant(&mut self, view: &dyn EngineView, req: LockRequest) {
        ProtocolFor::on_grant(self, view, req)
    }

    fn on_commit(&mut self, view: &dyn EngineView, who: InstanceId) {
        ProtocolFor::on_commit(self, view, who)
    }

    fn on_abort(&mut self, view: &dyn EngineView, who: InstanceId) {
        ProtocolFor::on_abort(self, view, who)
    }

    fn early_releases(
        &mut self,
        view: &dyn EngineView,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        ProtocolFor::early_releases(self, view, who, completed_step)
    }

    fn retires(
        &mut self,
        view: &dyn EngineView,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<ItemId> {
        ProtocolFor::retires(self, view, who, completed_step)
    }

    fn update_model(&self) -> UpdateModel {
        ProtocolFor::<dyn EngineView>::update_model(self)
    }

    fn lock_exempt(&self, mode: TxnMode) -> bool {
        ProtocolFor::<dyn EngineView>::lock_exempt(self, mode)
    }

    fn system_ceiling(&self, view: &dyn EngineView) -> rtdb_types::Ceiling {
        ProtocolFor::system_ceiling(self, view)
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        ProtocolFor::<dyn EngineView>::ceiling_flavor(self)
    }

    fn may_abort(&self) -> bool {
        ProtocolFor::<dyn EngineView>::may_abort(self)
    }

    fn may_deadlock(&self) -> bool {
        ProtocolFor::<dyn EngineView>::may_deadlock(self)
    }

    fn commit_victims(&mut self, view: &dyn EngineView, who: InstanceId) -> Vec<InstanceId> {
        ProtocolFor::commit_victims(self, view, who)
    }
}

/// Adapter running a view-erased `&mut dyn Protocol` behind any concrete
/// [`EngineView`] type, by unsizing the view at the boundary.
///
/// This keeps `Box<dyn Protocol>` call sites working against the
/// monomorphized engine loop: the loop itself is compiled for a concrete
/// view type, and only protocols that are *already* trait objects pay the
/// two virtual hops (protocol vtable + view vtable) per callback.
pub struct DynProtocol<'p> {
    inner: &'p mut (dyn Protocol + 'p),
}

impl<'p> DynProtocol<'p> {
    /// Wrap a view-erased protocol object.
    pub fn new(inner: &'p mut (dyn Protocol + 'p)) -> Self {
        DynProtocol { inner }
    }
}

impl<V: EngineView> ProtocolFor<V> for DynProtocol<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        self.inner.request(view, req)
    }

    fn on_grant(&mut self, view: &V, req: LockRequest) {
        self.inner.on_grant(view, req)
    }

    fn on_commit(&mut self, view: &V, who: InstanceId) {
        self.inner.on_commit(view, who)
    }

    fn on_abort(&mut self, view: &V, who: InstanceId) {
        self.inner.on_abort(view, who)
    }

    fn early_releases(
        &mut self,
        view: &V,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        self.inner.early_releases(view, who, completed_step)
    }

    fn retires(&mut self, view: &V, who: InstanceId, completed_step: usize) -> Vec<ItemId> {
        self.inner.retires(view, who, completed_step)
    }

    fn update_model(&self) -> UpdateModel {
        self.inner.update_model()
    }

    fn lock_exempt(&self, mode: TxnMode) -> bool {
        self.inner.lock_exempt(mode)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        self.inner.system_ceiling(view)
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        self.inner.ceiling_flavor()
    }

    fn may_abort(&self) -> bool {
        self.inner.may_abort()
    }

    fn may_deadlock(&self) -> bool {
        self.inner.may_deadlock()
    }

    fn commit_victims(&mut self, view: &V, who: InstanceId) -> Vec<InstanceId> {
        self.inner.commit_victims(view, who)
    }
}

impl Decision {
    /// Convenience constructor that deduplicates and drops the requester
    /// from the blocker list, returning `Grant` if nothing remains —
    /// protocols use it to express "blocked by whoever holds these locks".
    pub fn block_on<I: IntoIterator<Item = InstanceId>>(who: InstanceId, blockers: I) -> Decision {
        let mut list: Vec<InstanceId> = blockers.into_iter().filter(|&b| b != who).collect();
        list.sort_unstable();
        list.dedup();
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
                blockers: vec![i(1), i(2)]
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one blocker")]
    fn block_on_rejects_empty() {
        let _ = Decision::block_on(i(0), vec![i(0)]);
    }
}
