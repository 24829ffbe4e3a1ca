//! Protocol instantiation: [`ProtocolKind`] → a runnable protocol.
//!
//! [`rtdb_core::ProtocolKind`] carries the *metadata* (names, families,
//! update models) but cannot construct protocols — the kernel sits below
//! the implementation crates in the dependency order. This module closes
//! the loop: [`instantiate`] builds the protocol behind a kind as an
//! [`AnyProtocol`], a static-enum-dispatch wrapper that implements
//! [`ProtocolFor`] over any view. Both engines' monomorphized loops drive
//! it with zero vtable hops on either side ([`Engine::run`], the
//! runtime's lock manager), and it is the only way the workspace holds a
//! protocol chosen at run time — there is no trait-object face: every
//! sweep, bench and binary builds its roster from [`ProtocolKind::ALL`] /
//! [`ProtocolKind::STANDARD`] through here, as kinds or as a
//! `Vec<AnyProtocol>`.
//!
//! [`Engine::run`]: crate::Engine::run

use rtdb_baselines::{Ccp, NaiveDa, OccBc, Pcp, RwPcp, TwoPlHp, TwoPlPi};
use rtdb_cc::PcpDa;
use rtdb_contention::{Bamboo, Brook2Pl};
use rtdb_core::{
    CeilingFlavor, Decision, EngineView, LockRequest, ProtocolFor, ProtocolKind, UpdateModel,
};
use rtdb_types::{InstanceId, ItemId, LockMode};

/// One variant per [`ProtocolKind`]; the match arms below are the only
/// protocol dispatch in the steady-state loop.
enum Inner {
    PcpDa(PcpDa),
    RwPcp(RwPcp),
    Pcp(Pcp),
    Ccp(Ccp),
    TwoPlPi(TwoPlPi),
    TwoPlHp(TwoPlHp),
    OccBc(OccBc),
    Bamboo(Bamboo),
    Brook2Pl(Brook2Pl),
    NaiveDa(NaiveDa),
}

/// A protocol selected at runtime but dispatched statically: an enum over
/// every implementation the workspace registers, implementing
/// [`ProtocolFor`] over any view by matching once per callback.
///
/// The wrapper also counts [`ProtocolFor::request`] calls — the live
/// "protocol decisions" figure the perf harness reports — so hot-loop
/// instrumentation needs no wrapper around the protocol.
pub struct AnyProtocol {
    kind: ProtocolKind,
    requests: u64,
    inner: Inner,
}

/// Construct the protocol a [`ProtocolKind`] names.
///
/// The mapping is exhaustive: adding a `ProtocolKind` variant without
/// extending it is a compile error, which is what keeps the registry's
/// metadata and the runnable lineup in lock-step (the
/// `registry_matches_instances` test asserts the metadata side).
pub fn instantiate(kind: ProtocolKind) -> AnyProtocol {
    let inner = match kind {
        ProtocolKind::PcpDa => Inner::PcpDa(PcpDa::new()),
        ProtocolKind::PcpDaLiteral => Inner::PcpDa(PcpDa::paper_literal()),
        ProtocolKind::RwPcp => Inner::RwPcp(RwPcp::new()),
        ProtocolKind::Pcp => Inner::Pcp(Pcp::new()),
        ProtocolKind::Ccp => Inner::Ccp(Ccp::new()),
        ProtocolKind::TwoPlPi => Inner::TwoPlPi(TwoPlPi::new()),
        ProtocolKind::TwoPlHp => Inner::TwoPlHp(TwoPlHp::new()),
        ProtocolKind::OccBc => Inner::OccBc(OccBc::new()),
        ProtocolKind::Bamboo => Inner::Bamboo(Bamboo::new()),
        ProtocolKind::Brook2Pl => Inner::Brook2Pl(Brook2Pl::new()),
        ProtocolKind::NaiveDa => Inner::NaiveDa(NaiveDa::new()),
    };
    AnyProtocol {
        kind,
        requests: 0,
        inner,
    }
}

impl AnyProtocol {
    /// The kind this protocol was built from.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Number of lock-request decisions taken so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }
}

macro_rules! dispatch {
    ($inner:expr, $p:ident => $body:expr) => {
        match $inner {
            Inner::PcpDa($p) => $body,
            Inner::RwPcp($p) => $body,
            Inner::Pcp($p) => $body,
            Inner::Ccp($p) => $body,
            Inner::TwoPlPi($p) => $body,
            Inner::TwoPlHp($p) => $body,
            Inner::OccBc($p) => $body,
            Inner::Bamboo($p) => $body,
            Inner::Brook2Pl($p) => $body,
            Inner::NaiveDa($p) => $body,
        }
    };
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for AnyProtocol {
    fn name(&self) -> &'static str {
        dispatch!(&self.inner, p => ProtocolFor::<V>::name(p))
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        self.requests += 1;
        dispatch!(&mut self.inner, p => ProtocolFor::request(p, view, req))
    }

    fn early_releases(
        &mut self,
        view: &V,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        dispatch!(&mut self.inner, p => ProtocolFor::early_releases(p, view, who, completed_step))
    }

    fn retires(&mut self, view: &V, who: InstanceId, completed_step: usize) -> Vec<ItemId> {
        dispatch!(&mut self.inner, p => ProtocolFor::retires(p, view, who, completed_step))
    }

    fn update_model(&self) -> UpdateModel {
        dispatch!(&self.inner, p => ProtocolFor::<V>::update_model(p))
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        dispatch!(&self.inner, p => ProtocolFor::system_ceiling(p, view))
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        dispatch!(&self.inner, p => ProtocolFor::<V>::ceiling_flavor(p))
    }

    fn may_abort(&self) -> bool {
        dispatch!(&self.inner, p => ProtocolFor::<V>::may_abort(p))
    }

    fn commit_victims(&mut self, view: &V, who: InstanceId) -> Vec<InstanceId> {
        dispatch!(&mut self.inner, p => ProtocolFor::commit_victims(p, view, who))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;

    /// The registry's static metadata must agree with what the
    /// instantiated protocols report through the trait — one drifting
    /// `match` arm and this fails. The instance's name also parses back
    /// to its kind.
    #[test]
    fn registry_matches_instances() {
        for &kind in ProtocolKind::ALL.iter() {
            let p = instantiate(kind);
            assert_eq!(p.kind(), kind);
            let name = ProtocolFor::<StaticView>::name(&p);
            assert_eq!(name, kind.name(), "{kind:?}");
            assert_eq!(name.parse::<ProtocolKind>(), Ok(kind));
            assert_eq!(
                ProtocolFor::<StaticView>::may_abort(&p),
                kind.may_abort(),
                "{kind:?}"
            );
            assert_eq!(
                ProtocolFor::<StaticView>::update_model(&p),
                kind.update_model(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn request_counter_starts_at_zero() {
        assert_eq!(instantiate(ProtocolKind::PcpDa).requests(), 0);
    }
}
