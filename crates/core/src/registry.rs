//! The protocol registry: one enum naming every concurrency-control
//! protocol the workspace implements, with parsing, display and static
//! metadata.
//!
//! Before this registry existed the workspace carried three hand-written
//! protocol line-ups (the sweep module, the bench crate and the `rtdbsim`
//! CLI) that drifted independently. [`ProtocolKind`] is now the single
//! source of truth: [`ProtocolKind::STANDARD`] is the evaluation line-up
//! (the seven protocols of the paper's comparison), [`ProtocolKind::ALL`]
//! additionally names the two deliberately defective demonstration
//! variants (`PCP-DA-literal`, `Naive-DA`), and every list of protocols
//! elsewhere in the workspace derives from one of the two.
//!
//! The enum itself carries no constructor — this crate sits *below* the
//! implementation crates (`rtdb-cc`, `rtdb-baselines`) in the dependency
//! graph, so instantiation lives where the implementations are visible
//! (`rtdb_sim::registry::instantiate`), keyed on this enum so the
//! compiler enforces exhaustiveness.

use crate::protocol::UpdateModel;
use std::fmt;
use std::str::FromStr;

/// Broad family of a concurrency-control protocol, as the paper's §2
/// taxonomy groups them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolFamily {
    /// Priority-ceiling locking (PCP, RW-PCP, CCP, PCP-DA and variants).
    PriorityCeiling,
    /// Two-phase locking (priority inheritance or high-priority abort).
    TwoPhaseLocking,
    /// Optimistic concurrency control (validate at commit, restart losers).
    Optimistic,
}

impl fmt::Display for ProtocolFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolFamily::PriorityCeiling => "priority ceiling",
            ProtocolFamily::TwoPhaseLocking => "two-phase locking",
            ProtocolFamily::Optimistic => "optimistic",
        })
    }
}

/// Every concurrency-control protocol the workspace implements.
///
/// `Display` prints the canonical report name (`"PCP-DA"`, ...);
/// `FromStr` parses it back case-insensitively, also accepting the
/// [`aliases`](ProtocolKind::aliases), and its error message lists every
/// valid name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// The paper's contribution (locking conditions LC1–LC4 with the
    /// erratum clauses (A)–(D) of DESIGN.md §5b).
    PcpDa,
    /// PCP-DA with LC3 exactly as printed in the paper — no clause (A) —
    /// kept to reproduce the Theorem 2 counterexample. Can deadlock.
    PcpDaLiteral,
    /// Read/write priority ceiling protocol (Sha, Rajkumar, Son, Chang).
    RwPcp,
    /// The original priority ceiling protocol, applied to data items.
    Pcp,
    /// Convex ceiling protocol (Nakazato, Lin): PCP plus early unlock.
    Ccp,
    /// Strict 2PL with priority inheritance. Can deadlock.
    TwoPlPi,
    /// 2PL High Priority: conflicts favour the higher-priority side.
    TwoPlHp,
    /// Optimistic concurrency control with broadcast commit.
    OccBc,
    /// Bamboo-style early lock release (Guo et al.): 2PL-HP base, write
    /// locks retire after their last access into the dependency tracker's
    /// retired list, dirty readers are gated behind the retirer and
    /// cascade-abort if it aborts; a retired chain is always acquirable
    /// via a commit dependency on the latest retiree.
    Bamboo,
    /// Brook-2PL-style deadlock-free early release (Habibi et al.,
    /// adapted): wait-die polarity over a static seniority order — all
    /// lock waits *and* commit-gate dependencies point senior→junior, so
    /// no cycle can form; juniors facing senior conflicts self-abort.
    Brook2Pl,
    /// The paper's Example 5 protocol: condition (2) without the `T*`
    /// safeguards. Deadlocks by design.
    NaiveDa,
}

impl ProtocolKind {
    /// Every protocol the workspace implements, in presentation order.
    pub const ALL: [ProtocolKind; 11] = [
        ProtocolKind::PcpDa,
        ProtocolKind::PcpDaLiteral,
        ProtocolKind::RwPcp,
        ProtocolKind::Pcp,
        ProtocolKind::Ccp,
        ProtocolKind::TwoPlPi,
        ProtocolKind::TwoPlHp,
        ProtocolKind::OccBc,
        ProtocolKind::Bamboo,
        ProtocolKind::Brook2Pl,
        ProtocolKind::NaiveDa,
    ];

    /// The standard evaluation line-up: PCP-DA plus every baseline of the
    /// paper's comparison and the contention-tolerant early-release kinds,
    /// excluding the deliberately defective demonstration variants
    /// (`PCP-DA-literal`, `Naive-DA`).
    pub const STANDARD: [ProtocolKind; 9] = [
        ProtocolKind::PcpDa,
        ProtocolKind::RwPcp,
        ProtocolKind::Pcp,
        ProtocolKind::Ccp,
        ProtocolKind::TwoPlPi,
        ProtocolKind::TwoPlHp,
        ProtocolKind::OccBc,
        ProtocolKind::Bamboo,
        ProtocolKind::Brook2Pl,
    ];

    /// Canonical report name; equals the constructed protocol's
    /// `ProtocolFor::name()`.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::PcpDa => "PCP-DA",
            ProtocolKind::PcpDaLiteral => "PCP-DA-literal",
            ProtocolKind::RwPcp => "RW-PCP",
            ProtocolKind::Pcp => "PCP",
            ProtocolKind::Ccp => "CCP",
            ProtocolKind::TwoPlPi => "2PL-PI",
            ProtocolKind::TwoPlHp => "2PL-HP",
            ProtocolKind::OccBc => "OCC-BC",
            ProtocolKind::Bamboo => "Bamboo",
            ProtocolKind::Brook2Pl => "Brook-2PL",
            ProtocolKind::NaiveDa => "Naive-DA",
        }
    }

    /// Additional accepted spellings for [`FromStr`] (all matching is
    /// case-insensitive, so these only cover punctuation variants).
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            ProtocolKind::PcpDa => &["pcpda"],
            ProtocolKind::PcpDaLiteral => &["literal", "pcpda-literal"],
            ProtocolKind::RwPcp => &["rwpcp"],
            ProtocolKind::Pcp => &[],
            ProtocolKind::Ccp => &[],
            ProtocolKind::TwoPlPi => &["2plpi"],
            ProtocolKind::TwoPlHp => &["2plhp"],
            ProtocolKind::OccBc => &["occ"],
            ProtocolKind::Bamboo => &[],
            ProtocolKind::Brook2Pl => &["brook", "brook2pl"],
            ProtocolKind::NaiveDa => &["naiveda"],
        }
    }

    /// The protocol's family in the paper's §2 taxonomy.
    pub fn family(self) -> ProtocolFamily {
        match self {
            ProtocolKind::PcpDa
            | ProtocolKind::PcpDaLiteral
            | ProtocolKind::RwPcp
            | ProtocolKind::Pcp
            | ProtocolKind::Ccp
            | ProtocolKind::NaiveDa => ProtocolFamily::PriorityCeiling,
            ProtocolKind::TwoPlPi
            | ProtocolKind::TwoPlHp
            | ProtocolKind::Bamboo
            | ProtocolKind::Brook2Pl => ProtocolFamily::TwoPhaseLocking,
            ProtocolKind::OccBc => ProtocolFamily::Optimistic,
        }
    }

    /// The update model the protocol requires; equals the constructed
    /// protocol's `ProtocolFor::update_model()`.
    pub fn update_model(self) -> UpdateModel {
        match self {
            ProtocolKind::Ccp => UpdateModel::InstallOnEarlyRelease,
            _ => UpdateModel::Workspace,
        }
    }

    /// Whether read-only transactions may bypass this protocol and read
    /// from a multiversion snapshot (never locking, never raising
    /// `Sysceil`, never blocking or being blocked) — the one statement of
    /// the rule: the runtime reads it here, the simulator applies the
    /// same test to the running protocol's `update_model()`.
    ///
    /// Exactly the deferred-update kinds qualify: every commit installs
    /// atomically at a global commit stamp, so a snapshot at stamp `S`
    /// equals the serial state after the first `S` committed writers and
    /// the reader serialises right there. CCP installs writes at early
    /// release: a snapshot taken between an early install's commit and
    /// the commit of the transaction whose dirty value it read is not a
    /// committed prefix, so its read-only instances keep locking.
    pub fn snapshot_exempt(self) -> bool {
        self.update_model() == UpdateModel::Workspace
    }

    /// Whether the protocol's correctness argument survives partitioned
    /// (per-shard) ceilings, i.e. whether a sharded lock manager may run
    /// it with `--shards > 1`.
    ///
    /// A kind qualifies when its decisions depend only on shard-local
    /// state once items are partitioned: per-shard `Sysceil`/`Aceil`
    /// plus canonical-order shard entry preserves the ceiling protocols'
    /// blocking argument (DPCP-p's construction), 2PL variants never
    /// consult a global quantity, and OCC validates against per-shard
    /// holder sets. Excluded: CCP installs writes at early release, so a
    /// cross-shard transaction would expose non-atomic commit prefixes
    /// across shards; the deliberately defective demonstration variants
    /// (`PCP-DA-literal`, `Naive-DA`) have no correctness argument to
    /// preserve.
    pub fn shardable(self) -> bool {
        // Also excluded: the early-release kinds (Bamboo, Brook-2PL) —
        // their retired-lock lists and commit-dependency graph are global
        // structures; per-shard instances would gate and cascade against
        // disjoint graphs, so sharding them is unsound for now (v1).
        matches!(
            self,
            ProtocolKind::PcpDa
                | ProtocolKind::RwPcp
                | ProtocolKind::Pcp
                | ProtocolKind::TwoPlPi
                | ProtocolKind::TwoPlHp
                | ProtocolKind::OccBc
        )
    }

    /// Whether the protocol may abort/restart transactions; equals the
    /// constructed protocol's `ProtocolFor::may_abort()`.
    pub fn may_abort(self) -> bool {
        matches!(
            self,
            ProtocolKind::TwoPlHp
                | ProtocolKind::OccBc
                | ProtocolKind::Bamboo
                | ProtocolKind::Brook2Pl
        )
    }

    /// Whether the protocol can reach a deadlock. Drivers enable the
    /// engine's wait-for deadlock resolution exactly for these kinds;
    /// every repaired ceiling protocol is provably deadlock-free.
    pub fn may_deadlock(self) -> bool {
        // 2PL-PI blocks on arbitrary conflicts with no ceiling discipline;
        // the literal PCP-DA is subject to the Theorem 2 counterexample
        // (the repaired clauses (A)-(D) restore deadlock freedom); Naive-DA
        // exists to show that dynamic adjustment alone deadlocks.
        // Bamboo both aborts *and* deadlocks: commit-gate dependencies add
        // wait edges that the high-priority-wins rule does not orient, so
        // gate/lock-wait cycles can form and are resolved by victim abort.
        // Brook-2PL is deadlock-free by construction (every wait edge —
        // lock or gate — points senior→junior in a static total order).
        matches!(
            self,
            ProtocolKind::TwoPlPi
                | ProtocolKind::PcpDaLiteral
                | ProtocolKind::NaiveDa
                | ProtocolKind::Bamboo
        )
    }

    /// True if the kind is part of [`ProtocolKind::STANDARD`].
    pub fn is_standard(self) -> bool {
        Self::STANDARD.contains(&self)
    }

    /// One-line description for documentation tables.
    pub fn description(self) -> &'static str {
        match self {
            ProtocolKind::PcpDa => {
                "the paper's protocol: dynamic serialization order, write locks raise no ceiling"
            }
            ProtocolKind::PcpDaLiteral => {
                "LC3 exactly as printed (no erratum clause (A)); reproduces the Theorem 2 counterexample"
            }
            ProtocolKind::RwPcp => "read/write priority ceiling protocol (Sha et al.)",
            ProtocolKind::Pcp => "original priority ceiling protocol, one absolute ceiling per item",
            ProtocolKind::Ccp => "convex ceiling protocol: PCP plus early unlock (Nakazato, Lin)",
            ProtocolKind::TwoPlPi => "strict two-phase locking with priority inheritance",
            ProtocolKind::TwoPlHp => "2PL High Priority: aborts lower-priority conflicting holders",
            ProtocolKind::OccBc => "optimistic concurrency control with broadcast commit",
            ProtocolKind::Bamboo => {
                "early lock release (Guo et al.): retired write locks, dirty reads gated on commit dependencies, wound-on-conflict"
            }
            ProtocolKind::Brook2Pl => {
                "deadlock-free early release (Habibi et al., adapted): wait-die seniority order over locks and commit gates"
            }
            ProtocolKind::NaiveDa => "Example 5: condition (2) without safeguards; deadlocks by design",
        }
    }

    /// The registry rendered as a GitHub-flavoured markdown table — the
    /// README's protocol table is generated from this (and a repo test
    /// keeps the two in sync).
    pub fn markdown_table() -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str(
            "| protocol | family | update model | aborts | deadlocks | line-up | description |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|\n");
        for k in ProtocolKind::ALL {
            let _ = writeln!(
                s,
                "| `{}` | {} | {} | {} | {} | {} | {} |",
                k.name(),
                k.family(),
                match k.update_model() {
                    UpdateModel::Workspace => "workspace",
                    UpdateModel::InstallOnEarlyRelease => "install on early release",
                },
                if k.may_abort() { "yes" } else { "no" },
                if k.may_deadlock() { "yes" } else { "no" },
                if k.is_standard() { "standard" } else { "demo" },
                k.description(),
            );
        }
        s
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error of [`ProtocolKind::from_str`]: the input named no registered
/// protocol. Its `Display` lists every valid name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownProtocol {
    /// The string that failed to parse.
    pub input: String,
}

impl fmt::Display for UnknownProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol `{}` (valid: ", self.input)?;
        for (i, k) in ProtocolKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(k.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for UnknownProtocol {}

impl FromStr for ProtocolKind {
    type Err = UnknownProtocol;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtocolKind::ALL
            .into_iter()
            .find(|k| {
                k.name().eq_ignore_ascii_case(s)
                    || k.aliases().iter().any(|a| a.eq_ignore_ascii_case(s))
            })
            .ok_or_else(|| UnknownProtocol {
                input: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_is_a_subset_of_all() {
        for k in ProtocolKind::STANDARD {
            assert!(ProtocolKind::ALL.contains(&k));
            assert!(k.is_standard());
        }
        assert!(!ProtocolKind::PcpDaLiteral.is_standard());
        assert!(!ProtocolKind::NaiveDa.is_standard());
    }

    #[test]
    fn parse_display_roundtrip() {
        for k in ProtocolKind::ALL {
            assert_eq!(k.to_string().parse::<ProtocolKind>(), Ok(k));
            // Case-insensitive, and every alias resolves too.
            assert_eq!(k.name().to_lowercase().parse::<ProtocolKind>(), Ok(k));
            for a in k.aliases() {
                assert_eq!(a.parse::<ProtocolKind>(), Ok(k), "alias {a}");
                assert_eq!(a.to_uppercase().parse::<ProtocolKind>(), Ok(k));
            }
        }
    }

    #[test]
    fn names_and_aliases_are_unambiguous() {
        let mut seen = std::collections::BTreeSet::new();
        for k in ProtocolKind::ALL {
            assert!(seen.insert(k.name().to_lowercase()), "{k} name collides");
            for a in k.aliases() {
                assert!(seen.insert(a.to_lowercase()), "{k} alias {a} collides");
            }
        }
    }

    #[test]
    fn unknown_name_error_lists_valid_names() {
        let err = "nonsense".parse::<ProtocolKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`nonsense`"));
        for k in ProtocolKind::ALL {
            assert!(msg.contains(k.name()), "error omits {k}");
        }
    }

    #[test]
    fn metadata_is_consistent() {
        // Deadlock-capable kinds that cannot abort are exactly the ones
        // drivers must pair with engine-side deadlock resolution; Bamboo
        // is the one kind that both aborts (wound/cascade) and deadlocks
        // (gate-wait cycles).
        for k in ProtocolKind::ALL {
            if k.may_deadlock() && k != ProtocolKind::Bamboo {
                assert!(!k.may_abort(), "{k}");
            }
        }
        assert!(ProtocolKind::TwoPlPi.may_deadlock());
        assert!(!ProtocolKind::PcpDa.may_deadlock());
        assert!(ProtocolKind::Bamboo.may_deadlock() && ProtocolKind::Bamboo.may_abort());
        assert!(!ProtocolKind::Brook2Pl.may_deadlock() && ProtocolKind::Brook2Pl.may_abort());
        // Shardable kinds are exactly the standard line-up minus CCP
        // (install-on-early-release breaks cross-shard commit atomicity)
        // and minus the early-release kinds (global retired lists and a
        // global dependency graph make per-shard instances unsound, v1).
        let unshardable_standard = [
            ProtocolKind::Ccp,
            ProtocolKind::Bamboo,
            ProtocolKind::Brook2Pl,
        ];
        for k in ProtocolKind::ALL {
            assert_eq!(
                k.shardable(),
                k.is_standard() && !unshardable_standard.contains(&k),
                "{k}"
            );
        }
        let table = ProtocolKind::markdown_table();
        for k in ProtocolKind::ALL {
            assert!(table.contains(k.name()));
        }
    }
}
