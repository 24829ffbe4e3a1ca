//! The runtime scenario table: the one definition of what `rtload`
//! measures. The CLI resolves names against it, CI runs it whole, and the
//! README renders it ([`markdown_table`], kept in step by a test).
//!
//! A [`Scenario`] is a row: a workload family, one or more [`Grid`]s of
//! protocol × threads × skew × shards × cross-fraction, an optional A/B
//! axis, the headline metric, and its sizing constants. Nothing here is
//! settable from outside — a configuration is named by the record `id`
//! its row expands to (`closed/PCP-DA/4t`, `sharded/PCP-DA/2t/4sh/x0.3`),
//! and that id means the same thing on both sides of a diff.

use rtdb::prelude::{ProtocolKind as Kind, TransactionSet};
use rtdb::rt::AdmissionPolicy;

/// Which generated transaction set a scenario runs (at the row's seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// [`crate::standard_workload`]: 6 templates, 16 items.
    Standard,
    /// [`crate::read_heavy_workload`]: 20 templates, [`READ_FRACTION`] of
    /// them pure readers, Zipf θ from the grid over 32 items.
    ReadHeavy,
    /// [`crate::hotspot_workload`]: 8 long templates, 90 % writes, hottest
    /// item first, Zipf θ from the grid over 16 items.
    Hotspot,
    /// [`crate::partitioned_workload`]: 8 templates, 32 items in
    /// [`PARTITIONS`] partitions, cross-partition fraction from the grid.
    /// Kinds that cannot run sharded are left out at every shard count.
    Partitioned,
}

pub const READ_FRACTION: f64 = 0.95;
/// The largest shard count any grid sweeps, so every shard count sees the
/// identical item distribution and only the manager sharding varies.
pub const PARTITIONS: usize = 4;
/// Offered-rate weights of the overload tenants: the light tenant stays
/// inside its equal-share budget on *offered* load (1/9 of 2× the ceiling)
/// while the hog clearly exceeds it; at 1:4 scheduler noise can swallow
/// the fairness effect.
pub const TENANT_WEIGHTS: [u64; 2] = [1, 8];

/// How a grid's jobs reach the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A prebuilt job queue drained by the workers: service capacity.
    Closed,
    /// A seeded Poisson schedule through the admission front-end, swept
    /// over [`Scenario::sweep_points`] offered rates: behaviour under load.
    Open,
    /// One open-loop run of [`TENANT_WEIGHTS`] tenants at the row's
    /// overload factor, submitted in-process.
    Overload,
    /// The same through the loopback TCP edge, one client per tenant.
    OverloadNet,
}

/// The axis a scenario's records pair up on: every B-side record has an
/// A-side twin ([`Scenario::a_side`]) to compare headline metrics with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ab {
    /// Snapshot read path off (A) vs on (B).
    Snapshot,
    /// One shard (A) vs each larger shard count of the grid (B).
    Shards,
    /// Per-tenant fairness budgets off (A) vs on (B).
    Fairness,
}

/// One cartesian block of a scenario.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    pub mode: Mode,
    pub kinds: &'static [Kind],
    pub threads: &'static [usize],
    /// Zipf exponents ([`Family::ReadHeavy`] and [`Family::Hotspot`]).
    pub thetas: &'static [f64],
    /// Lock-manager shard counts ([`Family::Partitioned`]).
    pub shards: &'static [usize],
    /// Cross-partition fractions ([`Family::Partitioned`]).
    pub cross: &'static [f64],
}

/// A row of the table.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub name: &'static str,
    /// What the row is evidence for.
    pub why: &'static str,
    pub family: Family,
    pub grids: &'static [Grid],
    pub ab: Option<Ab>,
    /// The record field the row is read by (and its A/B sides compared
    /// on): a `*_per_sec` rate is better higher, anything else lower.
    pub headline: &'static str,
    /// Jobs per run: ~100 ms at line rate, many scheduler quanta.
    pub jobs: usize,
    /// Repetitions of a closed-loop or overload run; the median one by
    /// headline metric is kept. Sweep points run once: they are paced in
    /// real time and their ratios average over hundreds of jobs.
    pub reps: usize,
    /// Wall-clock nanoseconds of busy-work per simulated tick.
    pub tick_ns: u64,
    pub seed: u64,
    /// Open loop: offered rates per sweep, `overload × ceiling × k / sweep_points`.
    pub sweep_points: usize,
    /// Open loop: the top offered rate over the calibrated ceiling.
    pub overload: f64,
    pub queue_cap: usize,
    pub policy: AdmissionPolicy,
    /// Open loop: deadlines sit at `release + period × tick × deadline_scale`.
    pub deadline_scale: u64,
}

const GRID: Grid = Grid {
    mode: Mode::Closed,
    kinds: &[Kind::PcpDa],
    threads: &[4],
    thetas: &[0.0],
    shards: &[1],
    cross: &[0.0],
};

/// The defaults, with a saturation sweep for an open loop: the top point
/// is past the ceiling, the first is not.
#[rustfmt::skip]
const ROW: Scenario = Scenario {
    name: "", why: "", family: Family::Standard, grids: &[], ab: None, headline: "committed_per_sec",
    jobs: 2_000, reps: 3, tick_ns: 2_000, seed: 7,
    sweep_points: 4, overload: 1.5, queue_cap: 64, policy: AdmissionPolicy::Reject, deadline_scale: 1,
};

/// Multi-tenant overload: 2× the ceiling so shedding is certain; a queue
/// of 8 because behind 64 every admitted job misses and the shedding
/// policy is moot; deadlines at 4× the period because at 1× contention
/// alone busts them and shed protection cannot show in the miss numbers.
#[rustfmt::skip]
const OVERLOAD_ROW: Scenario = Scenario {
    ab: Some(Ab::Fairness), headline: "low_rate_fail_ratio",
    sweep_points: 1, overload: 2.0, queue_cap: 8, policy: AdmissionPolicy::LeastSlack, deadline_scale: 4,
    ..ROW
};

const STANDARD: &[Kind] = &Kind::STANDARD;

/// Everything `rtload` measures.
#[rustfmt::skip]
pub const SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "closed",
        why: "service capacity and per-priority latency of every standard protocol as workers outnumber cores",
        grids: &[Grid { kinds: STANDARD, threads: &[1, 2, 4, 8, 16, 32], ..GRID }],
        ..ROW
    },
    Scenario {
        name: "open",
        why: "deadline misses, queueing and rejects as offered load crosses saturation, the paper's protocol vs the abort-based baseline",
        grids: &[Grid { mode: Mode::Open, kinds: &[Kind::PcpDa, Kind::TwoPlHp], ..GRID }],
        headline: "miss_ratio",
        ..ROW
    },
    Scenario {
        name: "snapshot",
        why: "whether lock-exempt multiversion reads earn their lines on a 95/5 read-heavy set; both sides of the open sweep are offered the same rates",
        family: Family::ReadHeavy,
        grids: &[
            Grid { threads: &[4, 8], thetas: &[0.0, 0.6, 0.9], ..GRID },
            Grid { mode: Mode::Open, thetas: &[0.9], ..GRID },
        ],
        ab: Some(Ab::Snapshot),
        ..ROW
    },
    Scenario {
        name: "hotspot",
        why: "whether early lock release (Bamboo, Brook-2PL) buys tail latency over blocking and wounding as write skew rises; 8 workers deepen the hot-lock queue",
        family: Family::Hotspot,
        grids: &[Grid { kinds: &[Kind::PcpDa, Kind::TwoPlHp, Kind::Bamboo, Kind::Brook2Pl], threads: &[8], thetas: &[0.0, 0.6, 0.9, 1.2], ..GRID }],
        headline: "worst_p99_us",
        ..ROW
    },
    Scenario {
        name: "sharded",
        why: "whether the partitioned lock manager earns its lines, and what no-wait cross-shard execution burns in restarts",
        family: Family::Partitioned,
        grids: &[
            Grid { kinds: STANDARD, threads: &[8], shards: &[1, 4], cross: &[0.1], ..GRID },
            Grid { threads: &[2, 4], shards: &[1, 2, 4], cross: &[0.0, 0.3], ..GRID },
        ],
        ab: Some(Ab::Shards),
        ..ROW
    },
    Scenario {
        name: "tenants",
        why: "whether per-tenant budgets protect the low-rate tenant when a 1:8 neighbour overloads the admission queue",
        grids: &[Grid { mode: Mode::Overload, ..GRID }],
        ..OVERLOAD_ROW
    },
    Scenario {
        name: "tenants-net",
        why: "the same overload through the loopback TCP edge",
        grids: &[Grid { mode: Mode::OverloadNet, ..GRID }],
        ..OVERLOAD_ROW
    },
];

/// The row called `name`; the error lists every valid name.
pub fn find(name: &str) -> Result<&'static Scenario, String> {
    SCENARIOS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown scenario `{name}`; scenarios: {}", names.join(" "))
    })
}

/// One record to measure: a fully resolved configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    pub mode: Mode,
    pub kind: Kind,
    pub threads: usize,
    pub theta: f64,
    pub shards: usize,
    pub cross: f64,
    pub snapshot: bool,
    pub fairness: bool,
    /// Sweep position `1..=sweep_points` (0 in the closed loop).
    pub k: usize,
}

impl Scenario {
    /// Which way the headline metric is better (see [`Scenario::headline`]).
    pub fn higher_is_better(&self) -> bool {
        self.headline.ends_with("_per_sec")
    }

    /// The name of `p`'s record: the row and the axes it varies.
    pub fn id(&self, p: &Point) -> String {
        let mut id = format!("{}/{}/{}t", self.name, p.kind.name(), p.threads);
        if matches!(self.family, Family::ReadHeavy | Family::Hotspot) {
            id += &format!("/z{}", p.theta);
        }
        if self.family == Family::Partitioned {
            id += &format!("/{}sh/x{}", p.shards, p.cross);
        }
        match self.ab {
            Some(Ab::Snapshot) => id += if p.snapshot { "/on" } else { "/off" },
            Some(Ab::Fairness) => id += if p.fairness { "/fair-on" } else { "/fair-off" },
            _ => {}
        }
        if p.mode == Mode::Open {
            id += &format!("/p{}", p.k);
        }
        id
    }

    /// The A side `p` is the B side of: `p` with the row's axis at rest.
    pub fn a_side(&self, p: &Point) -> Option<Point> {
        let shards = if self.ab == Some(Ab::Shards) {
            1
        } else {
            p.shards
        };
        let a = Point {
            shards,
            snapshot: false,
            fairness: false,
            ..*p
        };
        (a != *p).then_some(a)
    }

    /// Expand the row into its records, in run order.
    pub fn points(&self) -> Vec<Point> {
        let sides: &[bool] = match self.ab {
            Some(Ab::Snapshot | Ab::Fairness) => &[false, true],
            _ => &[false],
        };
        let mut out = Vec::new();
        for g in self.grids {
            let sweep = match g.mode {
                Mode::Closed => 0..=0,
                _ => 1..=self.sweep_points,
            };
            let configs = g.thetas.iter().flat_map(|&theta| {
                g.kinds.iter().flat_map(move |&kind| {
                    g.threads.iter().flat_map(move |&threads| {
                        g.cross.iter().flat_map(move |&cross| {
                            g.shards
                                .iter()
                                .map(move |&shards| (theta, kind, threads, cross, shards))
                        })
                    })
                })
            });
            for (theta, kind, threads, cross, shards) in configs {
                if self.family == Family::Partitioned && !kind.shardable() {
                    continue;
                }
                for &on in sides {
                    let snapshot = on && self.ab == Some(Ab::Snapshot);
                    let fairness = on && self.ab == Some(Ab::Fairness);
                    let mode = g.mode;
                    out.extend(sweep.clone().map(|k| Point {
                        mode,
                        kind,
                        threads,
                        theta,
                        shards,
                        cross,
                        snapshot,
                        fairness,
                        k,
                    }));
                }
            }
        }
        out
    }

    /// The transaction set `p` runs.
    pub fn workload(&self, p: &Point) -> TransactionSet {
        match self.family {
            Family::Standard => crate::standard_workload(self.seed),
            Family::ReadHeavy => crate::read_heavy_workload(self.seed, READ_FRACTION, p.theta),
            Family::Hotspot => crate::hotspot_workload(self.seed, p.theta),
            Family::Partitioned => crate::partitioned_workload(self.seed, PARTITIONS, p.cross),
        }
    }
}

impl Grid {
    /// `kinds × threads [× θ] [× shards × cross-fraction] mode`, an axis
    /// shown only where the grid moves it off [`GRID`]'s resting value.
    fn describe(&self) -> String {
        fn list<T: ToString>(xs: &[T]) -> String {
            xs.iter().map(T::to_string).collect::<Vec<_>>().join("/")
        }
        let kinds = if self.kinds == STANDARD {
            "STANDARD kinds".to_string()
        } else {
            list(&self.kinds.iter().map(|k| k.name()).collect::<Vec<_>>())
        };
        let mut text = format!("{kinds} × {} threads", list(self.threads));
        if self.thetas != GRID.thetas {
            text += &format!(" × θ {}", list(self.thetas));
        }
        if self.shards != GRID.shards {
            text += &format!(
                " × {} shards × cross-fraction {}",
                list(self.shards),
                list(self.cross)
            );
        }
        format!("{text}, {:?}", self.mode)
    }
}

/// The table as the README shows it.
pub fn markdown_table() -> String {
    let mut out = String::from(
        "| scenario | evidence for | family | grids | A/B axis | headline | constants |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for s in &SCENARIOS {
        let grids: Vec<String> = s.grids.iter().map(Grid::describe).collect();
        let mut constants = format!(
            "{} jobs × {} reps, tick {} ns, seed {}",
            s.jobs, s.reps, s.tick_ns, s.seed
        );
        if s.grids.iter().any(|g| g.mode != Mode::Closed) {
            constants += &format!(
                "; {} offered rate(s) up to {}× the calibrated ceiling, queue {}, `{}`, deadline {}× period",
                s.sweep_points, s.overload, s.queue_cap, s.policy, s.deadline_scale
            );
        }
        out += &format!(
            "| `{}` | {} | {:?} | {} | {} | `{}` ({} is better) | {constants} |\n",
            s.name,
            s.why,
            s.family,
            grids.join("; "),
            s.ab.map_or("—".to_string(), |ab| format!("{ab:?}")),
            s.headline,
            if s.higher_is_better() {
                "higher"
            } else {
                "lower"
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn readme_scenario_table_matches_the_table() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md readable");
        let (begin, end) = (
            "<!-- rtload-scenarios:begin -->",
            "<!-- rtload-scenarios:end -->",
        );
        let start = readme.find(begin).expect("README has the begin marker") + begin.len();
        let stop = readme.find(end).expect("README has the end marker");
        assert_eq!(
            readme[start..stop].trim(),
            markdown_table().trim(),
            "README scenario table is stale — paste the output of \
             rtdb_bench::scenarios::markdown_table() between the markers"
        );
    }

    #[test]
    fn ids_are_unique_and_every_b_side_has_its_a_side() {
        let mut ids = BTreeSet::new();
        for s in &SCENARIOS {
            let points = s.points();
            assert!(
                points.iter().all(|p| ids.insert(s.id(p))),
                "{}: duplicate record id",
                s.name
            );
            let twins: Vec<Point> = points.iter().filter_map(|p| s.a_side(p)).collect();
            assert!(
                twins.iter().all(|a| points.contains(a)),
                "{}: B side without A side",
                s.name
            );
            assert_eq!(s.ab.is_some(), !twins.is_empty(), "{}", s.name);
        }
        assert!(ids.contains("closed/PCP-DA/4t") && ids.contains("sharded/PCP-DA/2t/4sh/x0.3"));
    }
}
