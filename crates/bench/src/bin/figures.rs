//! Regenerate every table and figure of the paper (experiments E1–E11).
//!
//! ```sh
//! cargo run -p rtdb-bench --bin figures            # everything
//! cargo run -p rtdb-bench --bin figures -- fig3    # one experiment
//! ```
//!
//! Each experiment prints a human-readable reproduction (timeline or
//! table), states the paper's expected outcome next to the measured one,
//! and appends a JSON record to `results/experiments.json` so
//! EXPERIMENTS.md can be regenerated from data.

use rtdb::cc::Effect;
use rtdb::paper;
use rtdb::prelude::*;
use rtdb::sim::{gantt, sweep};
use rtdb_util::Json;
use std::collections::BTreeMap;

struct Record {
    experiment: String,
    artifact: String,
    expected: Json,
    measured: Json,
    matches: bool,
}

#[derive(Default)]
struct Report {
    records: Vec<Record>,
}

impl Report {
    fn check(&mut self, experiment: &str, artifact: &str, expected: Json, measured: Json) {
        let matches = expected == measured;
        println!(
            "  [{}] {artifact}: expected {expected} / measured {measured}",
            if matches { "OK" } else { "MISMATCH" }
        );
        self.records.push(Record {
            experiment: experiment.to_string(),
            artifact: artifact.to_string(),
            expected,
            measured,
            matches,
        });
    }

    fn write(&self) {
        std::fs::create_dir_all("results").ok();
        let records: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::obj()
                    .set("experiment", r.experiment.as_str())
                    .set("artifact", r.artifact.as_str())
                    .set("expected", r.expected.clone())
                    .set("measured", r.measured.clone())
                    .set("matches", r.matches)
            })
            .collect();
        let json = Json::Arr(records).pretty();
        std::fs::write("results/experiments.json", json).expect("results are writable");
        let failed = self.records.iter().filter(|r| !r.matches).count();
        println!(
            "\n{} checks, {} mismatches -> results/experiments.json",
            self.records.len(),
            failed
        );
    }
}

fn run<P: for<'k> ProtocolFor<StateKernel<'k>>>(
    set: &TransactionSet,
    protocol: &mut P,
) -> RunResult {
    Engine::new(set, SimConfig::default())
        .run(protocol)
        .expect("simulation succeeds")
}

fn completion(r: &RunResult, txn: u32, seq: u32) -> u64 {
    r.metrics
        .instance(InstanceId::new(TxnId(txn), seq))
        .and_then(|m| m.completion)
        .map(|t| t.raw())
        .unwrap_or(u64::MAX)
}

fn blocking(r: &RunResult, txn: u32, seq: u32) -> u64 {
    r.metrics
        .instance(InstanceId::new(TxnId(txn), seq))
        .map(|m| m.blocking.raw())
        .unwrap_or(u64::MAX)
}

fn fig1(rep: &mut Report) {
    println!("== E1 / Figure 1: Example 1 under RW-PCP ==");
    let set = paper::example1();
    let r = run(&set, &mut RwPcp::new());
    println!("{}", gantt::render(&set, &r.trace));
    rep.check("E1", "T3 completes", 3.into(), completion(&r, 2, 0).into());
    rep.check("E1", "T1 completes", 4.into(), completion(&r, 0, 0).into());
    rep.check("E1", "T2 completes", 5.into(), completion(&r, 1, 0).into());
    rep.check(
        "E1",
        "T2 ceiling-blocked (ticks)",
        2.into(),
        blocking(&r, 1, 0).into(),
    );
    rep.check(
        "E1",
        "T1 conflict-blocked (ticks)",
        1.into(),
        blocking(&r, 0, 0).into(),
    );
}

/// The grants of a run that name their locking condition, with their
/// ticks.
fn ruled_grants(r: &RunResult) -> impl Iterator<Item = (u64, LockRequest, GrantRule)> + '_ {
    r.trace.events().iter().filter_map(|&(at, e)| match e {
        Effect::Granted(req, Some(rule)) => Some((at.raw(), req, rule)),
        _ => None,
    })
}

fn fig2(rep: &mut Report) {
    println!("== E2 / Figure 2: Example 3 under PCP-DA ==");
    let set = paper::example3();
    let r = run(&set, &mut PcpDa::new());
    println!("{}", gantt::render(&set, &r.trace));
    rep.check(
        "E2",
        "T1#0 completes",
        3.into(),
        completion(&r, 0, 0).into(),
    );
    rep.check(
        "E2",
        "T1#1 completes",
        8.into(),
        completion(&r, 0, 1).into(),
    );
    rep.check("E2", "T2 completes", 9.into(), completion(&r, 1, 0).into());
    rep.check("E2", "T1 blocking", 0.into(), blocking(&r, 0, 0).into());
    rep.check(
        "E2",
        "deadline misses",
        0.into(),
        r.metrics.deadline_misses().into(),
    );
    let rules: Vec<String> = ruled_grants(&r)
        .map(|(at, req, rule)| format!("{}:{}={rule:?}@{at}", req.who, req.item))
        .collect();
    println!("  grant rules: {}", rules.join(" "));
}

fn fig3(rep: &mut Report) {
    println!("== E3 / Figure 3: Example 3 under RW-PCP ==");
    let set = paper::example3();
    let r = run(&set, &mut RwPcp::new());
    println!("{}", gantt::render(&set, &r.trace));
    rep.check(
        "E3",
        "T1#0 blocked (worst case 4)",
        4.into(),
        blocking(&r, 0, 0).into(),
    );
    rep.check("E3", "T2 completes", 5.into(), completion(&r, 1, 0).into());
    rep.check(
        "E3",
        "T1#0 completes (late)",
        7.into(),
        completion(&r, 0, 0).into(),
    );
    rep.check(
        "E3",
        "T1#0 misses deadline at 6",
        true.into(),
        r.trace
            .events()
            .iter()
            .any(|&(at, e)| {
                e == Effect::DeadlineMissed(InstanceId::new(TxnId(0), 0)) && at.raw() == 6
            })
            .into(),
    );
}

fn fig4(rep: &mut Report) {
    println!("== E4 / Figure 4: Example 4 under PCP-DA ==");
    let set = paper::example4();
    let r = run(&set, &mut PcpDa::new());
    println!("{}", gantt::render(&set, &r.trace));
    rep.check("E4", "T3 completes", 3.into(), completion(&r, 2, 0).into());
    rep.check("E4", "T1 completes", 6.into(), completion(&r, 0, 0).into());
    rep.check("E4", "T4 completes", 9.into(), completion(&r, 3, 0).into());
    rep.check("E4", "T2 completes", 11.into(), completion(&r, 1, 0).into());
    rep.check(
        "E4",
        "total blocking",
        0.into(),
        r.metrics.total_blocking().raw().into(),
    );
    rep.check(
        "E4",
        "Max_Sysceil = P2",
        set.priority_of(TxnId(1)).level().into(),
        r.metrics
            .max_sysceil
            .priority()
            .map(|p| p.level())
            .unwrap_or(u32::MAX)
            .into(),
    );
    // The grant at tick 1, as the narrative has it.
    let t3_rule = ruled_grants(&r)
        .find(|&(at, req, _)| {
            at == 1 && req.who.txn == TxnId(2) && req.item == paper::Z && req.mode == LockMode::Read
        })
        .map(|(.., rule)| format!("{rule:?}"))
        .unwrap_or_default();
    rep.check("E4", "T3 read z granted via", "Lc4".into(), t3_rule.into());
}

fn fig5(rep: &mut Report) {
    println!("== E5 / Figure 5: Example 4 under RW-PCP ==");
    let set = paper::example4();
    let r = run(&set, &mut RwPcp::new());
    println!("{}", gantt::render(&set, &r.trace));
    rep.check("E5", "T4 completes", 5.into(), completion(&r, 3, 0).into());
    rep.check("E5", "T1 completes", 7.into(), completion(&r, 0, 0).into());
    rep.check("E5", "T3 completes", 9.into(), completion(&r, 2, 0).into());
    rep.check("E5", "T2 completes", 11.into(), completion(&r, 1, 0).into());
    rep.check(
        "E5",
        "T1 conflict-blocked",
        1.into(),
        blocking(&r, 0, 0).into(),
    );
    rep.check(
        "E5",
        "T3 ceiling-blocked",
        4.into(),
        blocking(&r, 2, 0).into(),
    );
    rep.check(
        "E5",
        "Max_Sysceil = P1",
        set.priority_of(TxnId(0)).level().into(),
        r.metrics
            .max_sysceil
            .priority()
            .map(|p| p.level())
            .unwrap_or(u32::MAX)
            .into(),
    );
}

fn table1(rep: &mut Report) {
    println!("== E6 / Table 1: lock compatibility ==");
    print!("{}", rtdb::protocols::compat::render_table1());
    use rtdb::protocols::compat::{compatible, CompatInput};
    let cell = |held, requested, disjoint| {
        compatible(CompatInput {
            held,
            requested,
            holder_reads_disjoint_from_requester_writes: disjoint,
        })
    };
    rep.check(
        "E6",
        "R/R",
        true.into(),
        cell(LockMode::Read, LockMode::Read, true).into(),
    );
    rep.check(
        "E6",
        "R/W",
        false.into(),
        cell(LockMode::Read, LockMode::Write, true).into(),
    );
    rep.check(
        "E6",
        "W/R clean",
        true.into(),
        cell(LockMode::Write, LockMode::Read, true).into(),
    );
    rep.check(
        "E6",
        "W/R dirty",
        false.into(),
        cell(LockMode::Write, LockMode::Read, false).into(),
    );
    rep.check(
        "E6",
        "W/W",
        true.into(),
        cell(LockMode::Write, LockMode::Write, false).into(),
    );
}

fn example5(rep: &mut Report) {
    println!("== E7 / Example 5: deadlock under condition (2), none under PCP-DA ==");
    let set = paper::example5();
    let naive = run(&set, &mut NaiveDa::new());
    println!("{}", gantt::render(&set, &naive.trace));
    rep.check(
        "E7",
        "Naive-DA deadlocks",
        true.into(),
        matches!(naive.outcome, RunOutcome::Deadlock(_)).into(),
    );
    let da = run(&set, &mut PcpDa::new());
    rep.check(
        "E7",
        "PCP-DA completes",
        true.into(),
        matches!(da.outcome, RunOutcome::Completed).into(),
    );
    rep.check(
        "E7",
        "PCP-DA commits both",
        2.into(),
        da.history.committed().into(),
    );
}

fn analysis(rep: &mut Report) {
    println!("== E8 / §9: worst-case blocking and schedulability ==");
    let set = paper::example3();
    println!("  Example 3: T1 (C=2, Pd=5), T2 (C=5, Pd=10)");
    let da = schedulable(&set, AnalysisProtocol::PcpDa);
    let rw = schedulable(&set, AnalysisProtocol::RwPcp);
    println!(
        "  B_1: PCP-DA {} vs RW-PCP {}   RTA(T1): {:?} vs {:?}",
        da.blocking[0], rw.blocking[0], da.response[0], rw.response[0]
    );
    rep.check("E8", "B_1 PCP-DA", 0.into(), da.blocking[0].raw().into());
    rep.check("E8", "B_1 RW-PCP", 5.into(), rw.blocking[0].raw().into());
    rep.check(
        "E8",
        "PCP-DA schedulable",
        true.into(),
        da.rta_schedulable().into(),
    );
    rep.check(
        "E8",
        "RW-PCP schedulable",
        false.into(),
        rw.rta_schedulable().into(),
    );
    // The repaired protocol's chain-closure bound agrees on Example 3
    // (BTS_1 is empty, so the chain is empty too).
    let repaired = rtdb::analysis::schedulable_repaired_pcpda(&set);
    rep.check(
        "E8",
        "B_1 repaired PCP-DA",
        0.into(),
        repaired.blocking[0].raw().into(),
    );
    rep.check(
        "E8",
        "repaired PCP-DA schedulable",
        true.into(),
        repaired.rta_schedulable().into(),
    );

    // BTS table over a batch of random workloads.
    let mut subset = true;
    let mut strictly_smaller = 0usize;
    for seed in 0..50u64 {
        let set = WorkloadParams {
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .set;
        for t in set.templates() {
            let da: std::collections::BTreeSet<TxnId> =
                rtdb::analysis::bts(&set, AnalysisProtocol::PcpDa, t.id)
                    .into_iter()
                    .collect();
            let rw: std::collections::BTreeSet<TxnId> =
                rtdb::analysis::bts(&set, AnalysisProtocol::RwPcp, t.id)
                    .into_iter()
                    .collect();
            subset &= da.is_subset(&rw);
            strictly_smaller += usize::from(da.len() < rw.len());
        }
    }
    println!(
        "  random sets: BTS(PCP-DA) ⊆ BTS(RW-PCP) in all cases; strictly smaller {strictly_smaller} times"
    );
    rep.check(
        "E8",
        "BTS subset over 50 random sets",
        true.into(),
        subset.into(),
    );
    rep.check(
        "E8",
        "BTS strictly smaller somewhere",
        true.into(),
        (strictly_smaller > 0).into(),
    );
}

fn sweep_experiment(rep: &mut Report) {
    println!("== E9: randomized protocol comparison (extension) ==");
    let mut da_never_blocks_more = true;
    for &(util, hot) in &[(0.4, 0.3), (0.6, 0.5), (0.75, 0.8)] {
        let set = WorkloadParams {
            templates: 6,
            items: 16,
            target_utilization: util,
            hotspot_items: 3,
            hotspot_prob: hot,
            write_fraction: 0.4,
            seed: 99,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .set;
        println!("\n  U={util} contention={hot}:");
        let rows = sweep::compare_protocols(
            &set,
            &SimConfig::with_horizon(30_000),
            &ProtocolKind::STANDARD,
        )
        .expect("sweep succeeds");
        print!("{}", indent(&sweep::format_table(&rows)));
        let da = rows.iter().find(|r| r.name == "PCP-DA").unwrap();
        let rw = rows.iter().find(|r| r.name == "RW-PCP").unwrap();
        da_never_blocks_more &= da.total_blocking <= rw.total_blocking;
    }
    rep.check(
        "E9",
        "PCP-DA total blocking <= RW-PCP on all sweeps",
        true.into(),
        da_never_blocks_more.into(),
    );
}

fn ceilings_experiment(rep: &mut Report) {
    println!("== E10: Max_Sysceil push-down over random workloads (extension) ==");
    let mut pushdown = true;
    let mut rows: Vec<(u64, String, String)> = Vec::new();
    for seed in 0..20u64 {
        let set = WorkloadParams {
            seed,
            target_utilization: 0.6,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .set;
        let da = Engine::new(&set, SimConfig::with_horizon(5_000))
            .run(&mut PcpDa::new())
            .unwrap();
        let rw = Engine::new(&set, SimConfig::with_horizon(5_000))
            .run(&mut RwPcp::new())
            .unwrap();
        pushdown &= da.metrics.max_sysceil <= rw.metrics.max_sysceil;
        rows.push((
            seed,
            da.metrics.max_sysceil.to_string(),
            rw.metrics.max_sysceil.to_string(),
        ));
    }
    println!("  seed: Max_Sysceil PCP-DA vs RW-PCP");
    for (seed, da, rw) in rows.iter().take(8) {
        println!("  {seed:>4}: {da:>6} vs {rw:>6}");
    }
    println!("  ... ({} seeds total)", rows.len());
    rep.check(
        "E10",
        "Max_Sysceil(PCP-DA) <= Max_Sysceil(RW-PCP), 20 seeds",
        true.into(),
        pushdown.into(),
    );
}

fn breakdown_experiment(rep: &mut Report) {
    println!("== E11: breakdown utilization (extension) ==");
    let mut sum_da = 0.0;
    let mut sum_rw = 0.0;
    let mut sum_pcp = 0.0;
    let mut ordered = true;
    let n = 25u64;
    for seed in 0..n {
        let set = WorkloadParams {
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .set;
        let (l_da, u_da) = breakdown_utilization(&set, AnalysisProtocol::PcpDa);
        let (l_rw, u_rw) = breakdown_utilization(&set, AnalysisProtocol::RwPcp);
        let (l_pcp, u_pcp) = breakdown_utilization(&set, AnalysisProtocol::Pcp);
        sum_da += u_da;
        sum_rw += u_rw;
        sum_pcp += u_pcp;
        ordered &= l_da + 1e-9 >= l_rw && l_rw + 1e-9 >= l_pcp;
    }
    let n = n as f64;
    println!(
        "  mean breakdown utilization over {n} random sets:\n    PCP-DA {:.3}   RW-PCP {:.3}   PCP {:.3}",
        sum_da / n,
        sum_rw / n,
        sum_pcp / n
    );
    rep.check(
        "E11",
        "breakdown ordering PCP-DA >= RW-PCP >= PCP",
        true.into(),
        ordered.into(),
    );
    rep.check(
        "E11",
        "PCP-DA mean breakdown strictly above RW-PCP",
        true.into(),
        (sum_da > sum_rw).into(),
    );
}

fn erratum(rep: &mut Report) {
    println!("== ERRATUM: Theorem 2 counterexample under literal LC3 ==");
    // Seed chosen so the literal protocol deadlocks under the in-tree
    // PRNG (the original seed 4 predates the rand -> rtdb-util swap).
    let set = WorkloadParams {
        seed: 29,
        templates: 4,
        items: 4,
        target_utilization: 0.45,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .set;
    let literal = Engine::new(&set, SimConfig::with_horizon(4_000))
        .run(&mut PcpDa::paper_literal())
        .unwrap();
    let fixed = Engine::new(&set, SimConfig::with_horizon(4_000))
        .run(&mut PcpDa::new())
        .unwrap();
    rep.check(
        "ERRATUM",
        "literal LC3 deadlocks on seed-29 workload",
        true.into(),
        matches!(literal.outcome, RunOutcome::Deadlock(_)).into(),
    );
    rep.check(
        "ERRATUM",
        "fixed LC3 completes with no misses",
        true.into(),
        (matches!(fixed.outcome, RunOutcome::Completed) && fixed.metrics.deadline_misses() == 0)
            .into(),
    );
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("  {l}\n")).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    let mut rep = Report::default();
    let experiments: BTreeMap<&str, fn(&mut Report)> = BTreeMap::from([
        ("fig1", fig1 as fn(&mut Report)),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("table1", table1),
        ("example5", example5),
        ("analysis", analysis),
        ("sweep", sweep_experiment),
        ("ceilings", ceilings_experiment),
        ("breakdown", breakdown_experiment),
        ("erratum", erratum),
    ]);

    let order = [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "table1",
        "example5",
        "analysis",
        "sweep",
        "ceilings",
        "breakdown",
        "erratum",
    ];
    for name in order {
        if want(name) {
            experiments[name](&mut rep);
            println!();
        }
    }
    rep.write();
    if rep.records.iter().any(|r| !r.matches) {
        std::process::exit(1);
    }
}
