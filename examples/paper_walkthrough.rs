//! Walk through the paper's worked examples (Examples 1, 3, 4 and 5),
//! rendering each execution as an ASCII timeline — the textual versions
//! of Figures 1–5 plus the Example 5 deadlock.
//!
//! ```sh
//! cargo run --example paper_walkthrough
//! ```

use rtdb::paper;
use rtdb::prelude::*;
use rtdb::sim::gantt;

fn show<P: for<'k> ProtocolFor<StateKernel<'k>>>(
    title: &str,
    set: &TransactionSet,
    protocol: &mut P,
) {
    let run = Engine::new(set, SimConfig::default())
        .run(protocol)
        .expect("run succeeds");
    println!("--- {title} ({}) ---", run.protocol);
    println!("{}", gantt::render(set, &run.trace));
    match &run.outcome {
        RunOutcome::Completed => {
            println!(
                "completed; misses={} total-blocking={} Max_Sysceil={}",
                run.metrics.deadline_misses(),
                run.metrics.total_blocking(),
                run.metrics.max_sysceil
            );
        }
        RunOutcome::Deadlock(cycle) => {
            let names: Vec<String> = cycle.iter().map(|i| i.to_string()).collect();
            println!("DEADLOCK among {}", names.join(" <-> "));
        }
    }
    println!();
}

fn main() {
    println!("# Example 1 — unnecessary blocking under RW-PCP (Figure 1)\n");
    show("Figure 1", &paper::example1(), &mut RwPcp::new());

    println!("# Example 3 — PCP-DA avoids the conflict blocking (Figures 2 vs 3)\n");
    show("Figure 2", &paper::example3(), &mut PcpDa::new());
    show("Figure 3", &paper::example3(), &mut RwPcp::new());

    println!("# Example 4 — LC4 in action, ceiling push-down (Figures 4 vs 5)\n");
    show("Figure 4", &paper::example4(), &mut PcpDa::new());
    show("Figure 5", &paper::example4(), &mut RwPcp::new());

    println!("# Example 5 — condition (2) alone deadlocks; PCP-DA does not\n");
    show("Example 5 naive", &paper::example5(), &mut NaiveDa::new());
    show("Example 5 PCP-DA", &paper::example5(), &mut PcpDa::new());

    println!("# Table 1 — the PCP-DA lock compatibility table\n");
    println!("{}", rtdb::protocols::compat::render_table1());
}
