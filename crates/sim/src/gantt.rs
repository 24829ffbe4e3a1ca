//! ASCII timeline (Gantt) rendering of a [`Trace`] — the textual analogue
//! of the paper's Figures 1–5.
//!
//! One row per instance: `#` marks a tick spent executing, `.` a tick
//! spent blocked on a lock, and space a tick spent ready-but-preempted or
//! not released. A `ceiling` row shows the global system ceiling
//! (`Max_Sysceil`) per tick as the priority level (in hex) or `-` for the
//! dummy ceiling.

use crate::trace::{SegKind, Trace};
use rtdb_core::Effect;
use rtdb_types::{Ceiling, InstanceId, TransactionSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render the trace as an ASCII chart.
pub fn render(set: &TransactionSet, trace: &Trace) -> String {
    let end = trace.end().raw() as usize;
    let width = end.max(1);

    // Collect rows per instance, in (template, seq) order.
    let mut rows: BTreeMap<InstanceId, Vec<char>> = BTreeMap::new();
    let touch = |who: InstanceId, rows: &mut BTreeMap<InstanceId, Vec<char>>| {
        rows.entry(who).or_insert_with(|| vec![' '; width]);
    };
    for s in trace.segments() {
        touch(s.who, &mut rows);
        let row = rows.get_mut(&s.who).unwrap();
        let ch = match s.kind {
            SegKind::Running => '#',
            SegKind::Blocked => '.',
        };
        for t in s.from.raw()..s.to.raw() {
            row[t as usize] = ch;
        }
    }
    for &(_, e) in trace.events() {
        if let Effect::Arrived(who) = e {
            touch(who, &mut rows);
        }
    }

    let label_width = rows
        .keys()
        .map(|w| w.to_string().len())
        .chain(["ceiling".len()])
        .max()
        .unwrap_or(7)
        + 1;

    let mut out = String::new();

    // Tens ruler + units ruler.
    let mut tens = String::new();
    let mut units = String::new();
    for t in 0..=width {
        if t % 10 == 0 {
            let _ = write!(tens, "{:<10}", t / 10);
        }
        let _ = write!(units, "{}", t % 10);
    }
    tens.truncate(width + 1);
    let _ = writeln!(out, "{:label_width$}{}", "t", tens);
    let _ = writeln!(out, "{:label_width$}{}", "", units);

    for (who, row) in &rows {
        let line: String = row.iter().collect();
        // Annotate arrival (^) and commit (|) markers beneath printable
        // positions by overlaying where the row is blank.
        let mut chars: Vec<char> = line.chars().collect();
        for &(at, e) in trace.events() {
            if e == Effect::Arrived(*who) {
                let idx = at.raw() as usize;
                if idx < chars.len() && chars[idx] == ' ' {
                    chars[idx] = '^';
                }
            }
        }
        let commit = trace
            .events()
            .iter()
            .find(|&&(_, e)| e == Effect::Committed(*who))
            .map(|&(at, _)| at.raw() as usize);
        let mut line: String = chars.into_iter().collect();
        if let Some(c) = commit {
            while line.len() < c + 1 {
                line.push(' ');
            }
            line.insert(c, ']');
        }
        let _ = writeln!(out, "{:label_width$}{}", who.to_string(), line);
    }

    // Ceiling row: sample value per tick.
    let mut ceiling_row = vec!['-'; width];
    let samples = trace.ceiling_samples();
    for (idx, &(at, c)) in samples.iter().enumerate() {
        let from = at.raw() as usize;
        let to = samples
            .get(idx + 1)
            .map(|&(t, _)| t.raw() as usize)
            .unwrap_or(width);
        let ch = match c {
            Ceiling::Dummy => '-',
            Ceiling::At(p) => char::from_digit(p.level() % 16, 16).unwrap_or('*'),
        };
        for cell in ceiling_row.iter_mut().take(to.min(width)).skip(from) {
            *cell = ch;
        }
    }
    let _ = writeln!(
        out,
        "{:label_width$}{}",
        "ceiling",
        ceiling_row.iter().collect::<String>()
    );

    // Legend with template names and priorities.
    let _ = writeln!(out, "{:label_width$}(# running, . blocked, ^ arrival, ] commit; ceiling row: priority level or '-' = dummy)", "");
    for t in set.templates() {
        let _ = writeln!(
            out,
            "{:label_width$}{} = {:?} (period {}, priority {})",
            "",
            t.name,
            t.id,
            t.period,
            set.priority_of(t.id)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::Effects;
    use rtdb_types::{Priority, SetBuilder, Step, Tick, TransactionTemplate, TxnId};

    #[test]
    fn renders_segments_and_markers() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new("A", 10, vec![Step::compute(2)]))
            .build()
            .unwrap();
        let who = InstanceId::first(TxnId(0));
        let mut tr = Trace::new();
        tr.push(Tick(0), Effect::Arrived(who), &Effects::default());
        tr.push_segment(who, Tick(0), Tick(2), SegKind::Running);
        tr.push_segment(who, Tick(2), Tick(4), SegKind::Blocked);
        tr.push(Tick(4), Effect::Committed(who), &Effects::default());
        tr.push_ceiling(Tick(0), Ceiling::Dummy);
        tr.push_ceiling(Tick(1), Ceiling::At(Priority(3)));

        let s = render(&set, &tr);
        assert!(s.contains("##.."), "running+blocked cells: {s}");
        assert!(s.contains(']'), "commit marker: {s}");
        assert!(s.contains("ceiling"), "{s}");
        assert!(s.contains('3'), "ceiling digit: {s}");
    }
}
