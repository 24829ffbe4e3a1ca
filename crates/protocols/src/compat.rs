//! Table 1 of the paper: the PCP-DA lock compatibility table.
//!
//! |  held by `T_L` \ requested by `T_H` | read-lock | write-lock |
//! |---|---|---|
//! | **read-lock**  | OK  | NOK |
//! | **write-lock** | OK* | OK  |
//!
//! `*` under the side condition `DataRead(T_L) ∩ WriteSet(T_H) = ∅`: the
//! requester may preempt a write-holder only if it is guaranteed to commit
//! first, which fails exactly when the holder has already read an item the
//! requester may later write (the requester would then block behind the
//! holder, and the holder's commit would invalidate the requester's read —
//! forcing the restart PCP-DA forbids).
//!
//! This module states the table as a pure function so it can be tested and
//! regenerated verbatim (experiment E6); the live protocol logic in
//! [`crate::pcpda`] additionally layers the ceiling conditions on top,
//! which turn this *necessary* condition into a *sufficient* one
//! preserving single blocking and deadlock freedom.

use rtdb_types::LockMode;

/// Inputs to the compatibility decision between one holder and one
/// requester.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompatInput {
    /// Mode held by the (lower-priority) transaction `T_L`.
    pub held: LockMode,
    /// Mode requested by the (higher-priority) transaction `T_H`.
    pub requested: LockMode,
    /// Whether `DataRead(T_L) ∩ WriteSet(T_H) = ∅`.
    pub holder_reads_disjoint_from_requester_writes: bool,
}

/// Table 1: may the requested lock coexist with the held one?
pub fn compatible(input: CompatInput) -> bool {
    match (input.held, input.requested) {
        // Read/Read: shared locks always compatible.
        (LockMode::Read, LockMode::Read) => true,
        // Read held, write requested: never — the write would invalidate
        // the holder's read and force a restart (§4.1, Case 2).
        (LockMode::Read, LockMode::Write) => false,
        // Write held, read requested: preemptable under the side condition
        // (§4.1, Case 1).
        (LockMode::Write, LockMode::Read) => input.holder_reads_disjoint_from_requester_writes,
        // Write/Write: blind writes are non-conflicting (§4.1, Case 3).
        (LockMode::Write, LockMode::Write) => true,
    }
}

/// Render the table as the paper prints it (used by the `figures` binary).
pub fn render_table1() -> String {
    let cell = |held, requested| {
        let ok_clean = compatible(CompatInput {
            held,
            requested,
            holder_reads_disjoint_from_requester_writes: true,
        });
        let ok_dirty = compatible(CompatInput {
            held,
            requested,
            holder_reads_disjoint_from_requester_writes: false,
        });
        match (ok_clean, ok_dirty) {
            (true, true) => "OK ",
            (true, false) => "OK*",
            (false, false) => "NOK",
            (false, true) => unreachable!("side condition can only restrict"),
        }
    };
    let mut s = String::new();
    s.push_str("Table 1: PCP-DA lock compatibility (held \\ requested)\n");
    s.push_str("            | Read-lock | Write-lock\n");
    s.push_str(&format!(
        "  Read-lock |    {}    |    {}\n",
        cell(LockMode::Read, LockMode::Read),
        cell(LockMode::Read, LockMode::Write)
    ));
    s.push_str(&format!(
        " Write-lock |    {}    |    {}\n",
        cell(LockMode::Write, LockMode::Read),
        cell(LockMode::Write, LockMode::Write)
    ));
    s.push_str("  * under the condition DataRead(T_L) ∩ WriteSet(T_H) = ∅\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(held: LockMode, requested: LockMode, disjoint: bool) -> CompatInput {
        CompatInput {
            held,
            requested,
            holder_reads_disjoint_from_requester_writes: disjoint,
        }
    }

    #[test]
    fn read_read_always_compatible() {
        assert!(compatible(input(LockMode::Read, LockMode::Read, true)));
        assert!(compatible(input(LockMode::Read, LockMode::Read, false)));
    }

    #[test]
    fn read_write_never_compatible() {
        assert!(!compatible(input(LockMode::Read, LockMode::Write, true)));
        assert!(!compatible(input(LockMode::Read, LockMode::Write, false)));
    }

    #[test]
    fn write_read_compatible_only_under_side_condition() {
        assert!(compatible(input(LockMode::Write, LockMode::Read, true)));
        assert!(!compatible(input(LockMode::Write, LockMode::Read, false)));
    }

    #[test]
    fn write_write_always_compatible() {
        assert!(compatible(input(LockMode::Write, LockMode::Write, true)));
        assert!(compatible(input(LockMode::Write, LockMode::Write, false)));
    }

    #[test]
    fn rendered_table_matches_paper() {
        let t = render_table1();
        assert!(t.contains("OK*"));
        assert!(t.contains("NOK"));
        assert!(t.contains("DataRead"));
    }
}
