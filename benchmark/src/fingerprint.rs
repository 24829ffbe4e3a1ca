//! Workload fingerprints: the only guard that later numbers measure the
//! same inputs.
//!
//! The generators (`WorkloadParams::generate`, `rt::job_list`, the PRNG)
//! live outside the benchmark's directory, so a change there silently
//! changes what every seed produces. Each run hashes its generated inputs;
//! the hashes for seeds 7 and 11 are committed in `fingerprints.json`, and
//! a mismatch stops the run.

use crate::harness::Ctx;
use crate::schedule::Arrival;
use rtdb::types::{InstanceId, Operation, TransactionSet};
use rtdb_util::Json;

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Per template: priority, period, and each step's kind, item and duration.
pub fn hash_set(h: &mut Fnv, set: &TransactionSet) {
    h.u64(set.len() as u64);
    for t in set.templates() {
        h.u64(u64::from(set.priority_of(t.id).level()));
        h.u64(t.period.raw());
        h.u64(t.steps.len() as u64);
        for step in &t.steps {
            let (kind, item) = match step.op {
                Operation::Read(item) => (1, u64::from(item.0)),
                Operation::Write(item) => (2, u64::from(item.0)),
                Operation::Compute => (3, 0),
            };
            h.u64(kind);
            h.u64(item);
            h.u64(step.duration.raw());
        }
    }
}

pub fn hash_jobs(h: &mut Fnv, jobs: &[InstanceId]) {
    h.u64(jobs.len() as u64);
    for j in jobs {
        h.u64(u64::from(j.txn.0));
        h.u64(u64::from(j.seq));
    }
}

pub fn hash_schedule(h: &mut Fnv, schedule: &[Arrival]) {
    h.u64(schedule.len() as u64);
    for a in schedule {
        h.u64(a.due_ns);
        h.u64(u64::from(a.txn.0));
    }
}

/// The committed fingerprints, `{"<workload>": {"<seed>": "<hex>"}}`.
const COMMITTED: &str = include_str!("../fingerprints.json");

/// Print a run's fingerprint and, at full size, hold it against the
/// committed one (smoke-size inputs are not the committed ones).
pub fn verify(workload: &str, ctx: &Ctx, found: u64) -> Result<(), String> {
    eprintln!("fingerprint {workload} seed {}: {found:016x}", ctx.seed);
    if ctx.smoke {
        Ok(())
    } else {
        check(workload, ctx.seed, found)
    }
}

/// Compare `found` with the committed fingerprint of `(workload, seed)`.
/// Seeds without a committed fingerprint pass.
fn check(workload: &str, seed: u64, found: u64) -> Result<(), String> {
    let doc = Json::parse(COMMITTED).map_err(|e| format!("fingerprints.json: {e}"))?;
    let committed = doc
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_str);
    match committed {
        Some(hex) if hex != format!("{found:016x}") => Err(format!(
            "workload drifted — generator in rtdb-sim changed: {workload} seed {seed} \
             fingerprint {found:016x}, committed {hex}"
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_committed_seed_must_match_and_an_unknown_one_passes() {
        let doc = Json::parse(COMMITTED).unwrap();
        let hex = doc
            .get("closed-pcpda")
            .and_then(|w| w.get("7"))
            .and_then(Json::as_str)
            .expect("seed 7 is committed");
        let good = u64::from_str_radix(hex, 16).unwrap();
        assert!(check("closed-pcpda", 7, good).is_ok());
        let err = check("closed-pcpda", 7, good ^ 1).unwrap_err();
        assert!(err.contains("workload drifted"));
        assert!(check("closed-pcpda", 123_456, 1).is_ok());
    }
}
