//! Seeded random workload generation for the extension experiments.
//!
//! Workloads are periodic transaction sets in the paper's model: each
//! template is a sequence of read/write/compute steps over a shared item
//! pool, with rate-monotonic priorities and a target total CPU
//! utilization. Generation is fully determined by
//! [`WorkloadParams::seed`], so every experiment is reproducible.

use rtdb_types::{
    Error, ItemId, Operation, Result, SetBuilder, Step, TransactionSet, TransactionTemplate,
};
use rtdb_util::Rng;

/// Parameters of a random workload.
#[derive(Clone, Debug)]
pub struct WorkloadParams {
    /// Number of transaction templates.
    pub templates: usize,
    /// Size of the shared item pool.
    pub items: usize,
    /// Target total CPU utilization `Σ C_i / Pd_i` (0, 1].
    pub target_utilization: f64,
    /// Period range `[min, max]`, sampled log-uniformly.
    pub min_period: u64,
    /// See [`WorkloadParams::min_period`].
    pub max_period: u64,
    /// Data steps per template, sampled uniformly from this range.
    pub min_data_steps: usize,
    /// See [`WorkloadParams::min_data_steps`].
    pub max_data_steps: usize,
    /// Probability that a data step writes (vs reads).
    pub write_fraction: f64,
    /// Number of "hot" items (the first `hotspot_items` ids).
    pub hotspot_items: usize,
    /// Probability that a data step touches a hot item — the data
    /// contention knob.
    pub hotspot_prob: f64,
    /// Zipfian skew exponent θ for item selection. `None` keeps the
    /// legacy two-tier hotspot model (and its exact RNG stream, so
    /// existing seeds reproduce); `Some(theta)` replaces it with a
    /// Zipf(θ) distribution over the item pool — rank 1 (the hottest
    /// item) is item 0, matching the hotspot convention. θ = 0 is
    /// uniform; 0.9 is a sharp hotspot.
    pub zipf_theta: Option<f64>,
    /// Partition the item pool for sharded runs: items split across
    /// `partitions` partitions by the shared `item mod partitions`
    /// routing rule ([`rtdb_core::ShardRouter`]), template `i` homes in
    /// partition `i % partitions`, and every data step is remapped into
    /// the home partition unless a [`WorkloadParams::cross_partition_prob`]
    /// coin sends it to a random other one. The base item distribution
    /// (two-tier hotspot or Zipf) keeps its skew *within* each partition.
    /// `1` — the default — leaves the generator, and its exact RNG
    /// stream, untouched, so existing seeds reproduce.
    pub partitions: usize,
    /// Probability that a data step of a partitioned workload touches a
    /// partition other than its template's home — the cross-shard
    /// traffic knob. Ignored when [`WorkloadParams::partitions`] is 1.
    pub cross_partition_prob: f64,
    /// Force the first `read_only_templates` templates to be pure
    /// readers (every data step reads) — the knob the read-heavy
    /// snapshot scenarios use to dial a read fraction: with round-robin
    /// job queues, `k` of `n` templates read-only yields a `k/n` read
    /// mix. The remaining templates keep sampling writes with
    /// [`WorkloadParams::write_fraction`].
    pub read_only_templates: usize,
    /// Stable-sort each template's data steps by item id, hottest
    /// (lowest-id) first — the early-release demonstration shape: the
    /// hot access lands at the *front* of the transaction, so a
    /// blocking protocol pins the hot lock across the whole remaining
    /// body while Bamboo / Brook-2PL retire it after the access and let
    /// the tail run in parallel. (An access at the tail end contends
    /// for barely a step under any protocol — position is what the
    /// early-release win hinges on.) No RNG draws are added, so `false`
    /// — the default — preserves every legacy seed stream.
    pub hot_first: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            templates: 6,
            items: 20,
            target_utilization: 0.6,
            min_period: 40,
            max_period: 400,
            min_data_steps: 2,
            max_data_steps: 5,
            write_fraction: 0.4,
            hotspot_items: 4,
            hotspot_prob: 0.5,
            zipf_theta: None,
            partitions: 1,
            cross_partition_prob: 0.0,
            read_only_templates: 0,
            hot_first: false,
            seed: 42,
        }
    }
}

/// A generated workload: the parameters plus the resulting set.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Generation parameters.
    pub params: WorkloadParams,
    /// The generated transaction set (rate-monotonic priorities).
    pub set: TransactionSet,
}

impl WorkloadParams {
    /// Generate the workload.
    pub fn generate(&self) -> Result<WorkloadSpec> {
        self.validate()?;
        let mut rng = Rng::seed(self.seed);
        let mut builder = SetBuilder::new();
        let share = self.target_utilization / self.templates as f64;
        let zipf_cdf = self.zipf_cdf();

        for idx in 0..self.templates {
            // Log-uniform period.
            let (lo, hi) = (self.min_period as f64, self.max_period as f64);
            let period = (lo * (hi / lo).powf(rng.f64())).round() as u64;

            let force_read = idx < self.read_only_templates;
            let home = idx % self.partitions.max(1);
            let n_data = rng.range_inclusive_usize(self.min_data_steps, self.max_data_steps);
            let mut ops: Vec<Operation> = Vec::with_capacity(n_data + 1);
            for _ in 0..n_data {
                let item = self.pick_item(&mut rng, zipf_cdf.as_deref(), home);
                if !force_read && rng.f64() < self.write_fraction {
                    ops.push(Operation::Write(item));
                } else {
                    ops.push(Operation::Read(item));
                }
            }
            if self.hot_first {
                ops.sort_by_key(|op| match *op {
                    Operation::Read(item) | Operation::Write(item) => item.0,
                    Operation::Compute => u32::MAX,
                });
            }
            // One trailing compute step mimics post-processing and gives
            // the duration budget somewhere to go even for tiny locksets.
            ops.push(Operation::Compute);

            // Distribute the WCET budget over the steps, >= 1 tick each.
            let budget = ((share * period as f64).round() as u64).max(ops.len() as u64);
            let budget = budget.min(period); // keep feasible
            let n = ops.len() as u64;
            let base = budget / n;
            let extra = (budget % n) as usize;
            let steps: Vec<Step> = ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| Step {
                    op,
                    duration: rtdb_types::Duration(base + u64::from(i < extra)),
                })
                .collect();

            builder.add(TransactionTemplate::new(format!("W{idx}"), period, steps));
        }
        let set = builder.build_rate_monotonic()?;
        Ok(WorkloadSpec {
            params: self.clone(),
            set,
        })
    }

    /// Cumulative Zipf(θ) distribution over item ranks, if requested.
    fn zipf_cdf(&self) -> Option<Vec<f64>> {
        let theta = self.zipf_theta?;
        if theta == 0.0 {
            // θ = 0 is the "no skew" end of a sweep axis: route it to the
            // legacy two-tier hotspot picker (and its exact RNG stream),
            // so a skew sweep's baseline point is byte-identical to the
            // workloads every committed benchmark was generated from.
            return None;
        }
        let mut w: Vec<f64> = (1..=self.items)
            .map(|rank| 1.0 / (rank as f64).powf(theta))
            .collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        for x in &mut w {
            acc += *x / total;
            *x = acc;
        }
        Some(w)
    }

    fn pick_item(&self, rng: &mut Rng, zipf_cdf: Option<&[f64]>, home: usize) -> ItemId {
        let base = if let Some(cdf) = zipf_cdf {
            let u = rng.f64();
            cdf.partition_point(|&c| c < u).min(self.items - 1)
        } else {
            let hot = self.hotspot_items.min(self.items);
            if hot > 0 && rng.f64() < self.hotspot_prob {
                rng.range_usize(0..hot)
            } else {
                rng.range_usize(0..self.items)
            }
        };
        if self.partitions <= 1 {
            // Unpartitioned: the base pick *is* the item (and no extra
            // RNG draws happen, preserving legacy seed streams).
            return ItemId(base as u32);
        }
        // Remap the base rank into the target partition: items ≡ p
        // (mod partitions) under the shared router rule, with low base
        // ranks landing on low in-partition ranks so the hotspot/Zipf
        // skew survives partitioning.
        let p = if rng.f64() < self.cross_partition_prob {
            let r = rng.range_usize(0..self.partitions - 1);
            r + usize::from(r >= home)
        } else {
            home
        };
        let slots = (self.items - p).div_ceil(self.partitions);
        ItemId((p + (base % slots) * self.partitions) as u32)
    }

    fn validate(&self) -> Result<()> {
        if self.templates == 0 || self.items == 0 {
            return Err(Error::Config("templates and items must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.target_utilization) || self.target_utilization == 0.0 {
            return Err(Error::Config("target_utilization must be in (0, 1]".into()));
        }
        if self.min_period == 0 || self.min_period > self.max_period {
            return Err(Error::Config("invalid period range".into()));
        }
        if self.min_data_steps == 0 || self.min_data_steps > self.max_data_steps {
            return Err(Error::Config("invalid data step range".into()));
        }
        if self
            .zipf_theta
            .is_some_and(|t| !t.is_finite() || !(0.0..=16.0).contains(&t))
        {
            return Err(Error::Config("zipf_theta must be in [0, 16]".into()));
        }
        if self.partitions == 0 || self.partitions > self.items.min(64) {
            return Err(Error::Config(
                "partitions must be in 1..=min(items, 64)".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.cross_partition_prob) {
            return Err(Error::Config(
                "cross_partition_prob must be in [0, 1]".into(),
            ));
        }
        if self.read_only_templates > self.templates {
            return Err(Error::Config(
                "read_only_templates exceeds template count".into(),
            ));
        }
        // A template needs at least steps+1 ticks of period to fit.
        if self.min_period < (self.max_data_steps as u64 + 1) * 2 {
            return Err(Error::Config(
                "min_period too small for the requested step counts".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = WorkloadParams::default();
        let a = p.generate().unwrap();
        let b = p.generate().unwrap();
        assert_eq!(a.set.templates().len(), b.set.templates().len());
        for (ta, tb) in a.set.templates().iter().zip(b.set.templates()) {
            assert_eq!(ta.period, tb.period);
            assert_eq!(ta.steps, tb.steps);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadParams::default().generate().unwrap();
        let b = WorkloadParams {
            seed: 43,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let same = a
            .set
            .templates()
            .iter()
            .zip(b.set.templates())
            .all(|(x, y)| x.period == y.period && x.steps == y.steps);
        assert!(!same);
    }

    #[test]
    fn utilization_close_to_target() {
        let p = WorkloadParams {
            target_utilization: 0.5,
            ..Default::default()
        };
        let w = p.generate().unwrap();
        let u = w.set.total_utilization();
        assert!(u > 0.3 && u < 0.8, "utilization {u} far from target 0.5");
    }

    #[test]
    fn templates_are_valid_and_feasible() {
        let w = WorkloadParams {
            templates: 10,
            seed: 7,
            ..Default::default()
        }
        .generate()
        .unwrap();
        for t in w.set.templates() {
            assert!(t.validate().is_ok());
            assert!(t.wcet() <= t.period);
        }
    }

    #[test]
    fn hotspot_prob_one_touches_only_hot_items() {
        let w = WorkloadParams {
            hotspot_prob: 1.0,
            hotspot_items: 2,
            seed: 1,
            ..Default::default()
        }
        .generate()
        .unwrap();
        for t in w.set.templates() {
            for x in t.access_set() {
                assert!(x.0 < 2, "non-hot item {x} accessed");
            }
        }
    }

    #[test]
    fn zipf_skew_concentrates_on_low_ids() {
        let gen = |theta: Option<f64>| {
            let w = WorkloadParams {
                templates: 40,
                zipf_theta: theta,
                min_data_steps: 4,
                max_data_steps: 6,
                seed: 9,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let mut hot = 0usize;
            let mut total = 0usize;
            for t in w.set.templates() {
                for s in &t.steps {
                    if let Some(item) = s.op.item() {
                        total += 1;
                        hot += usize::from(item.0 < 2);
                    }
                }
            }
            hot as f64 / total as f64
        };
        // θ = 0 falls back to the legacy hotspot model, so the flat
        // comparator must be a *small positive* θ to stay on the Zipf
        // path.
        let uniform = gen(Some(0.05));
        let skewed = gen(Some(0.9));
        // θ ≈ 0 spreads over 20 items (~10% on the top two); θ = 0.9
        // concentrates hard on the lowest ranks.
        assert!(uniform < 0.3, "uniform top-2 share {uniform}");
        assert!(
            skewed > uniform + 0.1,
            "skewed {skewed} vs uniform {uniform}"
        );
    }

    #[test]
    fn zipf_theta_zero_reproduces_legacy_stream() {
        // The skew-0 point of a sweep must be byte-identical to the
        // legacy (pre-Zipf) generator: same items, same ops, same
        // durations, same periods — one shared RNG stream.
        for seed in [1u64, 9, 42, 1234] {
            let base = WorkloadParams {
                templates: 12,
                seed,
                ..Default::default()
            };
            let legacy = base.clone().generate().unwrap();
            let swept = WorkloadParams {
                zipf_theta: Some(0.0),
                ..base
            }
            .generate()
            .unwrap();
            for (a, b) in legacy.set.templates().iter().zip(swept.set.templates()) {
                assert_eq!(a.period, b.period, "seed {seed}");
                assert_eq!(a.steps, b.steps, "seed {seed}");
            }
        }
    }

    #[test]
    fn read_only_templates_never_write() {
        let w = WorkloadParams {
            templates: 8,
            read_only_templates: 5,
            write_fraction: 1.0,
            seed: 11,
            ..Default::default()
        }
        .generate()
        .unwrap();
        for (idx, t) in w.set.templates().iter().enumerate() {
            if idx < 5 {
                assert!(t.is_read_only(), "template {idx} should be read-only");
            } else {
                assert!(!t.is_read_only(), "template {idx} writes with p=1");
            }
        }
    }

    #[test]
    fn partitions_of_one_preserve_the_legacy_stream() {
        let legacy = WorkloadParams::default().generate().unwrap();
        let partitioned = WorkloadParams {
            partitions: 1,
            cross_partition_prob: 0.7,
            ..Default::default()
        }
        .generate()
        .unwrap();
        for (a, b) in legacy
            .set
            .templates()
            .iter()
            .zip(partitioned.set.templates())
        {
            assert_eq!(a.period, b.period);
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn zero_cross_prob_confines_templates_to_their_home_partition() {
        let parts = 4usize;
        let w = WorkloadParams {
            templates: 8,
            partitions: parts,
            cross_partition_prob: 0.0,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let router = rtdb_core::ShardRouter::new(parts);
        for (idx, t) in w.set.templates().iter().enumerate() {
            for item in t.access_set() {
                assert_eq!(
                    router.shard_of(item),
                    idx % parts,
                    "template {idx} escaped its home partition"
                );
            }
        }
    }

    #[test]
    fn full_cross_prob_sends_every_step_abroad() {
        let parts = 4usize;
        let w = WorkloadParams {
            templates: 8,
            partitions: parts,
            cross_partition_prob: 1.0,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let router = rtdb_core::ShardRouter::new(parts);
        for (idx, t) in w.set.templates().iter().enumerate() {
            for item in t.access_set() {
                assert_ne!(
                    router.shard_of(item),
                    idx % parts,
                    "template {idx} stayed home at cross prob 1"
                );
            }
        }
    }

    #[test]
    fn partitioned_zipf_keeps_low_in_partition_ranks_hot() {
        let w = WorkloadParams {
            templates: 40,
            partitions: 4,
            zipf_theta: Some(0.9),
            min_data_steps: 4,
            max_data_steps: 6,
            seed: 9,
            ..Default::default()
        }
        .generate()
        .unwrap();
        // The hottest slot of each partition is item id < 4 (in-partition
        // rank 0); Zipf(0.9) should concentrate well above the uniform
        // share (4/20 = 0.2) — remapping folds ranks {0,5,10,15} onto
        // in-partition rank 0, ~0.34 of the mass.
        let mut hot = 0usize;
        let mut total = 0usize;
        for t in w.set.templates() {
            for s in &t.steps {
                if let Some(item) = s.op.item() {
                    total += 1;
                    hot += usize::from(item.0 < 4);
                }
            }
        }
        let share = hot as f64 / total as f64;
        assert!(share > 0.28, "rank-0 share {share} not skewed");
    }

    #[test]
    fn invalid_params_are_rejected() {
        let bad = WorkloadParams {
            templates: 0,
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            target_utilization: 0.0,
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            min_period: 100,
            max_period: 10,
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            zipf_theta: Some(-0.5),
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            read_only_templates: 7,
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            partitions: 21, // > items
            ..Default::default()
        };
        assert!(bad.generate().is_err());
        let bad = WorkloadParams {
            partitions: 2,
            cross_partition_prob: 1.5,
            ..Default::default()
        };
        assert!(bad.generate().is_err());
    }
}
