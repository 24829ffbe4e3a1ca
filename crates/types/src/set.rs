//! Transaction sets and priority assignment.

use crate::{
    Ceiling, Duration, Error, ItemId, LockMode, Priority, Result, TransactionTemplate, TxnId,
};
use std::collections::BTreeSet;

/// A fixed set of periodic transaction templates with a total priority
/// order.
///
/// The paper writes `T_1, ..., T_n` "listed in descending order of priority,
/// with `T_1` having the highest priority". A `TransactionSet` preserves
/// that convention: template `TxnId(0)` is `T_1`. Priorities are assigned
/// either explicitly (insertion order = descending priority, used for the
/// paper's worked examples) or by the rate-monotonic rule (shorter period =
/// higher priority, ties broken by insertion order).
///
/// Static ceilings derive from the set:
/// * `Wceil(x)` / `HPW(x)` — priority of the highest-priority template that
///   may **write** `x` ([`TransactionSet::wceil`]);
/// * `Aceil(x)` — priority of the highest-priority template that may read
///   **or** write `x` ([`TransactionSet::aceil`]), used by RW-PCP.
#[derive(Clone, Debug)]
pub struct TransactionSet {
    templates: Vec<TransactionTemplate>,
    /// `priorities[i]` is the priority of template `TxnId(i)`.
    priorities: Vec<Priority>,
}

impl TransactionSet {
    /// All templates, indexed by [`TxnId`].
    #[inline]
    pub fn templates(&self) -> &[TransactionTemplate] {
        &self.templates
    }

    /// Number of templates.
    #[inline]
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True if the set has no templates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The template with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range — a foreign-set id is a logic error.
    #[inline]
    pub fn template(&self, id: TxnId) -> &TransactionTemplate {
        &self.templates[id.index()]
    }

    /// Base (original) priority of a template.
    #[inline]
    pub fn priority_of(&self, id: TxnId) -> Priority {
        self.priorities[id.index()]
    }

    /// Templates ordered by descending priority (paper order `T_1..T_n`).
    pub fn by_descending_priority(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self.templates.iter().map(|t| t.id).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.priority_of(*id)));
        ids
    }

    /// All items accessed by any template.
    pub fn items(&self) -> BTreeSet<ItemId> {
        self.templates.iter().flat_map(|t| t.access_set()).collect()
    }

    /// `HPW(x)` / static `Wceil(x)`: the priority of the highest-priority
    /// template that may write `x`; [`Ceiling::Dummy`] if no template
    /// writes `x`.
    pub fn wceil(&self, item: ItemId) -> Ceiling {
        self.ceiling_where(item, LockMode::Write)
    }

    /// `Aceil(x)`: the priority of the highest-priority template that may
    /// read or write `x`; [`Ceiling::Dummy`] if no template accesses `x`.
    pub fn aceil(&self, item: ItemId) -> Ceiling {
        self.templates
            .iter()
            .filter(|t| t.steps.iter().any(|s| s.op.item() == Some(item)))
            .map(|t| Ceiling::At(self.priority_of(t.id)))
            .max()
            .unwrap_or(Ceiling::Dummy)
    }

    fn ceiling_where(&self, item: ItemId, mode: LockMode) -> Ceiling {
        self.templates
            .iter()
            .filter(|t| t.may_access(item, mode))
            .map(|t| Ceiling::At(self.priority_of(t.id)))
            .max()
            .unwrap_or(Ceiling::Dummy)
    }

    /// Total CPU utilisation `Σ C_i / Pd_i`.
    pub fn total_utilization(&self) -> f64 {
        self.templates.iter().map(|t| t.utilization()).sum()
    }

    /// The hyperperiod (LCM of all periods) — one full pattern of arrivals.
    pub fn hyperperiod(&self) -> Duration {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        Duration(
            self.templates
                .iter()
                .map(|t| t.period.raw())
                .fold(1u64, |acc, p| acc / gcd(acc, p) * p),
        )
    }
}

/// Builder for [`TransactionSet`].
///
/// Templates are added in the paper's order (descending priority). Call
/// [`SetBuilder::build`] to keep that explicit order, or
/// [`SetBuilder::build_rate_monotonic`] to re-rank by period.
#[derive(Default)]
pub struct SetBuilder {
    templates: Vec<TransactionTemplate>,
}

impl SetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a template; returns the id it will have in the built set.
    pub fn add(&mut self, mut template: TransactionTemplate) -> TxnId {
        let id = TxnId(self.templates.len() as u32);
        template.id = id;
        self.templates.push(template);
        id
    }

    /// Chaining variant of [`SetBuilder::add`].
    pub fn with(mut self, template: TransactionTemplate) -> Self {
        self.add(template);
        self
    }

    /// Build with explicit priorities: the first template added is `T_1`
    /// (highest priority), matching the paper's examples.
    pub fn build(self) -> Result<TransactionSet> {
        let n = self.templates.len();
        self.finish(|idx, _| Priority((n - 1 - idx) as u32))
    }

    /// Build with the given priority levels, one per template in insertion
    /// order: any distinct `u32`s, dense or not.
    ///
    /// # Panics
    /// Panics if `levels` and the templates differ in number.
    pub fn build_with_priorities(self, levels: &[u32]) -> Result<TransactionSet> {
        assert_eq!(levels.len(), self.templates.len(), "one level per template");
        self.finish(|idx, _| Priority(levels[idx]))
    }

    /// Build with rate-monotonic priorities: shorter period = higher
    /// priority; ties broken in favour of earlier insertion (total order).
    pub fn build_rate_monotonic(self) -> Result<TransactionSet> {
        // Rank templates: sort indices by (period asc, insertion asc); the
        // first rank gets the highest priority.
        let mut order: Vec<usize> = (0..self.templates.len()).collect();
        order.sort_by_key(|&i| (self.templates[i].period, i));
        let n = self.templates.len();
        let mut rank_of = vec![0usize; n];
        for (rank, &i) in order.iter().enumerate() {
            rank_of[i] = rank;
        }
        self.finish(|idx, _| Priority((n - 1 - rank_of[idx]) as u32))
    }

    fn finish(
        self,
        priority: impl Fn(usize, &TransactionTemplate) -> Priority,
    ) -> Result<TransactionSet> {
        if self.templates.is_empty() {
            return Err(Error::EmptySet);
        }
        for t in &self.templates {
            t.validate()?;
        }
        let priorities: Vec<Priority> = self
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| priority(i, t))
            .collect();
        // Total order check.
        let mut seen: BTreeSet<Priority> = BTreeSet::new();
        for p in &priorities {
            if !seen.insert(*p) {
                return Err(Error::DuplicatePriority(*p));
            }
        }
        Ok(TransactionSet {
            templates: self.templates,
            priorities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Step;

    fn example4_set() -> TransactionSet {
        // Paper Example 4: T1: Read(x); T2: Write(y); T3: Read(z),Write(z);
        // T4: Read(y),Write(x). Descending priority by insertion order.
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                20,
                vec![Step::read(ItemId(0), 2)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                20,
                vec![Step::write(ItemId(1), 2)],
            ))
            .with(TransactionTemplate::new(
                "T3",
                20,
                vec![Step::read(ItemId(2), 1), Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "T4",
                20,
                vec![
                    Step::read(ItemId(1), 1),
                    Step::write(ItemId(0), 1),
                    Step::compute(3),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn explicit_build_gives_descending_priorities() {
        let s = example4_set();
        let p: Vec<u32> = (0..4).map(|i| s.priority_of(TxnId(i)).level()).collect();
        assert_eq!(p, vec![3, 2, 1, 0]);
        assert_eq!(
            s.by_descending_priority(),
            vec![TxnId(0), TxnId(1), TxnId(2), TxnId(3)]
        );
    }

    #[test]
    fn wceil_matches_paper_example4() {
        let s = example4_set();
        // Per the paper's definition, Wceil(x) is the priority of the
        // highest-priority template that may WRITE x. (Example 4's printed
        // "Wceil(x) = P1" contradicts that definition — x is written only
        // by T4 — and its own narrative, which uses Sysceil = Wceil(y) = P2;
        // we follow the definition.)
        assert_eq!(s.wceil(ItemId(1)), Ceiling::At(s.priority_of(TxnId(1)))); // y written by T2
        assert_eq!(s.wceil(ItemId(2)), Ceiling::At(s.priority_of(TxnId(2)))); // z written by T3
        assert_eq!(s.wceil(ItemId(0)), Ceiling::At(s.priority_of(TxnId(3)))); // x written by T4
    }

    #[test]
    fn aceil_takes_readers_into_account() {
        let s = example4_set();
        // x read by T1 (P highest) and written by T4.
        assert_eq!(s.aceil(ItemId(0)), Ceiling::At(s.priority_of(TxnId(0))));
        // Unaccessed item -> dummy.
        assert_eq!(s.aceil(ItemId(9)), Ceiling::Dummy);
        assert_eq!(s.wceil(ItemId(9)), Ceiling::Dummy);
    }

    #[test]
    fn rate_monotonic_orders_by_period() {
        let s = SetBuilder::new()
            .with(TransactionTemplate::new(
                "slow",
                100,
                vec![Step::compute(1)],
            ))
            .with(TransactionTemplate::new("fast", 10, vec![Step::compute(1)]))
            .with(TransactionTemplate::new("mid", 50, vec![Step::compute(1)]))
            .build_rate_monotonic()
            .unwrap();
        assert!(s.priority_of(TxnId(1)) > s.priority_of(TxnId(2)));
        assert!(s.priority_of(TxnId(2)) > s.priority_of(TxnId(0)));
    }

    #[test]
    fn rate_monotonic_breaks_ties_deterministically() {
        let s = SetBuilder::new()
            .with(TransactionTemplate::new("a", 10, vec![Step::compute(1)]))
            .with(TransactionTemplate::new("b", 10, vec![Step::compute(1)]))
            .build_rate_monotonic()
            .unwrap();
        assert!(s.priority_of(TxnId(0)) > s.priority_of(TxnId(1)));
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(matches!(SetBuilder::new().build(), Err(Error::EmptySet)));
    }

    #[test]
    fn hyperperiod_is_lcm() {
        let s = SetBuilder::new()
            .with(TransactionTemplate::new("a", 4, vec![Step::compute(1)]))
            .with(TransactionTemplate::new("b", 6, vec![Step::compute(1)]))
            .build()
            .unwrap();
        assert_eq!(s.hyperperiod(), Duration(12));
    }

    #[test]
    fn total_utilization_sums_templates() {
        let s = SetBuilder::new()
            .with(TransactionTemplate::new("a", 4, vec![Step::compute(1)]))
            .with(TransactionTemplate::new("b", 8, vec![Step::compute(2)]))
            .build()
            .unwrap();
        assert!((s.total_utilization() - 0.5).abs() < 1e-12);
    }
}
