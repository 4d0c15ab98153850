//! The four filters of §4.2: `fsame`, `fadd`, `frem`, `fdup`, applied
//! in that order, with per-stage survivor counts (Figure 6).

use crate::decision::{record_decision, DecisionReason};
use crate::pipeline::{MinedUsageChange, Run};
use obs::{MetricsRegistry, Stopwatch};
use std::collections::btree_map::Entry;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Which filter stage removed a usage change (or none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterStage {
    /// Removed by `fsame` (no features added or removed).
    FSame,
    /// Removed by `fadd` (pure addition).
    FAdd,
    /// Removed by `frem` (pure removal).
    FRem,
    /// Removed by `fdup` (duplicate of an earlier change).
    FDup,
    /// Survived all filters.
    Remaining,
}

/// Survivor counts after each stage (one Figure 6 row, minus the class
/// name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Usage changes before filtering.
    pub total: usize,
    /// Remaining after `fsame`.
    pub after_fsame: usize,
    /// Remaining after `fadd`.
    pub after_fadd: usize,
    /// Remaining after `frem`.
    pub after_frem: usize,
    /// Remaining after `fdup`.
    pub after_fdup: usize,
}

impl FilterStats {
    /// `true` when the funnel invariant holds:
    /// `total ≥ after_fsame ≥ after_fadd ≥ after_frem ≥ after_fdup`.
    /// Asserted in debug builds at the filter stage boundary.
    pub fn is_monotone(&self) -> bool {
        self.total >= self.after_fsame
            && self.after_fsame >= self.after_fadd
            && self.after_fadd >= self.after_frem
            && self.after_frem >= self.after_fdup
    }

    /// Publishes the funnel as the [`FILTER_FUNNEL`] counters so metrics
    /// snapshots reconcile exactly with Figure 6.
    pub fn record(&self, registry: &mut MetricsRegistry) {
        let counts = [
            self.total,
            self.after_fsame,
            self.after_fadd,
            self.after_frem,
            self.after_fdup,
        ];
        for (name, count) in FILTER_FUNNEL.iter().zip(counts) {
            registry.inc(name, count as u64);
        }
    }
}

/// The counter names of the mining → filtering funnel, in pipeline
/// order. Shared by [`FilterStats::record`], the metrics report, the
/// invariant check, and the CI snapshot checker (which re-implements
/// the same chain over the JSON snapshot).
pub const FILTER_FUNNEL: [&str; 5] = [
    "filter.total",
    "filter.after_fsame",
    "filter.after_fadd",
    "filter.after_frem",
    "filter.after_fdup",
];

/// A dedup key: a 128-bit fingerprint of the usage change's class and
/// feature sets.
///
/// Fingerprinting (two independent deterministic `SipHash` passes)
/// replaces the earlier owned `(String, Vec<FeaturePath>, Vec<FeaturePath>)`
/// key, which cloned all three fields for every staged change. The two
/// halves are domain-separated, so a collision requires two distinct
/// changes to collide under both keyed hashes at once (~2⁻¹²⁸ per
/// pair) — negligible against corpus-scale dedup sets.
type DupKey = (u64, u64);

fn dup_key(change: &MinedUsageChange) -> DupKey {
    let fields = (&change.class, &change.change.removed, &change.change.added);
    let mut h1 = DefaultHasher::new();
    fields.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    0xD1FF_C0DEu64.hash(&mut h2);
    fields.hash(&mut h2);
    (h1.finish(), h2.finish())
}

/// Tags every change with the stage that removes it, paired with the
/// index of its first occurrence: the earlier change an `fdup` change
/// duplicates, and the change's own index for every other stage.
/// `fdup` is corpus-wide — every earlier change in `changes` counts.
fn stages(changes: &[MinedUsageChange]) -> impl Iterator<Item = (FilterStage, usize)> + '_ {
    let mut first: BTreeMap<DupKey, usize> = BTreeMap::new();
    changes.iter().enumerate().map(move |(idx, c)| {
        if c.change.is_same() {
            (FilterStage::FSame, idx)
        } else if c.change.is_pure_addition() {
            (FilterStage::FAdd, idx)
        } else if c.change.is_pure_removal() {
            (FilterStage::FRem, idx)
        } else {
            match first.entry(dup_key(c)) {
                Entry::Occupied(slot) => (FilterStage::FDup, *slot.get()),
                Entry::Vacant(slot) => {
                    slot.insert(idx);
                    (FilterStage::Remaining, idx)
                }
            }
        }
    })
}

/// Tags every change with the stage that removes it.
pub fn stage_changes(changes: &[MinedUsageChange]) -> Vec<(FilterStage, &MinedUsageChange)> {
    stages(changes)
        .zip(changes)
        .map(|((stage, _), c)| (stage, c))
        .collect()
}

/// Applies the filters, returning the surviving changes and the
/// per-stage statistics — [`Run::filter`] with the metrics discarded.
pub fn apply_filters(changes: Vec<MinedUsageChange>) -> (Vec<MinedUsageChange>, FilterStats) {
    Run::new(1).filter(&changes)
}

impl Run<'_> {
    /// Applies the four filters to `changes`, cloning only the
    /// survivors. Records the `filter.apply` span and the `filter.*`
    /// funnel counters; with an enabled trace, also emits one decision
    /// per change — `kept`,
    /// `filtered(refactoring|pure_addition|pure_removal)`, or
    /// `dup_of(<fingerprint>)` naming the first occurrence the
    /// duplicate collapsed into — whose `index` attribute is the
    /// change's position in `changes`.
    pub fn filter(&mut self, changes: &[MinedUsageChange]) -> (Vec<MinedUsageChange>, FilterStats) {
        let clock = Stopwatch::start();
        let span = self.trace.begin_with("filter.apply", |a| {
            a.u64("changes", changes.len() as u64);
        });
        let traced = self.trace.is_enabled();
        let mut stats = FilterStats {
            total: changes.len(),
            ..FilterStats::default()
        };
        let mut kept = Vec::new();
        for (idx, ((stage, first), change)) in stages(changes).zip(changes).enumerate() {
            match stage {
                FilterStage::FSame => {}
                FilterStage::FAdd => stats.after_fsame += 1,
                FilterStage::FRem => {
                    stats.after_fsame += 1;
                    stats.after_fadd += 1;
                }
                FilterStage::FDup => {
                    stats.after_fsame += 1;
                    stats.after_fadd += 1;
                    stats.after_frem += 1;
                }
                FilterStage::Remaining => {
                    stats.after_fsame += 1;
                    stats.after_fadd += 1;
                    stats.after_frem += 1;
                    stats.after_fdup += 1;
                    kept.push(change.clone());
                }
            }
            if traced {
                let reason = match stage {
                    FilterStage::FSame => DecisionReason::FilteredRefactoring,
                    FilterStage::FAdd => DecisionReason::FilteredPureAddition,
                    FilterStage::FRem => DecisionReason::FilteredPureRemoval,
                    FilterStage::FDup => {
                        DecisionReason::DupOf(changes[first].meta.fingerprint.clone())
                    }
                    FilterStage::Remaining => DecisionReason::Kept,
                };
                record_decision(&mut self.trace, &change.meta, &reason, |a| {
                    a.u64("index", idx as u64);
                    a.str("class", change.class.as_str());
                });
            }
        }
        debug_assert!(stats.is_monotone(), "filter funnel not monotone: {stats:?}");
        self.trace.end(span);
        self.metrics.record_span("filter.apply", clock.elapsed());
        stats.record(&mut self.metrics);
        debug_assert!(obs::check_funnel(&self.metrics, &FILTER_FUNNEL).is_ok());
        (kept, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ChangeMeta;
    use std::collections::BTreeSet;
    use usagegraph::{FeaturePath, UsageChange, UsageDag};

    fn mk(class: &str, removed: &[&str], added: &[&str]) -> MinedUsageChange {
        let path = |s: &&str| FeaturePath(vec![class.into(), (*s).into()]);
        MinedUsageChange {
            meta: ChangeMeta {
                project: "u/p".into(),
                commit: "c".into(),
                author: String::new(),
                message: String::new(),
                path: "A.java".into(),
                fingerprint: format!("fp:{class}:{removed:?}->{added:?}"),
            },
            class: class.to_owned(),
            old_dag: UsageDag::empty(class),
            new_dag: UsageDag::empty(class),
            change: UsageChange {
                class: class.to_owned(),
                removed: removed.iter().map(path).collect(),
                added: added.iter().map(path).collect(),
            },
        }
    }

    #[test]
    fn filters_apply_in_order() {
        let changes = vec![
            mk("Cipher", &[], &[]),       // fsame
            mk("Cipher", &[], &["x"]),    // fadd
            mk("Cipher", &["y"], &[]),    // frem
            mk("Cipher", &["a"], &["b"]), // remaining
            mk("Cipher", &["a"], &["b"]), // fdup
            mk("Cipher", &["a"], &["c"]), // remaining
        ];
        let (kept, stats) = apply_filters(changes);
        assert_eq!(stats.total, 6);
        assert_eq!(stats.after_fsame, 5);
        assert_eq!(stats.after_fadd, 4);
        assert_eq!(stats.after_frem, 3);
        assert_eq!(stats.after_fdup, 2);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn duplicate_detection_is_class_scoped() {
        let changes = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("MessageDigest", &["a"], &["b"]),
        ];
        let (kept, _) = apply_filters(changes);
        assert_eq!(
            kept.len(),
            2,
            "same features on different classes are distinct"
        );
    }

    #[test]
    fn empty_input() {
        let (kept, stats) = apply_filters(Vec::new());
        assert!(kept.is_empty());
        assert_eq!(stats, FilterStats::default());
    }

    /// The pre-fingerprint dedup key: clones class + both feature sets.
    /// Retained here as the specification the hash key must agree with.
    fn reference_key(change: &MinedUsageChange) -> (String, Vec<FeaturePath>, Vec<FeaturePath>) {
        (
            change.class.clone(),
            change.change.removed.clone(),
            change.change.added.clone(),
        )
    }

    #[test]
    fn hash_key_dedups_identically_to_cloning_key() {
        // A battery with every collision-relevant shape: exact dups,
        // class-only differences, removed/added swaps, prefix overlap.
        let changes = vec![
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["a"], &["b"]),        // dup of 0
            mk("MessageDigest", &["a"], &["b"]), // other class
            mk("Cipher", &["b"], &["a"]),        // swapped sides
            mk("Cipher", &["a", "b"], &["c"]),
            mk("Cipher", &["a"], &["b", "c"]),
            mk("Cipher", &["a", "b"], &["c"]), // dup of 4
            mk("Cipher", &[], &["b"]),         // fadd, never keyed
            mk("Cipher", &["x"], &["b"]),
        ];
        let mut by_reference = BTreeSet::new();
        let mut by_hash = BTreeSet::new();
        for c in &changes {
            if c.change.is_same() || c.change.is_pure_addition() || c.change.is_pure_removal() {
                continue;
            }
            assert_eq!(
                by_reference.insert(reference_key(c)),
                by_hash.insert(dup_key(c)),
                "keys disagree on {c:?}"
            );
        }
        // And end-to-end: the staging decisions match the reference.
        let staged = stage_changes(&changes);
        let expected = [
            FilterStage::Remaining,
            FilterStage::FDup,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::Remaining,
            FilterStage::FDup,
            FilterStage::FAdd,
            FilterStage::Remaining,
        ];
        let got: Vec<FilterStage> = staged.iter().map(|(s, _)| *s).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn run_filter_publishes_the_funnel() {
        let changes = vec![
            mk("Cipher", &[], &[]),
            mk("Cipher", &["a"], &["b"]),
            mk("Cipher", &["a"], &["b"]),
        ];
        let mut run = Run::new(1);
        let (kept, stats) = run.filter(&changes);
        assert_eq!(kept.len(), 1);
        assert_eq!(run.metrics.counter("filter.total"), stats.total as u64);
        assert_eq!(
            run.metrics.counter("filter.after_fdup"),
            stats.after_fdup as u64
        );
        assert!(run.metrics.span("filter.apply").is_some());
        obs::check_funnel(&run.metrics, &FILTER_FUNNEL).unwrap();
    }
}
