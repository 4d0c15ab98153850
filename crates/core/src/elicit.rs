//! Clustering the filtered usage changes and eliciting rule candidates
//! (paper §4.3 and §6.3).

use crate::decision::{record_decision, DecisionReason};
use crate::pipeline::{MinedUsageChange, Run};
use cluster::{cluster_usage_changes_matrix, cluster_usage_changes_matrix_traced, Dendrogram};
use obs::Stopwatch;
use rules::SuggestedRule;
use usagegraph::UsageChange;

/// One cluster of similar usage changes, with an automatically
/// suggested rule.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Indices into the filtered change list.
    pub members: Vec<usize>,
    /// The representative change (first member).
    pub representative: UsageChange,
    /// The §6.3 auto-suggested rule for the representative.
    pub suggested: SuggestedRule,
}

/// The elicitation output: the dendrogram plus per-cluster reports at
/// the given cut threshold.
#[derive(Debug, Clone)]
pub struct Elicitation {
    /// Full merge tree over the filtered changes.
    pub dendrogram: Dendrogram,
    /// Clusters at the cut, largest first.
    pub clusters: Vec<ClusterReport>,
}

/// Clusters `changes` and cuts the dendrogram at `threshold`.
pub fn elicit(changes: &[MinedUsageChange], threshold: f64) -> Elicitation {
    let usage_changes: Vec<UsageChange> = changes.iter().map(|c| c.change.clone()).collect();
    let (dendrogram, _) = cluster_usage_changes_matrix(&usage_changes);
    let members = dendrogram.cut(threshold);
    build_elicitation(dendrogram, members, &usage_changes)
}

impl Run<'_> {
    /// Clusters `changes` and chooses the cut automatically by
    /// maximising the mean silhouette coefficient (no threshold to
    /// tune); the silhouette search reuses the distance matrix the
    /// dendrogram was built from, so no pairwise distance is evaluated
    /// twice.
    ///
    /// Records the clustering spans of
    /// [`cluster_usage_changes_matrix_traced`], the `elicit.cut` and
    /// `elicit.total` spans and the `elicit.clusters` counter. The trace
    /// gets an `elicit` span around the whole stage, an `elicit.cut`
    /// span, and one `cluster(<id>)` decision per change, where `<id>`
    /// is the change's cluster index in the final (largest-first)
    /// report order and the `index` attribute is its position in
    /// `changes`.
    pub fn elicit(&mut self, changes: &[MinedUsageChange]) -> Elicitation {
        let clock = Stopwatch::start();
        let stage_span = self.trace.begin_with("elicit", |a| {
            a.u64("changes", changes.len() as u64);
        });
        let usage_changes: Vec<UsageChange> = changes.iter().map(|c| c.change.clone()).collect();
        let (dendrogram, matrix) =
            cluster_usage_changes_matrix_traced(&usage_changes, &mut self.metrics, &mut self.trace);
        let cut_span = self.trace.begin("elicit.cut");
        let members = self.metrics.time("elicit.cut", || {
            dendrogram.best_cut(&matrix, usage_changes.len()).1
        });
        self.trace.end(cut_span);
        let elicitation = build_elicitation(dendrogram, members, &usage_changes);
        self.metrics
            .inc("elicit.clusters", elicitation.clusters.len() as u64);
        for (cluster_id, cluster) in elicitation.clusters.iter().enumerate() {
            for &member in &cluster.members {
                record_decision(
                    &mut self.trace,
                    &changes[member].meta,
                    &DecisionReason::Cluster(cluster_id),
                    |a| {
                        a.u64("index", member as u64);
                        a.u64("cluster_size", cluster.members.len() as u64);
                    },
                );
            }
        }
        self.trace.end(stage_span);
        self.metrics.record_span("elicit.total", clock.elapsed());
        elicitation
    }
}

fn build_elicitation(
    dendrogram: Dendrogram,
    members: Vec<Vec<usize>>,
    usage_changes: &[UsageChange],
) -> Elicitation {
    let mut clusters: Vec<ClusterReport> = members
        .into_iter()
        .map(|members| {
            let representative = usage_changes[members[0]].clone();
            let suggested = SuggestedRule::from_change(&representative);
            ClusterReport {
                members,
                representative,
                suggested,
            }
        })
        .collect();
    clusters.sort_by_key(|c| std::cmp::Reverse(c.members.len()));
    Elicitation {
        dendrogram,
        clusters,
    }
}

/// Renders the dendrogram with one-line change summaries as leaf
/// labels, the way Figure 8 presents it.
pub fn render_dendrogram(changes: &[MinedUsageChange], dendrogram: &Dendrogram) -> String {
    dendrogram.render_ascii(|leaf| {
        let c = &changes[leaf].change;
        let removed: Vec<String> = c.removed.iter().map(|p| format!("-{p}")).collect();
        let added: Vec<String> = c.added.iter().map(|p| format!("+{p}")).collect();
        format!(
            "[{}] {} | {}",
            changes[leaf].meta.project,
            removed.join(", "),
            added.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DiffCode;
    use corpus::fixtures;

    fn mined(pair: &corpus::fixtures::FixPair, class: &str) -> Vec<MinedUsageChange> {
        let mut dc = DiffCode::new();
        dc.usage_changes_from_pair(pair.old, pair.new, class)
            .unwrap()
            .into_iter()
            .map(|(old_dag, new_dag, change)| MinedUsageChange {
                meta: crate::pipeline::ChangeMeta {
                    project: format!("fixtures/{}", pair.name),
                    commit: pair.name.to_owned(),
                    author: String::new(),
                    message: pair.description.to_owned(),
                    path: "A.java".into(),
                    fingerprint: crate::pipeline::change_fingerprint(pair.old, pair.new),
                },
                class: class.to_owned(),
                old_dag,
                new_dag,
                change,
            })
            .collect()
    }

    #[test]
    fn auto_cut_finds_the_same_grouping() {
        let mut changes = Vec::new();
        changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::ECB_TO_GCM, "Cipher"));
        changes.extend(mined(&fixtures::DEFAULT_AES_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
        let auto = Run::new(1).elicit(&changes);
        // The silhouette-optimal cut separates the ECB family from the
        // digest fix. Memberships are pinned exactly: the silhouette
        // search now runs over the shared distance matrix, and this
        // grouping is the one the closure-based search produced before
        // that change.
        let members: Vec<Vec<usize>> = auto.clusters.iter().map(|c| c.members.clone()).collect();
        assert_eq!(members, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn figure8_shape_ecb_fixes_cluster_together() {
        let mut changes = Vec::new();
        changes.extend(mined(&fixtures::ECB_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::ECB_TO_GCM, "Cipher"));
        changes.extend(mined(&fixtures::DEFAULT_AES_TO_CBC, "Cipher"));
        changes.extend(mined(&fixtures::SHA1_TO_SHA256, "MessageDigest"));
        assert_eq!(changes.len(), 4);

        let elicitation = elicit(&changes, 0.45);
        // The three ECB fixes must share a cluster that excludes the
        // SHA-1 fix.
        let ecb_cluster = elicitation
            .clusters
            .iter()
            .find(|c| c.members.contains(&0))
            .unwrap();
        assert!(
            ecb_cluster.members.contains(&1),
            "{:?}",
            elicitation.clusters
        );
        assert!(
            ecb_cluster.members.contains(&2),
            "{:?}",
            elicitation.clusters
        );
        assert!(
            !ecb_cluster.members.contains(&3),
            "{:?}",
            elicitation.clusters
        );

        // The suggested rule for the representative mentions the ECB
        // feature on the must-have side.
        let text = ecb_cluster.suggested.to_string();
        assert!(text.contains("Cipher :"), "{text}");

        let rendering = render_dendrogram(&changes, &elicitation.dendrogram);
        assert!(rendering.contains("AES/ECB"), "{rendering}");
    }
}
