//! Output checks shared by the service workloads: partition equality,
//! label isomorphism, and from-scratch references in caller order.

use std::collections::HashMap;

use variantdbscan::{Engine, EngineConfig, RunRequest, Variant, VariantSet};
use vbp_dbscan::{dbscan, quality_score, ClusterResult, Labels, NOISE};
use vbp_geom::{Point2, PointId};
use vbp_rtree::{PackedRTree, SpatialIndex};

/// Whether two caller-order labelings are the same partition: the same
/// noise points and one consistent relabeling of every clustered point.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd: HashMap<u32, u32> = HashMap::new();
    let mut back: HashMap<u32, u32> = HashMap::new();
    a.iter().zip(b).all(|(&x, &y)| {
        if (x == NOISE) != (y == NOISE) {
            return false;
        }
        x == NOISE || (*fwd.entry(x).or_insert(y) == y && *back.entry(y).or_insert(x) == x)
    })
}

/// Label isomorphism as the repository's metamorphic suites define it:
/// identical noise sets, identical cluster counts, and a bijection
/// between the clusters of core points (border points may legally land
/// in either adjacent cluster).
pub fn isomorphic(direct: &[u32], served: &[u32], cores: &[PointId]) -> Result<(), String> {
    if direct.len() != served.len() {
        return Err(format!("{} vs {} labels", direct.len(), served.len()));
    }
    if let Some(p) = (0..direct.len()).find(|&p| (direct[p] == NOISE) != (served[p] == NOISE)) {
        return Err(format!("noise status of point {p} differs"));
    }
    let count = |l: &[u32]| {
        let mut ids: Vec<u32> = l.iter().copied().filter(|&x| x != NOISE).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    if count(direct) != count(served) {
        return Err(format!("{} clusters vs {}", count(direct), count(served)));
    }
    let mut fwd: HashMap<u32, u32> = HashMap::new();
    let mut back: HashMap<u32, u32> = HashMap::new();
    for &p in cores {
        let (a, b) = (direct[p as usize], served[p as usize]);
        if a == NOISE || b == NOISE {
            return Err(format!("core point {p} is noise"));
        }
        if *fwd.entry(a).or_insert(b) != b || *back.entry(b).or_insert(a) != a {
            return Err(format!("clusters split or merged at core point {p}"));
        }
    }
    Ok(())
}

/// A caller-order view of a point set for from-scratch references.
pub struct CallerIndex {
    tree: PackedRTree,
    permutation: Vec<PointId>,
}

impl CallerIndex {
    /// Indexes `points`.
    pub fn new(points: &[Point2]) -> Self {
        let (tree, permutation) = PackedRTree::build(points, 80);
        CallerIndex { tree, permutation }
    }

    fn to_caller(&self, tree_order: impl Iterator<Item = u32>) -> Vec<u32> {
        let mut out = vec![NOISE; self.permutation.len()];
        for (t, label) in tree_order.enumerate() {
            out[self.permutation[t] as usize] = label;
        }
        out
    }

    /// From-scratch single-variant DBSCAN labels, caller order.
    pub fn dbscan(&self, v: Variant) -> Vec<u32> {
        let result = dbscan(&self.tree, v.params());
        self.to_caller(result.labels().iter_raw())
    }

    /// Caller-order ids of the core points of `v`.
    pub fn cores(&self, v: Variant) -> Vec<PointId> {
        let mut buf = Vec::new();
        let pts = self.tree.points();
        (0..pts.len())
            .filter(|&t| {
                buf.clear();
                self.tree.epsilon_neighbors(pts[t], v.eps, &mut buf);
                buf.len() >= v.minpts
            })
            .map(|t| self.permutation[t])
            .collect()
    }
}

/// From-scratch `Engine::execute` of one variant over `points`, labels
/// in caller order.
pub fn engine_labels(points: &[Point2], v: Variant) -> Result<Vec<u32>, String> {
    let engine = Engine::new(EngineConfig::default().with_threads(1));
    let set = VariantSet::new(vec![v]);
    let report = engine
        .execute(&RunRequest::new(points, &set))
        .map_err(|e| e.to_string())?;
    Ok(report.result_in_caller_order(0))
}

/// Januzaj quality of served caller-order labels against a reference.
pub fn quality(reference: &[u32], served: &[u32]) -> f64 {
    let wrap = |l: &[u32]| ClusterResult::from_labels(Labels::from_raw(l.to_vec()));
    quality_score(&wrap(reference), &wrap(served)).mean_score
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_relabeling() {
        assert!(same_partition(&[0, 0, 1, NOISE], &[5, 5, 2, NOISE]));
        assert!(!same_partition(&[0, 0, 1, NOISE], &[5, 2, 2, NOISE]));
        assert!(!same_partition(&[0, 1], &[3, 3]));
        assert!(!same_partition(&[0, NOISE], &[0, 0]));
    }

    #[test]
    fn isomorphism_tolerates_border_moves_but_not_core_merges() {
        // Point 2 is a border point that moved clusters.
        assert!(isomorphic(&[0, 1, 0, 1], &[7, 8, 8, 8], &[0, 1]).is_ok());
        assert!(isomorphic(&[0, 1, 0, 1], &[7, 7, 7, 7], &[0, 1]).is_err());
        assert!(isomorphic(&[0, NOISE], &[0, 0], &[0]).is_err());
    }
}
