//! Property tests: every index answers exactly like brute force.
//!
//! This is the load-bearing correctness argument for the whole repository:
//! DBSCAN and VariantDBSCAN are only as correct as their ε-neighborhood
//! oracle, so each index (packed tree across many `r`, STR, dynamic, grid)
//! is checked against a linear scan on random point clouds, random query
//! centers, and random radii — including duplicate points and degenerate
//! (collinear) clouds.

use proptest::prelude::*;
use vbp_geom::{Mbb, Point2, PointId};
use vbp_rtree::traits::shared_points;
use vbp_rtree::{
    BruteForce, DynamicRTree, GridIndex, HilbertRTree, PackedRTree, SpatialIndex, StrRTree,
};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec(
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        0..max,
    )
}

/// Sorted multiset of coordinates for order/permutation-insensitive
/// comparison across indexes that reorder their points.
fn coord_multiset(index: &dyn SpatialIndex, ids: &[PointId]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = ids
        .iter()
        .map(|&i| {
            let p = index.points()[i as usize];
            (p.x.to_bits(), p.y.to_bits())
        })
        .collect();
    v.sort_unstable();
    v
}

fn brute_epsilon(points: &[Point2], c: Point2, eps: f64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = points
        .iter()
        .filter(|p| p.dist_sq(&c) <= eps * eps)
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

fn brute_range(points: &[Point2], q: &Mbb) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = points
        .iter()
        .filter(|p| q.contains_point(p))
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_tree_equals_brute_force(
        points in arb_points(300),
        r in 1usize..120,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        eps in 0.0f64..30.0,
    ) {
        let (tree, _) = PackedRTree::build(&points, r);
        let mut out = Vec::new();
        tree.epsilon_neighbors(Point2::new(cx, cy), eps, &mut out);
        prop_assert_eq!(
            coord_multiset(&tree, &out),
            brute_epsilon(&points, Point2::new(cx, cy), eps)
        );
    }

    #[test]
    fn str_tree_equals_brute_force(
        points in arb_points(300),
        r in 1usize..64,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        eps in 0.0f64..30.0,
    ) {
        let (tree, _) = StrRTree::build(&points, r);
        let mut out = Vec::new();
        tree.epsilon_neighbors(Point2::new(cx, cy), eps, &mut out);
        prop_assert_eq!(
            coord_multiset(&tree, &out),
            brute_epsilon(&points, Point2::new(cx, cy), eps)
        );
    }

    #[test]
    fn dynamic_tree_equals_brute_force(
        points in arb_points(200),
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        eps in 0.0f64..30.0,
    ) {
        let tree = DynamicRTree::from_points(&points);
        let mut out = Vec::new();
        tree.epsilon_neighbors(Point2::new(cx, cy), eps, &mut out);
        prop_assert_eq!(
            coord_multiset(&tree, &out),
            brute_epsilon(&points, Point2::new(cx, cy), eps)
        );
    }

    #[test]
    fn grid_equals_brute_force(
        points in arb_points(200),
        cell in 0.1f64..20.0,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        eps in 0.0f64..30.0,
    ) {
        let grid = GridIndex::build(shared_points(points.clone()), cell);
        let mut out = Vec::new();
        grid.epsilon_neighbors(Point2::new(cx, cy), eps, &mut out);
        prop_assert_eq!(
            coord_multiset(&grid, &out),
            brute_epsilon(&points, Point2::new(cx, cy), eps)
        );
    }

    #[test]
    fn range_queries_agree_across_indexes(
        points in arb_points(200),
        r in 1usize..40,
        x0 in -60.0f64..60.0,
        y0 in -60.0f64..60.0,
        w in 0.0f64..40.0,
        h in 0.0f64..40.0,
    ) {
        let q = Mbb::new(Point2::new(x0, y0), Point2::new(x0 + w, y0 + h));
        let expect = brute_range(&points, &q);

        let (packed, _) = PackedRTree::build(&points, r);
        let mut out = Vec::new();
        packed.range_query(&q, &mut out);
        prop_assert_eq!(coord_multiset(&packed, &out), expect.clone());

        let brute = BruteForce::new(shared_points(points.clone()));
        out.clear();
        brute.range_query(&q, &mut out);
        prop_assert_eq!(coord_multiset(&brute, &out), expect.clone());

        let dynamic = DynamicRTree::from_points(&points);
        out.clear();
        dynamic.range_query(&q, &mut out);
        prop_assert_eq!(coord_multiset(&dynamic, &out), expect);
    }

    #[test]
    fn hilbert_tree_equals_brute_force(
        points in arb_points(300),
        r in 1usize..64,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
        eps in 0.0f64..30.0,
    ) {
        let (tree, _) = HilbertRTree::build(&points, r);
        let mut out = Vec::new();
        tree.epsilon_neighbors(Point2::new(cx, cy), eps, &mut out);
        prop_assert_eq!(
            coord_multiset(&tree, &out),
            brute_epsilon(&points, Point2::new(cx, cy), eps)
        );
    }

    #[test]
    fn duplicates_preserved_by_all_indexes(
        p in (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y)| Point2::new(x, y)),
        copies in 1usize..60,
        r in 1usize..16,
    ) {
        let points = vec![p; copies];
        let (tree, _) = PackedRTree::build(&points, r);
        let mut out = Vec::new();
        tree.epsilon_neighbors(p, 0.0, &mut out);
        prop_assert_eq!(out.len(), copies);
    }

    #[test]
    fn knn_distances_match_sorted_brute_force(
        points in arb_points(150),
        r in 1usize..32,
        k in 1usize..20,
        cx in -60.0f64..60.0,
        cy in -60.0f64..60.0,
    ) {
        let (tree, _) = PackedRTree::build(&points, r);
        let q = Point2::new(cx, cy);
        let got: Vec<f64> = tree.knn(q, k).iter().map(|n| n.dist_sq).collect();
        let mut all: Vec<f64> = points.iter().map(|p| p.dist_sq(&q)).collect();
        all.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = all.into_iter().take(k).collect();
        prop_assert_eq!(got, expect);
    }
}
