//! Integration tests for the beyond-the-paper components, exercised
//! through the umbrella crate exactly as a downstream user would.

use vbp::vbp_data::{SpaceWeatherSpec, SyntheticClass, SyntheticSpec};
use vbp::vbp_dbscan::{
    adjusted_rand_index, dbscan, grid_dbscan, normalized_mutual_information, parallel_dbscan,
    DbscanParams, IncrementalDbscan,
};
use vbp::vbp_geom::Point2;
use vbp::vbp_rtree::{traits::shared_points, BruteForce, PackedRTree};

fn dataset(n: usize) -> Vec<Point2> {
    SyntheticSpec::new(SyntheticClass::CF, n, 0.15, 4242).generate()
}

/// All four DBSCAN implementations agree on structure; the three with
/// deterministic border claims agree exactly.
#[test]
fn four_dbscan_implementations_agree() {
    let points = dataset(2_000);
    let params = DbscanParams::new(0.6, 4);

    let (tree, perm) = PackedRTree::build(&points, 70);
    let classic_tree_order = dbscan(&tree, params);

    let brute = BruteForce::new(shared_points(points.clone()));
    let from_parallel = parallel_dbscan(&brute, params, 4);
    let from_grid = grid_dbscan(&points, params);
    let mut inc = IncrementalDbscan::new(params);
    for &p in &points {
        inc.insert(p);
    }
    let from_incremental = inc.snapshot();

    // Deterministic trio: byte-identical.
    assert_eq!(from_parallel, from_grid);
    assert_eq!(from_parallel, from_incremental);

    // Classic (tree order) vs the trio: same structure.
    assert_eq!(classic_tree_order.num_clusters(), from_grid.num_clusters());
    assert_eq!(classic_tree_order.noise_count(), from_grid.noise_count());
    // Per-point noise agreement through the permutation.
    for (tree_idx, &orig) in perm.iter().enumerate() {
        assert_eq!(
            classic_tree_order.labels().is_noise(tree_idx as u32),
            from_grid.labels().is_noise(orig),
        );
    }
}

/// External indices rank a slightly-perturbed clustering above a heavily
/// different one, consistently with the paper's DBDC metric.
#[test]
fn external_indices_rank_partitions_sensibly() {
    let points = dataset(1_500);
    let idx = BruteForce::new(shared_points(points));
    let base = dbscan(&idx, DbscanParams::new(0.6, 4));
    let near = dbscan(&idx, DbscanParams::new(0.65, 4)); // small ε nudge
    let far = dbscan(&idx, DbscanParams::new(2.5, 4)); // big ε change

    let ari_near = adjusted_rand_index(&base, &near);
    let ari_far = adjusted_rand_index(&base, &far);
    assert!(ari_near > ari_far, "ARI: near {ari_near} vs far {ari_far}");

    let nmi_near = normalized_mutual_information(&base, &near);
    let nmi_far = normalized_mutual_information(&base, &far);
    assert!(nmi_near > nmi_far, "NMI: near {nmi_near} vs far {nmi_far}");
}

/// Incremental DBSCAN over a simulated TEC stream stays consistent with
/// batch re-clustering at every checkpoint.
#[test]
fn incremental_tracks_batch_on_tec_stream() {
    let stream = SpaceWeatherSpec::scaled(2, 1_600).generate();
    let params = DbscanParams::new(1.2, 4);
    let mut inc = IncrementalDbscan::new(params);
    for (i, &p) in stream.iter().enumerate() {
        inc.insert(p);
        if (i + 1) % 800 == 0 {
            let snap = inc.snapshot();
            let batch = parallel_dbscan(
                &BruteForce::new(shared_points(stream[..=i].to_vec())),
                params,
                1,
            );
            assert_eq!(snap, batch, "checkpoint at {}", i + 1);
        }
    }
}

/// Spatiotemporal clustering separates temporally disjoint events that
/// flat 2-D clustering merges — on simulated TEC data with synthetic
/// timestamps.
#[test]
fn st_dbscan_separates_what_flat_dbscan_merges() {
    use vbp::vbp_dbscan::{st_dbscan, StDbscanParams, StIndex, StPoint};
    // The same spatial points observed in two passes an hour apart.
    let base = SpaceWeatherSpec::scaled(1, 600).generate();
    let mut samples = Vec::new();
    for (i, p) in base.iter().enumerate() {
        samples.push(StPoint::new(p.x, p.y, (i % 10) as f64)); // pass 1
        samples.push(StPoint::new(p.x, p.y, 3_600.0 + (i % 10) as f64)); // pass 2
    }
    let index = StIndex::build(&samples);
    let narrow = st_dbscan(&index, StDbscanParams::new(2.0, 60.0, 4));
    let wide = st_dbscan(&index, StDbscanParams::new(2.0, 1e9, 4));
    // With the temporal radius active, clusters split across the passes,
    // so there are more of them (and never fewer).
    assert!(
        narrow.num_clusters() > wide.num_clusters(),
        "narrow {} vs wide {}",
        narrow.num_clusters(),
        wide.num_clusters()
    );
}

/// The umbrella prelude exposes the advertised one-stop API.
#[test]
fn prelude_is_sufficient_for_the_quickstart_flow() {
    use vbp::prelude::*;
    let points = DatasetSpec::by_name("cF_10k_5N@1000").unwrap().generate();
    let variants = VariantSet::cartesian(&[0.8], &[4]);
    let report = Engine::new(EngineConfig::default().with_threads(1).with_r(16))
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    let result: &ClusterResult = &report.results[0];
    assert!(result.num_clusters() >= 1);
    let mbb: Mbb = Mbb::around_point(Point2::new(0.0, 0.0), 1.0);
    assert!(mbb.contains_point(&Point2::new(0.5, 0.5)));
}
