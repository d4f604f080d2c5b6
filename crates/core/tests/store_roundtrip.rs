//! Warm-state store round-trip equivalence suite.
//!
//! The contract under test: a [`PreparedIndex`] that went through the
//! store (`snapshot` → bytes → `restore`) is *indistinguishable* from
//! the original handle —
//!
//! 1. **Byte-stable**: snapshot → restore → snapshot is byte-identical,
//!    pinning the container format against accidental drift;
//! 2. **Bit-identical labels**: every variant clustered over the
//!    restored handle produces exactly the raw label vector (not merely
//!    an isomorphic one) and exactly the `chosen_r` the original does;
//! 3. **Generation-proof**: an appended handle survives the round trip
//!    unchanged, and a snapshot carrying a legacy non-zero append
//!    counter (an unsorted tail written by an older version) still
//!    restores.

use variantdbscan::{
    Engine, EngineConfig, PreparedIndex, RChoice, RunRequest, Variant, VariantSet,
};
use vbp_geom::Point2;

/// Deterministic clustered cloud (no RNG: fixed LCG) with a few dense
/// blobs plus scattered background, sized so auto-tune actually sweeps.
fn cloud(n: usize, seed: u64) -> Vec<Point2> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centers = [(2.0, 2.5), (7.0, 6.5), (4.5, 8.0)];
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                Point2::new(next() * 10.0, next() * 10.0)
            } else {
                let (cx, cy) = centers[i % centers.len()];
                Point2::new(cx + next() * 0.8, cy + next() * 0.8)
            }
        })
        .collect()
}

fn variants() -> VariantSet {
    VariantSet::new(vec![
        Variant::new(0.3, 4),
        Variant::new(0.5, 4),
        Variant::new(0.5, 8),
        Variant::new(0.9, 3),
    ])
}

fn engine() -> Engine {
    Engine::new(EngineConfig {
        r: RChoice::Auto,
        ..EngineConfig::default()
    })
}

fn roundtrip(index: &PreparedIndex) -> PreparedIndex {
    let mut bytes = Vec::new();
    index.snapshot(&mut bytes).unwrap();
    let restored = PreparedIndex::restore(&mut bytes.as_slice()).unwrap();
    assert_eq!(
        restored.snapshot_bytes(),
        bytes,
        "snapshot → restore → snapshot must be byte-identical"
    );
    restored
}

/// Asserts the two handles are operationally indistinguishable: same
/// shape, same `chosen_r`, and bit-identical raw labels for every
/// variant, in both tree order and caller order.
fn assert_equivalent(engine: &Engine, original: &PreparedIndex, restored: &PreparedIndex) {
    assert_eq!(restored.len(), original.len());
    assert_eq!(restored.chosen_r(), original.chosen_r());
    assert_eq!(restored.permutation(), original.permutation());
    assert_eq!(
        restored.tune().map(|t| t.best_r),
        original.tune().map(|t| t.best_r)
    );

    let vs = variants();
    let a = engine
        .execute(&RunRequest::prepared(original, &vs))
        .unwrap();
    let b = engine
        .execute(&RunRequest::prepared(restored, &vs))
        .unwrap();
    assert_eq!(a.results.len(), b.results.len());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(
            ra.labels().iter_raw().collect::<Vec<_>>(),
            rb.labels().iter_raw().collect::<Vec<_>>(),
            "restored handle must label bit-identically"
        );
    }
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(
            original.labels_in_caller_order(ra),
            restored.labels_in_caller_order(rb)
        );
    }
}

#[test]
fn fresh_prepare_roundtrips() {
    let engine = engine();
    let points = cloud(1200, 0xA11CE);
    let index = engine.prepare(&points, Some(0.5)).unwrap();
    assert!(index.tune().is_some(), "auto-tune should have run");
    let restored = roundtrip(&index);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn fixed_r_without_tune_roundtrips() {
    let engine = Engine::new(EngineConfig {
        r: RChoice::Fixed(7),
        ..EngineConfig::default()
    });
    let points = cloud(500, 0xBEEF);
    let index = engine.prepare(&points, None).unwrap();
    assert!(index.tune().is_none());
    let restored = roundtrip(&index);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn empty_dataset_roundtrips() {
    let engine = engine();
    let index = engine.prepare(&[], None).unwrap();
    let restored = roundtrip(&index);
    assert_eq!(restored.len(), 0);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn appended_handle_roundtrips_unchanged() {
    let engine = engine();
    let points = cloud(1000, 0x5EED);
    let index = engine.prepare(&points, Some(0.5)).unwrap();
    let (index, report) = engine
        .append_to_prepared(&index, &cloud(60, 0xD00D))
        .unwrap();
    assert_eq!(report.total, 1060);
    let (index, _) = engine
        .append_to_prepared(&index, &cloud(400, 0xCAFE))
        .unwrap();
    let restored = roundtrip(&index);
    assert_eq!(
        restored.t_low().shared_points(),
        index.t_low().shared_points()
    );
    assert_eq!(restored.to_snapshot().appended_since_sort, 0);
    assert_equivalent(&engine, &index, &restored);
}

#[test]
fn appends_resume_on_a_restored_handle() {
    // restore → append must behave exactly like append on the original.
    let engine = engine();
    let points = cloud(800, 0x1234);
    let extra = cloud(50, 0x5678);
    let original = engine.prepare(&points, Some(0.5)).unwrap();
    let restored = roundtrip(&original);

    let (a, _) = engine.append_to_prepared(&original, &extra).unwrap();
    let (b, _) = engine.append_to_prepared(&restored, &extra).unwrap();
    assert_equivalent(&engine, &a, &b);
}

#[test]
fn legacy_unsorted_tail_snapshot_restores() {
    // An older version appended batches at the tail of tree order and
    // counted them in `appended_since_sort`. Such a file must restore:
    // the counter is accepted and ignored, the stored order kept.
    let engine = engine();
    let points = cloud(900, 0x9999);
    let extra = cloud(80, 0x8888);
    let index = engine.prepare(&points, Some(0.5)).unwrap();
    let mut legacy = index.to_snapshot();
    let mut tail: Vec<_> = legacy.points.to_vec();
    tail.extend_from_slice(&extra);
    legacy.points = tail.into();
    legacy
        .permutation
        .extend(points.len() as u32..(points.len() + extra.len()) as u32);
    legacy.appended_since_sort = extra.len() as u64;
    let bytes = legacy.encode();

    let restored = PreparedIndex::restore(&mut bytes.as_slice()).unwrap();
    assert_eq!(restored.t_low().shared_points(), legacy.points);
    assert_eq!(restored.permutation(), legacy.permutation.as_slice());
    assert_eq!(restored.to_snapshot().appended_since_sort, 0);

    // It clusters like a fresh prepare of the same points: the cluster
    // and noise counts do not depend on the tree order.
    let mut all = points.clone();
    all.extend_from_slice(&extra);
    let fresh = engine.prepare(&all, Some(0.5)).unwrap();
    let vs = variants();
    let a = engine
        .execute(&RunRequest::prepared(&restored, &vs))
        .unwrap();
    let b = engine.execute(&RunRequest::prepared(&fresh, &vs)).unwrap();
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!((oa.clusters, oa.noise), (ob.clusters, ob.noise));
    }
    // And appends resume on it.
    let (grown, _) = engine
        .append_to_prepared(&restored, &cloud(20, 0x7777))
        .unwrap();
    assert_eq!(grown.len(), all.len() + 20);
}

#[test]
fn corrupt_snapshots_are_rejected_with_typed_errors() {
    let engine = engine();
    let index = engine.prepare(&cloud(300, 0x7777), Some(0.5)).unwrap();
    let bytes = index.snapshot_bytes();

    // Every truncation fails; none panics.
    for len in 0..bytes.len() {
        assert!(
            PreparedIndex::restore(&mut &bytes[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
    // A sample of single-bit flips all fail (the exhaustive sweep lives
    // in the store crate's property suite).
    for i in (0..bytes.len()).step_by(97) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x10;
        assert!(
            PreparedIndex::restore(&mut flipped.as_slice()).is_err(),
            "bit flip at byte {i} was accepted"
        );
    }
}
