//! Density-based clustering substrate for VariantDBSCAN.
//!
//! Implements everything §II-B of the paper relies on:
//!
//! - [`dbscan`] / [`algorithm`] — DBSCAN (Ester et al., 1996) exactly as
//!   the paper's Algorithm 1, generic over any
//!   [`SpatialIndex`](vbp_rtree::SpatialIndex) so the same code runs with
//!   the paper's packed R-tree, a brute-force scan, or any other index.
//! - [`labels`] / [`result`] — compact cluster labelings and the
//!   [`ClusterResult`] type consumed by VariantDBSCAN's reuse machinery.
//! - [`quality`] — the per-point cluster-similarity score of Januzaj et
//!   al. (DBDC) used by §V-D to show VariantDBSCAN ≈ DBSCAN (≥ 0.998).
//! - [`kdist`] — the sorted k-distance plot heuristic of the original
//!   DBSCAN paper, which §V-B uses to justify `minpts = 4`.
//! - [`optics`] — OPTICS (Ankerst et al., 1999), the related-work
//!   alternative (§III): one run covers all ε ≤ δ but only a single
//!   minpts, which is exactly why the paper needs VariantDBSCAN.

#![warn(missing_docs)]

pub mod algorithm;
pub mod external;
pub mod gridbscan;
pub mod incremental;
pub mod kdist;
pub mod labels;
pub mod optics;
pub mod parallel;
pub mod quality;
pub mod result;
pub mod sharded;
pub mod stdbscan;
pub mod unionfind;

pub use algorithm::{dbscan, dbscan_with_scratch, DbscanParams, DbscanScratch, DbscanStats};
pub use external::{adjusted_rand_index, normalized_mutual_information};
pub use gridbscan::grid_dbscan;
pub use incremental::{IncrementalDbscan, InsertOutcome};
pub use kdist::{kdist_plot, suggest_eps, KneePoint};
pub use labels::{ClusterId, Labels, MAX_CLUSTER_ID, NOISE, UNCLASSIFIED};
pub use optics::{Optics, OpticsParams, ReachabilityPoint};
pub use parallel::{check_point_id_capacity, parallel_dbscan, CapacityError, MAX_POINTS};
pub use quality::{quality_score, QualityReport};
pub use result::ClusterResult;
pub use sharded::{sharded_dbscan, ShardStats};
pub use stdbscan::{st_dbscan, StDbscanParams, StIndex, StPoint};
pub use unionfind::{ConcurrentDisjointSets, DisjointSets};
