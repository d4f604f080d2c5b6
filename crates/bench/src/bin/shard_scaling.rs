//! Shard-scaling probe — how far intra-variant sharding moves the
//! makespan of a single wide variant.
//!
//! Variant-level parallelism (the paper's axis) cannot speed up a run
//! whose variant set is one huge variant: the makespan is that variant's
//! from-scratch clustering time. This bench runs exactly that workload —
//! one variant over an S1-scale cF synthetic dataset — through
//! [`sharded_dbscan`] at shards ∈ {1, 2, 4, 8} and reports, per shard
//! count:
//!
//! - the serial wall time (median of `--trials`, a team of 1, so the
//!   shard tasks run one after another and show the partition/merge
//!   overhead);
//! - the measured wall time with a team of `available_parallelism()`
//!   workers, and its speedup over the single-shard run — what this host
//!   really gets;
//! - the **ideal-parallel projection**: the serial run's per-shard
//!   local-phase times come from [`ShardStats::local_ns`], so the
//!   projected makespan with one worker per shard is
//!   `wall − Σ local + max(local)` (partition, merge, and the label pass
//!   stay sequential). This is the same measured-plus-projection
//!   reporting convention as `results/s1.txt`;
//! - the halo census (border points, cross-shard unions) that bounds the
//!   merge phase.
//!
//! A final verification block runs the same variant through the engine's
//! two-level placement (`RunRequest::sharding`) and cross-checks label
//! equality plus the reported [`ShardTotals`].
//!
//! ```text
//! cargo run --release -p vbp-bench --bin shard_scaling -- \
//!     [--points N] [--trials K] [results/shard_scaling.txt]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use variantdbscan::{Engine, EngineConfig, RunRequest, Sharding, VariantSet};
use vbp_bench::BenchOpts;
use vbp_data::{SyntheticClass, SyntheticSpec};
use vbp_dbscan::{sharded_dbscan, DbscanParams};
use vbp_rtree::PackedRTree;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const EPS: f64 = 0.5;
const MINPTS: usize = 4;

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn main() {
    let (opts, positional) = BenchOpts::parse();
    let out_path = positional.first().cloned();
    let trials = opts.trials.max(3);
    let n = if opts.full { 100_000 } else { opts.points };
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let points = SyntheticSpec::new(SyntheticClass::CF, n, 0.15, 4242).generate();
    let (tree, _) = PackedRTree::build(&points, 80);
    let params = DbscanParams::new(EPS, MINPTS);

    // Warm-up (page cache, allocator).
    let (reference, _) = sharded_dbscan(&tree, params, 1, 1).unwrap();

    struct Row {
        shards: usize,
        serial_ms: f64,
        team_ms: f64,
        ideal_ms: f64,
        border: usize,
        cross: u64,
        used: usize,
    }
    let mut rows: Vec<Row> = Vec::new();
    for shards in SHARD_COUNTS {
        let mut serials = Vec::with_capacity(trials);
        let mut teams = Vec::with_capacity(trials);
        let mut ideals = Vec::with_capacity(trials);
        let mut last = None;
        for _ in 0..trials {
            // A team of 1 serializes the shard tasks, so each task's
            // elapsed time is its own work, which the projection needs
            // (with a parallel team, per-task clocks overlap and the
            // projection double-counts).
            let t0 = Instant::now();
            let (result, stats) = sharded_dbscan(&tree, params, shards, 1).unwrap();
            let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(result, reference, "sharding must not change labels");
            // Ideal-parallel projection: local phases run one worker per
            // shard, everything else stays sequential.
            let sum_local: u64 = stats.local_ns.iter().sum();
            let max_local: u64 = stats.local_ns.iter().copied().max().unwrap_or(0);
            let ideal_ms = (serial_ms - sum_local as f64 / 1e6 + max_local as f64 / 1e6).max(0.0);
            // One worker per CPU: what this host really gets.
            let t0 = Instant::now();
            let (result, _) = sharded_dbscan(&tree, params, shards, cpus).unwrap();
            let team_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(result, reference, "sharding must not change labels");
            serials.push(serial_ms);
            teams.push(team_ms);
            ideals.push(ideal_ms);
            last = Some(stats);
        }
        let stats = last.expect("at least one trial");
        rows.push(Row {
            shards,
            serial_ms: median(&serials),
            team_ms: median(&teams),
            ideal_ms: median(&ideals),
            border: stats.border_points,
            cross: stats.cross_unions,
            used: stats.shards,
        });
    }

    // Engine cross-check: the same single-variant workload through
    // two-level placement must agree with the kernel and account its
    // shard work in the report.
    let variants = VariantSet::cartesian(&[EPS], &[MINPTS]);
    let engine = Engine::new(EngineConfig::default().with_threads(8).with_r(80));
    let t0 = Instant::now();
    let report = engine
        .execute(&RunRequest::new(&points, &variants).sharding(Sharding::new(8).with_min_points(0)))
        .unwrap();
    let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.sharding.variants, 1, "one sharded variant expected");
    assert_eq!(
        report.results[0].num_clusters(),
        reference.num_clusters(),
        "engine shard path must match the kernel"
    );

    let base = rows[0].team_ms;
    let ideal_base = rows[0].ideal_ms;
    let mut table = String::new();
    let w = &mut table;
    let _ = writeln!(
        w,
        "# shard_scaling — intra-variant sharded DBSCAN, single wide variant\n\
         # (cargo run --release -p vbp-bench --bin shard_scaling).\n\
         # Machine: {cpus} CPU(s) (available_parallelism). serial-ms runs a team of 1\n\
         # (shard tasks one after another: the partition/merge overhead); team-ms and\n\
         # the measured speedup run a team of {cpus}; the [ideal-parallel] column\n\
         # projects one worker per shard from the serial run's per-shard local-phase\n\
         # times (same convention as results/s1.txt).\n\
         # cF {} points, eps = {EPS}, minpts = {MINPTS}, r = 80, {trials} trials, medians.\n#",
        points.len(),
    );
    let _ = writeln!(
        w,
        "shards  serial-ms  team-ms  speedup[ideal-parallel]   border-pts  cross-unions"
    );
    for row in &rows {
        let _ = writeln!(
            w,
            "{:>6}  {:>9.1}  {:>7.1}   {:>6.2}x[{:.2}x]            {:>8}  {:>10}",
            row.shards,
            row.serial_ms,
            row.team_ms,
            base / row.team_ms,
            ideal_base / row.ideal_ms,
            row.border,
            row.cross,
        );
        if row.used != row.shards {
            let _ = writeln!(w, "# note: only {} stripes materialized", row.used);
        }
    }
    let _ = writeln!(
        w,
        "#\n# engine two-level placement (threads = 8, Sharding::new(8)): {engine_ms:.1} ms,\n\
         # report.sharding = {} variant(s) / {} shard task(s) / {} border / {} cross-unions.",
        report.sharding.variants,
        report.sharding.shards,
        report.sharding.border_points,
        report.sharding.cross_unions,
    );

    print!("{table}");
    if let Some(path) = out_path {
        std::fs::write(&path, &table).unwrap_or_else(|e| panic!("{path}: {e}"));
        eprintln!("wrote {path}");
    }
}
