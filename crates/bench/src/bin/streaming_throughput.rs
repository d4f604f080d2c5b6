//! Streaming append throughput — incremental maintenance vs full
//! rebuild, the acceptance scenario for the `APPEND`/`WATCH` protocol.
//!
//! Two sections:
//!
//! - **Index maintenance** (direct engine): starting from a prepared
//!   index over N points, apply K append batches two ways — through
//!   [`Engine::append_to_prepared`] (each batch bin-sorted and merged
//!   into the index's bin order, both packed trees rebuilt), and by
//!   re-running [`Engine::prepare`] from scratch on the accumulated
//!   points after every batch. Reported: appends/sec each way and the
//!   incremental speedup. Then the query side: a from-scratch
//!   single-variant `execute` on the appended handle against the same on
//!   a fresh prepare of the same points, interleaved trials, medians and
//!   their ratio. The appended handle must not be slower by more than
//!   `max(10%, measured noise)` (noise: half the fresh arm's spread over
//!   its median); a slower one exits non-zero, which makes this binary a
//!   `scripts/check.sh` stage.
//!
//! - **Delta latency** (end-to-end daemon): a `WATCH`ed dataset receives
//!   K append batches over loopback TCP; each append's latency is the
//!   client wall time from `APPEND` to its pushed `DELTA` line —
//!   incremental clustering maintenance included. The baseline
//!   re-clusters the accumulated points from scratch per batch, which is
//!   what a watcher would have to do without the protocol. Reported:
//!   p50/p99 per-append latency for both paths.
//!
//! ```text
//! cargo run --release -p vbp-bench --bin streaming_throughput \
//!     [--points N] [--threads T] [--trials K] [appends] [batch]
//! ```
//!
//! `T` is capped at the CPU count (`available_parallelism`), and the
//! header prints both. Capture to `results/streaming_throughput.txt`.

use std::time::{Duration, Instant};

use variantdbscan::{Engine, EngineConfig, PreparedIndex, RunRequest, Variant, VariantSet};
use vbp_bench::BenchOpts;
use vbp_data::Pcg32;
use vbp_geom::Point2;
use vbp_service::{Client, Registry, Server, ServiceConfig};

const DATASET_BASE: &str = "cF_10k_5N";

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i]
}

/// Wall time of one from-scratch single-variant `execute`, in ms.
fn execute_ms(engine: &Engine, index: &PreparedIndex, variants: &VariantSet) -> f64 {
    let t0 = Instant::now();
    let report = engine
        .execute(&RunRequest::prepared(index, variants))
        .expect("execute");
    std::hint::black_box(&report);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Seeded batch in the data's bounding box (the worst case for cache
/// maintenance — every entry's ε-region is touched).
fn gen_batch(rng: &mut Pcg32, lo: Point2, hi: Point2, len: usize) -> Vec<Point2> {
    (0..len)
        .map(|_| {
            let fx = rng.below(1_000_000) as f64 / 1_000_000.0;
            let fy = rng.below(1_000_000) as f64 / 1_000_000.0;
            Point2::new(lo.x + fx * (hi.x - lo.x), lo.y + fy * (hi.y - lo.y))
        })
        .collect()
}

fn main() {
    let (opts, positional) = BenchOpts::parse();
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = opts.threads.min(cpus);
    let appends: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let batch: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);

    let name = if opts.full {
        DATASET_BASE.to_string()
    } else {
        format!("{DATASET_BASE}@{}", opts.points)
    };
    let spec = vbp_data::DatasetSpec::by_name(&name).expect("catalog dataset");
    let initial = spec.generate();
    let (mut lo, mut hi) = (initial[0], initial[0]);
    for p in &initial {
        lo = Point2::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point2::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    let mut rng = Pcg32::seeded(0x57EA_41B5);
    let batches: Vec<Vec<Point2>> = (0..appends)
        .map(|_| gen_batch(&mut rng, lo, hi, batch))
        .collect();

    let config = EngineConfig::default().with_threads(threads).with_r(70);
    let engine = Engine::new(config);
    let registry = Registry::new();
    registry.load(&engine, &name).expect("catalog dataset");
    let eps = registry
        .get(&name)
        .and_then(|e| e.suggested_eps)
        .unwrap_or(1.0);
    let variants = VariantSet::new(vec![Variant::new(eps, 4)]);
    println!(
        "streaming_throughput: {name} + {appends} batches x {batch} points, \
         T = {threads}, r = 70, cpus = {cpus}"
    );

    // ── Section 1: index maintenance, incremental vs full rebuild ──
    let mut index = engine.prepare(&initial, None).expect("prepare");
    let t0 = Instant::now();
    for b in &batches {
        let (next, _) = engine.append_to_prepared(&index, b).expect("append");
        index = next;
    }
    let inc_secs = t0.elapsed().as_secs_f64();

    let mut accumulated = initial.clone();
    let t0 = Instant::now();
    for b in &batches {
        accumulated.extend_from_slice(b);
        engine.prepare(&accumulated, None).expect("full prepare");
    }
    let full_secs = t0.elapsed().as_secs_f64();
    let fresh = engine.prepare(&accumulated, None).expect("prepare");

    // Query side: the appended handle against a fresh prepare of the
    // same points, interleaved so drift hits both arms alike.
    let rounds = opts.trials.max(9);
    execute_ms(&engine, &index, &variants);
    execute_ms(&engine, &fresh, &variants);
    let (mut appended_ms, mut fresh_ms) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        appended_ms.push(execute_ms(&engine, &index, &variants));
        fresh_ms.push(execute_ms(&engine, &fresh, &variants));
    }
    appended_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fresh_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (m_appended, m_fresh) = (percentile(&appended_ms, 0.5), percentile(&fresh_ms, 0.5));
    let noise = (fresh_ms[rounds - 1] - fresh_ms[0]) / 2.0 / m_fresh;
    let threshold = noise.max(0.10);
    let ratio = m_appended / m_fresh;
    let query_pass = ratio <= 1.0 + threshold;

    println!("\nindex maintenance ({appends} append batches):");
    println!("{:<24} {:>12} {:>14}", "path", "seconds", "appends/sec");
    println!(
        "{:<24} {:>12.4} {:>14.1}",
        "incremental append",
        inc_secs,
        appends as f64 / inc_secs
    );
    println!(
        "{:<24} {:>12.4} {:>14.1}",
        "full re-prepare",
        full_secs,
        appends as f64 / full_secs
    );
    println!(
        "incremental speedup over full re-prepare: {:.2}x",
        full_secs / inc_secs
    );
    println!(
        "\nfrom-scratch execute, eps = {eps:.4}, minpts = 4 \
         ({rounds} interleaved trials, median ms):"
    );
    println!("{:<24} {:>10}", "index", "median");
    println!("{:<24} {:>10.3}", "appended handle", m_appended);
    println!("{:<24} {:>10.3}", "fresh prepare", m_fresh);
    println!(
        "appended / fresh: {ratio:.3}x vs gate 1 + max(10%, noise {:.1}%) -> {}",
        noise * 100.0,
        if query_pass { "PASS" } else { "FAIL" }
    );

    // ── Section 2: end-to-end delta latency over loopback TCP ──
    let mut handle = Server::start(
        engine,
        registry,
        ServiceConfig {
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    client.watch(&name, eps, 4).expect("watch");
    let mut deltas: Vec<f64> = Vec::with_capacity(appends);
    for b in &batches {
        let t0 = Instant::now();
        client.append(&name, b).expect("append");
        client
            .poll_delta(Duration::from_secs(60))
            .expect("delta")
            .expect("delta never arrived");
        deltas.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    client.shutdown().ok();
    handle.wait();

    // Baseline: what a watcher costs without WATCH — re-cluster the
    // accumulated points from scratch after every batch.
    let engine = Engine::new(config);
    let mut accumulated = initial.clone();
    let mut recluster: Vec<f64> = Vec::with_capacity(appends);
    for b in &batches {
        accumulated.extend_from_slice(b);
        let t0 = Instant::now();
        engine
            .execute(&RunRequest::new(&accumulated, &variants))
            .expect("recluster");
        recluster.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    recluster.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("\nper-append watcher latency (ms), eps = {eps:.4}, minpts = 4:");
    println!("{:<24} {:>10} {:>10}", "path", "p50", "p99");
    println!(
        "{:<24} {:>10.3} {:>10.3}",
        "WATCH delta (incremental)",
        percentile(&deltas, 0.50),
        percentile(&deltas, 0.99)
    );
    println!(
        "{:<24} {:>10.3} {:>10.3}",
        "full re-cluster",
        percentile(&recluster, 0.50),
        percentile(&recluster, 0.99)
    );
    println!(
        "incremental p99 speedup over full re-cluster: {:.2}x",
        percentile(&recluster, 0.99) / percentile(&deltas, 0.99)
    );

    assert!(
        inc_secs < full_secs,
        "incremental maintenance lost to full re-prepare — the merge is broken"
    );
    if !query_pass {
        eprintln!("streaming_throughput gate FAILED: the appended handle queries slower than a fresh prepare");
        std::process::exit(1);
    }
}
