//! Service cold-vs-warm throughput — the `vbp-service` acceptance
//! scenario.
//!
//! Boots the daemon in-process with two registered datasets, then drives
//! the same per-dataset variant grid through loopback TCP twice:
//!
//! - **cold** — empty dominance cache, every variant clusters from
//!   scratch (modulo in-batch reuse);
//! - **warm** — the cache now holds round 1's results, so every request
//!   finds a distance-0 reuse source.
//!
//! Reported: wall seconds and variants/second per round, the warm/cold
//! speedup, cache hit counters, and the daemon's final `STATS` line.
//!
//! ```text
//! cargo run --release -p vbp-bench --bin service_throughput [--points N] [--threads T]
//! ```
//!
//! Capture to `results/service_throughput.txt`.

use std::time::Duration;

use variantdbscan::{Engine, EngineConfig};
use vbp_bench::BenchOpts;
use vbp_service::{run_cold_warm_on, Client, Registry, Server, ServiceConfig};

const DATASETS: [&str; 2] = ["cF_10k_5N", "SW1"];

fn main() {
    let (opts, _) = BenchOpts::parse();
    let threads = opts.threads.min(8);
    let config = EngineConfig::default().with_threads(threads).with_r(70);
    let engine = Engine::new(config);

    let registry = Registry::new();
    let mut names = Vec::new();
    for base in DATASETS {
        let name = if opts.full {
            base.to_string()
        } else {
            format!("{base}@{}", opts.points)
        };
        registry.load(&engine, &name).expect("catalog dataset");
        names.push(name);
    }

    // Ten variants per dataset around each k-dist knee — the same grid
    // `vbp bench-service` and the loopback smoke test use.
    let mut requests = Vec::new();
    for name in &names {
        let base = registry
            .get(name)
            .and_then(|e| e.suggested_eps)
            .unwrap_or(1.0);
        for scale in [0.8, 1.0, 1.2, 1.5, 2.0] {
            for minpts in [4usize, 8] {
                requests.push((name.clone(), base * scale, minpts));
            }
        }
    }

    let handle = Server::start(
        engine,
        registry,
        ServiceConfig {
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let mut handle = handle;

    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "service_throughput: {} requests/round over {:?}, T = {threads}, r = 70, cpus = {cpus}",
        requests.len(),
        names
    );
    let mut probe = Client::connect(handle.local_addr()).expect("connect probe");
    let report = run_cold_warm_on(&mut probe, &requests).expect("workload");
    probe.quit();
    handle.shutdown();

    println!(
        "{:<6} {:>12} {:>16} {:>11}",
        "round", "seconds", "variants/sec", "cache hits"
    );
    println!(
        "{:<6} {:>12.4} {:>16.1} {:>11}",
        "cold",
        report.cold_secs,
        report.cold_vps(),
        0
    );
    println!(
        "{:<6} {:>12.4} {:>16.1} {:>11}",
        "warm",
        report.warm_secs,
        report.warm_vps(),
        report.warm_hits
    );
    println!("warm speedup over cold: {:.2}×", report.speedup());
    println!("final STATS: {}", report.stats_json);
    assert!(
        report.warm_hits > 0,
        "warm round never hit the cache — reuse is broken"
    );
}
