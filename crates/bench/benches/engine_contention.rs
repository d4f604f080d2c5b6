//! Contention sweep of the de-serialized engine hot path.
//!
//! The engine used to funnel every pull, every reuse-source read, and
//! every outcome append through one `Mutex<Shared>`; with a greedy
//! scheduler whose `next_assignment` rescans (pending × completed) pairs,
//! the critical section grew as O(|V|²) and workers serialized on it at
//! high thread counts. The hot path is now split (small scheduler mutex +
//! lock-free `OnceLock` result slots + an outcome channel) and the greedy
//! decision is O(log n) amortized off an incremental best-pair heap.
//!
//! This bench sweeps worker count `T` and variant-set size `|V|`, timing
//! full engine runs, and prints one instrumented probe line per
//! configuration with the workers' lock-wait share, schedule-decision
//! time, and idle time (from [`RunReport::worker_stats`]). The
//! acceptance target: lock-wait share stays marginal (single-digit
//! percent) even at `T ≥ 8` on the paper-scale `|V| = 57` grid.
//!
//! ```text
//! cargo bench -p vbp-bench --bench engine_contention
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use variantdbscan::{Engine, EngineConfig, ReuseScheme, RunRequest, Scheduler, VariantSet};
use vbp_data::{SyntheticClass, SyntheticSpec};

/// V3-shaped grid scaled to the requested size: many distinct ε, 3 minpts
/// rows, `|V| = 3 · (size / 3)`.
fn grid(size: usize) -> VariantSet {
    let cols = size.div_ceil(3).max(1);
    let eps: Vec<f64> = (0..cols).map(|i| 0.30 + i as f64 * 0.02).collect();
    VariantSet::cartesian(&eps, &[4, 8, 16])
}

fn bench_contention(c: &mut Criterion) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("cpus = {cpus} (available_parallelism)");
    let points = SyntheticSpec::new(SyntheticClass::CF, 6_000, 0.15, 4242).generate();
    let mut group = c.benchmark_group("engine_contention");
    group.sample_size(10);

    // One self-tuning datapoint: RChoice::Auto on the paper-scale grid,
    // so the committed results show the chosen r and the end-to-end cost
    // of tuning inside a contended run.
    {
        let variants = grid(57);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(8)
                .with_auto_r()
                .with_scheduler(Scheduler::SchedGreedy)
                .with_reuse(ReuseScheme::ClusDensity)
                .with_keep_results(false),
        );
        let probe = engine
            .execute(&RunRequest::new(&points, &variants))
            .unwrap();
        println!(
            "V{}/auto-r/T8: chose r={} (index build incl. tuning {:?})",
            variants.len(),
            probe.chosen_r,
            probe.index_build_time,
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("V{}/auto-r/T8", variants.len())),
            &(),
            |b, _| {
                b.iter(|| {
                    black_box(
                        engine
                            .execute(&RunRequest::new(&points, &variants))
                            .unwrap(),
                    )
                });
            },
        );
    }

    for size in [12usize, 57, 114] {
        let variants = grid(size);
        for threads in [1usize, 2, 4, 8, 16] {
            for scheduler in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_threads(threads)
                        .with_r(80)
                        .with_scheduler(scheduler)
                        .with_reuse(ReuseScheme::ClusDensity)
                        .with_keep_results(false),
                );
                // Instrumented probe outside the timing loop: where did
                // the workers' wall time go for this configuration?
                let probe = engine
                    .execute(&RunRequest::new(&points, &variants))
                    .unwrap();
                let id = format!("V{}/{scheduler}/T{threads}", variants.len());
                println!(
                    "{id:<40} lock-wait {:9.4}%  sched {:9.4}%  idle {:9.4}%  (busy {:?})",
                    probe.lock_wait_share() * 100.0,
                    share(probe.total_sched_time(), &probe),
                    share(probe.total_idle(), &probe),
                    probe.total_busy(),
                );
                group.bench_with_input(BenchmarkId::from_parameter(id), &(), |b, _| {
                    b.iter(|| {
                        black_box(
                            engine
                                .execute(&RunRequest::new(&points, &variants))
                                .unwrap(),
                        )
                    });
                });
            }
        }
    }
    group.finish();
}

/// `d` as a percentage of all workers' accounted wall time.
fn share(d: std::time::Duration, report: &variantdbscan::RunReport) -> f64 {
    let total: std::time::Duration = report
        .worker_stats
        .iter()
        .map(variantdbscan::WorkerStats::total)
        .sum();
    if total.is_zero() {
        return 0.0;
    }
    d.as_secs_f64() / total.as_secs_f64() * 100.0
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
