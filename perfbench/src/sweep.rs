//! `sweep`: one caller runs `Engine::execute` over a prepared SW1 map
//! with the paper's V3 grid — the paper's own throughput measure. It
//! reaches `rtree`, `dbscan` and `core`, never the service layers.

use std::time::{Duration, Instant};

use variantdbscan::{Engine, EngineConfig, PreparedIndex, RunReport, RunRequest};
use vbp_dbscan::{
    dbscan_with_scratch, quality_score, sharded_dbscan, ClusterResult, DbscanScratch,
};
use vbp_geom::{Mbb, PointId};
use vbp_rtree::SpatialIndex;

use crate::inputs::SweepInputs;
use crate::report::Values;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::verify::isomorphic;
use crate::{Window, Workload};

/// Rounds (prepare + execute) every window runs at least.
const MIN_ROUNDS: usize = 3;

/// The paper's quality floor (§V-D, Figure 7c: the mean over a
/// dataset's variants). The benchmark gates the per-execute mean on it
/// and reports every variant below it as a known defect.
pub const QUALITY_FLOOR: f64 = 0.998;

/// The program's side of the workload alone: prepare and execute the
/// grid `rounds` times, with no reference to check against.
pub fn program_only(
    seed: u64,
    threads: usize,
    rounds: usize,
    tracer: &Tracer,
) -> Result<(), String> {
    let inputs = SweepInputs::generate(seed);
    let engine = Engine::new(EngineConfig::default().with_threads(threads));
    for round in 1..=rounds as u64 {
        let index = tracer.span("core.prepare", 0, round, |_| {
            engine.prepare(&inputs.points, None)
        });
        let index = index.map_err(|e| e.to_string())?;
        tracer
            .span("core.execute", 0, round, |_| {
                engine.execute(&RunRequest::prepared(&index, &inputs.variants))
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What the engine's answers are checked against, computed once per
/// run over the prepared index's tree order.
struct Reference {
    permutation: Vec<PointId>,
    /// From-scratch single-thread DBSCAN of every variant.
    results: Vec<ClusterResult>,
    /// Core points of every variant.
    cores: Vec<Vec<PointId>>,
    /// Neighbour searches of the from-scratch runs, summed.
    searches: usize,
    /// Wall time of the from-scratch runs: the single-thread baseline.
    scratch_s: f64,
    /// Wall time of the batched ε-queries over every point at each
    /// distinct ε of the grid.
    eps_batch_s: f64,
    /// Neighbours those queries returned, over the queries issued.
    neighbors_per_query: f64,
}

impl Reference {
    fn build(inputs: &SweepInputs, index: &PreparedIndex, tracer: &Tracer) -> Self {
        let tree = index.t_low();
        let n = tree.len();

        // Neighbourhood sizes at each distinct ε: the batched query
        // layer, and the core flags of every variant.
        let mut eps_values: Vec<f64> = inputs.variants.iter().map(|v| v.eps).collect();
        eps_values.dedup();
        let (mut queries, mut found) = (0usize, 0usize);
        let start = Instant::now();
        let counts: Vec<Vec<u32>> = eps_values
            .iter()
            .map(|&eps| {
                tracer.span("rtree.eps_batch", 0, 0, |_| {
                    let mut count = vec![0u32; n];
                    let mut ids: Vec<PointId> = (0..n as PointId).collect();
                    let mut scratch = Vec::new();
                    tree.epsilon_neighbors_batch(&mut ids, eps, &mut scratch, &mut |p, nb| {
                        count[p as usize] = nb.len() as u32;
                        queries += 1;
                        found += nb.len();
                    });
                    count
                })
            })
            .collect();
        let eps_batch_s = start.elapsed().as_secs_f64();
        let cores = inputs
            .variants
            .iter()
            .map(|v| {
                let at = eps_values.iter().position(|&e| e == v.eps).expect("grid ε");
                (0..n as PointId)
                    .filter(|&p| counts[at][p as usize] as usize >= v.minpts)
                    .collect()
            })
            .collect();

        let start = Instant::now();
        let mut scratch = DbscanScratch::new();
        let mut searches = 0;
        let results = inputs
            .variants
            .iter()
            .map(|v| {
                tracer.span("dbscan.scratch", 0, 0, |_| {
                    let (r, s) = dbscan_with_scratch(tree, v.params(), &mut scratch);
                    searches += s.neighbor_searches;
                    r
                })
            })
            .collect();
        Reference {
            permutation: index.permutation().to_vec(),
            results,
            cores,
            searches,
            scratch_s: start.elapsed().as_secs_f64(),
            eps_batch_s,
            neighbors_per_query: found as f64 / queries as f64,
        }
    }
}

/// The `sweep` workload.
pub struct Sweep {
    inputs: SweepInputs,
    engine: Engine,
    threads: usize,
    reference: Reference,
}

impl Sweep {
    /// Builds the workload for `seed` with `threads` engine workers and
    /// computes its reference (spans going to `tracer`).
    pub fn new(seed: u64, threads: usize, tracer: &Tracer) -> Self {
        let inputs = SweepInputs::generate(seed);
        let engine = Engine::new(EngineConfig::default().with_threads(threads));
        let index = engine
            .prepare(&inputs.points, None)
            .expect("generated points are finite");
        let reference = Reference::build(&inputs, &index, tracer);
        Sweep {
            inputs,
            engine,
            threads,
            reference,
        }
    }

    fn prepare(&self) -> PreparedIndex {
        self.engine
            .prepare(&self.inputs.points, None)
            .expect("generated points are finite")
    }
}

/// Per-execute engine counters for the traced window.
#[derive(Default)]
struct CoreSamples {
    busy_s: Vec<f64>,
    idle_share: Vec<f64>,
    lock_wait_s: Vec<f64>,
    sched_s: Vec<f64>,
    fraction_reused: Vec<f64>,
    from_scratch: Vec<f64>,
    searches: Vec<f64>,
}

impl CoreSamples {
    fn push(&mut self, r: &RunReport) {
        let secs = Duration::as_secs_f64;
        let total: f64 = r.worker_stats.iter().map(|w| secs(&w.total())).sum();
        self.busy_s
            .push(r.worker_stats.iter().map(|w| secs(&w.busy)).sum());
        self.idle_share
            .push(secs(&r.total_idle()) / total.max(f64::MIN_POSITIVE));
        self.lock_wait_s.push(secs(&r.total_lock_wait()));
        self.sched_s.push(secs(&r.total_sched_time()));
        self.fraction_reused.push(r.mean_fraction_reused());
        self.from_scratch.push(r.from_scratch_count() as f64);
        self.searches
            .push(r.outcomes.iter().map(|o| o.searches()).sum::<usize>() as f64);
    }
}

impl Workload for Sweep {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("dataset", "SW1".into()),
            ("points", self.inputs.points.len().to_string()),
            (
                "grid",
                "V3 (19 eps x minpts {4,8,16}), eps x sw_eps_multiplier".into(),
            ),
            ("variants", self.inputs.variants.len().to_string()),
            ("reuse", "ClusDensity".into()),
            ("scheduler", "SchedGreedy".into()),
            ("threads", self.threads.to_string()),
            ("r", "80".into()),
        ]
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let n_variants = self.inputs.variants.len();
        let mut w = Window::default();
        let (mut setup, mut exec, mut response_ms) = (vec![], vec![], vec![]);
        let mut core = CoreSamples::default();
        let (mut quality_min, mut quality_mean_min) = (f64::INFINITY, f64::INFINITY);
        let mut below_floor = vec![];
        let start = Instant::now();
        while w.another_round(start, seconds, MIN_ROUNDS) {
            w.rounds += 1;
            let request = w.rounds as u64;
            let t = Instant::now();
            let index = tracer.span("core.prepare", 0, request, |_| self.prepare());
            setup.push(t.elapsed().as_secs_f64());
            if index.permutation() != self.reference.permutation.as_slice() {
                w.fail(
                    "tree order",
                    "prepare gave another tree order than the reference",
                );
            }
            let t = Instant::now();
            let run = tracer.span("core.execute", 0, request, |_| {
                self.engine
                    .execute(&RunRequest::prepared(&index, &self.inputs.variants))
            });
            let wall = t.elapsed().as_secs_f64();
            w.attempted += n_variants as u64;
            let report = match run {
                Ok(r) => r,
                Err(e) => {
                    w.failed += n_variants as u64;
                    w.fail("execute", &e.to_string());
                    continue;
                }
            };
            exec.push(wall);
            core.push(&report);
            response_ms.extend(
                report
                    .outcomes
                    .iter()
                    .map(|o| o.response_time().as_secs_f64() * 1e3),
            );
            let (mut sum, mut below) = (0.0, 0);
            for (i, result) in report.results.iter().enumerate() {
                let reference = &self.reference.results[i];
                let q = quality_score(reference, result).mean_score;
                quality_min = quality_min.min(q);
                sum += q;
                below += usize::from(q < QUALITY_FLOOR);
                let raw = |r: &ClusterResult| r.labels().iter_raw().collect::<Vec<u32>>();
                if let Err(e) = isomorphic(&raw(reference), &raw(result), &self.reference.cores[i])
                {
                    let v = self.inputs.variants.get(i);
                    w.fail("isomorphic to DBSCAN", &format!("{v}: {e}"));
                }
            }
            quality_mean_min = quality_mean_min.min(sum / n_variants as f64);
            below_floor.push(below as f64);
        }
        if exec.is_empty() {
            return w;
        }
        let runs = exec.len();
        w.pass(
            "isomorphic to DBSCAN",
            format!("every variant of {runs} runs: same noise, cluster count, core clusters"),
        );
        let detail = format!(
            "lowest per-run mean {quality_mean_min:.6} (lowest variant {quality_min:.6}), {runs} runs"
        );
        if quality_mean_min >= QUALITY_FLOOR {
            w.pass("mean quality >= 0.998", detail);
        } else {
            w.fail("mean quality >= 0.998", &detail);
        }
        let most_below = below_floor.iter().copied().fold(0.0, f64::max);
        w.defect(
            "every variant quality >= 0.998",
            most_below == 0.0,
            format!(
                "up to {most_below} of {n_variants} variants below per execute, lowest {quality_min:.6}, {runs} runs"
            ),
        );
        w.extras.insert("quality_mean", quality_mean_min);
        w.extras.insert("variants_below_floor", most_below);
        let mut e = Values::new();
        e.insert("setup_s", median(&setup));
        // A request is one variant answered.
        e.insert("requests_per_s", n_variants as f64 / median(&exec));
        e.insert("submit_p50_ms", median(&response_ms));
        if let Some(t) = tail(&response_ms, MIN_ROUNDS * n_variants) {
            e.insert("submit_tail_ms", t.value);
            w.extras.insert("submit_tail_pct", t.pct);
            w.extras.insert("submit_tail_samples", t.samples as f64);
        }
        e.insert("quality_min", quality_min);
        w.e2e = e;

        let l = &mut w.layers;
        l.insert("core.prepare_s", median(&setup));
        l.insert("core.busy_s", median(&core.busy_s));
        l.insert("core.idle_share", median(&core.idle_share));
        l.insert("core.lock_wait_s", median(&core.lock_wait_s));
        l.insert("core.sched_s", median(&core.sched_s));
        l.insert("core.fraction_reused", median(&core.fraction_reused));
        l.insert("core.from_scratch", median(&core.from_scratch));
        l.insert(
            "core.searches_saved",
            1.0 - median(&core.searches) / self.reference.searches as f64,
        );
        l.insert("core.variants_below_floor", median(&below_floor));
        l.insert("error_rate", w.failed as f64 / w.attempted.max(1) as f64);
        w
    }

    fn probes(&mut self, tracer: &Tracer) -> Result<Values, String> {
        let r = &self.reference;
        let mut l = Values::new();
        l.insert("rtree.eps_batch_s", r.eps_batch_s);
        l.insert("rtree.neighbors_per_query", r.neighbors_per_query);
        l.insert("dbscan.scratch_grid_s", r.scratch_s);
        l.insert("dbscan.searches", r.searches as f64);

        let index = self.prepare();
        let tree = index.t_low();
        let mut eps_values: Vec<f64> = self.inputs.variants.iter().map(|v| v.eps).collect();
        eps_values.dedup();

        // Filter precision: exact neighbours over MBB candidates, on a
        // strided sample of query points.
        let (mut exact, mut candidates) = (0usize, 0usize);
        let mut buf = Vec::new();
        for &eps in &eps_values {
            tracer.span("rtree.range_candidates", 0, 0, |_| {
                for &p in tree.points().iter().step_by(16) {
                    buf.clear();
                    tree.range_candidates(&Mbb::around_point(p, eps), &mut buf);
                    candidates += buf.len();
                    buf.clear();
                    tree.epsilon_neighbors(p, eps, &mut buf);
                    exact += buf.len();
                }
            });
        }
        l.insert("rtree.filter_precision", exact as f64 / candidates as f64);

        // Intra-variant path on the widest variant (largest ε, then the
        // smallest minpts): nproc shards on nproc threads against one
        // shard on one thread.
        let widest = self.inputs.variants.get(self.inputs.variants.len() - 1);
        let time_sharded = |shards: usize, threads: usize| -> f64 {
            let runs: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    tracer.span("dbscan.sharded", 0, 0, |_| {
                        sharded_dbscan(tree, widest.params(), shards, threads)
                            .expect("dataset fits point ids")
                    });
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        };
        let base = time_sharded(1, 1);
        let sharded = time_sharded(self.threads, self.threads);
        l.insert("dbscan.sharded_s", sharded);
        l.insert("dbscan.sharded_speedup", base / sharded);
        Ok(l)
    }
}
