//! `ingest`: writes beside reads, direct to one daemon's HTTP door (no
//! router). A writer APPENDs seeded batches from the same map while a
//! reader submits variants on the growing dataset and on an untouched
//! one. Every append runs the cache's repair-or-drop judge and
//! `Engine::append_to_prepared`.

use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use variantdbscan::{Engine, EngineConfig};
use vbp_geom::{Point2, PointId};
use vbp_service::{AppendReply, DatasetService, HttpClient, ServerHandle};

use crate::inputs::{IngestInputs, Submit};
use crate::loadgen::LoadGen;
use crate::report::Values;
use crate::stats::{median, tail};
use crate::svc;
use crate::trace::Tracer;
use crate::verify::{engine_labels, isomorphic, quality, CallerIndex};
use crate::{Window, Workload};

/// Rounds (daemon + load) every window runs at least.
const MIN_ROUNDS: usize = 5;

/// The `ingest` workload.
pub struct Ingest {
    inputs: IngestInputs,
    load: LoadGen,
    /// From-scratch reference of the untouched dataset.
    still: CallerIndex,
    /// The final check's reference on the grown dataset: a from-scratch
    /// `Engine::execute` of the final variant over the final point set,
    /// and that variant's core points (caller order).
    final_labels: Vec<u32>,
    final_cores: Vec<PointId>,
}

impl Ingest {
    /// Builds the workload for `seed`: one writer and one reader, fewer
    /// when `nproc` is smaller.
    pub fn new(seed: u64, nproc: usize) -> Result<Self, String> {
        let inputs = IngestInputs::generate(seed);
        let still = CallerIndex::new(&inputs.initial[1]);
        let grown = inputs.final_points();
        let final_labels = engine_labels(&grown, inputs.final_variant)?;
        let final_cores = CallerIndex::new(&grown).cores(inputs.final_variant);
        Ok(Ingest {
            inputs,
            load: LoadGen::new(2, nproc),
            still,
            final_labels,
            final_cores,
        })
    }
}

/// A step counter two client loops take turns on.
#[derive(Default)]
struct Turns {
    /// Steps done, and whether a wait ever timed out.
    state: Mutex<(usize, bool)>,
    moved: Condvar,
}

impl Turns {
    /// Blocks until `step` steps are done. Once a wait outlasts the
    /// client timeout (a partner died) no later wait blocks, so the run
    /// still ends.
    fn wait_for(&self, step: usize) {
        let state = self.state.lock().expect("turn counter poisoned");
        let (mut state, timeout) = self
            .moved
            .wait_timeout_while(state, svc::CLIENT_TIMEOUT, |s| s.0 < step && !s.1)
            .expect("turn counter poisoned");
        state.1 |= timeout.timed_out();
    }

    /// Marks one more step done.
    fn advance(&self) {
        self.state.lock().expect("turn counter poisoned").0 += 1;
        self.moved.notify_all();
    }
}

/// One client operation of a round.
enum Op<'a> {
    /// The writer's append `j`.
    Append(usize, &'a [Point2]),
    /// The reader's submit `i`.
    Submit(usize, &'a Submit),
}

/// Runs one round's load on the daemon at `addr`: the writer's appends
/// and the reader's submits, each client on its own connection, handing
/// every operation to `op` with that client's state. The writer's append
/// `j` goes between the reader's submits `j × every − 1` and
/// `j × every`: both loops take turns on one step counter, so every run
/// sends the daemon the same operations in the same order.
fn drive<T: Default + Send>(
    load: &LoadGen,
    addr: SocketAddr,
    inputs: &IngestInputs,
    op: impl Fn(&mut T, &mut HttpClient, Op<'_>) + Sync,
) -> Vec<std::io::Result<T>> {
    let every = inputs.reader.len() / inputs.batches.len();
    let turns = Turns::default();
    let single = load.clients() == 1;
    load.run(
        || svc::http(addr),
        |c, conn| {
            let mut state = T::default();
            if c == 0 {
                for (j, b) in inputs.batches.iter().enumerate() {
                    turns.wait_for(j * (every + 1));
                    op(&mut state, conn, Op::Append(j, b));
                    turns.advance();
                    if single {
                        for i in j * every..(j + 1) * every {
                            op(&mut state, conn, Op::Submit(i, &inputs.reader[i]));
                            turns.advance();
                        }
                    }
                }
            } else {
                for (i, s) in inputs.reader.iter().enumerate() {
                    turns.wait_for(i / every * (every + 1) + 1 + i % every);
                    op(&mut state, conn, Op::Submit(i, s));
                    turns.advance();
                }
            }
            state
        },
    )
}

/// The program's side of the workload alone: `rounds` times,
/// start the daemon and send the writer's and the reader's operations,
/// keeping none of the answers.
pub fn program_only(seed: u64, nproc: usize, rounds: usize, tracer: &Tracer) -> Result<(), String> {
    let inputs = IngestInputs::generate(seed);
    let load = LoadGen::new(2, nproc);
    for _ in 0..rounds {
        let mut daemon = tracer.span("server.start", 0, 0, |_| start_daemon(&inputs))?;
        let addr = daemon.http_addr().expect("HTTP door configured");
        let results = drive(&load, addr, &inputs, |failed: &mut usize, conn, op| {
            let ok = match op {
                Op::Append(j, b) => tracer
                    .span("http.append", 0, j as u64 + 1, |_| {
                        conn.append(&inputs.names[0], b)
                    })
                    .is_ok(),
                Op::Submit(i, s) => tracer
                    .span("http.submit", 0, (1 << 32) | i as u64, |_| {
                        svc::submit(conn, &inputs.names[s.dataset], s.variant, s.labels)
                    })
                    .is_ok(),
            };
            *failed += usize::from(!ok);
        });
        daemon.shutdown();
        for r in results {
            match r {
                Ok(0) => {}
                Ok(n) => return Err(format!("{n} operations failed")),
                Err(e) => return Err(format!("client connect: {e}")),
            }
        }
    }
    Ok(())
}

/// Starts the daemon holding both datasets at their initial size.
fn start_daemon(inputs: &IngestInputs) -> Result<ServerHandle, String> {
    let datasets = [
        (inputs.names[0].clone(), inputs.initial[0].clone()),
        (inputs.names[1].clone(), inputs.initial[1].clone()),
    ];
    svc::start_daemon(&datasets)
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    submits_ok: u64,
    appends_ok: u64,
    failed: u64,
    submit_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    append_ms: Vec<f64>,
    append_replies: Vec<AppendReply>,
    errors: Vec<String>,
    /// Labelled answers on the untouched dataset.
    labelled: Vec<(variantdbscan::Variant, Vec<u32>)>,
}

impl ClientLog {
    fn append(
        &mut self,
        tracer: &Tracer,
        conn: &mut HttpClient,
        name: &str,
        i: usize,
        batch: &[Point2],
    ) {
        let t = Instant::now();
        match tracer.span("http.append", 0, i as u64 + 1, |_| conn.append(name, batch)) {
            Ok(r) => {
                self.append_ms.push(t.elapsed().as_secs_f64() * 1e3);
                self.append_replies.push(r);
                self.appends_ok += 1;
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("append {i}: {e}"));
            }
        }
    }

    fn submit(
        &mut self,
        tracer: &Tracer,
        conn: &mut HttpClient,
        names: &[String; 2],
        i: usize,
        s: &Submit,
    ) {
        let request = (1 << 32) | i as u64;
        match tracer.span("http.submit", 0, request, |_| {
            svc::submit(conn, &names[s.dataset], s.variant, s.labels)
        }) {
            Ok(r) if r.status == 200 => {
                self.submits_ok += 1;
                self.submit_ms.push(r.rtt_ms);
                self.engine_ms.push(r.ms);
                if let Some(l) = r.labels {
                    self.labelled.push((s.variant, l));
                }
            }
            Ok(r) => {
                self.failed += 1;
                if r.status != 503 {
                    self.errors
                        .push(format!("submit {i}: status {}: {}", r.status, r.error));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("submit {i}: {e}"));
            }
        }
    }
}

impl Workload for Ingest {
    fn params(&self) -> Vec<(&'static str, String)> {
        let i = &self.inputs;
        vec![
            (
                "datasets",
                format!(
                    "{} (SW1, grows), {} (SW2, untouched)",
                    i.names[0], i.names[1]
                ),
            ),
            ("initial_points", i.initial[0].len().to_string()),
            ("append_batches", i.batches.len().to_string()),
            ("batch_points", i.batches[0].len().to_string()),
            ("submits_per_round", i.reader.len().to_string()),
            (
                "clients",
                format!("{} (writer, reader)", self.load.clients()),
            ),
            ("door", "one daemon's HTTP door, no router".into()),
        ]
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let mut w = Window::default();
        let (mut setup, mut rate) = (vec![], vec![]);
        let (mut submit_ms, mut engine_ms, mut append_ms, mut server_append_ms) =
            (vec![], vec![], vec![], vec![]);
        let (mut repaired, mut dropped) = (0usize, 0usize);
        let mut quality_min = f64::INFINITY;
        let appended: usize = self.inputs.batches.iter().map(Vec::len).sum();
        let start = Instant::now();
        while w.another_round(start, seconds, MIN_ROUNDS) {
            w.rounds += 1;
            let t = Instant::now();
            let mut daemon = match tracer.span("server.start", 0, 0, |_| start_daemon(&self.inputs))
            {
                Ok(d) => d,
                Err(e) => {
                    w.fail("daemon", &e);
                    break;
                }
            };
            setup.push(t.elapsed().as_secs_f64());
            let addr = daemon.http_addr().expect("HTTP door configured");

            let inputs = &self.inputs;
            let t = Instant::now();
            let logs = drive(
                &self.load,
                addr,
                inputs,
                |log: &mut ClientLog, conn, op| match op {
                    Op::Append(j, b) => log.append(tracer, conn, &inputs.names[0], j, b),
                    Op::Submit(i, s) => log.submit(tracer, conn, &inputs.names, i, s),
                },
            );
            let wall = t.elapsed().as_secs_f64();
            let mut ok = 0;
            for log in logs {
                let log = match log {
                    Ok(l) => l,
                    Err(e) => {
                        w.fail("client connect", &e.to_string());
                        continue;
                    }
                };
                ok += log.submits_ok + log.appends_ok;
                w.attempted += log.submits_ok + log.appends_ok + log.failed;
                w.failed += log.failed;
                for e in log.errors.iter().take(3) {
                    w.fail("ingest replies", e);
                }
                submit_ms.extend(log.submit_ms);
                engine_ms.extend(log.engine_ms);
                append_ms.extend(log.append_ms);
                for r in &log.append_replies {
                    server_append_ms.push(r.ms);
                    repaired += r.repaired;
                    dropped += r.dropped;
                }
                if w.rounds == 1 {
                    for (v, labels) in &log.labelled {
                        quality_min = quality_min.min(quality(&self.still.dbscan(*v), labels));
                    }
                }
            }
            rate.push(ok as f64 / wall);

            if let Err(e) = self.final_checks(addr, w.rounds == 1, &mut quality_min) {
                w.fail("final state", &e);
            }
            match svc::http(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| svc::stats(&mut c))
            {
                Ok(s) if s.admission_ok() => {}
                Ok(s) => w.fail("admission invariant", &format!("{s:?}")),
                Err(e) => w.fail("stats", &e),
            }
            daemon.shutdown();
        }
        if submit_ms.is_empty() || append_ms.is_empty() {
            return w;
        }
        let rounds = w.rounds;
        w.pass(
            "ingest replies",
            format!("every append and submit answered, {rounds} rounds"),
        );
        w.pass(
            "final state",
            format!(
                "size = {} + {appended}; final labels isomorphic to a from-scratch execute, {rounds} rounds",
                self.inputs.initial[0].len()
            ),
        );
        w.pass(
            "admission invariant",
            format!("every round, {rounds} rounds"),
        );

        let mut e = Values::new();
        e.insert("setup_s", median(&setup));
        e.insert("requests_per_s", median(&rate));
        e.insert("submit_p50_ms", median(&submit_ms));
        if let Some(t) = tail(&submit_ms, MIN_ROUNDS * self.inputs.reader.len()) {
            e.insert("submit_tail_ms", t.value);
            w.extras.insert("submit_tail_pct", t.pct);
            w.extras.insert("submit_tail_samples", t.samples as f64);
        }
        e.insert("quality_min", quality_min);
        w.e2e = e;

        let append_p50 = median(&append_ms);
        w.extras.insert("append_p50_ms", append_p50);
        w.extras
            .insert("client_threads", self.load.threads_opened() as f64);
        w.extras
            .insert("client_connections", self.load.connections_opened() as f64);
        w.layers.insert("append_p50_ms", append_p50);
        if let Some(t) = tail(&append_ms, MIN_ROUNDS * self.inputs.batches.len()) {
            w.extras.insert("append_tail_ms", t.value);
            w.extras.insert("append_tail_pct", t.pct);
            w.extras.insert("append_tail_samples", t.samples as f64);
            w.layers.insert("append_tail_ms", t.value);
        }
        let per_round = |x: usize| x as f64 / rounds as f64;
        let l = &mut w.layers;
        l.insert("server.engine_ms", median(&engine_ms));
        l.insert("server.append_ms", median(&server_append_ms));
        l.insert("cache.repaired", per_round(repaired));
        l.insert("cache.dropped", per_round(dropped));
        l.insert(
            "cache.repair_ratio",
            repaired as f64 / (repaired + dropped).max(1) as f64,
        );
        l.insert("error_rate", w.failed as f64 / w.attempted.max(1) as f64);
        w
    }

    fn probes(&mut self, tracer: &Tracer) -> Result<Values, String> {
        let mut l = Values::new();
        let engine = Engine::new(EngineConfig::default());
        let t = Instant::now();
        let mut live = None;
        for points in &self.inputs.initial {
            let index = tracer.span("core.prepare", 0, 0, |_| {
                engine
                    .prepare(points, None)
                    .expect("generated points are finite")
            });
            live.get_or_insert(index);
        }
        l.insert("core.prepare_s", t.elapsed().as_secs_f64());
        // The same batches through the engine alone, offline.
        let mut index = live.expect("two datasets");
        let t = Instant::now();
        for (i, batch) in self.inputs.batches.iter().enumerate() {
            index = tracer.span("core.append", 0, i as u64 + 1, |_| {
                engine
                    .append_to_prepared(&index, batch)
                    .expect("generated points are finite")
                    .0
            });
        }
        l.insert("core.append_s", t.elapsed().as_secs_f64());
        Ok(l)
    }
}

impl Ingest {
    /// After a round: the grown dataset holds every appended point, the
    /// untouched one none, and a labelled submit on the grown dataset is
    /// label-isomorphic to a from-scratch `Engine::execute` on the final
    /// point set.
    fn final_checks(
        &self,
        addr: SocketAddr,
        score: bool,
        quality_min: &mut f64,
    ) -> Result<(), String> {
        let io = |e: std::io::Error| e.to_string();
        let mut c = svc::http(addr).map_err(io)?;
        let sizes = c.datasets().map_err(|e| e.to_string())?;
        let want = [self.final_labels.len(), self.inputs.initial[1].len()];
        for (name, n) in self.inputs.names.iter().zip(want) {
            let got = sizes.iter().find(|(s, _)| s == name).map(|(_, k)| *k);
            if got != Some(n) {
                return Err(format!("{name} holds {got:?} points, expected {n}"));
            }
        }
        let v = self.inputs.final_variant;
        let served = svc::submit(&mut c, &self.inputs.names[0], v, true).map_err(io)?;
        let labels = served
            .labels
            .ok_or_else(|| format!("final submit answered {}: {}", served.status, served.error))?;
        isomorphic(&self.final_labels, &labels, &self.final_cores)
            .map_err(|e| format!("final {v} on {}: {e}", self.inputs.names[0]))?;
        if score {
            *quality_min = quality_min.min(quality(&self.final_labels, &labels));
        }
        Ok(())
    }
}
