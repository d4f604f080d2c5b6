//! `explore`: interactive analysts re-requesting popular variants.
//! `nproc` closed-loop HTTP clients go through the `Router` to two
//! in-process daemons holding the SW tiles. About ¾ of submits repeat a
//! popular variant, the rest ask for a fresh one next to it, and about
//! ¼ ask for labels. The time goes to `server`, `cache`, `http`,
//! `router` and the engine's warm path.

use std::collections::HashMap;
use std::time::Instant;

use variantdbscan::{Engine, EngineConfig, Variant};
use vbp_geom::PointId;
use vbp_service::{Client, HttpClient, Router, RouterConfig, RouterHandle, ServerHandle};

use crate::inputs::{ExploreInputs, Submit};
use crate::loadgen::LoadGen;
use crate::report::Values;
use crate::stats::{median, tail};
use crate::svc::{self, Stats, Submitted};
use crate::trace::Tracer;
use crate::verify::{isomorphic, quality, same_partition, CallerIndex};
use crate::{Window, Workload};

/// Daemons behind the router.
const DAEMONS: usize = 2;

/// Rounds (deployment + load) every window runs at least.
const MIN_ROUNDS: usize = 4;

/// Paired probe submits per door in the traced run.
const PROBE_PAIRS: usize = 48;

/// A first answer, for the repeat check.
#[derive(Clone, Debug)]
struct Answer {
    clusters: usize,
    noise: usize,
    labels: Option<Vec<u32>>,
}

type Key = (usize, u64, usize);

fn key(dataset: usize, v: Variant) -> Key {
    (dataset, v.eps.to_bits(), v.minpts)
}

/// Two daemons and the router in front of them.
struct Deployment {
    daemons: Vec<ServerHandle>,
    router: RouterHandle,
    /// Daemon index owning each tile on the ring.
    owner: Vec<usize>,
}

impl Deployment {
    fn start(inputs: &ExploreInputs) -> Result<Self, String> {
        let datasets: Vec<(String, Vec<_>)> = inputs
            .names
            .iter()
            .cloned()
            .zip(inputs.tiles.iter().cloned())
            .collect();
        let daemons = (0..DAEMONS)
            .map(|_| svc::start_daemon(&datasets))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<String> = daemons
            .iter()
            .map(|d| d.http_addr().expect("HTTP door configured").to_string())
            .collect();
        let config = RouterConfig::builder()
            .backends(addrs.clone())
            .build()
            .map_err(|e| format!("router config: {e}"))?;
        let router = Router::start(config).map_err(|e| format!("router start: {e}"))?;
        let owner = inputs
            .names
            .iter()
            .map(|n| {
                let placed = router.placement(n);
                addrs
                    .iter()
                    .position(|a| *a == placed)
                    .expect("ring owner is a backend")
            })
            .collect();
        Ok(Deployment {
            daemons,
            router,
            owner,
        })
    }

    fn shutdown(mut self) {
        self.router.shutdown();
        for d in &mut self.daemons {
            d.shutdown();
        }
    }

    fn direct(&self, daemon: usize) -> std::io::Result<HttpClient> {
        svc::http(
            self.daemons[daemon]
                .http_addr()
                .expect("HTTP door configured"),
        )
    }

    /// A client on the router's door and one on each daemon's HTTP door.
    fn doors(&self) -> std::io::Result<(HttpClient, Vec<HttpClient>)> {
        let routed = svc::http(self.router.http_addr())?;
        let direct = (0..DAEMONS)
            .map(|d| self.direct(d))
            .collect::<std::io::Result<_>>()?;
        Ok((routed, direct))
    }

    /// Starts the deployment and answers every popular variant once
    /// through the router, with labels: the warm-up pass and the first
    /// answers.
    fn start_warm(inputs: &ExploreInputs) -> Result<(Self, HashMap<Key, Answer>), String> {
        let dep = Deployment::start(inputs)?;
        match dep.warm_up(inputs) {
            Ok(first) => Ok((dep, first)),
            Err(e) => {
                dep.shutdown();
                Err(e)
            }
        }
    }

    fn warm_up(&self, inputs: &ExploreInputs) -> Result<HashMap<Key, Answer>, String> {
        let mut c = svc::http(self.router.http_addr()).map_err(|e| e.to_string())?;
        let mut first = HashMap::new();
        for (d, pops) in inputs.popular.iter().enumerate() {
            for &v in pops {
                let s = svc::submit(&mut c, &inputs.names[d], v, true)
                    .map_err(|e| format!("warm-up submit: {e}"))?;
                if s.status != 200 {
                    return Err(format!("warm-up answered {}: {}", s.status, s.error));
                }
                first.insert(
                    key(d, v),
                    Answer {
                        clusters: s.clusters,
                        noise: s.noise,
                        labels: s.labels,
                    },
                );
            }
        }
        Ok(first)
    }

    /// Each daemon's stats, and the router's merged document.
    fn stats(&self) -> Result<(Vec<Stats>, Stats), String> {
        let daemons = (0..DAEMONS)
            .map(|d| {
                let mut c = self.direct(d).map_err(|e| e.to_string())?;
                svc::stats(&mut c)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut c = svc::http(self.router.http_addr()).map_err(|e| e.to_string())?;
        Ok((daemons, svc::stats(&mut c)?))
    }
}

/// The program's side of the workload alone: `rounds` times,
/// start the deployment, warm it up and send every client's submits,
/// keeping none of the answers.
pub fn program_only(seed: u64, nproc: usize, rounds: usize, tracer: &Tracer) -> Result<(), String> {
    let load = LoadGen::new(nproc, nproc);
    let inputs = ExploreInputs::generate(seed, load.clients());
    for _ in 0..rounds {
        let (dep, first) =
            tracer.span("server.start", 0, 0, |_| Deployment::start_warm(&inputs))?;
        drop(first);
        let router = dep.router.http_addr();
        let results = load.run(
            || svc::http(router),
            |c, conn| {
                for (i, s) in inputs.clients[c].iter().enumerate() {
                    let request = ((c as u64 + 1) << 32) | i as u64;
                    tracer.span("router.submit", 0, request, |_| {
                        svc::submit(conn, &inputs.names[s.dataset], s.variant, s.labels)
                    })?;
                }
                Ok(())
            },
        );
        dep.shutdown();
        for r in results {
            r.and_then(|r| r).map_err(|e| format!("submit: {e}"))?;
        }
    }
    Ok(())
}

/// The `explore` workload.
pub struct Explore {
    inputs: ExploreInputs,
    load: LoadGen,
    references: Vec<CallerIndex>,
    /// Core points of every popular variant, caller order.
    cores: HashMap<Key, Vec<PointId>>,
    /// Median of (RTT − engine ms) over the last window's submits.
    rtt_minus_engine_ms: f64,
}

impl Explore {
    /// Builds the workload for `seed` with up to `nproc` clients.
    pub fn new(seed: u64, nproc: usize) -> Self {
        let load = LoadGen::new(nproc, nproc);
        let inputs = ExploreInputs::generate(seed, load.clients());
        let references: Vec<CallerIndex> =
            inputs.tiles.iter().map(|t| CallerIndex::new(t)).collect();
        let cores = inputs
            .popular
            .iter()
            .enumerate()
            .flat_map(|(d, pops)| pops.iter().map(move |&v| (d, v)))
            .map(|(d, v)| (key(d, v), references[d].cores(v)))
            .collect();
        Explore {
            inputs,
            load,
            references,
            cores,
            rtt_minus_engine_ms: f64::NAN,
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    ok: u64,
    failed: u64,
    rtt_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    bytes: Vec<f64>,
    mismatches: Vec<String>,
    /// Labelled repeats, and those whose labels were not the first
    /// answer's partition exactly (border points moved).
    labelled_repeats: u64,
    drifted_repeats: u64,
    /// Labelled answers: (tile, variant, labels).
    labelled: Vec<(usize, Variant, Vec<u32>)>,
}

fn client_loop(
    tracer: &Tracer,
    client_id: usize,
    conn: &mut HttpClient,
    seq: &[Submit],
    explore: &Explore,
    first: &HashMap<Key, Answer>,
) -> ClientLog {
    let names = &explore.inputs.names;
    let mut log = ClientLog::default();
    for (i, s) in seq.iter().enumerate() {
        let request = ((client_id as u64 + 1) << 32) | i as u64;
        let r: std::io::Result<Submitted> = tracer.span("router.submit", 0, request, |_| {
            svc::submit(conn, &names[s.dataset], s.variant, s.labels)
        });
        let r = match r {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                log.failed += 1;
                log.mismatches
                    .extend((r.status != 503).then(|| format!("status {}: {}", r.status, r.error)));
                continue;
            }
            Err(e) => {
                log.failed += 1;
                log.mismatches.push(format!("transport: {e}"));
                continue;
            }
        };
        log.ok += 1;
        log.rtt_ms.push(r.rtt_ms);
        log.engine_ms.push(r.ms);
        log.bytes.push(r.bytes as f64);
        if s.repeat {
            let k = key(s.dataset, s.variant);
            let a = &first[&k];
            let labels = match (&a.labels, &r.labels) {
                (Some(x), Some(y)) => {
                    log.labelled_repeats += 1;
                    log.drifted_repeats += u64::from(!same_partition(x, y));
                    isomorphic(x, y, &explore.cores[&k])
                }
                _ => Ok(()),
            };
            if (a.clusters, a.noise) != (r.clusters, r.noise) || labels.is_err() {
                log.mismatches.push(format!(
                    "repeat {} on {} answered ({}, {}) after ({}, {}) {labels:?}",
                    s.variant, names[s.dataset], r.clusters, r.noise, a.clusters, a.noise
                ));
            }
        }
        if let Some(labels) = r.labels {
            log.labelled.push((s.dataset, s.variant, labels));
        }
    }
    log
}

impl Workload for Explore {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "tiles",
                format!("{} SW tiles (SW1-SW4)", self.inputs.tiles.len()),
            ),
            ("points_per_tile", self.inputs.tiles[0].len().to_string()),
            ("popular_per_tile", self.inputs.popular[0].len().to_string()),
            ("daemons", DAEMONS.to_string()),
            ("clients", self.load.clients().to_string()),
            (
                "submits_per_round",
                self.inputs
                    .clients
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
                    .to_string(),
            ),
            (
                "mix",
                "3/4 repeat popular, 1/4 fresh nearby; 1/4 with labels".into(),
            ),
            (
                "loop",
                "closed, one keep-alive connection per client".into(),
            ),
        ]
    }

    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window {
        let mut w = Window::default();
        let (mut setup, mut rate) = (vec![], vec![]);
        let (mut rtt, mut engine, mut bytes, mut gap) = (vec![], vec![], vec![], vec![]);
        let (mut batch_mean, mut busy_share, mut hit_ratio) = (vec![], vec![], vec![]);
        let (mut evictions, mut proxied, mut retries, mut trips) = (0.0, 0.0, 0.0, 0.0);
        let mut quality_min = f64::INFINITY;
        let mut labelled_checked = 0usize;
        let (mut labelled_repeats, mut drifted_repeats) = (0u64, 0u64);
        let (mut routed_pairs, mut routed_moved) = (0u64, 0u64);
        let mut moved_per_round = vec![];
        let start = Instant::now();
        while w.another_round(start, seconds, MIN_ROUNDS) {
            w.rounds += 1;
            let t = Instant::now();
            let deployed = tracer.span("server.start", 0, 0, |_| {
                Deployment::start_warm(&self.inputs)
            });
            let (dep, first) = match deployed {
                Ok(x) => x,
                Err(e) => {
                    w.fail("deployment", &e);
                    break;
                }
            };
            setup.push(t.elapsed().as_secs_f64());
            let before = match dep.stats() {
                Ok(s) => s,
                Err(e) => {
                    w.fail("stats", &e);
                    dep.shutdown();
                    break;
                }
            };

            let router = dep.router.http_addr();
            let t = Instant::now();
            let logs = self.load.run(
                || svc::http(router),
                |c, conn| client_loop(tracer, c, conn, &self.inputs.clients[c], self, &first),
            );
            let wall = t.elapsed().as_secs_f64();
            let after = dep.stats();

            let (mut ok, mut moved) = (0, 0);
            for log in logs {
                let log = match log {
                    Ok(l) => l,
                    Err(e) => {
                        w.fail("client connect", &e.to_string());
                        continue;
                    }
                };
                ok += log.ok;
                labelled_repeats += log.labelled_repeats;
                moved += log.drifted_repeats;
                w.attempted += log.ok + log.failed;
                w.failed += log.failed;
                for m in log.mismatches.iter().take(3) {
                    w.fail("explore replies", m);
                }
                gap.extend(log.rtt_ms.iter().zip(&log.engine_ms).map(|(r, e)| r - e));
                rtt.extend(log.rtt_ms);
                engine.extend(log.engine_ms);
                bytes.extend(log.bytes);
                if w.rounds == 1 {
                    for (d, v, labels) in &log.labelled {
                        let reference = self.references[*d].dbscan(*v);
                        quality_min = quality_min.min(quality(&reference, labels));
                        labelled_checked += 1;
                    }
                }
            }
            rate.push(ok as f64 / wall);
            drifted_repeats += moved;
            moved_per_round.push(moved as f64);
            if w.rounds == 1 {
                // The warm-up answers are labelled too.
                for (d, pops) in self.inputs.popular.iter().enumerate() {
                    for &v in pops {
                        if let Some(l) = &first[&key(d, v)].labels {
                            let reference = self.references[d].dbscan(v);
                            quality_min = quality_min.min(quality(&reference, l));
                            labelled_checked += 1;
                        }
                    }
                }
            }

            match self.routed_matches_direct(&dep) {
                Ok(moved) => {
                    routed_pairs += self.cores.len() as u64;
                    routed_moved += moved;
                }
                Err(e) => w.fail("routed = direct", &e),
            }
            match dep.stats() {
                Ok((daemons, merged)) => {
                    for (i, s) in daemons.iter().enumerate() {
                        if !s.admission_ok() {
                            w.fail("admission invariant", &format!("daemon {i}: {s:?}"));
                        }
                    }
                    if !merged.admission_ok() {
                        w.fail("admission invariant", &format!("router merged: {merged:?}"));
                    }
                }
                Err(e) => w.fail("stats", &e),
            }
            match after {
                Ok((daemons, merged)) => {
                    let sum = |v: &[Stats]| v.iter().fold(Stats::default(), |a, s| a.plus(s));
                    let d = sum(&daemons).since(&sum(&before.0));
                    let r = merged.since(&before.1);
                    batch_mean.push(d.completed / d.batches.max(1.0));
                    busy_share.push(d.engine_busy_ms / (DAEMONS as f64 * wall * 1e3));
                    hit_ratio.push(d.hits / (d.hits + d.misses).max(1.0));
                    evictions += d.evictions;
                    proxied += r.proxied;
                    retries += r.connect_failures;
                    trips += r.breaker_trips;
                }
                Err(e) => w.fail("stats", &e),
            }
            dep.shutdown();
        }
        if rtt.is_empty() {
            return w;
        }
        let rounds = w.rounds;
        w.pass(
            "explore replies",
            format!("repeats matched their first answers, {rounds} rounds"),
        );
        w.pass(
            "routed = direct",
            format!("every popular variant, routed and direct, {rounds} rounds"),
        );
        w.pass(
            "admission invariant",
            format!("{DAEMONS} daemons and the router's merged stats, {rounds} rounds"),
        );
        w.defect(
            "repeats identical to their first answer",
            drifted_repeats == 0,
            format!(
                "{drifted_repeats} of {labelled_repeats} labelled repeats moved border points, {rounds} rounds"
            ),
        );
        w.defect(
            "routed identical to direct",
            routed_moved == 0,
            format!("{routed_moved} of {routed_pairs} labelled pairs moved border points, {rounds} rounds"),
        );
        let mut e = Values::new();
        e.insert("setup_s", median(&setup));
        e.insert("requests_per_s", median(&rate));
        e.insert("submit_p50_ms", median(&rtt));
        let planned = MIN_ROUNDS * self.inputs.clients.iter().map(Vec::len).sum::<usize>();
        if let Some(t) = tail(&rtt, planned) {
            e.insert("submit_tail_ms", t.value);
            w.extras.insert("submit_tail_pct", t.pct);
            w.extras.insert("submit_tail_samples", t.samples as f64);
        }
        e.insert("quality_min", quality_min);
        w.extras.insert("quality_checked", labelled_checked as f64);
        w.extras
            .insert("client_threads", self.load.threads_opened() as f64);
        w.extras
            .insert("client_connections", self.load.connections_opened() as f64);
        w.extras.insert("labelled_repeats", labelled_repeats as f64);
        w.extras
            .insert("labelled_repeats_border_moved", drifted_repeats as f64);
        w.extras
            .insert("routed_pairs_border_moved", routed_moved as f64);
        w.e2e = e;

        self.rtt_minus_engine_ms = median(&gap);
        let rounds = w.rounds as f64;
        let l = &mut w.layers;
        l.insert("server.engine_ms", median(&engine));
        l.insert("server.batch_mean", median(&batch_mean));
        l.insert("server.engine_busy_share", median(&busy_share));
        l.insert("cache.hit_ratio", median(&hit_ratio));
        l.insert("cache.evictions", evictions / rounds);
        l.insert("cache.repeats_moved", median(&moved_per_round));
        l.insert(
            "http.reply_bytes",
            bytes.iter().sum::<f64>() / bytes.len() as f64,
        );
        l.insert("router.proxied", proxied / rounds);
        l.insert("pool.retries", retries / rounds);
        l.insert("pool.breaker_trips", trips / rounds);
        l.insert("error_rate", w.failed as f64 / w.attempted.max(1) as f64);
        w
    }

    fn probes(&mut self, tracer: &Tracer) -> Result<Values, String> {
        let mut l = Values::new();
        // Index build of every tile, as one daemon pays it at start.
        let engine = Engine::new(EngineConfig::default());
        let t = Instant::now();
        for tile in &self.inputs.tiles {
            tracer.span("core.prepare", 0, 0, |_| {
                engine
                    .prepare(tile, None)
                    .expect("generated points are finite")
            });
        }
        l.insert("core.prepare_s", t.elapsed().as_secs_f64());

        let p = self.paired_probes(tracer)?;
        l.insert("http.overhead_ms", p.http);
        l.insert("protocol.overhead_ms", p.protocol);
        l.insert("router.hop_ms", p.hop);
        l.insert("router.hop_labels_ms", p.hop_labels);
        l.insert(
            "server.queue_wait_ms",
            self.rtt_minus_engine_ms - p.http - p.hop,
        );
        Ok(l)
    }
}

/// Medians of the paired door probes, ms.
struct Probes {
    http: f64,
    protocol: f64,
    hop: f64,
    hop_labels: f64,
}

impl Explore {
    /// Asks every popular variant through the router and directly from
    /// its ring owner, with labels, and compares the answers. Returns
    /// how many pairs were isomorphic but not the same partition
    /// (border points moved).
    fn routed_matches_direct(&self, dep: &Deployment) -> Result<u64, String> {
        let io = |e: std::io::Error| e.to_string();
        let (mut routed, mut direct) = dep.doors().map_err(io)?;
        let mut moved = 0;
        for (d, pops) in self.inputs.popular.iter().enumerate() {
            let name = &self.inputs.names[d];
            for &v in pops {
                let a = svc::submit(&mut routed, name, v, true).map_err(io)?;
                let b = svc::submit(&mut direct[dep.owner[d]], name, v, true).map_err(io)?;
                let same = a.status == 200
                    && b.status == 200
                    && (a.clusters, a.noise) == (b.clusters, b.noise)
                    && match (&a.labels, &b.labels) {
                        (Some(x), Some(y)) => {
                            moved += u64::from(!same_partition(x, y));
                            isomorphic(x, y, &self.cores[&key(d, v)]).is_ok()
                        }
                        _ => false,
                    };
                if !same {
                    return Err(format!(
                        "{v} on {name}: routed ({}, {}, status {}) vs direct ({}, {}, status {})",
                        a.clusters, a.noise, a.status, b.clusters, b.noise, b.status
                    ));
                }
            }
        }
        Ok(moved)
    }

    /// Paired identical exact-hit submits on a fresh, warmed deployment:
    /// each door's RTT minus the reply's engine time, and the router
    /// minus the direct door, with and without labels.
    fn paired_probes(&self, tracer: &Tracer) -> Result<Probes, String> {
        let (dep, _) = Deployment::start_warm(&self.inputs)?;
        let result = (|| {
            let io = |e: std::io::Error| e.to_string();
            let (mut routed, mut direct) = dep.doors().map_err(io)?;
            let mut line: Vec<Client> = dep
                .daemons
                .iter()
                .map(|d| Client::connect(d.local_addr()))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let (mut http, mut protocol, mut hop, mut hop_labels) =
                (vec![], vec![], vec![], vec![]);
            let pops: Vec<(usize, Variant)> = self
                .inputs
                .popular
                .iter()
                .enumerate()
                .flat_map(|(d, p)| p.iter().map(move |&v| (d, v)))
                .collect();
            for i in 0..PROBE_PAIRS {
                let (d, v) = pops[i % pops.len()];
                let name = &self.inputs.names[d];
                let owner = dep.owner[d];
                let request = i as u64 + 1;
                let h = tracer
                    .span("http.submit", 0, request, |_| {
                        svc::submit(&mut direct[owner], name, v, false)
                    })
                    .map_err(io)?;
                let t = Instant::now();
                let p = tracer
                    .span("protocol.submit", 0, request, |_| {
                        line[owner].submit(name, v.eps, v.minpts, false)
                    })
                    .map_err(|e| e.to_string())?;
                let p_rtt = t.elapsed().as_secs_f64() * 1e3;
                let r = tracer
                    .span("router.submit", 0, request, |_| {
                        svc::submit(&mut routed, name, v, false)
                    })
                    .map_err(io)?;
                let hl = tracer
                    .span("http.submit", 0, request, |_| {
                        svc::submit(&mut direct[owner], name, v, true)
                    })
                    .map_err(io)?;
                let rl = tracer
                    .span("router.submit", 0, request, |_| {
                        svc::submit(&mut routed, name, v, true)
                    })
                    .map_err(io)?;
                for s in [&h, &r, &hl, &rl] {
                    if s.status != 200 {
                        return Err(format!("probe answered {}: {}", s.status, s.error));
                    }
                }
                http.push(h.rtt_ms - h.ms);
                protocol.push(p_rtt - p.ms);
                hop.push(r.rtt_ms - h.rtt_ms);
                hop_labels.push(rl.rtt_ms - hl.rtt_ms);
            }
            for c in &mut line {
                c.quit();
            }
            Ok(Probes {
                http: median(&http),
                protocol: median(&protocol),
                hop: median(&hop),
                hop_labels: median(&hop_labels),
            })
        })();
        dep.shutdown();
        result
    }
}
