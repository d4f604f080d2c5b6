//! The daemon: accept loop, per-connection handlers, bounded admission
//! queue, and the batching dispatcher that turns queued requests into
//! engine runs.
//!
//! # Threading model
//!
//! ```text
//! accept thread ──spawns──▶ handler threads (one per connection)
//!                                │  submit()          ▲ reply mpsc
//!                                ▼                    │
//!                        bounded VecDeque ──▶ dispatcher thread
//!                                                 │
//!                                                 ▼
//!                               Engine::execute (batch RunRequest)
//! ```
//!
//! Handlers parse lines and *admit* work; they never touch the engine.
//! Admission is a bounded queue: when it is full the submit is rejected
//! with a typed [`ErrorCode::Overloaded`] — backpressure reaches the
//! client as an `ERR` line instead of unbounded buffering.
//!
//! The dispatcher pops the oldest request, waits one *batch window* for
//! compatible work to pile up, then drains every queued request for the
//! same dataset into a single [`VariantSet`] run. Cache lookups seed the
//! run with warm sources; every fresh result is inserted back.
//!
//! # Fault posture
//!
//! Connections are handled through the [`Transport`] seam with bounded
//! line framing ([`LineIo`]): an oversized or non-UTF-8 line costs the
//! client one `ERR protocol` and a resync, never unbounded buffering or
//! a dead handler. A panic inside a clustering job is contained at the
//! engine boundary ([`Engine::execute`] answers a typed
//! [`EngineError::JobPanic`]): the dispatcher
//! isolates the batch, retries each distinct variant alone, fails only
//! the poisoned jobs with `ERR internal`, and keeps serving. Every
//! admitted job is accounted exactly once — `submitted` always equals
//! `completed + failed + in_flight` under the stats lock, which the
//! chaos suite asserts at arbitrary observation points.
//!
//! # Graceful drain
//!
//! `SHUTDOWN` (or [`ServerHandle::shutdown`]) flips the draining flag:
//! new `SUBMIT`s are rejected with `ERR draining`, the dispatcher
//! finishes everything already queued, the accept loop is woken by a
//! self-connection and exits, and handlers notice the stop flag at their
//! next read-timeout poll. Every thread join is therefore bounded by the
//! poll interval plus the time of the in-flight engine run.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use variantdbscan::{
    Engine, EngineError, JsonObject, Metrics, RunRequest, Sharding, TraceEvent, Variant,
    VariantSet, WarmSource,
};
use vbp_dbscan::algorithm::dbscan_brute_force;
use vbp_dbscan::{ClusterResult, DbscanParams, IncrementalDbscan, Labels, MAX_CLUSTER_ID};
use vbp_geom::Point2;
use vbp_rtree::SpatialIndex;

use crate::cache::{DominanceCache, RepairStats};
use crate::protocol::{err_line, parse_request, ErrorCode, Request, PROTOCOL_VERSION};
use crate::registry::{DatasetEntry, Registry};
use crate::store::StoreBoot;
use crate::transport::{LineEvent, LineIo, TcpTransport, Transport};

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Admission queue capacity (requests, not bytes).
    pub queue_cap: usize,
    /// Reuse cache budget in bytes; 0 disables the cache.
    pub cache_bytes: usize,
    /// How long the dispatcher lingers after the first request to batch
    /// compatible ones.
    pub batch_window: Duration,
    /// Handler read-timeout; bounds how fast connections notice a drain.
    pub poll_interval: Duration,
    /// Hard cap on one request line (bytes, newline excluded); longer
    /// lines cost `ERR protocol` and are discarded.
    pub max_line_bytes: usize,
    /// How long a handler waits for its job's reply before giving up
    /// with `ERR internal`. Contained panics answer far faster; this
    /// only bounds a genuinely wedged engine.
    pub job_timeout: Duration,
    /// Socket write timeout, so a client that stops draining its
    /// receive buffer cannot wedge a handler mid-reply forever.
    pub write_timeout: Duration,
    /// Intra-variant shards for wide datasets; `0` or `1` keeps the
    /// engine's default variant-parallel placement. When `> 1`, every
    /// engine run opts in via [`RunRequest::sharding`] with this shard
    /// count and the default width gate, and the shard counters show up
    /// non-zero in `METRICS`.
    pub shards: usize,
    /// Warm-state store directory. When set, a graceful drain persists
    /// every dataset's prepared index and surviving cache entries as
    /// checksummed container files under this directory (see
    /// [`crate::store`]); boot with
    /// [`Server::start_with_store`] + [`crate::store::boot_from_store`]
    /// to restore them without rebuilding. `None` (the default) keeps
    /// the daemon fully in-memory.
    pub store_dir: Option<std::path::PathBuf>,
    /// Optional second bind address for the HTTP/1.1 gateway
    /// ([`crate::http`]). `None` (the default) serves the line protocol
    /// only; when set, both protocols run simultaneously against the
    /// same admission queue, dispatcher, cache, and counters.
    pub http_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            queue_cap: 256,
            cache_bytes: 64 << 20,
            batch_window: Duration::from_millis(2),
            poll_interval: Duration::from_millis(50),
            max_line_bytes: 8192,
            job_timeout: Duration::from_secs(600),
            write_timeout: Duration::from_secs(30),
            shards: 0,
            store_dir: None,
            http_addr: None,
        }
    }
}

/// Why a submit was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue full — try again later.
    Overloaded,
    /// Server is shutting down.
    Draining,
}

impl SubmitError {
    pub(crate) fn code(self) -> ErrorCode {
        match self {
            SubmitError::Overloaded => ErrorCode::Overloaded,
            SubmitError::Draining => ErrorCode::Draining,
        }
    }
}

/// One admitted unit of work. Both protocol surfaces (line and HTTP)
/// build the same `Job` and funnel it through [`Shared::submit`], so a
/// submission's journey — admission, batching, cache seeding, labeling
/// — is identical regardless of which wire it arrived on.
pub(crate) struct Job {
    pub(crate) dataset: String,
    pub(crate) variant: Variant,
    pub(crate) want_labels: bool,
    /// HTTP responses embed the full [`RunReport`] JSON; the line
    /// protocol never asks, so the render cost is paid only when an
    /// HTTP job is in the batch.
    pub(crate) want_report: bool,
    pub(crate) reply: mpsc::Sender<Result<JobDone, String>>,
}

/// A finished job, as the handler reports it to the client.
pub(crate) struct JobDone {
    pub(crate) clusters: usize,
    pub(crate) noise: usize,
    pub(crate) warm: bool,
    pub(crate) reused: bool,
    pub(crate) ms: f64,
    pub(crate) labels: Option<Vec<u32>>,
    /// The batch's `RunReport::to_json`, rendered once and shared by
    /// every job in the batch that asked for it.
    pub(crate) report_json: Option<Arc<str>>,
}

/// Service-level counters (the engine and cache keep their own).
///
/// Invariant, held at every instant the lock is free: `submitted ==
/// completed + failed + in_flight`. Admission increments `submitted`
/// and `in_flight` together; terminal accounting moves a job from
/// `in_flight` to exactly one of `completed`/`failed` under the same
/// lock.
///
/// A second invariant covers the streaming verbs: `appends ==
/// appends_applied + appends_rejected`. `APPEND` is synchronous (no
/// in-flight component) — the triple is bumped in a single lock
/// acquisition once the outcome is known, so the identity holds at
/// arbitrary observation points just like the admission one.
#[derive(Clone, Copy, Debug, Default)]
struct ServiceStats {
    submitted: u64,
    completed: u64,
    failed: u64,
    in_flight: u64,
    rejected_overloaded: u64,
    rejected_draining: u64,
    unknown_dataset: u64,
    bad_request: u64,
    protocol_errors: u64,
    batches: u64,
    max_batch: usize,
    engine_warm_hits: u64,
    engine_in_run_reused: u64,
    engine_scratch: u64,
    engine_busy: Duration,
    appends: u64,
    appends_applied: u64,
    appends_rejected: u64,
    append_points: u64,
    watches: u64,
    watch_deltas: u64,
    store_restored: u64,
    store_restore_failed: u64,
}

/// One live `WATCH` stream: an insertion-maintained clustering for a
/// `(dataset, variant)` pair, the bookkeeping needed to describe each
/// append as a cluster delta, and the subscribed connections.
///
/// Delta semantics: after a batch of `k` insertions the stream reports
/// `new` (clusters whose members were all noise or newly-appended
/// before the batch), `absorbed` (previously-distinct clusters merged
/// into a survivor), and `promoted` (points that crossed the core
/// threshold). The census replays: `clusters_before + new - absorbed ==
/// clusters_after`, which the streaming-equivalence suite checks over
/// the whole delta history.
struct WatchStream {
    dataset: String,
    variant: Variant,
    inc: IncrementalDbscan,
    /// Raw caller-order labels at the last snapshot.
    labels: Vec<u32>,
    /// Core flags at the last snapshot. Cluster correspondence is
    /// computed over *cores only*: a core never leaves its cluster
    /// (components only merge), while a border point may be re-claimed
    /// by a newly-promoted core of another cluster.
    core: Vec<bool>,
    clusters: usize,
    noise: usize,
    subscribers: Vec<mpsc::Sender<String>>,
}

pub(crate) struct Shared {
    engine: Engine,
    registry: Registry,
    cache: Mutex<DominanceCache>,
    cache_enabled: bool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_cap: usize,
    batch_window: Duration,
    poll_interval: Duration,
    max_line_bytes: usize,
    job_timeout: Duration,
    write_timeout: Duration,
    sharding: Option<Sharding>,
    draining: AtomicBool,
    stats: Mutex<ServiceStats>,
    metrics: Metrics,
    started: Instant,
    /// Serializes `APPEND`s (and `WATCH` registration, which must see a
    /// registry snapshot consistent with the watch streams). Never held
    /// while clustering a batch — `SUBMIT` traffic proceeds against its
    /// copy-on-write registry snapshot throughout an append.
    append_lock: Mutex<()>,
    /// Live `WATCH` streams. Locked after `append_lock`, never while
    /// holding the cache lock.
    watchers: Mutex<Vec<WatchStream>>,
    /// Warm-state store directory; `Some` makes a graceful drain
    /// persist every dataset + cache under it.
    store_dir: Option<std::path::PathBuf>,
}

impl Shared {
    /// Admission control: reject when draining or full, enqueue and wake
    /// the dispatcher otherwise.
    pub(crate) fn submit(&self, job: Job) -> Result<(), SubmitError> {
        if self.draining.load(Ordering::Acquire) {
            self.stats.lock().unwrap().rejected_draining += 1;
            return Err(SubmitError::Draining);
        }
        let mut q = self.queue.lock().unwrap();
        if q.len() >= self.queue_cap {
            drop(q);
            self.stats.lock().unwrap().rejected_overloaded += 1;
            return Err(SubmitError::Overloaded);
        }
        q.push_back(job);
        drop(q);
        {
            let mut s = self.stats.lock().unwrap();
            s.submitted += 1;
            s.in_flight += 1;
        }
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Moves `n` jobs from in-flight to a terminal counter; the single
    /// place the stats invariant is allowed to change on the exit side.
    fn account_terminal(&self, n: u64, failed: bool) {
        let mut s = self.stats.lock().unwrap();
        if failed {
            s.failed += n;
        } else {
            s.completed += n;
        }
        s.in_flight = s.in_flight.saturating_sub(n);
    }

    /// The registered datasets, shared by both protocol surfaces.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether a graceful drain has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Handler read-timeout (the stop-flag poll cadence).
    pub(crate) fn poll_interval(&self) -> Duration {
        self.poll_interval
    }

    /// How long a handler waits on a job reply before `internal`.
    pub(crate) fn job_timeout(&self) -> Duration {
        self.job_timeout
    }

    /// One framing violation (oversized line, invalid UTF-8, malformed
    /// HTTP head): counter + trace event, the same pair whichever
    /// protocol the bytes arrived on.
    pub(crate) fn note_protocol_error(&self) {
        self.stats.lock().unwrap().protocol_errors += 1;
        self.metrics.record_event(TraceEvent::ProtocolError);
    }

    /// A well-framed request that failed to parse (bad verb, bad JSON,
    /// out-of-range parameters).
    pub(crate) fn note_bad_request(&self) {
        self.stats.lock().unwrap().bad_request += 1;
    }

    /// A request named a dataset the registry does not hold.
    pub(crate) fn note_unknown_dataset(&self) {
        self.stats.lock().unwrap().unknown_dataset += 1;
    }

    /// Streaming ledger, applied side: `appends == appends_applied +
    /// appends_rejected` is bumped in one lock acquisition.
    pub(crate) fn note_append_applied(&self, outcome: &AppendOutcome) {
        let mut s = self.stats.lock().unwrap();
        s.appends += 1;
        s.appends_applied += 1;
        s.append_points += outcome.appended as u64;
        s.watch_deltas += outcome.deltas;
    }

    /// Streaming ledger, rejected side (draining pre-check, unknown
    /// dataset, or an invalid batch).
    pub(crate) fn note_append_rejected(&self, code: Option<ErrorCode>) {
        let mut s = self.stats.lock().unwrap();
        s.appends += 1;
        s.appends_rejected += 1;
        if code == Some(ErrorCode::UnknownDataset) {
            s.unknown_dataset += 1;
        }
    }

    pub(crate) fn stats_json(&self) -> String {
        let s = *self.stats.lock().unwrap();
        let cache = self.cache.lock().unwrap().stats();
        let mut datasets = variantdbscan::JsonArray::new();
        for (name, size) in self.registry.list() {
            datasets.push_raw(
                &JsonObject::new()
                    .str("name", &name)
                    .uint("points", size as u64)
                    .finish(),
            );
        }
        JsonObject::new()
            .uint("uptime_ms", self.started.elapsed().as_millis() as u64)
            .boolean("draining", self.draining.load(Ordering::Acquire))
            .uint("submitted", s.submitted)
            .uint("completed", s.completed)
            .uint("failed", s.failed)
            .uint("in_flight", s.in_flight)
            .uint("rejected_overloaded", s.rejected_overloaded)
            .uint("rejected_draining", s.rejected_draining)
            .uint("unknown_dataset", s.unknown_dataset)
            .uint("bad_request", s.bad_request)
            .uint("protocol_errors", s.protocol_errors)
            .uint("batches", s.batches)
            .uint("max_batch", s.max_batch as u64)
            .uint("reuse_hits", s.engine_warm_hits)
            .uint("in_run_reused", s.engine_in_run_reused)
            .uint("from_scratch", s.engine_scratch)
            .float("engine_busy_ms", s.engine_busy.as_secs_f64() * 1e3)
            .uint("appends", s.appends)
            .uint("appends_applied", s.appends_applied)
            .uint("appends_rejected", s.appends_rejected)
            .uint("append_points", s.append_points)
            .uint("watches", s.watches)
            .uint("watch_deltas", s.watch_deltas)
            .uint("store_restored", s.store_restored)
            .uint("store_restore_failed", s.store_restore_failed)
            .raw("cache", &cache.to_json())
            .raw("datasets", &datasets.finish())
            .finish()
    }

    /// Prometheus-style text exposition of the service counters, cache
    /// counters, and per-phase latency histograms, one metric per line.
    ///
    /// The service counters are rendered from a *single copy* of the same
    /// [`ServiceStats`] that [`Shared::stats_json`] serializes, taken
    /// under the stats lock — so the exposition can never structurally
    /// disagree with `STATS`, and the admission invariant (`submitted ==
    /// completed + failed + in_flight`) holds inside any one exposition.
    pub(crate) fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let s = *self.stats.lock().unwrap();
        let cache = self.cache.lock().unwrap().stats();
        let m = self.metrics.snapshot();
        let mut out = String::with_capacity(4096);
        let u = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        u(&mut out, "vbp_jobs_submitted_total", s.submitted);
        u(&mut out, "vbp_jobs_completed_total", s.completed);
        u(&mut out, "vbp_jobs_failed_total", s.failed);
        u(&mut out, "vbp_jobs_in_flight", s.in_flight);
        u(
            &mut out,
            "vbp_rejected_total{reason=\"overloaded\"}",
            s.rejected_overloaded,
        );
        u(
            &mut out,
            "vbp_rejected_total{reason=\"draining\"}",
            s.rejected_draining,
        );
        u(&mut out, "vbp_unknown_dataset_total", s.unknown_dataset);
        u(&mut out, "vbp_bad_request_total", s.bad_request);
        u(&mut out, "vbp_protocol_errors_total", s.protocol_errors);
        u(&mut out, "vbp_batches_total", s.batches);
        u(&mut out, "vbp_batch_max_jobs", s.max_batch as u64);
        u(&mut out, "vbp_reuse_hits_total", s.engine_warm_hits);
        u(&mut out, "vbp_in_run_reused_total", s.engine_in_run_reused);
        u(&mut out, "vbp_from_scratch_total", s.engine_scratch);
        let _ = writeln!(
            out,
            "vbp_engine_busy_seconds_total {:.6}",
            s.engine_busy.as_secs_f64()
        );
        u(&mut out, "vbp_cache_entries", cache.entries as u64);
        u(&mut out, "vbp_cache_bytes", cache.bytes as u64);
        u(
            &mut out,
            "vbp_cache_budget_bytes",
            cache.budget_bytes as u64,
        );
        u(&mut out, "vbp_cache_hits_total", cache.hits);
        u(&mut out, "vbp_cache_misses_total", cache.misses);
        u(&mut out, "vbp_cache_insertions_total", cache.insertions);
        u(&mut out, "vbp_cache_evictions_total", cache.evictions);
        u(
            &mut out,
            "vbp_cache_evicted_bytes_total",
            cache.evicted_bytes,
        );
        u(
            &mut out,
            "vbp_cache_rejected_oversize_total",
            cache.rejected_oversize,
        );
        u(&mut out, "vbp_cache_repaired_total", cache.repaired);
        u(
            &mut out,
            "vbp_cache_repair_dropped_total",
            cache.repair_dropped,
        );
        u(&mut out, "vbp_append_batches_total", s.appends);
        u(&mut out, "vbp_append_applied_total", s.appends_applied);
        u(&mut out, "vbp_append_rejected_total", s.appends_rejected);
        u(&mut out, "vbp_append_points_total", s.append_points);
        u(&mut out, "vbp_watch_subscriptions_total", s.watches);
        u(&mut out, "vbp_watch_deltas_total", s.watch_deltas);
        u(&mut out, "vbp_store_restored", s.store_restored);
        u(&mut out, "vbp_store_restore_failed", s.store_restore_failed);
        let (streams, subscribers) = {
            let w = self.watchers.lock().unwrap();
            (
                w.len(),
                w.iter().map(|s| s.subscribers.len()).sum::<usize>(),
            )
        };
        u(&mut out, "vbp_watch_streams", streams as u64);
        u(&mut out, "vbp_watch_subscribers", subscribers as u64);
        u(&mut out, "vbp_engine_runs_total", m.runs);
        u(
            &mut out,
            "vbp_engine_variants_completed_total",
            m.variants_completed,
        );
        u(
            &mut out,
            "vbp_engine_panics_contained_total",
            m.panics_contained,
        );
        u(&mut out, "vbp_events_recorded_total", m.events_recorded);
        u(&mut out, "vbp_shard_variants_total", m.sharded_variants);
        u(&mut out, "vbp_shard_tasks_total", m.shard_tasks);
        u(
            &mut out,
            "vbp_shard_border_points_total",
            m.shard_border_points,
        );
        u(
            &mut out,
            "vbp_shard_cross_unions_total",
            m.shard_cross_unions,
        );
        for (phase, hist) in m.phases.phases() {
            for (le, cum) in hist.cumulative_buckets() {
                if le == u64::MAX {
                    let _ = writeln!(
                        out,
                        "vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {cum}"
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"{le}\"}} {cum}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "vbp_phase_latency_ns_count{{phase=\"{phase}\"}} {}",
                hist.count()
            );
            let _ = writeln!(
                out,
                "vbp_phase_latency_ns_sum{{phase=\"{phase}\"}} {}",
                hist.sum_ns()
            );
        }
        out
    }
}

/// A running server. Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::shutdown`] (or send `SHUTDOWN` over the wire and
/// [`ServerHandle::wait`]).
pub struct Server;

/// Join/shutdown handle returned by [`Server::start`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    stop_accept: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    http_accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds, spawns the accept and dispatcher threads, and returns.
    pub fn start(
        engine: Engine,
        registry: Registry,
        config: ServiceConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::start_with_store(engine, registry, config, StoreBoot::default())
    }

    /// [`Server::start`] seeded with restored warm state — the entry
    /// point of a `--store` boot. `boot` carries what
    /// [`boot_from_store`](crate::store::boot_from_store) recovered:
    /// cache entries to pre-insert (each validated against the live
    /// registry before insertion — an entry whose label vector does not
    /// cover the registered index is silently skipped, which can only
    /// happen when a caller mixes a stale boot with a fresh registry)
    /// and the restore counters surfaced as `vbp_store_restored` /
    /// `vbp_store_restore_failed`.
    pub fn start_with_store(
        engine: Engine,
        registry: Registry,
        config: ServiceConfig,
        boot: StoreBoot,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let http_listener = match &config.http_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let mut cache = DominanceCache::new(config.cache_bytes);
        if config.cache_bytes > 0 {
            for (dataset, variant, result) in boot.cache_seed {
                let valid = registry
                    .get(&dataset)
                    .is_some_and(|e| e.index.len() == result.len());
                if valid {
                    cache.insert(&dataset, variant, result);
                }
            }
        }
        let stats = ServiceStats {
            store_restored: boot.restored,
            store_restore_failed: boot.restore_failed,
            ..ServiceStats::default()
        };
        let shared = Arc::new(Shared {
            engine,
            registry,
            cache: Mutex::new(cache),
            cache_enabled: config.cache_bytes > 0,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            batch_window: config.batch_window,
            poll_interval: config.poll_interval,
            max_line_bytes: config.max_line_bytes,
            job_timeout: config.job_timeout,
            write_timeout: config.write_timeout,
            sharding: (config.shards > 1).then(|| Sharding::new(config.shards)),
            draining: AtomicBool::new(false),
            stats: Mutex::new(stats),
            metrics: Metrics::new(),
            started: Instant::now(),
            append_lock: Mutex::new(()),
            watchers: Mutex::new(Vec::new()),
            store_dir: config.store_dir,
        });
        let stop_accept = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vbp-dispatch".into())
                .spawn(move || dispatcher_loop(&shared))?
        };
        let accept = spawn_accept_loop(
            listener,
            Arc::clone(&shared),
            Arc::clone(&stop_accept),
            Arc::clone(&handlers),
            false,
        )?;
        let (http_addr, http_accept) = match http_listener {
            Some(listener) => {
                let addr = listener.local_addr()?;
                let accept = spawn_accept_loop(
                    listener,
                    Arc::clone(&shared),
                    Arc::clone(&stop_accept),
                    Arc::clone(&handlers),
                    true,
                )?;
                (Some(addr), Some(accept))
            }
            None => (None, None),
        };

        Ok(ServerHandle {
            local_addr,
            http_addr,
            shared,
            stop_accept,
            accept: Some(accept),
            http_accept,
            dispatcher: Some(dispatcher),
            handlers,
        })
    }
}

/// Spawns one accept loop. Every accepted socket gets its own handler
/// thread — the line-protocol handler or the HTTP gateway's, selected
/// by `http` — against the *same* shared state: both listeners feed one
/// admission queue, one dispatcher, one cache, one set of counters.
fn spawn_accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    http: bool,
) -> std::io::Result<JoinHandle<()>> {
    let accept_name = if http {
        "vbp-http-accept"
    } else {
        "vbp-accept"
    };
    let conn_name = if http { "vbp-http-conn" } else { "vbp-conn" };
    std::thread::Builder::new()
        .name(accept_name.into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(shared.write_timeout));
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let handle = std::thread::Builder::new()
                    .name(conn_name.into())
                    .spawn(move || {
                        let transport = TcpTransport::new(stream);
                        if http {
                            crate::http::handle_http_connection(transport, &shared, &stop);
                        } else {
                            handle_connection(transport, &shared, &stop);
                        }
                    });
                let mut hs = handlers.lock().unwrap();
                // Reap finished handlers so the registry stays
                // proportional to *live* connections instead of
                // growing for the daemon's lifetime.
                let mut i = 0;
                while i < hs.len() {
                    if hs[i].is_finished() {
                        let _ = hs.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                if let Ok(h) = handle {
                    hs.push(h);
                }
            }
        })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP gateway's bound address (resolves port 0), or `None`
    /// when [`ServiceConfig::http_addr`] was not set.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Runs the full connection-handler loop over an arbitrary
    /// [`Transport`] — the fault-injection entry point. The returned
    /// thread is *not* in the accept loop's registry; the caller owns
    /// the join. It observes the same shared state (queue, cache,
    /// stats, stop flag) as socket-accepted connections.
    pub fn serve_transport<T: Transport + 'static>(&self, transport: T) -> JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_accept);
        std::thread::Builder::new()
            .name("vbp-conn-test".into())
            .spawn(move || handle_connection(transport, &shared, &stop))
            .expect("spawn transport handler")
    }

    /// [`Self::serve_transport`]'s HTTP twin: runs the HTTP gateway's
    /// connection handler over an arbitrary [`Transport`], against the
    /// same shared state as socket-accepted connections.
    pub fn serve_http_transport<T: Transport + 'static>(&self, transport: T) -> JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop_accept);
        std::thread::Builder::new()
            .name("vbp-http-conn-test".into())
            .spawn(move || crate::http::handle_http_connection(transport, &shared, &stop))
            .expect("spawn http transport handler")
    }

    /// Begins a graceful drain (idempotent): stop admitting, finish
    /// what's queued, wake the accept loop.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        self.stop_accept.store(true, Ordering::Release);
        // Wake the blocking accept()s with throwaway connections.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Waits for every server thread to finish. Only returns once a
    /// drain has started (via [`Self::begin_shutdown`] or a `SHUTDOWN`
    /// request) and completed.
    pub fn wait(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Dispatcher exit implies draining; make sure the accepts wake
        // too.
        self.stop_accept.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.http_accept.take() {
            let _ = h.join();
        }
        // Any job enqueued in the shutdown race has no dispatcher left;
        // dropping it disconnects the reply channel (the handler answers
        // `ERR draining`) and must still reach a terminal counter, or
        // the stats invariant would leak phantom in-flight jobs.
        let dropped = {
            let mut q = self.shared.queue.lock().unwrap();
            q.drain(..).count() as u64
        };
        if dropped > 0 {
            self.shared.account_terminal(dropped, true);
        }
        let handlers: Vec<_> = self.handlers.lock().unwrap().drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        // Every thread is joined: the registry, cache, and indexes are
        // quiescent. Persist the warm state now (covers both the wire
        // `SHUTDOWN` and a handle-initiated drain — both funnel through
        // this join). Persistence failures are logged, never fatal: the
        // daemon is exiting either way, and a partial store only costs
        // the next boot a cold rebuild of the affected datasets.
        if let Some(dir) = self.shared.store_dir.clone() {
            self.persist_store(&dir);
        }
    }

    /// Writes every dataset + its cache entries under `dir`. Only
    /// sound at quiescence (all server threads joined), which
    /// [`ServerHandle::wait`] guarantees.
    fn persist_store(&self, dir: &std::path::Path) {
        let cache_entries = self.shared.cache.lock().unwrap().snapshot_entries();
        match crate::store::persist_all(dir, &self.shared.registry, &cache_entries) {
            Ok(n) => eprintln!("vbp-store: persisted {n} dataset(s) to {}", dir.display()),
            Err(e) => eprintln!(
                "vbp-store: failed to persist warm state to {}: {e}",
                dir.display()
            ),
        }
    }

    /// Convenience: [`Self::begin_shutdown`] + [`Self::wait`].
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        self.wait();
    }

    /// Current service counters as one JSON line (same payload as the
    /// `STATS` wire command).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Prometheus-style text exposition (same payload as the `METRICS`
    /// wire command's continuation lines). Rendered from the same
    /// counters as [`Self::stats_json`], so the two always agree.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Runs the dominance cache's structural self-check
    /// ([`DominanceCache::check_invariants`]) — the chaos suite calls
    /// this after every fault schedule.
    pub fn cache_invariants(&self) -> Result<(), String> {
        self.shared.cache.lock().unwrap().check_invariants()
    }

    /// Counter-neutral snapshot of the cache's live entries — the
    /// streaming-equivalence suite audits every surviving entry against
    /// the mutated dataset after each append.
    pub fn cache_entries(&self) -> Vec<(String, Variant, Arc<ClusterResult>)> {
        self.shared.cache.lock().unwrap().snapshot_entries()
    }

    /// Current caller-order points of a registered dataset (the latest
    /// copy-on-write snapshot), or `None` when unknown.
    pub fn dataset_points(&self, name: &str) -> Option<Vec<Point2>> {
        self.shared.registry.get(name).map(|e| e.points.clone())
    }
}

/// Dispatcher: pop → linger one batch window → drain same-dataset queue
/// entries → one engine run. Exits once draining *and* empty.
fn dispatcher_loop(shared: &Shared) {
    loop {
        let first = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        if !shared.batch_window.is_zero() && !shared.draining.load(Ordering::Acquire) {
            std::thread::sleep(shared.batch_window);
        }
        let mut batch = vec![first];
        {
            let mut q = shared.queue.lock().unwrap();
            let mut rest = VecDeque::with_capacity(q.len());
            while let Some(job) = q.pop_front() {
                if job.dataset == batch[0].dataset {
                    batch.push(job);
                } else {
                    rest.push_back(job);
                }
            }
            *q = rest;
        }
        run_batch(shared, batch);
    }
}

/// Executes one same-dataset batch and answers every job in it. Every
/// job reaches exactly one terminal counter before its reply is sent.
fn run_batch(shared: &Shared, batch: Vec<Job>) {
    let Some(entry) = shared.registry.get(&batch[0].dataset) else {
        // Handlers validate the dataset before enqueueing; this is a
        // belt-and-braces path, not an expected one.
        shared.account_terminal(batch.len() as u64, true);
        for job in batch {
            let _ = job
                .reply
                .send(Err(format!("dataset '{}' disappeared", job.dataset)));
        }
        return;
    };

    // Unique variants of the batch, in canonical order.
    let mut unique: Vec<Variant> = Vec::new();
    for job in &batch {
        if !unique.contains(&job.variant) {
            unique.push(job.variant);
        }
    }
    let variants = VariantSet::new(unique.clone());

    // Seed from the cache: one warm source per distinct best hit.
    let mut warm: Vec<WarmSource> = Vec::new();
    if shared.cache_enabled {
        let mut hits = 0u32;
        {
            let mut cache = shared.cache.lock().unwrap();
            for &v in variants.as_slice() {
                if let Some(hit) = cache.lookup(&entry.name, entry.index.len(), v) {
                    hits += 1;
                    if !warm.iter().any(|w| w.variant == hit.variant) {
                        warm.push(WarmSource {
                            variant: hit.variant,
                            result: hit.result,
                        });
                    }
                }
            }
        }
        for _ in 0..hits {
            shared.metrics.record_event(TraceEvent::CacheHit);
        }
    }

    let t0 = Instant::now();
    let mut request = RunRequest::prepared(&entry.index, &variants).warm(&warm);
    if let Some(policy) = shared.sharding {
        request = request.sharding(policy);
    }
    let report = match shared.engine.execute(&request) {
        Ok(report) => report,
        Err(EngineError::JobPanic(panic)) => {
            shared.metrics.observe_panic();
            if variants.len() == 1 {
                // The poisoned variant is isolated: fail exactly these
                // jobs with a typed message, keep the dispatcher alive.
                shared.account_terminal(batch.len() as u64, true);
                let msg = panic.to_string();
                for job in batch {
                    let _ = job.reply.send(Err(msg.clone()));
                }
            } else {
                // A multi-variant batch failed as a unit — the engine
                // cannot say which peers would have succeeded. Retry
                // each distinct variant as its own single-variant batch
                // so only the genuinely poisoned jobs fail.
                let mut groups: Vec<(Variant, Vec<Job>)> = Vec::new();
                for job in batch {
                    match groups.iter_mut().find(|(v, _)| *v == job.variant) {
                        Some((_, group)) => group.push(job),
                        None => groups.push((job.variant, vec![job])),
                    }
                }
                for (_, group) in groups {
                    run_batch(shared, group);
                }
            }
            return;
        }
        Err(other) => {
            // Prepared input is finite by construction and warm sources
            // come from the same index, so this arm is unreachable in
            // practice — but a typed error must still terminate every job.
            shared.account_terminal(batch.len() as u64, true);
            let msg = other.to_string();
            for job in batch {
                let _ = job.reply.send(Err(msg.clone()));
            }
            return;
        }
    };
    let busy = t0.elapsed();
    shared.metrics.observe_run(&report);

    if shared.cache_enabled {
        let evicted = {
            let mut cache = shared.cache.lock().unwrap();
            // Insert only while this batch's snapshot is still current:
            // the registry read happens *under the cache lock*, the same
            // lock `APPEND`'s repair pass holds, so a stale-generation
            // result can never slip in behind the repair sweep.
            let current = shared
                .registry
                .get(&entry.name)
                .is_some_and(|e| e.index.len() == entry.index.len());
            let before = cache.stats().evictions;
            if current {
                for (i, &v) in variants.as_slice().iter().enumerate() {
                    cache.insert(&entry.name, v, Arc::clone(&report.results[i]));
                }
            }
            cache.stats().evictions - before
        };
        if evicted > 0 {
            shared.metrics.record_event(TraceEvent::CacheEvicted {
                entries: u32::try_from(evicted).unwrap_or(u32::MAX),
            });
        }
    }

    {
        let mut s = shared.stats.lock().unwrap();
        s.batches += 1;
        s.max_batch = s.max_batch.max(batch.len());
        s.engine_warm_hits += report.warm_hits() as u64;
        s.engine_scratch += report.from_scratch_count() as u64;
        s.engine_in_run_reused += report
            .outcomes
            .iter()
            .filter(|o| o.reused_from().is_some() && !o.warm)
            .count() as u64;
        s.engine_busy += busy;
        s.completed += batch.len() as u64;
        s.in_flight = s.in_flight.saturating_sub(batch.len() as u64);
    }

    let ms = busy.as_secs_f64() * 1e3;
    // Rendered once per batch, only when an HTTP job asked for it; the
    // line protocol never pays for the report serialization.
    let report_json: Option<Arc<str>> = batch
        .iter()
        .any(|j| j.want_report)
        .then(|| Arc::from(report.to_json()));
    for job in batch {
        let i = variants
            .as_slice()
            .iter()
            .position(|v| *v == job.variant)
            .expect("job variant is in the batch set");
        let outcome = &report.outcomes[i];
        let labels = job
            .want_labels
            .then(|| entry.index.labels_in_caller_order(&report.results[i]));
        let report_json = if job.want_report {
            report_json.as_ref().map(Arc::clone)
        } else {
            None
        };
        let _ = job.reply.send(Ok(JobDone {
            clusters: outcome.clusters,
            noise: outcome.noise,
            warm: outcome.warm,
            reused: outcome.reused_from().is_some(),
            ms,
            labels,
            report_json,
        }));
    }
}

/// What one applied `APPEND` did, as reported on the wire.
pub(crate) struct AppendOutcome {
    pub(crate) appended: usize,
    pub(crate) total: usize,
    pub(crate) repaired: usize,
    pub(crate) dropped: usize,
    pub(crate) deltas: u64,
    pub(crate) ms: f64,
}

/// Applies one `APPEND` batch end to end, under the append lock:
/// incremental index maintenance, copy-on-write registry swap, cache
/// repair, and watch-stream deltas. Returns a typed rejection without
/// having mutated anything when the batch is unusable — a torn or
/// invalid `APPEND` must leave the dataset at its pre-append snapshot.
pub(crate) fn apply_append(
    shared: &Shared,
    dataset: &str,
    points: &[Point2],
) -> Result<AppendOutcome, (ErrorCode, String)> {
    let _guard = shared.append_lock.lock().unwrap();
    let Some(old_entry) = shared.registry.get(dataset) else {
        return Err((
            ErrorCode::UnknownDataset,
            format!("dataset '{dataset}' is not registered"),
        ));
    };
    let t0 = Instant::now();
    let (index, report) = shared
        .engine
        .append_to_prepared(&old_entry.index, points)
        .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;

    // Swap the registry *before* repairing the cache: any in-flight
    // batch that tries to insert an old-generation result after this
    // point sees a length mismatch (checked under the cache lock) and
    // skips; anything inserted before is swept by the repair below.
    let mut all_points = old_entry.points.clone();
    all_points.extend_from_slice(points);
    let entry = Arc::new(DatasetEntry {
        name: old_entry.name.clone(),
        points: all_points,
        index,
        suggested_eps: old_entry.suggested_eps,
    });
    shared.registry.swap(Arc::clone(&entry));

    let repair = repair_cache(shared, &old_entry, &entry, points);
    let deltas = notify_watchers(shared, dataset, points);

    shared
        .metrics
        .observe_append(points.len() as u32, report.total as u32);
    shared
        .metrics
        .observe_cache_repair(0, repair.dropped as u32, repair.repaired as u32);
    Ok(AppendOutcome {
        appended: points.len(),
        total: report.total,
        repaired: repair.repaired,
        dropped: repair.dropped,
        deltas,
        ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Incremental [`DominanceCache`] repair after an append: each cached
/// entry for the dataset is either *extended* (when the insertion
/// provably cannot have changed any old label) or *dropped* (when its
/// ε-region was touched, or it belongs to an older generation).
///
/// The untouched test is exact, not heuristic: an entry at variant `v`
/// is untouched iff no inserted point has a pre-append point within
/// `v.eps`. Then every old point keeps its ε-neighborhood, hence its
/// count, core status, and label; the inserted points cluster purely
/// among themselves and are spliced on with offset cluster ids.
fn repair_cache(
    shared: &Shared,
    old_entry: &DatasetEntry,
    entry: &DatasetEntry,
    appended: &[Point2],
) -> RepairStats {
    if !shared.cache_enabled {
        return RepairStats::default();
    }
    let old_n = old_entry.points.len();
    // The successor's packed tree answers ε-queries in tree order; its
    // permutation maps a hit to its caller id, and caller ids below
    // `old_n` are the pre-append points.
    let tree = entry.index.t_low();
    let perm = entry.index.permutation();
    let mut neighbors: Vec<vbp_geom::PointId> = Vec::new();
    let mut cache = shared.cache.lock().unwrap();
    cache.maintain_after_append(&entry.name, |variant, result| {
        if result.len() != old_n {
            // An older generation (raced a previous append's sweep);
            // nothing to extend it from.
            return None;
        }
        for &p in appended {
            neighbors.clear();
            tree.epsilon_neighbors(p, variant.eps, &mut neighbors);
            if neighbors
                .iter()
                .any(|&q| (perm[q as usize] as usize) < old_n)
            {
                return None; // ε-region touched: old labels may shift
            }
        }
        // Untouched: splice. Old labels come out in caller order via the
        // *old* permutation, the appended points are clustered alone and
        // offset past the old cluster ids, and the combined caller-order
        // labeling is mapped into the successor index's tree order.
        let old_caller = old_entry.index.labels_in_caller_order(result);
        let offset = result.num_clusters() as u32;
        let tail = dbscan_brute_force(appended, DbscanParams::new(variant.eps, variant.minpts));
        let mut caller: Vec<u32> = old_caller;
        caller.extend(tail.labels().iter_raw().map(|l| {
            if l <= MAX_CLUSTER_ID {
                l + offset
            } else {
                l // noise / unclassified sentinels pass through
            }
        }));
        let tree: Vec<u32> = entry
            .index
            .permutation()
            .iter()
            .map(|&orig| caller[orig as usize])
            .collect();
        Some(Arc::new(ClusterResult::from_labels(Labels::from_raw(tree))))
    })
}

/// Feeds an applied append batch to every watch stream of `dataset`,
/// broadcasting one `DELTA` line per subscriber, and prunes dead
/// subscribers and empty streams. Returns the number of delta lines
/// actually delivered.
fn notify_watchers(shared: &Shared, dataset: &str, appended: &[Point2]) -> u64 {
    let mut watchers = shared.watchers.lock().unwrap();
    let mut delivered = 0u64;
    for stream in watchers.iter_mut().filter(|s| s.dataset == dataset) {
        let mut promoted = 0usize;
        for &p in appended {
            promoted += stream.inc.insert(p).newly_core.len();
        }
        let snapshot = stream.inc.snapshot();
        let labels: Vec<u32> = snapshot.labels().iter_raw().collect();
        let core: Vec<bool> = (0..labels.len())
            .map(|p| stream.inc.is_core(p as u32))
            .collect();
        let (born, absorbed) = delta_counts(
            &stream.labels,
            &stream.core,
            &labels,
            snapshot.num_clusters(),
        );
        let clusters = snapshot.num_clusters();
        let noise = snapshot.noise_count();
        debug_assert_eq!(stream.clusters + born - absorbed, clusters);
        let line = format!(
            "DELTA {} {} {} appended={} new={} absorbed={} promoted={} clusters={} noise={}",
            stream.dataset,
            stream.variant.eps,
            stream.variant.minpts,
            appended.len(),
            born,
            absorbed,
            promoted,
            clusters,
            noise
        );
        stream.labels = labels;
        stream.core = core;
        stream.clusters = clusters;
        stream.noise = noise;
        stream
            .subscribers
            .retain(|tx| tx.send(line.clone()).is_ok());
        delivered += stream.subscribers.len() as u64;
    }
    watchers.retain(|s| !s.subscribers.is_empty());
    if delivered > 0 {
        shared.metrics.observe_watch_deltas(delivered);
    }
    delivered
}

/// Cluster-delta census between two snapshots of an insertion-only
/// clustering: `(born, absorbed)` such that `clusters_before + born -
/// absorbed == clusters_after`.
///
/// Correspondence is computed over points that were *core before* —
/// cores never leave their cluster under insertion (components only
/// merge), while border points may be re-claimed across clusters, which
/// would double-count a cluster as both surviving and absorbed.
fn delta_counts(
    before: &[u32],
    core_before: &[bool],
    after: &[u32],
    clusters_after: usize,
) -> (usize, usize) {
    use std::collections::BTreeSet;
    let mut sources: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); clusters_after];
    for p in 0..before.len() {
        if core_before[p] && before[p] <= MAX_CLUSTER_ID {
            let a = after[p];
            debug_assert!(a <= MAX_CLUSTER_ID, "a core point cannot become noise");
            sources[a as usize].insert(before[p]);
        }
    }
    let born = sources.iter().filter(|s| s.is_empty()).count();
    let absorbed = sources
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() - 1)
        .sum();
    (born, absorbed)
}

/// Per-connection request loop over any [`Transport`], with bounded
/// line framing. Framing violations cost one `ERR protocol` each and
/// resynchronize; only EOF, a fatal I/O error, `QUIT`, or the stop flag
/// end the loop.
fn handle_connection<T: Transport>(mut transport: T, shared: &Shared, stop: &AtomicBool) {
    let _ = transport.set_read_timeout(Some(shared.poll_interval));
    let mut io = LineIo::new(transport, shared.max_line_bytes);
    // `WATCH` subscriptions this connection holds: `DELTA` pushes are
    // drained between request/response exchanges and at every
    // read-timeout poll, never inside an exchange. Dropping the
    // receivers on exit is the unsubscribe — the next broadcast prunes
    // the dead sender.
    let mut watches: Vec<mpsc::Receiver<String>> = Vec::new();
    loop {
        match io.next_event() {
            Ok(LineEvent::Line(line)) => {
                if respond(line.trim(), shared, &mut io, &mut watches).is_err() {
                    break;
                }
                if drain_watches(&mut io, &mut watches).is_err() {
                    break;
                }
            }
            Ok(LineEvent::Overflow) => {
                shared.note_protocol_error();
                let reply = err_line(
                    ErrorCode::Protocol,
                    &format!("line exceeds {} bytes", shared.max_line_bytes),
                );
                if io.send_line(&reply).is_err() {
                    break;
                }
            }
            Ok(LineEvent::InvalidUtf8) => {
                shared.note_protocol_error();
                if io
                    .send_line(&err_line(ErrorCode::Protocol, "line is not valid UTF-8"))
                    .is_err()
                {
                    break;
                }
            }
            Ok(LineEvent::Timeout) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if drain_watches(&mut io, &mut watches).is_err() {
                    break;
                }
            }
            Ok(LineEvent::Eof) | Err(_) => break,
        }
    }
    io.transport_mut().close();
}

/// Flushes every pending `DELTA` push to the wire; drops receivers
/// whose stream has been pruned server-side.
fn drain_watches<T: Transport>(
    io: &mut LineIo<T>,
    watches: &mut Vec<mpsc::Receiver<String>>,
) -> Result<(), ()> {
    let mut i = 0;
    'streams: while i < watches.len() {
        loop {
            match watches[i].try_recv() {
                Ok(line) => send_line(io, &line)?,
                Err(mpsc::TryRecvError::Empty) => {
                    i += 1;
                    continue 'streams;
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    watches.swap_remove(i);
                    continue 'streams;
                }
            }
        }
    }
    Ok(())
}

/// Handles one request line; `Err(())` means "close this connection".
fn respond<T: Transport>(
    line: &str,
    shared: &Shared,
    io: &mut LineIo<T>,
    watches: &mut Vec<mpsc::Receiver<String>>,
) -> Result<(), ()> {
    if line.is_empty() {
        return Ok(());
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.note_bad_request();
            return send_line(io, &err_line(ErrorCode::BadRequest, &msg));
        }
    };
    match request {
        Request::Hello => send_line(io, &format!("OK vbp-service {PROTOCOL_VERSION}")),
        Request::Quit => {
            let _ = send_line(io, "OK bye");
            Err(())
        }
        Request::Datasets => {
            let mut out = String::from("OK");
            for (name, size) in shared.registry.list() {
                out.push_str(&format!(" {name}={size}"));
            }
            send_line(io, &out)
        }
        Request::Stats => send_line(io, &format!("OK {}", shared.stats_json())),
        Request::Metrics => {
            // `OK <n>` followed by exactly `n` continuation lines: the
            // client (and the protocol fuzzer) can frame the exposition
            // without sniffing line shapes.
            let text = shared.metrics_text();
            let lines: Vec<&str> = text.lines().collect();
            send_line(io, &format!("OK {}", lines.len()))?;
            for l in lines {
                send_line(io, l)?;
            }
            Ok(())
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::Release);
            shared.queue_cv.notify_all();
            send_line(io, "OK draining")
        }
        Request::Submit {
            dataset,
            eps,
            minpts,
            labels,
        } => {
            if shared.registry.get(&dataset).is_none() {
                shared.note_unknown_dataset();
                return send_line(
                    io,
                    &err_line(
                        ErrorCode::UnknownDataset,
                        &format!("dataset '{dataset}' is not registered"),
                    ),
                );
            }
            let (tx, rx) = mpsc::channel();
            let job = Job {
                dataset,
                variant: Variant::new(eps, minpts),
                want_labels: labels,
                want_report: false,
                reply: tx,
            };
            if let Err(e) = shared.submit(job) {
                let msg = match e {
                    // The `retry-after=N` token is the line protocol's
                    // spelling of HTTP's `Retry-After` header; clients
                    // parse it into the typed backoff hint.
                    SubmitError::Overloaded => "retry-after=1 queue full",
                    SubmitError::Draining => "server is shutting down",
                };
                return send_line(io, &err_line(e.code(), msg));
            }
            // The dispatcher drains the queue before exiting, and panic
            // containment turns a crashing job into a prompt typed
            // failure — the timeout only guards a genuinely wedged
            // engine (the job stays in-flight in that case, which is
            // what the counters honestly say).
            match rx.recv_timeout(shared.job_timeout) {
                Ok(Ok(done)) => {
                    let head = format!(
                        "OK clusters={} noise={} warm={} reused={} ms={:.3}",
                        done.clusters,
                        done.noise,
                        u8::from(done.warm),
                        u8::from(done.reused),
                        done.ms
                    );
                    send_line(io, &head)?;
                    if let Some(labels) = done.labels {
                        let mut out = String::with_capacity(labels.len() * 7 + 16);
                        out.push_str(&format!("LABELS {}", labels.len()));
                        for l in labels {
                            out.push_str(&format!(" {l}"));
                        }
                        send_line(io, &out)?;
                    }
                    Ok(())
                }
                Ok(Err(msg)) => send_line(io, &err_line(ErrorCode::Internal, &msg)),
                Err(mpsc::RecvTimeoutError::Timeout) => send_line(
                    io,
                    &err_line(ErrorCode::Internal, "job timed out in the engine"),
                ),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Reply channel died: the server drained underneath us.
                    send_line(
                        io,
                        &err_line(ErrorCode::Draining, "request dropped during shutdown"),
                    )
                }
            }
        }
        Request::Append { dataset, points } => {
            if shared.is_draining() {
                shared.note_append_rejected(None);
                return send_line(
                    io,
                    &err_line(ErrorCode::Draining, "server is shutting down"),
                );
            }
            match apply_append(shared, &dataset, &points) {
                Ok(outcome) => {
                    shared.note_append_applied(&outcome);
                    send_line(
                        io,
                        &format!(
                            "OK appended={} total={} repaired={} dropped={} ms={:.3}",
                            outcome.appended,
                            outcome.total,
                            outcome.repaired,
                            outcome.dropped,
                            outcome.ms
                        ),
                    )
                }
                Err((code, msg)) => {
                    shared.note_append_rejected(Some(code));
                    send_line(io, &err_line(code, &msg))
                }
            }
        }
        Request::Watch {
            dataset,
            eps,
            minpts,
        } => {
            if shared.draining.load(Ordering::Acquire) {
                return send_line(
                    io,
                    &err_line(ErrorCode::Draining, "server is shutting down"),
                );
            }
            // The append lock keeps the registry snapshot and the new
            // stream's replayed state consistent: no append can land
            // between reading the points and registering the stream.
            let guard = shared.append_lock.lock().unwrap();
            let Some(entry) = shared.registry.get(&dataset) else {
                drop(guard);
                shared.note_unknown_dataset();
                return send_line(
                    io,
                    &err_line(
                        ErrorCode::UnknownDataset,
                        &format!("dataset '{dataset}' is not registered"),
                    ),
                );
            };
            let variant = Variant::new(eps, minpts);
            let (tx, rx) = mpsc::channel();
            let (clusters, noise) = {
                let mut watchers = shared.watchers.lock().unwrap();
                match watchers
                    .iter_mut()
                    .find(|s| s.dataset == dataset && s.variant == variant)
                {
                    Some(stream) => {
                        stream.subscribers.push(tx);
                        (stream.clusters, stream.noise)
                    }
                    None => {
                        let mut inc = IncrementalDbscan::new(DbscanParams::new(eps, minpts));
                        for &p in &entry.points {
                            inc.insert(p);
                        }
                        let snapshot = inc.snapshot();
                        let labels: Vec<u32> = snapshot.labels().iter_raw().collect();
                        let core = (0..labels.len()).map(|p| inc.is_core(p as u32)).collect();
                        let census = (snapshot.num_clusters(), snapshot.noise_count());
                        watchers.push(WatchStream {
                            dataset: dataset.clone(),
                            variant,
                            inc,
                            labels,
                            core,
                            clusters: census.0,
                            noise: census.1,
                            subscribers: vec![tx],
                        });
                        census
                    }
                }
            };
            drop(guard);
            shared.stats.lock().unwrap().watches += 1;
            watches.push(rx);
            send_line(
                io,
                &format!("OK watching {dataset} {eps} {minpts} clusters={clusters} noise={noise}"),
            )
        }
    }
}

fn send_line<T: Transport>(io: &mut LineIo<T>, line: &str) -> Result<(), ()> {
    io.send_line(line).map_err(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{MemTransport, Step};
    use variantdbscan::EngineConfig;

    fn tiny_server(queue_cap: usize, cache_bytes: usize) -> ServerHandle {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let registry = Registry::new();
        registry.load(&engine, "cF_10k_5N@300").unwrap();
        Server::start(
            engine,
            registry,
            ServiceConfig {
                queue_cap,
                cache_bytes,
                batch_window: Duration::ZERO,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    /// A `Shared` with no threads attached: admission control can be
    /// unit-tested without racing a live dispatcher.
    fn bare_shared(queue_cap: usize) -> Shared {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        Shared {
            engine,
            registry: Registry::new(),
            cache: Mutex::new(DominanceCache::new(0)),
            cache_enabled: false,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_cap,
            batch_window: Duration::ZERO,
            poll_interval: Duration::from_millis(10),
            max_line_bytes: 256,
            job_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            sharding: None,
            draining: AtomicBool::new(false),
            stats: Mutex::new(ServiceStats::default()),
            metrics: Metrics::new(),
            started: Instant::now(),
            append_lock: Mutex::new(()),
            watchers: Mutex::new(Vec::new()),
            store_dir: None,
        }
    }

    fn dummy_job() -> Job {
        let (tx, rx) = mpsc::channel();
        std::mem::forget(rx);
        Job {
            dataset: "d".into(),
            variant: Variant::new(1.0, 4),
            want_labels: false,
            want_report: false,
            reply: tx,
        }
    }

    #[test]
    fn draining_rejects_new_submits_at_admission() {
        let shared = bare_shared(4);
        shared.draining.store(true, Ordering::Release);
        assert_eq!(
            shared.submit(dummy_job()).unwrap_err(),
            SubmitError::Draining
        );
        assert_eq!(shared.stats.lock().unwrap().rejected_draining, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let shared = bare_shared(2);
        shared.submit(dummy_job()).unwrap();
        shared.submit(dummy_job()).unwrap();
        assert_eq!(
            shared.submit(dummy_job()).unwrap_err(),
            SubmitError::Overloaded
        );
        let s = *shared.stats.lock().unwrap();
        assert_eq!((s.submitted, s.rejected_overloaded), (2, 1));
        assert_eq!(s.in_flight, 2, "admitted jobs are in flight");
    }

    #[test]
    fn terminal_accounting_preserves_the_stats_invariant() {
        let shared = bare_shared(8);
        for _ in 0..5 {
            shared.submit(dummy_job()).unwrap();
        }
        shared.account_terminal(2, false);
        shared.account_terminal(1, true);
        let s = *shared.stats.lock().unwrap();
        assert_eq!(
            (s.submitted, s.completed, s.failed, s.in_flight),
            (5, 2, 1, 2)
        );
        assert_eq!(s.submitted, s.completed + s.failed + s.in_flight);
    }

    #[test]
    fn stats_json_is_one_well_formed_line() {
        let mut handle = tiny_server(4, 1 << 20);
        let json = handle.stats_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"reuse_hits\":0"));
        assert!(json.contains("\"in_flight\":0"));
        assert!(json.contains("\"protocol_errors\":0"));
        assert!(json.contains("\"cache\":{"));
        assert!(json.contains("\"datasets\":[{\"name\":\"cF_10k_5N@300\""));
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_empty_queue_joins_quickly() {
        let mut handle = tiny_server(4, 0);
        let t0 = Instant::now();
        handle.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn scripted_transport_drives_the_real_handler() {
        let handle = tiny_server(4, 0);
        let (mem, out) = MemTransport::new(vec![
            Step::Recv(b"HELLO\nNOPE\n".to_vec()),
            Step::Idle,
            Step::Recv(b"QUIT\n".to_vec()),
        ]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], &format!("OK vbp-service {PROTOCOL_VERSION}"));
        assert!(lines[1].starts_with("ERR bad-request"), "{text}");
        assert_eq!(lines[2], "OK bye");
        let mut handle = handle;
        handle.shutdown();
    }

    /// Parses `name value` out of a metrics exposition; panics when the
    /// metric is absent (tests want missing metrics loud).
    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("metric '{name}' missing"))
            .parse()
            .unwrap_or_else(|_| panic!("metric '{name}' is not a u64"))
    }

    #[test]
    fn metrics_text_agrees_with_stats_and_holds_the_invariant() {
        let shared = bare_shared(8);
        for _ in 0..5 {
            shared.submit(dummy_job()).unwrap();
        }
        shared.account_terminal(2, false);
        shared.account_terminal(1, true);
        let text = shared.metrics_text();
        let (sub, done, failed, inflight) = (
            metric(&text, "vbp_jobs_submitted_total"),
            metric(&text, "vbp_jobs_completed_total"),
            metric(&text, "vbp_jobs_failed_total"),
            metric(&text, "vbp_jobs_in_flight"),
        );
        assert_eq!((sub, done, failed, inflight), (5, 2, 1, 2));
        assert_eq!(sub, done + failed + inflight, "admission invariant");
        // Per-phase histogram framing: each phase carries a +Inf bucket
        // whose cumulative count equals its _count line.
        for phase in [
            "scratch",
            "reuse",
            "lock_wait",
            "sched",
            "shard_local",
            "shard_merge",
        ] {
            let inf = metric(
                &text,
                &format!("vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"+Inf\"}}"),
            );
            let count = metric(
                &text,
                &format!("vbp_phase_latency_ns_count{{phase=\"{phase}\"}}"),
            );
            assert_eq!(inf, count, "{phase} +Inf bucket must equal the count");
        }
        // Shard counters are always exposed (zero while nothing shards).
        for name in [
            "vbp_shard_variants_total",
            "vbp_shard_tasks_total",
            "vbp_shard_border_points_total",
            "vbp_shard_cross_unions_total",
        ] {
            assert_eq!(metric(&text, name), 0, "{name} without sharded runs");
        }
        // Every line is `name value` with a vbp_ namespace.
        for line in text.lines() {
            assert!(line.starts_with("vbp_"), "bad metric line {line:?}");
            assert_eq!(line.split(' ').count(), 2, "bad metric line {line:?}");
        }
    }

    #[test]
    fn delta_counts_replays_the_census() {
        // before: clusters {0} (cores), {1} (cores); after: cluster 0
        // absorbed cluster 1, and a brand-new cluster 1 appeared among
        // previously-noise points.
        let before = vec![0, 0, 1, 1, NOISE_RAW, NOISE_RAW];
        let core_before = vec![true, true, true, true, false, false];
        let after = vec![0, 0, 0, 0, 1, 1];
        let (born, absorbed) = delta_counts(&before, &core_before, &after, 2);
        assert_eq!((born, absorbed), (1, 1));
        // census replay: 2 before + 1 born - 1 absorbed = 2 after
        assert_eq!(2 + born - absorbed, 2);
    }
    const NOISE_RAW: u32 = u32::MAX;

    #[test]
    fn append_and_watch_round_trip_through_the_handler() {
        let handle = tiny_server(4, 1 << 20);
        let (mem, out) = MemTransport::new(vec![
            Step::Recv(b"WATCH cF_10k_5N@300 2.0 4\n".to_vec()),
            Step::Recv(b"APPEND cF_10k_5N@300 0.0 0.0 0.05 0.05\n".to_vec()),
            Step::Idle,
            Step::Recv(b"QUIT\n".to_vec()),
        ]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("OK watching cF_10k_5N@300 2 4 clusters="),
            "{text}"
        );
        assert!(lines[1].starts_with("OK appended=2 total=302"), "{text}");
        assert!(
            lines[2].starts_with("DELTA cF_10k_5N@300 2 4 appended=2"),
            "{text}"
        );
        assert_eq!(*lines.last().unwrap(), "OK bye");
        // The streaming invariant holds in both expositions.
        let stats = handle.stats_json();
        assert!(stats.contains("\"appends\":1"), "{stats}");
        assert!(stats.contains("\"appends_applied\":1"), "{stats}");
        assert!(stats.contains("\"appends_rejected\":0"), "{stats}");
        let metrics = handle.metrics_text();
        assert_eq!(metric(&metrics, "vbp_append_batches_total"), 1);
        assert_eq!(metric(&metrics, "vbp_append_points_total"), 2);
        assert_eq!(metric(&metrics, "vbp_watch_deltas_total"), 1);
        assert_eq!(
            handle.dataset_points("cF_10k_5N@300").unwrap().len(),
            302,
            "registry swapped to the successor snapshot"
        );
        let mut handle = handle;
        handle.shutdown();
    }

    #[test]
    fn append_repairs_isolated_entries_and_drops_touched_ones() {
        const DS: &str = "cF_10k_5N@300";
        let mut shared = bare_shared(4);
        shared.cache_enabled = true;
        shared.cache = Mutex::new(DominanceCache::new(1 << 20));
        shared.registry.load(&shared.engine, DS).unwrap();
        let entry = shared.registry.get(DS).unwrap();
        let v = Variant::new(entry.suggested_eps.unwrap_or(1.0), 4);
        let variants = VariantSet::new(vec![v]);
        let cluster = |entry: &DatasetEntry| {
            let request = RunRequest::prepared(&entry.index, &variants);
            Arc::clone(&shared.engine.execute(&request).unwrap().results[0])
        };
        shared.cache.lock().unwrap().insert(DS, v, cluster(&entry));

        // Farther than ε from every point, and first in bin order: a judge
        // that read tree positions as caller ids would see `0 < old_n`.
        let far = [Point2::new(-1e3, -1e3), Point2::new(-1e3 + 0.1, -1e3)];
        let out = apply_append(&shared, DS, &far).unwrap();
        assert_eq!((out.repaired, out.dropped), (1, 0));
        let grown = shared.registry.get(DS).unwrap();
        assert_eq!(grown.index.permutation()[0] as usize, entry.points.len());
        let hit = shared
            .cache
            .lock()
            .unwrap()
            .lookup(DS, grown.points.len(), v)
            .expect("repaired entry answers at the grown size");
        // The old points keep their relative tree order, so even the
        // cluster ids match a from-scratch run.
        assert_eq!(
            grown.index.labels_in_caller_order(&hit.result),
            grown.index.labels_in_caller_order(&cluster(&grown)),
            "repaired labels differ from a from-scratch run"
        );

        // On top of an existing point: inside ε, the entry is dropped.
        let out = apply_append(&shared, DS, &[grown.points[17]]).unwrap();
        assert_eq!((out.repaired, out.dropped), (0, 1));
        let n = grown.points.len() + 1;
        assert!(shared.cache.lock().unwrap().lookup(DS, n, v).is_none());
    }

    #[test]
    fn metrics_verb_frames_its_continuation_lines() {
        let handle = tiny_server(4, 1 << 20);
        let (mem, out) = MemTransport::new(vec![Step::Recv(b"METRICS\nQUIT\n".to_vec())]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let n: usize = lines[0]
            .strip_prefix("OK ")
            .expect("METRICS answers OK <n>")
            .parse()
            .expect("continuation count");
        assert_eq!(lines.len(), n + 2, "OK <n>, n lines, OK bye");
        assert_eq!(lines[n + 1], "OK bye");
        for l in &lines[1..=n] {
            assert!(l.starts_with("vbp_"), "continuation line {l:?}");
        }
        let mut handle = handle;
        handle.shutdown();
    }
}
