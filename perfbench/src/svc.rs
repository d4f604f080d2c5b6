//! Service-side helpers shared by `explore` and `ingest`: daemon start,
//! timed HTTP submits, and `/v1/stats` snapshots.

use std::time::{Duration, Instant};

use variantdbscan::{Engine, EngineConfig, JsonObject, Variant};
use vbp_geom::Point2;
use vbp_service::{HttpClient, JsonValue, Registry, Server, ServerHandle, ServiceConfig};

/// Client socket timeout: far above any reply, so a wedged daemon
/// fails the run instead of hanging it.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Starts one daemon with default engine and service settings, its
/// HTTP door open, holding `datasets`.
pub fn start_daemon(datasets: &[(String, Vec<Point2>)]) -> Result<ServerHandle, String> {
    let engine = Engine::new(EngineConfig::default());
    let registry = Registry::new();
    for (name, points) in datasets {
        registry.register(&engine, name, points.clone())?;
    }
    Server::start(
        engine,
        registry,
        ServiceConfig {
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("daemon start: {e}"))
}

/// A keep-alive HTTP client with [`CLIENT_TIMEOUT`].
pub fn http(addr: std::net::SocketAddr) -> std::io::Result<HttpClient> {
    let mut c = HttpClient::connect(addr)?;
    c.set_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(c)
}

/// One timed submit as the client saw it.
#[derive(Clone, Debug, Default)]
pub struct Submitted {
    /// HTTP status.
    pub status: u16,
    /// Clusters found.
    pub clusters: usize,
    /// Noise points.
    pub noise: usize,
    /// The reply's server-side engine time, ms.
    pub ms: f64,
    /// Labels, when asked for.
    pub labels: Option<Vec<u32>>,
    /// Reply body bytes.
    pub bytes: usize,
    /// Client-side round trip, ms.
    pub rtt_ms: f64,
    /// The body of a non-200 reply.
    pub error: String,
}

/// `POST /v1/submit`, timed from send to parsed reply.
pub fn submit(
    client: &mut HttpClient,
    dataset: &str,
    v: Variant,
    labels: bool,
) -> std::io::Result<Submitted> {
    let mut body = JsonObject::new()
        .str("dataset", dataset)
        .float("eps", v.eps)
        .uint("minpts", v.minpts as u64);
    if labels {
        body = body.boolean("labels", true);
    }
    let body = body.finish();
    let start = Instant::now();
    let resp = client.post("/v1/submit", &body)?;
    let mut out = Submitted {
        status: resp.status,
        bytes: resp.body.len(),
        ..Submitted::default()
    };
    if resp.status != 200 {
        out.error = String::from_utf8_lossy(&resp.body).into_owned();
        out.rtt_ms = start.elapsed().as_secs_f64() * 1e3;
        return Ok(out);
    }
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let doc = resp.json().map_err(|e| bad(&e))?;
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_f64).ok_or_else(|| bad(k));
    out.clusters = num("clusters")? as usize;
    out.noise = num("noise")? as usize;
    out.ms = num("ms")?;
    if let Some(arr) = doc.get("labels") {
        let items = arr.as_array().ok_or_else(|| bad("labels"))?;
        out.labels = Some(
            items
                .iter()
                .map(|x| x.as_f64().map(|n| n as u32).ok_or_else(|| bad("label")))
                .collect::<Result<_, _>>()?,
        );
    }
    out.rtt_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}

/// Counters of one `/v1/stats` document (a daemon's, or the router's
/// merged one).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Jobs admitted.
    pub submitted: f64,
    /// Jobs completed.
    pub completed: f64,
    /// Jobs failed.
    pub failed: f64,
    /// Jobs in flight.
    pub in_flight: f64,
    /// Dispatcher batches.
    pub batches: f64,
    /// Engine busy time, ms.
    pub engine_busy_ms: f64,
    /// Cache lookups that hit.
    pub hits: f64,
    /// Cache lookups that missed.
    pub misses: f64,
    /// Cache evictions.
    pub evictions: f64,
    /// Router: requests proxied to a backend.
    pub proxied: f64,
    /// Router pools: failed dials (each first failure is retried once).
    pub connect_failures: f64,
    /// Router pools: breaker trips.
    pub breaker_trips: f64,
}

impl Stats {
    /// Whether `submitted = completed + failed + in_flight`.
    pub fn admission_ok(&self) -> bool {
        self.submitted == self.completed + self.failed + self.in_flight
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            submitted: self.submitted - earlier.submitted,
            completed: self.completed - earlier.completed,
            failed: self.failed - earlier.failed,
            in_flight: self.in_flight - earlier.in_flight,
            batches: self.batches - earlier.batches,
            engine_busy_ms: self.engine_busy_ms - earlier.engine_busy_ms,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            proxied: self.proxied - earlier.proxied,
            connect_failures: self.connect_failures - earlier.connect_failures,
            breaker_trips: self.breaker_trips - earlier.breaker_trips,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Stats) -> Stats {
        Stats {
            submitted: self.submitted + o.submitted,
            completed: self.completed + o.completed,
            failed: self.failed + o.failed,
            in_flight: self.in_flight + o.in_flight,
            batches: self.batches + o.batches,
            engine_busy_ms: self.engine_busy_ms + o.engine_busy_ms,
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            proxied: self.proxied + o.proxied,
            connect_failures: self.connect_failures + o.connect_failures,
            breaker_trips: self.breaker_trips + o.breaker_trips,
        }
    }
}

/// Fetches and parses `/v1/stats`.
pub fn stats(client: &mut HttpClient) -> Result<Stats, String> {
    let resp = client
        .get("/v1/stats")
        .map_err(|e| format!("GET /v1/stats: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/v1/stats answered {}", resp.status));
    }
    let doc = resp.json()?;
    let f = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0);
    let top = |k: &str| f(doc.get(k));
    let cache = |k: &str| f(doc.get("cache").and_then(|c| c.get(k)));
    let mut s = Stats {
        submitted: top("submitted"),
        completed: top("completed"),
        failed: top("failed"),
        in_flight: top("in_flight"),
        batches: top("batches"),
        engine_busy_ms: top("engine_busy_ms"),
        hits: cache("hits"),
        misses: cache("misses"),
        evictions: cache("evictions"),
        ..Stats::default()
    };
    if let Some(router) = doc.get("router") {
        s.proxied = f(router.get("proxied"));
        for pool in router
            .get("pools")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            s.connect_failures += f(pool.get("connect_failures"));
            s.breaker_trips += f(pool.get("breaker_trips"));
        }
    }
    Ok(s)
}
