//! Cold-vs-warm throughput measurement against a live daemon.
//!
//! Shared by `vbp bench-service` and the `service_throughput` bench
//! binary so both report the same quantities: submit the same variant
//! workload twice over one connection, once against an empty cache
//! (cold) and once against the cache the first round populated (warm),
//! and compare variants/second.
//!
//! The probe is written against the transport-agnostic
//! [`DatasetService`] trait, so the same measurement runs over the
//! line protocol, the HTTP gateway, or through the router — whichever
//! service the caller hands in.

use std::time::Instant;

use crate::api::DatasetService;
use crate::client::ClientError;

/// One cold round + one warm round of the same workload.
#[derive(Clone, Debug)]
pub struct ColdWarmReport {
    /// Requests per round.
    pub requests: usize,
    /// Wall seconds for the cold round.
    pub cold_secs: f64,
    /// Wall seconds for the warm round.
    pub warm_secs: f64,
    /// How many warm-round requests hit a cached reuse source.
    pub warm_hits: usize,
    /// Final service counters (the `STATS` JSON line).
    pub stats_json: String,
}

impl ColdWarmReport {
    /// Cold-round throughput in variants per second.
    pub fn cold_vps(&self) -> f64 {
        self.requests as f64 / self.cold_secs.max(1e-9)
    }

    /// Warm-round throughput in variants per second.
    pub fn warm_vps(&self) -> f64 {
        self.requests as f64 / self.warm_secs.max(1e-9)
    }

    /// Warm speedup over cold (> 1 means the cache paid off).
    pub fn speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-9)
    }
}

/// Submits `(dataset, eps, minpts)` requests in order, twice, over any
/// [`DatasetService`]. The caller must guarantee the service's cache
/// started empty, otherwise the "cold" round is already warm.
pub fn run_cold_warm_on(
    service: &mut dyn DatasetService,
    requests: &[(String, f64, usize)],
) -> Result<ColdWarmReport, ClientError> {
    let run_round = |service: &mut dyn DatasetService| -> Result<(f64, usize), ClientError> {
        let t0 = Instant::now();
        let mut hits = 0;
        for (dataset, eps, minpts) in requests {
            let reply = service.submit(dataset, *eps, *minpts, false)?;
            hits += usize::from(reply.warm);
        }
        Ok((t0.elapsed().as_secs_f64(), hits))
    };
    let (cold_secs, _) = run_round(service)?;
    let (warm_secs, warm_hits) = run_round(service)?;
    let stats_json = service.stats_json()?;
    Ok(ColdWarmReport {
        requests: requests.len(),
        cold_secs,
        warm_secs,
        warm_hits,
        stats_json,
    })
}
