//! End-to-end loopback smoke test — the `scripts/check.sh` service stage.
//!
//! Starts a real daemon on an ephemeral port with two registered
//! datasets, drives a 20-variant workload through the TCP line protocol,
//! and checks the three properties the service exists for:
//!
//! 1. **Correctness** — every label vector the daemon returns is
//!    label-isomorphic to a direct `Engine::run` over the same points
//!    (and bit-identical for the fully-cold first request per dataset,
//!    where no reuse is possible);
//! 2. **Cross-run reuse** — resubmitting the same workload hits the
//!    dominance cache (`warm=1` replies, `reuse_hits > 0` in `STATS`);
//! 3. **Graceful drain** — `SHUTDOWN` completes in-flight requests,
//!    rejects new ones with the typed `draining` code, and every server
//!    thread joins within a bounded timeout.

mod common;

use std::time::{Duration, Instant};

use common::{assert_isomorphic, brute_core_points, field_u64, start_server, Watchdog};
use variantdbscan::{Engine, RunReport, RunRequest, VariantSet};
use vbp_dbscan::{suggest_eps, ClusterResult, Labels};
use vbp_geom::Point2;
use vbp_rtree::PackedRTree;
use vbp_service::{Client, ErrorCode, HttpClient, JsonValue, ServerHandle, ServiceConfig};

const DATASETS: [&str; 2] = ["cF_10k_5N@600", "SW1@600"];

fn smoke_server(cache_bytes: usize) -> ServerHandle {
    start_server(
        &DATASETS,
        2,
        ServiceConfig {
            cache_bytes,
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
}

/// One direct single-variant engine run — the per-request oracle.
fn direct_run(engine: &Engine, points: &[vbp_geom::Point2], eps: f64, minpts: usize) -> RunReport {
    let variants = VariantSet::new(vec![variantdbscan::Variant::new(eps, minpts)]);
    engine
        .execute(&RunRequest::new(points, &variants))
        .expect("direct oracle run")
}

/// Ten variants per dataset, scaled off the dataset's k-dist knee so the
/// grid finds real structure at any size.
fn workload(points: &[Point2]) -> Vec<(f64, usize)> {
    let (tree, _) = PackedRTree::build(points, 16);
    let base = suggest_eps(&tree, 4, 1).expect("dataset has a knee");
    let mut variants = Vec::new();
    for scale in [0.8, 1.0, 1.2, 1.5, 2.0] {
        for minpts in [4usize, 8] {
            variants.push((base * scale, minpts));
        }
    }
    variants
}

#[test]
fn twenty_variant_workload_matches_direct_engine_and_reuses_across_runs() {
    let _wd = Watchdog::arm("loopback-workload", Duration::from_secs(240));
    let mut handle = smoke_server(64 << 20);
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let listed = client.datasets().unwrap();
    assert_eq!(listed.len(), 2);
    assert!(listed.iter().all(|(_, size)| *size == 600));

    for name in DATASETS {
        let points = vbp_data::DatasetSpec::by_name(name).unwrap().generate();
        let engine = Engine::new(common::engine_config(2));
        let variants = workload(&points);

        // Round 1 — cold cache. Each label vector must be isomorphic to
        // a direct single-variant engine run over the same points; the
        // very first request has an empty cache and a single-variant
        // batch, so it must match the direct run *exactly*.
        for (i, &(eps, minpts)) in variants.iter().enumerate() {
            let reply = client.submit(name, eps, minpts, true).unwrap();
            let direct = direct_run(&engine, &points, eps, minpts);
            let direct_labels = direct.result_in_caller_order(0);
            let served_labels = reply.labels.clone().unwrap();
            assert_eq!(reply.clusters, direct.results[0].num_clusters());
            assert_eq!(reply.noise, direct.results[0].noise_count());
            if i == 0 {
                assert!(!reply.warm, "first request cannot be warm");
                assert_eq!(
                    served_labels, direct_labels,
                    "{name}: cold run must be exact"
                );
            } else {
                let cores = brute_core_points(&points, eps, minpts);
                assert_isomorphic(
                    &ClusterResult::from_labels(Labels::from_raw(direct_labels)),
                    &ClusterResult::from_labels(Labels::from_raw(served_labels)),
                    &cores,
                    &format!("{name} variant {i} ({eps:.3}, {minpts})"),
                );
            }
        }

        // Round 2 — warm cache: every identical resubmission finds its
        // own distance-0 entry and must be answered via reuse.
        for (i, &(eps, minpts)) in variants.iter().enumerate() {
            let reply = client.submit(name, eps, minpts, true).unwrap();
            assert!(reply.warm, "{name} variant {i}: expected a cache hit");
            let cores = brute_core_points(&points, eps, minpts);
            let direct = direct_run(&engine, &points, eps, minpts);
            assert_isomorphic(
                &ClusterResult::from_labels(Labels::from_raw(direct.result_in_caller_order(0))),
                &ClusterResult::from_labels(Labels::from_raw(reply.labels.unwrap())),
                &cores,
                &format!("{name} warm variant {i}"),
            );
        }
    }

    let stats = client.stats_json().unwrap();
    assert!(
        field_u64(&stats, "reuse_hits") > 0,
        "no cache reuse in {stats}"
    );
    assert_eq!(field_u64(&stats, "completed"), 40);
    assert_eq!(field_u64(&stats, "failed"), 0);
    common::assert_stats_consistent(&stats, "post-workload");
    let cache_at = stats.find("\"cache\":").unwrap();
    assert!(field_u64(&stats[cache_at..], "hits") > 0);

    // The version-2 METRICS exposition over the same connection: the
    // client saw the version in HELLO, and the counters agree with
    // STATS (only this client drives the daemon, so it is at rest).
    assert!(
        client.protocol_version() >= 2,
        "server must advertise the METRICS-capable protocol"
    );
    let metrics = client.metrics().unwrap();
    common::assert_metrics_match_stats(&metrics, &stats, "post-workload");
    assert!(
        common::metric_u64(&metrics, "vbp_cache_hits_total") > 0,
        "cache hits missing from exposition"
    );
    assert!(
        common::metric_u64(&metrics, "vbp_engine_runs_total") > 0
            && common::metric_u64(
                &metrics,
                "vbp_phase_latency_ns_bucket{phase=\"scratch\",le=\"+Inf\"}"
            ) > 0,
        "engine histograms missing from exposition:\n{metrics}"
    );

    client.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "drain did not bound"
    );
}

/// One `POST /v1/submit` with labels over the HTTP gateway; asserts the
/// embedded engine report is present and returns `(labels, warm)`.
fn http_submit(http: &mut HttpClient, dataset: &str, eps: f64, minpts: usize) -> (Vec<u32>, bool) {
    let body = format!(r#"{{"dataset":"{dataset}","eps":{eps},"minpts":{minpts},"labels":true}}"#);
    let resp = http.post("/v1/submit", &body).unwrap();
    assert_eq!(resp.status, 200, "submit failed: {}", resp.body_str());
    let doc = resp.json().unwrap();
    let warm = doc
        .get("warm")
        .and_then(JsonValue::as_bool)
        .expect("warm flag");
    let labels: Vec<u32> = doc
        .get("labels")
        .and_then(JsonValue::as_array)
        .expect("labels array")
        .iter()
        .map(|v| v.as_f64().expect("numeric label") as u32)
        .collect();
    assert!(
        doc.get("report").and_then(JsonValue::entries).is_some(),
        "response must embed the engine's RunReport"
    );
    (labels, warm)
}

/// The dual-protocol equivalence gate: the same variant grid submitted
/// over HTTP and over the line protocol — cold on one side, resubmitted
/// on the *other* — must be label-isomorphic to the direct engine in
/// both directions, and the resubmission must hit the dominance cache
/// populated by the opposite protocol (one shared cache, two doors).
#[test]
fn http_and_line_protocol_are_label_isomorphic_and_share_the_cache() {
    let _wd = Watchdog::arm("loopback-dual-protocol", Duration::from_secs(240));
    let mut handle = start_server(
        &DATASETS,
        2,
        ServiceConfig {
            cache_bytes: 64 << 20,
            batch_window: Duration::ZERO,
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    );
    let mut line = Client::connect(handle.local_addr()).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().expect("http listener")).unwrap();
    http.set_timeout(Some(Duration::from_secs(120))).unwrap();

    // The two doors list the same catalog.
    let listed = line.datasets().unwrap();
    let datasets_doc = http.get("/v1/datasets").unwrap();
    assert_eq!(datasets_doc.status, 200);
    let via_http = datasets_doc.json().unwrap();
    let via_http = via_http
        .get("datasets")
        .and_then(JsonValue::as_array)
        .unwrap();
    assert_eq!(via_http.len(), listed.len());
    for (name, size) in &listed {
        assert!(
            via_http.iter().any(|d| {
                d.get("name").and_then(JsonValue::as_str) == Some(name)
                    && d.get("points").and_then(JsonValue::as_f64) == Some(*size as f64)
            }),
            "dataset {name} ({size} pts) missing from HTTP listing"
        );
    }

    let name = DATASETS[0];
    let points = vbp_data::DatasetSpec::by_name(name).unwrap().generate();
    let engine = Engine::new(common::engine_config(2));

    for (i, &(eps, minpts)) in workload(&points).iter().enumerate() {
        let cores = brute_core_points(&points, eps, minpts);
        let direct = direct_run(&engine, &points, eps, minpts);
        let direct_result =
            ClusterResult::from_labels(Labels::from_raw(direct.result_in_caller_order(0)));

        // Cold side alternates per variant; the identical resubmission
        // goes through the opposite door and must find the distance-0
        // cache entry the first door populated.
        let (cold_labels, warm_labels, warm_flag) = if i % 2 == 0 {
            let cold = line.submit(name, eps, minpts, true).unwrap();
            let (warm_labels, warm) = http_submit(&mut http, name, eps, minpts);
            (cold.labels.unwrap(), warm_labels, warm)
        } else {
            let (cold_labels, _) = http_submit(&mut http, name, eps, minpts);
            let warm = line.submit(name, eps, minpts, true).unwrap();
            (cold_labels, warm.labels.clone().unwrap(), warm.warm)
        };
        assert!(
            warm_flag,
            "variant {i} ({eps:.3}, {minpts}): resubmission through the other protocol \
             did not hit the shared cache"
        );
        // The exact repeat returns the cached partition unchanged: the
        // repeat lands on the HTTP door for even variants and on the
        // line door for odd ones.
        assert_eq!(
            cold_labels, warm_labels,
            "variant {i} ({eps:.3}, {minpts}): exact repeat moved labels"
        );
        for (which, labels) in [("cold", cold_labels), ("warm", warm_labels)] {
            assert_isomorphic(
                &direct_result,
                &ClusterResult::from_labels(Labels::from_raw(labels)),
                &cores,
                &format!("{name} variant {i} ({eps:.3}, {minpts}) {which} side"),
            );
        }
    }

    // Both doors drove one shared daemon: the counters add up, reuse is
    // visible, and the HTTP Prometheus scrape agrees with line-protocol
    // STATS at rest (the exposition renders under the stats lock).
    let stats = line.stats_json().unwrap();
    common::assert_stats_consistent(&stats, "dual-protocol");
    assert_eq!(field_u64(&stats, "completed"), 20);
    assert!(field_u64(&stats, "reuse_hits") >= 10, "stats: {stats}");
    let scrape = http.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    common::assert_metrics_match_stats(scrape.body_str(), &stats, "dual-protocol scrape");

    // The HTTP stats document satisfies the same admission invariant.
    let http_stats = http.get("/v1/stats").unwrap();
    assert_eq!(http_stats.status, 200);
    common::assert_stats_consistent(http_stats.body_str(), "dual-protocol http stats");

    line.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "drain did not bound"
    );
}

#[test]
fn unknown_dataset_and_bad_requests_get_typed_errors() {
    let _wd = Watchdog::arm("loopback-typed-errors", Duration::from_secs(120));
    let mut handle = smoke_server(1 << 20);
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.submit("nonexistent", 1.0, 4, false).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownDataset));
    // A live connection survives a rejected request.
    assert_eq!(client.datasets().unwrap().len(), 2);
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_and_rejects_new_work() {
    let _wd = Watchdog::arm("loopback-drain", Duration::from_secs(120));
    let mut handle = smoke_server(1 << 20);
    let addr = handle.local_addr();

    // Several writers race the drain; every request must get a definite
    // answer — success or a typed draining/overloaded rejection.
    let writers: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ok = 0usize;
                let mut rejected = 0usize;
                for i in 0..4 {
                    let eps = 0.3 + 0.1 * (w * 4 + i) as f64;
                    match client.submit(DATASETS[0], eps, 4, false) {
                        Ok(_) => ok += 1,
                        Err(e) => match e.code() {
                            Some(ErrorCode::Draining) | Some(ErrorCode::Overloaded) => {
                                rejected += 1
                            }
                            other => panic!("unexpected failure {other:?}: {e}"),
                        },
                    }
                }
                (ok, rejected)
            })
        })
        .collect();

    // Let at least one request land, then pull the plug from a separate
    // control connection.
    std::thread::sleep(Duration::from_millis(30));
    let mut control = Client::connect(addr).unwrap();
    control.shutdown().unwrap();

    let mut total_ok = 0;
    let mut total_rejected = 0;
    for w in writers {
        let (ok, rejected) = w.join().unwrap();
        total_ok += ok;
        total_rejected += rejected;
    }
    assert_eq!(total_ok + total_rejected, 12, "a request vanished");

    // New work after the drain began is refused with the typed code; a
    // failed connect means the accept loop is already gone — equally fine.
    if let Ok(mut late) = Client::connect(addr) {
        let err = late.submit(DATASETS[0], 1.0, 4, false).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::Draining));
    }

    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "drain did not bound"
    );
    common::assert_stats_consistent(&handle.stats_json(), "post-drain");
}
