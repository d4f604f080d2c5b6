//! Metric names, the result line, the results file, and the
//! comparability rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use variantdbscan::{JsonArray, JsonObject};
use vbp_service::{parse_json, JsonValue};

use crate::trace::LayerRow;

/// A declared metric: name, unit, and which direction is better.
pub type Declared = (&'static str, &'static str, &'static str);

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: [Declared; 6] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("submit_p50_ms", "ms", "lower"),
    ("submit_tail_ms", "ms", "lower"),
    ("quality_min", "ratio", "higher"),
];

/// Per-layer metrics, from the traced run. A workload whose path does
/// not reach a layer reports that layer's metrics as 0.
pub const PER_LAYER: [Declared; 45] = [
    ("rtree.eps_batch_s", "s", "lower"),
    ("rtree.neighbors_per_query", "count", "lower"),
    ("rtree.filter_precision", "ratio", "higher"),
    ("dbscan.scratch_grid_s", "s", "lower"),
    ("dbscan.searches", "count", "lower"),
    ("dbscan.sharded_s", "s", "lower"),
    ("dbscan.sharded_speedup", "x", "higher"),
    ("core.prepare_s", "s", "lower"),
    ("core.busy_s", "s", "lower"),
    ("core.idle_share", "ratio", "lower"),
    ("core.lock_wait_s", "s", "lower"),
    ("core.sched_s", "s", "lower"),
    ("core.fraction_reused", "ratio", "higher"),
    ("core.from_scratch", "count", "lower"),
    ("core.searches_saved", "ratio", "higher"),
    ("core.variants_below_floor", "count", "lower"),
    ("core.append_s", "s", "lower"),
    ("server.engine_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.batch_mean", "count", "higher"),
    ("server.engine_busy_share", "ratio", "higher"),
    ("server.append_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.repaired", "count", "higher"),
    ("cache.dropped", "count", "lower"),
    ("cache.repair_ratio", "ratio", "higher"),
    ("cache.repeats_moved", "count", "lower"),
    ("http.overhead_ms", "ms", "lower"),
    ("http.reply_bytes", "bytes", "lower"),
    ("protocol.overhead_ms", "ms", "lower"),
    ("router.hop_ms", "ms", "lower"),
    ("router.hop_labels_ms", "ms", "lower"),
    ("router.proxied", "count", "higher"),
    ("pool.retries", "count", "lower"),
    ("pool.breaker_trips", "count", "lower"),
    ("append_p50_ms", "ms", "lower"),
    ("append_tail_ms", "ms", "lower"),
    ("overhead.setup_s", "s", "lower"),
    ("overhead.peak_rss_mib", "MiB", "lower"),
    ("overhead.requests_per_s", "1/s", "higher"),
    ("overhead.submit_p50_ms", "ms", "lower"),
    ("overhead.submit_tail_ms", "ms", "lower"),
    ("overhead.quality_min", "ratio", "higher"),
    ("error_rate", "ratio", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders an `f64` with every digit (shortest round-trip form); JSON
/// has no NaN or infinity, so those become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A `{"name": {"value": v, "unit": u}, …}` object over `declared`,
/// filling names missing from `values` with 0.
fn metric_object(declared: &[Declared], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, _)) in declared.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
            num(v)
        );
    }
    out.push('}');
    out
}

/// End-to-end names missing from `values` or not finite there.
pub fn missing_end_to_end(values: &Values) -> Vec<&'static str> {
    END_TO_END
        .iter()
        .map(|d| d.0)
        .filter(|n| !values.get(n).is_some_and(|v| v.is_finite()))
        .collect()
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the metrics of the mode — every end-to-end metric untraced,
/// every per-layer metric traced.
pub fn result_line(correct: bool, attempted: u64, failed: u64, trace: bool, v: &Values) -> String {
    let declared: &[Declared] = if trace { &PER_LAYER } else { &END_TO_END };
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        metric_object(declared, v)
    )
}

/// Where a result came from.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// `available_parallelism()` of the host.
    pub cpus: usize,
    /// Git revision of the checkout, or `unknown`.
    pub git_rev: String,
    /// Workload name.
    pub workload: String,
    /// The `--seed`.
    pub seed: u64,
    /// Rounds measured (untraced window, traced window).
    pub runs: (usize, usize),
    /// Build profile.
    pub profile: &'static str,
    /// Workload parameters.
    pub params: Vec<(&'static str, String)>,
}

/// The git revision from `git rev-parse`, or `unknown` outside a
/// repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence.
    pub detail: String,
}

/// Everything one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// Where it came from.
    pub provenance: Provenance,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Known defects: stricter conditions than the checks, which the
    /// program is known to miss. Reported, but they do not make the run
    /// incorrect.
    pub defects: Vec<Check>,
    /// Operations attempted and failed (untraced window).
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// End-to-end values (untraced window).
    pub end_to_end: Values,
    /// Per-layer values (traced run only).
    pub per_layer: Values,
    /// Undeclared figures of the untraced window: tail percentiles and
    /// sample counts, error rate, append latencies.
    pub extras: Values,
    /// Per-layer span totals (traced run only).
    pub layers: BTreeMap<&'static str, LayerRow>,
}

impl RunRecord {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The results-file document.
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        let mut params = JsonObject::new();
        for (k, v) in &p.params {
            params = params.str(k, v);
        }
        let provenance = JsonObject::new()
            .uint("cpus", p.cpus as u64)
            .str("git_rev", &p.git_rev)
            .str("workload", &p.workload)
            .uint("seed", p.seed)
            .uint("runs", p.runs.0 as u64)
            .uint("traced_runs", p.runs.1 as u64)
            .str("profile", p.profile)
            .raw("params", &params.finish())
            .finish();
        let mut checks = JsonArray::new();
        for c in &self.checks {
            checks.push_raw(
                &JsonObject::new()
                    .str("name", &c.name)
                    .boolean("ok", c.ok)
                    .str("detail", &c.detail)
                    .finish(),
            );
        }
        let mut defects = JsonArray::new();
        for c in &self.defects {
            defects.push_raw(
                &JsonObject::new()
                    .str("name", &c.name)
                    .boolean("held", c.ok)
                    .str("detail", &c.detail)
                    .finish(),
            );
        }
        let mut layers = JsonObject::new();
        for (layer, row) in &self.layers {
            layers = layers.raw(
                layer,
                &JsonObject::new()
                    .uint("calls", row.calls as u64)
                    .float("total_s", row.total_s)
                    .float("self_s", row.self_s)
                    .finish(),
            );
        }
        let mut extras = JsonObject::new();
        for (k, v) in &self.extras {
            extras = extras.float(k, *v);
        }
        JsonObject::new()
            .raw("provenance", &provenance)
            .boolean("correct", self.correct())
            .uint("attempted", self.attempted)
            .uint("failed", self.failed)
            .raw("checks", &checks.finish())
            .raw("known_defects", &defects.finish())
            .raw("end_to_end", &metric_object(&END_TO_END, &self.end_to_end))
            .raw("per_layer", &metric_object(&PER_LAYER, &self.per_layer))
            .raw("extras", &extras.finish())
            .raw("layer_self_time", &layers.finish())
            .finish()
    }

    /// The human-readable report (standard error).
    pub fn table(&self, traced: bool) -> String {
        let p = &self.provenance;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed={} cpus={} rev={} profile={} runs={} traced_runs={}",
            p.workload, p.seed, p.cpus, p.git_rev, p.profile, p.runs.0, p.runs.1
        );
        for (k, v) in &p.params {
            let _ = writeln!(out, "  param {k} = {v}");
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  check {mark} {}: {}", c.name, c.detail);
        }
        for c in &self.defects {
            let mark = if c.ok { "held  " } else { "missed" };
            let _ = writeln!(out, "  known defect {mark} {}: {}", c.name, c.detail);
        }
        let _ = writeln!(out, "  attempted {} failed {}", self.attempted, self.failed);
        for (name, unit, better) in END_TO_END {
            let v = self.end_to_end.get(name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {name:<26} {v:>14.4} {unit:<6} ({better} is better)");
        }
        for (k, v) in &self.extras {
            let _ = writeln!(out, "  {k:<26} {v:>14.4}");
        }
        if traced {
            for (name, unit, _) in PER_LAYER {
                match self.per_layer.get(name) {
                    Some(v) => {
                        let _ = writeln!(out, "  {name:<26} {v:>14.4} {unit}");
                    }
                    None => {
                        let _ = writeln!(out, "  {name:<26} {:>14} (not on this path)", "n/a");
                    }
                }
            }
            let _ = writeln!(out, "  layer        calls       total_s        self_s");
            for (layer, row) in &self.layers {
                let _ = writeln!(
                    out,
                    "  {layer:<10} {:>7} {:>13.4} {:>13.4}",
                    row.calls, row.total_s, row.self_s
                );
            }
        }
        out
    }
}

/// Compares two results files. Results from hosts with different
/// `cpus`, or of different workloads, are reported as not comparable
/// (`Err`); otherwise every shared metric is listed with the ratio of
/// the second value to the first.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let a = parse_json(a.as_bytes()).map_err(|e| format!("first file: {e}"))?;
    let b = parse_json(b.as_bytes()).map_err(|e| format!("second file: {e}"))?;
    let field = |doc: &JsonValue, key: &str| -> Option<String> {
        let v = doc.get("provenance")?.get(key)?;
        v.as_str()
            .map(str::to_string)
            .or_else(|| v.as_f64().map(|n| n.to_string()))
    };
    for key in ["cpus", "workload"] {
        let (x, y) = (field(&a, key), field(&b, key));
        if x != y {
            return Err(format!(
                "not comparable: {key} differs ({} vs {})",
                x.unwrap_or_default(),
                y.unwrap_or_default()
            ));
        }
    }
    let mut out = String::new();
    for section in ["end_to_end", "per_layer"] {
        let (Some(sa), Some(sb)) = (a.get(section), b.get(section)) else {
            continue;
        };
        for (name, va) in sa.entries().unwrap_or(&[]) {
            let value = |v: &JsonValue| v.get("value").and_then(JsonValue::as_f64);
            let (Some(x), Some(y)) = (value(va), sb.get(name).and_then(value)) else {
                continue;
            };
            let ratio = if x != 0.0 { y / x } else { f64::NAN };
            let _ = writeln!(out, "{name:<26} {x:>14.4} {y:>14.4}   x{ratio:.3}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(declared: &[Declared]) -> Values {
        declared.iter().map(|d| (d.0, 1.5)).collect()
    }

    #[test]
    fn result_line_emits_every_declared_metric_of_its_mode() {
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = result_line(true, 10, 0, trace, &all(declared));
            let doc = parse_json(line.as_bytes()).expect("result line is JSON");
            let keys: Vec<&str> = doc
                .entries()
                .unwrap()
                .iter()
                .map(|e| e.0.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().entries().unwrap();
            assert_eq!(metrics.len(), declared.len());
            for ((name, unit, _), (key, m)) in declared.iter().zip(metrics) {
                assert_eq!(name, key);
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(*unit));
                assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = parse_json(text.as_bytes()).expect("BENCHMARK.json parses");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(JsonValue::as_array).expect(key);
            assert_eq!(listed.len(), declared.len(), "{key}");
            for (entry, (name, unit, better)) in listed.iter().zip(declared) {
                let s = |k: &str| entry.get(k).and_then(JsonValue::as_str);
                assert_eq!(s("name"), Some(*name));
                assert_eq!(s("unit"), Some(*unit), "{name}");
                assert_eq!(s("better"), Some(*better), "{name}");
            }
        }
    }

    #[test]
    fn results_file_carries_every_metric_and_provenance() {
        let record = RunRecord {
            provenance: Provenance {
                cpus: 2,
                git_rev: "abc".into(),
                workload: "sweep".into(),
                seed: 9,
                runs: (4, 2),
                profile: "release",
                params: vec![("points", "100000".into())],
            },
            defects: vec![Check {
                name: "strict".into(),
                ok: false,
                detail: "missed".into(),
            }],
            end_to_end: all(&END_TO_END),
            per_layer: all(&PER_LAYER),
            ..RunRecord::default()
        };
        let doc = parse_json(record.to_json().as_bytes()).expect("results file is JSON");
        // A missed known defect is reported but leaves the run correct.
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let defects = doc.get("known_defects").and_then(JsonValue::as_array);
        let held = defects.and_then(|d| d.first()).and_then(|d| d.get("held"));
        assert_eq!(held, Some(&JsonValue::Bool(false)));
        let p = doc.get("provenance").unwrap();
        assert_eq!(p.get("cpus").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(p.get("seed").and_then(JsonValue::as_f64), Some(9.0));
        assert_eq!(p.get("runs").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(p.get("git_rev").and_then(JsonValue::as_str), Some("abc"));
        assert_eq!(
            p.get("profile").and_then(JsonValue::as_str),
            Some("release")
        );
        assert!(p.get("params").and_then(|x| x.get("points")).is_some());
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let s = doc.get(section).unwrap();
            for (name, _, _) in declared {
                assert!(s.get(name).is_some(), "{section} lacks {name}");
            }
        }
    }

    #[test]
    fn results_from_different_cpu_counts_are_not_comparable() {
        let mk = |cpus| {
            RunRecord {
                provenance: Provenance {
                    cpus,
                    workload: "sweep".into(),
                    ..Provenance::default()
                },
                end_to_end: all(&END_TO_END),
                ..RunRecord::default()
            }
            .to_json()
        };
        let err = compare(&mk(2), &mk(4)).unwrap_err();
        assert!(err.starts_with("not comparable"), "{err}");
        let ok = compare(&mk(2), &mk(2)).expect("same host shape compares");
        assert!(ok.contains("requests_per_s"));
    }
}
