//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|explore|ingest --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --compare perfbench/out/A.json perfbench/out/B.json
//! ```
//!
//! Runs one seeded workload against the public API, checks its outputs,
//! prints a report on standard error, writes a results file under
//! `perfbench/out/`, and prints one JSON result line last on standard
//! output. It exits non-zero when any output check fails. See
//! `perfbench/README.md` for the workloads and metrics.
//!
//! `peak_rss_mib` comes from a child process of the same binary, started
//! with `--program-only 1`: it generates the inputs and runs
//! [`PEAK_RSS_ROUNDS`] of the workload's rounds with none of the
//! checks' references, then prints its own peak resident set.

mod explore;
mod ingest;
mod inputs;
mod loadgen;
mod report;
mod stats;
mod svc;
mod sweep;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Check, Provenance, RunRecord, Values, END_TO_END};
use trace::Tracer;

/// Rounds the `peak_rss_mib` child runs: the first, and a second that
/// shows what a round leaves behind.
pub const PEAK_RSS_ROUNDS: usize = 2;

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Rounds run.
    pub rounds: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end values (all but `peak_rss_mib`).
    pub e2e: Values,
    /// Undeclared figures (tail percentiles, sample counts, …).
    pub extras: Values,
    /// Per-layer values the window's own calls yield.
    pub layers: Values,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Known defects (see [`RunRecord::defects`]).
    pub defects: Vec<Check>,
}

impl Window {
    /// Whether another round is due: until `min` rounds are done and
    /// `seconds` have passed since `start`.
    pub fn another_round(&self, start: Instant, seconds: f64, min: usize) -> bool {
        self.rounds < min || start.elapsed().as_secs_f64() < seconds
    }

    /// Records whether a known defect's stricter condition held.
    pub fn defect(&mut self, name: &str, held: bool, detail: String) {
        self.defects.push(Check {
            name: name.into(),
            ok: held,
            detail,
        });
    }

    /// Records a failed check.
    pub fn fail(&mut self, name: &str, detail: &str) {
        self.checks.push(Check {
            name: name.into(),
            ok: false,
            detail: detail.into(),
        });
    }

    /// Records a passed check named `name`, unless one by that name
    /// already failed.
    pub fn pass(&mut self, name: &str, detail: String) {
        if !self.checks.iter().any(|c| c.name == name && !c.ok) {
            self.checks.push(Check {
                name: name.into(),
                ok: true,
                detail,
            });
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The workload's parameters, for provenance.
    fn params(&self) -> Vec<(&'static str, String)>;
    /// Runs rounds for at least `seconds` and the workload's minimum
    /// round count, spans
    /// going to `tracer`.
    fn window(&mut self, tracer: &Tracer, seconds: f64) -> Window;
    /// Per-layer probes of the traced run.
    fn probes(&mut self, tracer: &Tracer) -> Result<Values, String>;
}

/// Command-line options.
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run only the program's side of the workload and print the peak
    /// resident set (the child process behind `peak_rss_mib`).
    program_only: bool,
}

/// A 0/1 flag value.
fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("{flag} takes 0 or 1, not {other}")),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        program_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => o.trace = flag01(flag, value)?,
            "--program-only" => o.program_only = flag01(flag, value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required (sweep, explore or ingest)".into());
    }
    Ok(o)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs the program's side of the workload in this process (spans going
/// to a tracer when `trace`) and returns its peak resident set.
fn program_only(o: &Options) -> Result<f64, String> {
    let tracer = Tracer::new(o.trace);
    match o.workload.as_str() {
        "sweep" => sweep::program_only(o.seed, nproc(), PEAK_RSS_ROUNDS, &tracer),
        "explore" => explore::program_only(o.seed, nproc(), PEAK_RSS_ROUNDS, &tracer),
        "ingest" => ingest::program_only(o.seed, nproc(), PEAK_RSS_ROUNDS, &tracer),
        other => Err(format!("unknown workload {other} (sweep, explore, ingest)")),
    }?;
    Ok(peak_rss_mib())
}

/// `peak_rss_mib` of a child process that runs only the program's side
/// of the workload, traced or not. Waits for the child to end.
fn child_peak_rss_mib(o: &Options, trace: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &o.workload, "--seed", &o.seed.to_string()])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--program-only",
            "1",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("peak-RSS child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout.lines().last().and_then(|l| l.trim().parse().ok());
    match value {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!("peak-RSS child: {}, output {stdout:?}", out.status)),
    }
}

/// Host parallelism, as the engine and the load generator see it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run(o: &Options) -> Result<(RunRecord, Tracer), String> {
    let cpus = nproc();
    let peak_rss = child_peak_rss_mib(o, false)?;
    let tracer = Tracer::new(o.trace);
    let mut workload: Box<dyn Workload> = match o.workload.as_str() {
        "sweep" => Box::new(sweep::Sweep::new(o.seed, cpus, &tracer)),
        "explore" => Box::new(explore::Explore::new(o.seed, cpus)),
        "ingest" => Box::new(ingest::Ingest::new(o.seed, cpus)?),
        other => return Err(format!("unknown workload {other} (sweep, explore, ingest)")),
    };
    // The traced run splits its time: an untraced window, then a traced
    // one, so tracing overhead is a same-process difference.
    let seconds = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut plain = workload.window(&Tracer::new(false), seconds);
    plain.e2e.insert("peak_rss_mib", peak_rss);
    plain.extras.insert(
        "error_rate",
        plain.failed as f64 / plain.attempted.max(1) as f64,
    );

    let mut record = RunRecord {
        provenance: Provenance {
            cpus,
            git_rev: report::git_rev(),
            workload: o.workload.clone(),
            seed: o.seed,
            runs: (plain.rounds, 0),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (opt-level 3, codegen-units 1, lto thin)"
            },
            params: workload.params(),
        },
        attempted: plain.attempted,
        failed: plain.failed,
        ..RunRecord::default()
    };
    let missing = report::missing_end_to_end(&plain.e2e);
    if !missing.is_empty() {
        plain.fail("metrics measured", &format!("no value for {missing:?}"));
    }
    record.checks.append(&mut plain.checks);
    record.defects.append(&mut plain.defects);
    record.end_to_end = plain.e2e;
    record.extras = plain.extras;

    if o.trace {
        let mut traced = workload.window(&tracer, seconds);
        traced
            .e2e
            .insert("peak_rss_mib", child_peak_rss_mib(o, true)?);
        record.provenance.runs.1 = traced.rounds;
        let traced_name = |mut c: Check| {
            c.name.push_str(" (traced)");
            c
        };
        record
            .checks
            .extend(traced.checks.into_iter().map(traced_name));
        record
            .defects
            .extend(traced.defects.into_iter().map(traced_name));
        let mut layers = traced.layers;
        for name in END_TO_END.iter().map(|d| d.0) {
            if let (Some(a), Some(b)) = (record.end_to_end.get(name), traced.e2e.get(name)) {
                layers.insert(overhead_name(name), b - a);
            }
        }
        match workload.probes(&tracer) {
            Ok(mut probed) => layers.append(&mut probed),
            Err(e) => record.checks.push(Check {
                name: "per-layer probes".into(),
                ok: false,
                detail: e,
            }),
        }
        record.per_layer = layers;
        record.layers = trace::layer_table(&tracer.spans());
    }
    Ok((record, tracer))
}

/// The per-layer name of an end-to-end metric's tracing overhead.
fn overhead_name(name: &str) -> &'static str {
    report::PER_LAYER
        .iter()
        .map(|d| d.0)
        .find(|n| n.strip_prefix("overhead.") == Some(name))
        .expect("every end-to-end metric has an overhead entry")
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("usage: perfbench --compare A.json B.json");
            return ExitCode::from(2);
        };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(3)
            }
        };
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if o.program_only {
        return match program_only(&o) {
            Ok(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let (record, tracer) = match run(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", record.table(o.trace));
    let stem = format!("{}-seed{}-trace{}", o.workload, o.seed, u8::from(o.trace));
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record.to_json()));
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            dir.display()
        );
    }
    if o.trace {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let values = if o.trace {
        &record.per_layer
    } else {
        &record.end_to_end
    };
    let correct = record.correct();
    println!(
        "{}",
        report::result_line(correct, record.attempted, record.failed, o.trace, values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::from(1)
    }
}
