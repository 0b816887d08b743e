//! One benchmark for both stacks of the repository: the GTPN solver
//! (`model-figures`, `model-scale`) and the live runtime (`fleet-virtual`,
//! `node-real`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload model-figures --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root (it reads `repro_output.txt`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. Lines above it carry the host record, the workload's
//! named metrics and the checks' findings. A failed correctness check
//! makes the exit status nonzero. Traced runs also write their spans to
//! `.bench_out/`.
//!
//! `perfbench/README.md` says what each workload and metric is for.

mod affinity;
mod catalog;
mod golden;
mod json;
mod live;
mod model;
mod probes;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The §6.3 server compute time X, µs.
pub const PAPER_X_US: f64 = 1_140.0;

/// The fig6.17 X list (`repro live-sweep`'s default curve), µs. Seeds
/// other than 0 draw X from it.
pub const X_LIST: [f64; 11] = [
    0.0, 285.0, 570.0, 855.0, 1_140.0, 1_425.0, 1_710.0, 2_280.0, 2_850.0, 4_275.0, 5_700.0,
];

/// Set-ups per run: this process plus `SETUP_CHILDREN` re-executions that
/// stop after set-up; `setup_s` is the median of their times.
const SETUP_CHILDREN: usize = 16;

/// Timed load of `node-real`'s real-clock runs, as a share of the run's
/// `--seconds`.
const NODE_LOAD_SHARE: f64 = 0.8;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `wall_s`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a workload's timed part produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiment sections, grid points, runs).
    pub attempted: u64,
    /// Operations that failed a check, errored or panicked.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// End-to-end metrics shared by every workload.
    pub e2e: Vec<Metric>,
    /// The workload's own named end-to-end numbers (printed, not bounded).
    pub report: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form findings printed above the result line.
    pub notes: Vec<String>,
    /// Host seconds of the timed work (all passes or runs).
    pub timed_s: f64,
    /// Spans recorded during the timed work (before any probe ran).
    pub timed_spans: usize,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// The message of a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// How much the host time of repeated units of work (passes, runs)
/// varied inside this run: count, lower quartile, median and IQR over
/// median.
pub fn spread_note(unit: &str, seconds: &[f64]) -> String {
    let spread =
        stats::relative_iqr(seconds).map_or_else(|| "n/a".to_string(), |r| format!("{r:.4}"));
    format!(
        "{} {unit}(s), lower quartile {:.4} s, median {:.4} s, IQR/median {spread}",
        seconds.len(),
        unit_time(seconds),
        median_or(seconds, 0.0)
    )
}

/// The reported host time of a repeated unit of work: the lower quartile
/// of its repetitions ([`stats::lower_quartile`]), 0 when there are none.
pub fn unit_time(seconds: &[f64]) -> f64 {
    stats::lower_quartile(seconds).unwrap_or(0.0)
}

/// Median of `values`, or `default` when empty.
pub fn median_or(values: &[f64], default: f64) -> f64 {
    stats::median(values).unwrap_or(default)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !catalog::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            catalog::WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

/// The server compute time of a seed's extra checked runs: none for seed
/// 0 (the paper's configuration alone, checked byte for byte), a
/// SplitMix64 draw from [`X_LIST`] otherwise. The timed work always runs
/// the paper's configuration, so every seed measures the same work.
pub fn check_x(seed: u64) -> Option<f64> {
    if seed == 0 {
        return None;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Some(X_LIST[(z % X_LIST.len() as u64) as usize])
}

/// A workload after set-up, ready to time.
enum Prepared {
    Figures(model::Figures),
    Scale(model::Scale),
    Fleet(live::Live),
    Node(live::Live),
}

fn setup(a: &Args, root: &Path) -> Result<Prepared, String> {
    Ok(match a.workload.as_str() {
        "model-figures" => Prepared::Figures(model::figures_setup(root)?),
        "model-scale" => Prepared::Scale(model::scale_setup(root, check_x(a.seed))?),
        "fleet-virtual" => Prepared::Fleet(live::fleet_setup(check_x(a.seed))?),
        "node-real" => {
            let load = Duration::from_secs_f64(a.seconds * NODE_LOAD_SHARE);
            Prepared::Node(live::node_setup(load, check_x(a.seed))?)
        }
        other => unreachable!("validated workload {other}"),
    })
}

fn run(p: &Prepared, seconds: f64, tr: &Tracer) -> Outcome {
    match p {
        Prepared::Figures(f) => model::figures_run(f, seconds, tr),
        Prepared::Scale(s) => model::scale_run(s, tr),
        Prepared::Fleet(l) => live::fleet_run(l, seconds, tr),
        Prepared::Node(l) => live::node_run(l, tr),
    }
}

/// Peak resident set of this process so far (VmHWM), MiB. Workloads read
/// it right after their timed work, before any seed-drawn checked runs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Re-executes this benchmark `SETUP_CHILDREN` times with `--setup-only`
/// and collects each child's set-up time.
fn child_setups() -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::with_capacity(SETUP_CHILDREN);
    for _ in 0..SETUP_CHILDREN {
        let child = Command::new(&exe)
            .args(std::env::args().skip(1))
            .arg("--setup-only")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        let secs = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|_| child.status.success())
            .ok_or_else(|| format!("set-up child failed: {}", text.trim()))?;
        out.push(secs);
    }
    Ok(out)
}

/// The host record: cores and sweep pool as found before set-up, the CPUs
/// the run could use after it (1 once `fleet-virtual` pinned itself),
/// compiler and build profile.
struct Host {
    nproc: usize,
    sweep_threads: usize,
}

impl Host {
    fn now() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            sweep_threads: hsipc::sweep::threads(),
        }
    }

    fn json(&self) -> String {
        let usable = std::thread::available_parallelism().map_or(1, usize::from);
        format!(
            "{{\"nproc\": {}, \"sweep_threads\": {}, \"usable_cpus\": {usable}, \"rustc\": {}, \"profile\": {}, \"parallel_speedup\": {}}}",
            self.nproc,
            self.sweep_threads,
            json::string(env!("PERFBENCH_RUSTC")),
            json::string(env!("PERFBENCH_PROFILE")),
            // A speedup needs the cores to show it; none is claimed beyond
            // what the host has.
            json::string(if self.sweep_threads > self.nproc {
                "not reported: sweep threads exceed host cores"
            } else {
                "not measured"
            }),
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::now();
    let root = Path::new(".");
    let prepared = match setup(&args, root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let own_setup = t_start.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {own_setup}");
        return ExitCode::SUCCESS;
    }
    // The timed work starts here; the children re-run set-up afterwards
    // so they cannot perturb it.
    let tracer = Tracer::new(args.trace);
    let mut outcome = run(&prepared, args.seconds, &tracer);
    let mut setups = match child_setups() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    setups.push(own_setup);

    println!("host {}", host.json());
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    let mut e2e = vec![Metric::new("setup_s", median_or(&setups, 0.0), "s")];
    e2e.append(&mut outcome.e2e);
    // A check that fails outside any single operation (a model gate over
    // all runs) still counts, so `attempted` never reads below `failed`.
    let attempted = outcome.attempted.max(outcome.failed).max(1);
    let error_rate = outcome.failed as f64 / attempted as f64;
    for m in e2e.iter().chain(&outcome.report) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("metric error_rate {error_rate} fraction");
    for n in &outcome.notes {
        println!("note {n}");
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }

    let metrics = if args.trace {
        let mut layers = std::mem::take(&mut outcome.layers);
        layers.extend(outcome.report.iter().cloned());
        layers.push(Metric::new("error_rate", error_rate, "fraction"));
        // The traced run's own `wall_s`: its difference from an untraced
        // run's is the tracing overhead as measured end to end.
        if let Some(wall) = e2e.iter().find(|m| m.name == "wall_s") {
            layers.push(Metric::new("trace.wall_s", wall.value, "s"));
        }
        layers.push(Metric::new(
            "trace.overhead_pct",
            trace_overhead_pct(&outcome),
            "%",
        ));
        let out_dir = root.join(".bench_out");
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        catalog::complete_layers(&layers)
    } else {
        catalog::complete_e2e(&e2e)
    };
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// An estimate of the tracer's own cost as a share of the timed work: the
/// cost of recording one span, measured alone, times the spans the timed
/// work recorded, over its host time. It leaves out any contention the
/// span store sees under the sweep pool; `trace.wall_s` against an
/// untraced run's `wall_s` is the end-to-end measurement.
fn trace_overhead_pct(o: &Outcome) -> f64 {
    let probe = Tracer::new(true);
    let n = 10_000u32;
    let t0 = Instant::now();
    for i in 0..n {
        probe.span("overhead", None, i, |_| ());
    }
    let per_span = t0.elapsed().as_secs_f64() / f64::from(n);
    100.0 * per_span * o.timed_spans as f64 / o.timed_s.max(1e-9)
}
