//! The two runtime workloads: `fleet-virtual` (16 arch III nodes under
//! the virtual clock, remote traffic) and `node-real` (one arch III node on
//! the real clock, where host and MP threads truly run concurrently).

use crate::probes;
use crate::trace::Tracer;
use crate::{Metric, Outcome};
use hsipc::archsim::timings::{Architecture, Locality};
use hsipc::models;
use hsipc::runtime::{self, ClockMode, Config, RunReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// `fleet-virtual`'s virtual load per run: each of the 128 conversations
/// completes hundreds of round trips, and a run takes a few host seconds,
/// so one `--seconds` budget holds several runs to take a quartile of.
const FLEET_LOAD: Duration = Duration::from_secs(10);

/// Virtual load of `fleet-virtual`'s two checked runs at a seed-drawn X.
const FLEET_CHECK_LOAD: Duration = Duration::from_secs(2);

/// Load of the set-up run that spawns and registers every actor once.
const SPAWN_LOAD: Duration = Duration::from_millis(1);

/// Load of each of `node-real`'s extra checked runs at a seed-drawn X.
const NODE_CHECK_LOAD: Duration = Duration::from_secs(2);

/// `node-real`'s checked runs at a seed-drawn X; the model gate takes
/// their median throughput, as it does the timed runs'.
const NODE_CHECK_RUNS: u32 = 3;

/// Unpinned runs of `fleet-virtual`'s traced run.
const UNPINNED_RUNS: u32 = 3;

/// Runs `node-real`'s timed load is split into.
const NODE_RUNS: u32 = 5;

/// The round trips whose host time is `node-real`'s `wall_s`.
const NODE_WALL_ROUND_TRIPS: f64 = 1_000.0;

/// The live cross-validation band of `tests/live_sweep.rs`.
const MODEL_BAND: f64 = 0.25;

/// The simulated statistics a virtual-clock run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct SimStats {
    round_trips: u64,
    ring_frames: u64,
    handoffs: u64,
    buffer_stalls: u64,
    virtual_ns: u128,
    latency_us: [f64; 5],
}

impl SimStats {
    fn of(r: &RunReport) -> SimStats {
        let l = &r.latency;
        SimStats {
            round_trips: r.round_trips,
            ring_frames: r.ring_frames,
            handoffs: r.handoffs,
            buffer_stalls: r.buffer_stalls,
            virtual_ns: r.elapsed.as_nanos(),
            latency_us: [l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us],
        }
    }
}

/// `fleet-virtual` at the paper's X as recorded at this revision: 27,008
/// round trips (211 per conversation), two ring frames each, and the
/// virtual latency quantiles (mean, p50, p95, p99, max µs) bit for bit.
const FLEET_RECORDED: SimStats = SimStats {
    round_trips: 27_008,
    ring_frames: 54_016,
    handoffs: 510_154,
    buffer_stalls: 0,
    virtual_ns: 10_025_000_000,
    latency_us: [
        47_486.888_625_592_415,
        47_185.92,
        48_133.035_985_731_27,
        48_217.196_366_230_68,
        49_952.0,
    ],
};

/// Everything a live workload needs before its first timed run.
pub struct Live {
    config: Config,
    check_x_us: Option<f64>,
}

fn config(
    nodes: u32,
    conversations: u32,
    x_us: f64,
    locality: Locality,
    clock: ClockMode,
    load: Duration,
) -> Config {
    let mut c = Config::new(Architecture::SmartBus);
    c.nodes = nodes;
    c.conversations = conversations;
    c.server_compute_us = x_us;
    c.locality = locality;
    c.clock = clock;
    c.duration = load;
    c
}

/// The GTPN model's throughput per node for a live configuration.
fn model_per_ms(c: &Config) -> Result<f64, String> {
    models::live_throughput_in(
        models::default_engine(),
        c.architecture,
        c.locality,
        c.conversations,
        c.server_compute_us,
    )
    .map_err(|e| format!("model point: {e}"))
}

/// Set-up of `fleet-virtual`: the process pinned to one CPU (see
/// [`crate::affinity`]), the paper's configuration for the timed runs,
/// and one minimal run that spawns and registers the whole fleet.
/// `check_x_us` (drawn from the seed) adds two checked runs at another X.
pub fn fleet_setup(check_x_us: Option<f64>) -> Result<Live, String> {
    crate::affinity::pin_to_one_cpu();
    let mut c = config(
        16,
        8,
        crate::PAPER_X_US,
        Locality::NonLocal,
        ClockMode::Virtual,
        SPAWN_LOAD,
    );
    guarded_run(&c)?;
    c.duration = FLEET_LOAD;
    Ok(Live {
        config: c,
        check_x_us,
    })
}

/// Set-up of `node-real`: the paper's configuration for the timed load,
/// one minimal run that spawns and registers the node's actors, and the
/// model points the checks compare against. `check_x_us` (drawn from the
/// seed) adds one short checked run at another X.
pub fn node_setup(load: Duration, check_x_us: Option<f64>) -> Result<Live, String> {
    let mut c = config(
        1,
        4,
        crate::PAPER_X_US,
        Locality::Local,
        ClockMode::Real,
        SPAWN_LOAD,
    );
    guarded_run(&c)?;
    c.duration = load;
    model_per_ms(&c)?;
    if let Some(x) = check_x_us {
        let mut k = c.clone();
        k.server_compute_us = x;
        model_per_ms(&k)?;
    }
    Ok(Live {
        config: c,
        check_x_us,
    })
}

/// A run with its panics caught: a runtime invariant failure (such as a
/// `shared list overflow`) is one failed operation, not an aborted
/// benchmark.
fn guarded_run(c: &Config) -> Result<RunReport, String> {
    catch_unwind(AssertUnwindSafe(|| runtime::run(c)))
        .map_err(|e| format!("run panicked: {}", crate::panic_message(e.as_ref())))
}

/// Checks every run must pass: progress and a clean drain.
fn check_run(r: &RunReport, what: &str, out: &mut Outcome) {
    if r.round_trips == 0 {
        out.fail(format!("{what}: no round trips"));
    }
    if !r.clean_shutdown {
        out.fail(format!("{what}: unclean drain"));
    }
}

/// Live throughput per node (`live_per_ms`) against the model for `c`:
/// a one-line comparison and the signed error, percent.
fn vs_model(live_per_ms: f64, c: &Config, what: &str) -> Result<(String, f64), String> {
    let model = model_per_ms(c)?;
    let err = 100.0 * (live_per_ms - model) / model;
    Ok((
        format!("{what}: live {live_per_ms:.4}/ms vs model {model:.4}/ms ({err:+.1}%)"),
        err,
    ))
}

/// `node-real`'s model gate: live throughput within the band of
/// `tests/live_sweep.rs`.
fn model_gate(live_per_ms: f64, c: &Config, what: &str, out: &mut Outcome) {
    match vs_model(live_per_ms, c, what) {
        Ok((line, err)) if err.abs() < 100.0 * MODEL_BAND => out.notes.push(line),
        Ok((line, _)) => out.fail(format!("{line}, outside ±{:.0}%", 100.0 * MODEL_BAND)),
        Err(e) => out.fail(e),
    }
}

/// The model comparison of a non-local run is a finding, not a gate: at
/// this revision non-local live runs saturate well below the GTPN model
/// (see `perfbench/README.md`); the repository holds the band for local
/// runs only.
fn model_finding(r: &RunReport, c: &Config, what: &str, out: &mut Outcome) {
    match vs_model(r.throughput_per_ms / f64::from(r.nodes), c, what) {
        Ok((line, _)) => out.notes.push(format!("finding: {line}")),
        Err(e) => out.fail(e),
    }
}

fn process_cpu_s() -> f64 {
    // utime + stime, fields 14 and 15 of /proc/self/stat, in clock ticks
    // (USER_HZ, 100 on Linux).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Runs the virtual fleet once to warm up, then again until `seconds` are
/// spent (at least once more); the warm-up run is checked but not timed,
/// since a fresh process's first runs are measurably slower. Every run
/// must drain clean and reproduce the first run's simulated statistics
/// exactly — and the values recorded at this revision.
pub fn fleet_run(l: &Live, seconds: f64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut first: Option<RunReport> = None;
    let started = Instant::now();
    let cpu0 = process_cpu_s();
    let mut run = 0;
    while run < 2 || started.elapsed().as_secs_f64() + crate::median_or(&walls, 0.0) <= seconds {
        let t0 = Instant::now();
        let r = tr.span("runtime.run", None, run, |_| guarded_run(&l.config));
        if run > 0 {
            walls.push(t0.elapsed().as_secs_f64());
        }
        out.attempted += 1;
        match r {
            Ok(r) => {
                check_run(&r, &format!("run {run}"), &mut out);
                match &first {
                    Some(f) if SimStats::of(f) != SimStats::of(&r) => {
                        out.fail(format!("run {run}: simulated statistics differ from run 0"));
                    }
                    Some(_) => {}
                    None => first = Some(r),
                }
            }
            Err(e) => out.fail(e),
        }
        run += 1;
    }
    let cpu = process_cpu_s() - cpu0;
    out.e2e
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
    out.timed_s = walls.iter().sum();
    out.timed_spans = tr.spans().len();
    let Some(r) = first else {
        return out;
    };
    if SimStats::of(&r) != FLEET_RECORDED {
        out.fail(format!(
            "simulated statistics {:?} differ from the recorded {FLEET_RECORDED:?}",
            SimStats::of(&r)
        ));
    }
    model_finding(&r, &l.config, "paper-X run", &mut out);
    if let Some(x) = l.check_x_us {
        fleet_check(&l.config, x, &mut out);
    }
    out.notes.push(crate::spread_note("run", &walls));
    let wall = crate::unit_time(&walls);
    let rt = r.round_trips as f64;
    out.e2e.push(Metric::new("wall_s", wall, "s"));
    out.e2e.push(Metric::new("ops_per_s", rt / wall, "1/s"));
    out.report
        .push(Metric::new("sim_rt_per_s", rt / wall, "1/s"));
    if tr.on() {
        out.layers
            .push(Metric::new("runtime.round_trips", rt, "count"));
        out.layers.push(Metric::new(
            "runtime.buffer_stalls",
            r.buffer_stalls as f64,
            "count",
        ));
        out.layers.push(Metric::new(
            "runtime.virtual_s",
            r.elapsed.as_secs_f64(),
            "s",
        ));
        out.layers
            .push(Metric::new("host.cpu_s", cpu / walls.len() as f64, "s"));
        out.layers
            .push(Metric::new("clock.handoffs", r.handoffs as f64, "count"));
        out.layers.push(Metric::new(
            "clock.handoffs_per_rt",
            r.handoffs as f64 / rt,
            "count",
        ));
        out.layers.push(Metric::new(
            "clock.wall_ns_per_handoff",
            wall * 1e9 / r.handoffs.max(1) as f64,
            "ns",
        ));
        out.layers
            .push(Metric::new("netsim.frames", r.ring_frames as f64, "count"));
        out.layers.push(Metric::new(
            "netsim.frames_per_rt",
            r.ring_frames as f64 / rt,
            "count",
        ));
        out.layers.push(Metric::new(
            "netsim.peak_queue",
            r.peak_ring_queue as f64,
            "count",
        ));
        probes::fleet_layers(tr, &mut out);
        accounting(&mut out, wall * 1e9 / rt, &r);
        unpinned_layers(l, &r, tr, &mut out);
    }
    out
}

/// The timed runs pinned, as the program never runs: the same fleet run
/// [`UNPINNED_RUNS`] times on every CPU the process had (checked like the
/// timed runs), and the handoff probe there, so the cost pinning leaves
/// out shows beside `wall_s` and `clock.handoff_probe_ns`.
fn unpinned_layers(l: &Live, first: &RunReport, tr: &Tracer, out: &mut Outcome) {
    let mut walls = Vec::new();
    for run in 0..UNPINNED_RUNS {
        let t0 = Instant::now();
        let r = crate::affinity::unpinned(|| {
            tr.span("runtime.run.unpinned", None, run, |_| {
                guarded_run(&l.config)
            })
        });
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match r {
            Ok(r) if SimStats::of(&r) != SimStats::of(first) => out.fail(format!(
                "unpinned run {run}: simulated statistics differ from the pinned runs"
            )),
            Ok(r) => check_run(&r, &format!("unpinned run {run}"), out),
            Err(e) => out.fail(e),
        }
    }
    out.notes
        .push(format!("unpinned: {}", crate::spread_note("run", &walls)));
    out.layers.push(Metric::new(
        "runtime.unpinned_wall_s",
        crate::unit_time(&walls),
        "s",
    ));
    crate::affinity::unpinned(|| {
        probes::probe(tr, out, "clock.handoff_probe_ns.unpinned", || {
            Ok(probes::clock_handoff_ns(probes::HANDOFF_TURNS))
        })
    });
}

/// Two virtual runs at a seed-drawn X: both must make progress, drain
/// clean and agree on every simulated statistic.
fn fleet_check(paper: &Config, x_us: f64, out: &mut Outcome) {
    let mut c = paper.clone();
    c.server_compute_us = x_us;
    c.duration = FLEET_CHECK_LOAD;
    let what = format!("X={x_us} run");
    let mut reports = Vec::with_capacity(2);
    for _ in 0..2 {
        out.attempted += 1;
        match guarded_run(&c) {
            Ok(r) => {
                check_run(&r, &what, out);
                reports.push(r);
            }
            Err(e) => out.fail(e),
        }
    }
    if let [a, b] = reports.as_slice() {
        if SimStats::of(a) != SimStats::of(b) {
            out.fail(format!(
                "{what}: two runs differ in their simulated statistics"
            ));
        }
        model_finding(a, &c, &what, out);
    }
}

/// The per-round-trip accounting row: each probe's cost times its count
/// per round trip, summed, beside the measured wall time per round trip.
/// Counts: handoffs and frames as the run reported them, one kernel
/// rendezvous, and the queue transactions the node loop's protocol costs
/// ([`probes::SMARTMEM_TXN_PAIRS_PER_RT`]).
fn accounting(out: &mut Outcome, measured_ns_per_rt: f64, r: &RunReport) {
    let get = |name: &str| {
        out.layers
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let rt = r.round_trips as f64;
    let rows = [
        (
            "clock",
            get("clock.handoff_probe_ns"),
            r.handoffs as f64 / rt,
        ),
        ("msgkernel", get("msgkernel.roundtrip_ns"), 1.0),
        (
            "smartmem",
            get("smartmem.lockfree.txn_ns"),
            probes::SMARTMEM_TXN_PAIRS_PER_RT,
        ),
        ("netsim", get("netsim.frame_ns"), r.ring_frames as f64 / rt),
    ];
    let mut explained = 0.0;
    let mut line = String::from("per-round-trip accounting (ns/rt):");
    for (layer, cost, count) in rows {
        explained += cost * count;
        line.push_str(&format!(
            " {layer} {cost:.0} x {count:.2} = {:.0};",
            cost * count
        ));
        out.layers.push(Metric::new(
            &format!("accounting.{layer}_ns_per_rt"),
            cost * count,
            "ns",
        ));
    }
    let remainder = measured_ns_per_rt - explained;
    line.push_str(&format!(
        " explained {explained:.0}, measured {measured_ns_per_rt:.0}, unexplained {remainder:.0}"
    ));
    out.notes.push(line);
    out.layers.push(Metric::new(
        "accounting.explained_ns_per_rt",
        explained,
        "ns",
    ));
    out.layers.push(Metric::new(
        "accounting.measured_ns_per_rt",
        measured_ns_per_rt,
        "ns",
    ));
    out.layers.push(Metric::new(
        "accounting.unexplained_ns_per_rt",
        remainder,
        "ns",
    ));
}

/// Runs the real-clock node [`NODE_RUNS`] times for equal shares of the
/// configured load, so a burst of host contention during one run cannot
/// move the numbers much; then (other seeds) three short checked runs at
/// the seed's X. Every run must make progress and drain clean; the median
/// throughput of the timed runs, and of the checked runs, must stay within
/// the model band.
pub fn node_run(l: &Live, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut c = l.config.clone();
    c.duration = l.config.duration / NODE_RUNS;
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    for run in 0..NODE_RUNS {
        let t0 = Instant::now();
        let r = tr.span("runtime.run", None, run, |_| guarded_run(&c));
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match r {
            Ok(r) => {
                check_run(&r, &format!("run {run}"), &mut out);
                reports.push(r);
            }
            Err(e) => out.fail(e),
        }
    }
    out.timed_s = walls.iter().sum();
    out.timed_spans = tr.spans().len();
    out.e2e
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
    out.notes.push(crate::spread_note("run", &walls));
    if reports.is_empty() {
        return out;
    }
    let median = |f: &dyn Fn(&RunReport) -> f64| {
        crate::median_or(&reports.iter().map(f).collect::<Vec<_>>(), 0.0)
    };
    let per_ms = median(&|r| r.throughput_per_ms);
    model_gate(per_ms, &c, "paper-X runs", &mut out);
    let tails = [50.0, 95.0, 99.0];
    let fewest = reports.iter().map(|r| r.round_trips).min().unwrap_or(0);
    let supported = crate::stats::highest_supported_percentile(fewest, &tails, 10).unwrap_or(0.0);
    if supported < 95.0 {
        out.fail(format!(
            "{fewest} round trips in a run cannot support a p95"
        ));
    }
    let rates: Vec<f64> = reports
        .iter()
        .map(|r| r.round_trips as f64 / r.elapsed.as_secs_f64())
        .collect();
    // The load time is fixed, so the host time that can move is the time
    // a fixed amount of work takes at the runs' rate.
    let rate = crate::stats::upper_quartile(&rates).unwrap_or(0.0);
    out.e2e
        .push(Metric::new("wall_s", NODE_WALL_ROUND_TRIPS / rate, "s"));
    out.e2e.push(Metric::new("ops_per_s", rate, "1/s"));
    out.report
        .push(Metric::new("live_rt_per_ms", per_ms, "1/ms"));
    out.report.push(Metric::new(
        "live_p50_us",
        median(&|r| r.latency.p50_us),
        "us",
    ));
    out.report.push(Metric::new(
        "live_p95_us",
        median(&|r| r.latency.p95_us),
        "us",
    ));
    if supported >= 99.0 {
        out.notes.push(format!(
            "context: live_p99_us {} (p99 varies widely run to run)",
            median(&|r| r.latency.p99_us)
        ));
    }
    if let Some(x) = l.check_x_us {
        let mut k = l.config.clone();
        k.server_compute_us = x;
        k.duration = NODE_CHECK_LOAD;
        let what = format!("X={x} runs");
        let mut per_ms = Vec::new();
        for _ in 0..NODE_CHECK_RUNS {
            out.attempted += 1;
            match guarded_run(&k) {
                Ok(r) => {
                    check_run(&r, &what, &mut out);
                    per_ms.push(r.throughput_per_ms);
                }
                Err(e) => out.fail(e),
            }
        }
        if !per_ms.is_empty() {
            model_gate(crate::median_or(&per_ms, 0.0), &k, &what, &mut out);
        }
    }
    if tr.on() {
        let rt: u64 = reports.iter().map(|r| r.round_trips).sum();
        out.layers
            .push(Metric::new("runtime.round_trips", rt as f64, "count"));
        out.layers.push(Metric::new(
            "runtime.buffer_stalls",
            reports.iter().map(|r| r.buffer_stalls).sum::<u64>() as f64,
            "count",
        ));
        // Overshoot summed over every run: mean per call for each class,
        // and in total per round trip.
        let mut total_us = 0.0;
        for (i, row) in reports[0].overshoot.iter().enumerate() {
            let rows = reports.iter().filter_map(|r| r.overshoot.get(i));
            let (count, over) = rows.fold((0u64, 0.0), |(n, o), r| {
                (n + r.count, o + r.actual_us - r.requested_us)
            });
            total_us += over;
            if count > 0 {
                out.layers.push(Metric::new(
                    &format!("clock.overshoot_us.{}", row.class),
                    over / count as f64,
                    "us",
                ));
            }
        }
        out.layers.push(Metric::new(
            "clock.overshoot_us_per_rt",
            total_us / rt.max(1) as f64,
            "us",
        ));
        probes::node_layers(tr, &mut out);
    }
    out
}
