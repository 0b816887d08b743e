//! The two solver workloads: `model-figures` (every registry experiment
//! but `fig7.scale`, repeated from cold caches) and `model-scale` (the
//! `fig7.scale` grid: exact lumped points up to n = 16, DES at n = 32).

use crate::golden::split_sections;
use crate::probes;
use crate::trace::Tracer;
use crate::{Metric, Outcome};
use hsipc::archsim::timings::Architecture;
use hsipc::gtpn::{self, AnalysisEngine, BackendKind, BackendSel, DesOptions, EngineConfig};
use hsipc::sweep::Grid;
use hsipc::{experiments, models};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The experiment id `model-scale` runs; `model-figures` runs the rest.
pub const SCALE_ID: &str = "fig7.scale";

/// `fig7.scale`'s conversation counts; n ≤ 16 solve exactly, n = 32 by DES.
pub const SCALE_POINTS: [u32; 5] = [2, 4, 8, 16, 32];

/// `fig7.scale`'s server compute time, µs.
pub const SCALE_X_US: f64 = 5_700.0;

/// Cold caches: the engine solution cache and the reachability memo.
fn clear_caches() {
    gtpn::engine::clear_cache();
    gtpn::cache::clear();
}

/// Reads the committed golden output and returns the sections for `ids`.
pub fn golden_sections(root: &std::path::Path, ids: &[&str]) -> Result<Vec<String>, String> {
    let path = root.join("repro_output.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let all: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
    let sections = split_sections(&text, &all)?;
    Ok(ids
        .iter()
        .map(|id| {
            sections
                .iter()
                .find(|(s, _)| s == id)
                .map(|(_, body)| body.to_string())
                .unwrap_or_default()
        })
        .collect())
}

/// Everything `model-figures` needs before its first timed pass.
pub struct Figures {
    ids: Vec<&'static str>,
    golden: Vec<String>,
    threads: usize,
}

/// Set-up of `model-figures`: registry, golden sections, pool size, and
/// the process-wide default engine.
pub fn figures_setup(root: &std::path::Path) -> Result<Figures, String> {
    let ids: Vec<&'static str> = experiments::all()
        .iter()
        .map(|e| e.id)
        .filter(|id| *id != SCALE_ID)
        .collect();
    let golden = golden_sections(root, &ids)?;
    let _ = models::default_engine();
    clear_caches();
    Ok(Figures {
        ids,
        golden,
        threads: hsipc::sweep::threads(),
    })
}

/// Runs passes of every id until `seconds` are spent (at least one pass),
/// each from cold caches, each section checked against the golden file.
pub fn figures_run(f: &Figures, seconds: f64, tr: &Tracer) -> Outcome {
    let mode = hsipc::sweep::exec_mode();
    let mut out = Outcome::default();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut per_id: Vec<Vec<f64>> = vec![Vec::new(); f.ids.len()];
    let mut engine_stats = Vec::new();
    let started = Instant::now();
    let mut pass = 0u32;
    while pass == 0 || started.elapsed().as_secs_f64() + crate::median_or(&pass_s, 0.0) <= seconds {
        clear_caches();
        let t0 = Instant::now();
        let results = tr.span("pass", None, pass, |parent| {
            Grid::new(f.ids.clone()).eval_with(mode, f.threads, |id| {
                tr.span(&format!("experiments.{id}"), parent, pass, |_| {
                    let t = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        experiments::run_with(id, mode, f.threads)
                    }));
                    (r, t.elapsed().as_secs_f64())
                })
            })
        });
        pass_s.push(t0.elapsed().as_secs_f64());
        engine_stats.push(gtpn::engine::cache_stats());
        for (k, (result, secs)) in results.into_iter().enumerate() {
            per_id[k].push(secs);
            out.attempted += 1;
            let ok = matches!(result, Ok(Some(text)) if f.golden[k].strip_suffix('\n') == Some(text.as_str()));
            if !ok {
                out.fail(format!(
                    "pass {pass}: `{}` differs from repro_output.txt",
                    f.ids[k]
                ));
            }
        }
        pass += 1;
    }
    let wall = crate::unit_time(&pass_s);
    out.e2e.push(Metric::new("wall_s", wall, "s"));
    out.e2e
        .push(Metric::new("ops_per_s", f.ids.len() as f64 / wall, "1/s"));
    out.e2e
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
    out.timed_s = pass_s.iter().sum();
    out.timed_spans = tr.spans().len();
    out.notes.push(crate::spread_note("pass", &pass_s));
    if tr.on() {
        for (id, secs) in f.ids.iter().zip(&per_id) {
            out.layers.push(Metric::new(
                &format!("experiments.{id}.s"),
                crate::median_or(secs, 0.0),
                "s",
            ));
        }
        out.layers
            .push(Metric::new("sweep.threads", f.threads as f64, "count"));
        let slowest = per_id
            .iter()
            .map(|v| crate::median_or(v, 0.0))
            .fold(0.0, f64::max);
        out.layers
            .push(Metric::new("sweep.slowest_point_s", slowest, "s"));
        out.layers
            .push(Metric::new("model.passes", f64::from(pass), "count"));
        // Engine-cache counters of the last pass (counters reset with the
        // cache at the start of each pass).
        let st = engine_stats.last().copied().expect("at least one pass");
        let probes = (st.hits + st.misses) as f64;
        out.layers
            .push(Metric::new("engine.hits", st.hits as f64, "count"));
        out.layers
            .push(Metric::new("engine.misses", st.misses as f64, "count"));
        out.layers.push(Metric::new(
            "engine.hit_rate",
            st.hits as f64 / probes.max(1.0),
            "fraction",
        ));
        out.layers.push(Metric::new(
            "engine.evictions",
            st.evictions as f64,
            "count",
        ));
        out.layers.push(Metric::new(
            "engine.cache_mb",
            st.bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ));
        probes::solver_layers(tr, &mut out);
    }
    out
}

/// Everything `model-scale` needs before its timed pass.
pub struct Scale {
    golden: String,
    check_x_us: Option<f64>,
    threads: usize,
}

/// Set-up of `model-scale`: the golden section, the process-wide default
/// engine, cold caches. `check_x_us` (drawn from the seed) adds checked
/// solves of the small points at another X.
pub fn scale_setup(root: &std::path::Path, check_x_us: Option<f64>) -> Result<Scale, String> {
    let golden = golden_sections(root, &[SCALE_ID])?.pop().expect("one id");
    let _ = models::default_engine();
    clear_caches();
    Ok(Scale {
        golden,
        check_x_us,
        threads: hsipc::sweep::threads(),
    })
}

/// Runs `fig7.scale` once through the registry on the sweep pool (the
/// n = 16 point bounds the pass, so one pass is the unit of work) and
/// checks its section against the golden file. Traced runs then probe
/// each grid point alone ([`scale_layers`]).
pub fn scale_run(s: &Scale, tr: &Tracer) -> Outcome {
    let mode = hsipc::sweep::exec_mode();
    let mut out = Outcome::default();
    clear_caches();
    let t0 = Instant::now();
    let result = tr.span(&format!("experiments.{SCALE_ID}"), None, 0, |_| {
        catch_unwind(AssertUnwindSafe(|| {
            experiments::run_with(SCALE_ID, mode, s.threads)
        }))
    });
    let wall = t0.elapsed().as_secs_f64();
    let hits = gtpn::engine::cache_stats().hits;
    out.attempted += 1;
    match result {
        Ok(Some(text)) if s.golden.strip_suffix('\n') == Some(text.as_str()) => {}
        Ok(Some(text)) => out.fail(format!(
            "{SCALE_ID} section differs from repro_output.txt at {:?}",
            text.lines().zip(s.golden.lines()).find(|(a, b)| a != b)
        )),
        Ok(None) => out.fail(format!("{SCALE_ID} is not in the registry")),
        Err(e) => out.fail(format!(
            "{SCALE_ID} panicked: {}",
            crate::panic_message(e.as_ref())
        )),
    }
    out.e2e.push(Metric::new("wall_s", wall, "s"));
    out.e2e.push(Metric::new(
        "ops_per_s",
        SCALE_POINTS.len() as f64 / wall,
        "1/s",
    ));
    out.e2e
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
    out.timed_s = wall;
    out.timed_spans = tr.spans().len();
    if tr.on() {
        out.layers
            .push(Metric::new(&format!("experiments.{SCALE_ID}.s"), wall, "s"));
        out.layers
            .push(Metric::new("sweep.threads", s.threads as f64, "count"));
        out.layers
            .push(Metric::new("engine.hits", hits as f64, "count"));
        if let Err(e) = scale_layers(tr, &mut out) {
            out.fail(e);
        }
    }
    if let Some(x) = s.check_x_us {
        seed_check(x, &mut out);
    }
    out
}

/// A cache-less engine configured as `fig7.scale` configures its own:
/// lumping pinned on, `backend` `Auto` for the exact points and `Des` for
/// n = 32 (the result the `Auto` fallback reaches).
fn scale_engine(backend: BackendSel) -> AnalysisEngine {
    AnalysisEngine::new(EngineConfig {
        backend,
        tolerance: models::TOLERANCE,
        max_sweeps: models::MAX_SWEEPS,
        state_budget: models::STATE_BUDGET,
        des: DesOptions::default(),
        par_solve: gtpn::par::par_solve_enabled(),
        warm_start: gtpn::engine::warm_start_enabled(),
        lump: gtpn::LumpSel::On,
    })
    .with_cache(0)
}

/// The per-point layers of `model-scale`, probed after the timed pass:
/// each grid point built and analyzed alone, one after another, on a
/// cache-less engine configured as the figure's. The exact points' span
/// covers BFS, lumping and solve; the n = 32 span is the DES estimate.
fn scale_layers(tr: &Tracer, out: &mut Outcome) -> Result<(), String> {
    clear_caches();
    let exact = scale_engine(BackendSel::Auto);
    let des = scale_engine(BackendSel::Des);
    let mut slowest = 0.0f64;
    for n in SCALE_POINTS {
        let (engine, kind) = if n <= 16 {
            (&exact, "exact_lumped")
        } else {
            (&des, "des")
        };
        let net = tr
            .span("models.build", None, n, |_| {
                models::local::build(Architecture::MessageCoprocessor, n, SCALE_X_US)
            })
            .map_err(|e| format!("n={n}: build: {e}"))?;
        let t = Instant::now();
        let analysis = tr
            .span(&format!("{kind}.n{n}"), None, n, |_| engine.analyze(&net))
            .map_err(|e| format!("n={n}: analyze: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        slowest = slowest.max(secs);
        out.layers
            .push(Metric::new(&format!("{kind}.s.n{n}"), secs, "s"));
        if n == 16 {
            out.layers.push(Metric::new(
                "exact_lumped.states.n16",
                analysis.states() as f64,
                "count",
            ));
            out.layers.push(Metric::new(
                "exact_lumped.sweeps.n16",
                analysis.iterations().unwrap_or(0) as f64,
                "count",
            ));
        }
        if let Some(ci) = analysis.resource_interval("lambda") {
            let per_us = analysis
                .resource_usage("lambda")
                .map_err(|e| format!("n={n}: {e}"))?;
            out.layers.push(Metric::new(
                &format!("{kind}.rel_half_width.n{n}"),
                ci.half_width / per_us,
                "fraction",
            ));
        }
    }
    out.layers
        .push(Metric::new("sweep.slowest_point_s", slowest, "s"));
    out.layers.push(Metric::new(
        "models.build.s",
        tr.total_s("models.build"),
        "s",
    ));
    Ok(())
}

/// Conversation counts solved at a seed's X: the exact points cheap
/// enough to solve twice.
const CHECK_POINTS: [u32; 3] = [2, 4, 8];

/// At a seed-drawn X there is no golden text. Each small point is solved
/// twice through `models::local::solve_in` on separate cache-less
/// engines configured as the figure's, and must agree bit for bit, come
/// from the exact backend, and the curve must not fall as conversations
/// are added (closed-loop throughput is monotone in n).
fn seed_check(x_us: f64, out: &mut Outcome) {
    let solve = |n| {
        models::local::solve_in(
            &scale_engine(BackendSel::Auto),
            Architecture::MessageCoprocessor,
            n,
            x_us,
        )
        .map_err(|e| format!("X={x_us} n={n}: {e}"))
    };
    let mut prev: Option<f64> = None;
    for n in CHECK_POINTS {
        out.attempted += 1;
        match (solve(n), solve(n)) {
            (Ok(a), Ok(b)) => {
                let per_ms = a.throughput_per_ms;
                if per_ms.to_bits() != b.throughput_per_ms.to_bits() || a.states != b.states {
                    out.fail(format!("X={x_us} n={n}: two solves differ"));
                } else if a.backend != BackendKind::Exact || !per_ms.is_finite() || per_ms <= 0.0 {
                    out.fail(format!(
                        "X={x_us} n={n}: backend {} throughput {per_ms}",
                        a.backend
                    ));
                } else if prev.is_some_and(|p| per_ms < p * (1.0 - 1e-9)) {
                    out.fail(format!(
                        "X={x_us} n={n}: throughput falls as conversations are added"
                    ));
                }
                prev = Some(per_ms);
            }
            (Err(e), _) | (_, Err(e)) => out.fail(e),
        }
    }
}
