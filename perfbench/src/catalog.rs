//! The benchmark's named workloads and metrics. `BENCHMARK.json` declares
//! the same names (a test keeps the two in step); `perfbench/README.md`
//! says what each is for and which end-to-end number each layer should
//! move.

use crate::Metric;

/// Every workload's `--workload` name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["model-figures", "model-scale", "fleet-virtual", "node-real"];

/// A declared metric: name and unit.
pub type Declared = (&'static str, &'static str);

/// End-to-end metrics every untraced run prints, whatever the workload.
pub const END_TO_END: [Declared; 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics every traced run prints. A layer the workload does
/// not exercise reads 0 — which is itself the "should not move" claim.
pub const PER_LAYER: &[Declared] = &[
    // The experiments costing at least 1% of a `model-figures` pass on
    // the 2-core reference host; the other 25 ids together cost < 1%.
    ("experiments.fig6.15.s", "s"),
    ("experiments.fig6.17.s", "s"),
    ("experiments.fig6.18.s", "s"),
    ("experiments.fig6.19.s", "s"),
    ("experiments.fig6.20.s", "s"),
    ("experiments.fig6.21.s", "s"),
    ("experiments.fig6.22.s", "s"),
    ("experiments.fig6.23.s", "s"),
    ("experiments.fig7.1.s", "s"),
    // `model-scale`'s one experiment.
    ("experiments.fig7.scale.s", "s"),
    ("sweep.threads", "count"),
    ("sweep.slowest_point_s", "s"),
    ("model.passes", "count"),
    ("models.build.s", "s"),
    ("models.build.calls", "count"),
    ("canonical.s", "s"),
    ("canonical.calls", "count"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.hit_rate", "fraction"),
    ("engine.evictions", "count"),
    ("engine.cache_mb", "MiB"),
    ("engine.hit.s", "s"),
    ("reach.s", "s"),
    ("reach.states", "count"),
    ("reach.edges", "count"),
    ("solve.s", "s"),
    ("solve.sweeps", "count"),
    ("exact_lumped.s.n2", "s"),
    ("exact_lumped.s.n4", "s"),
    ("exact_lumped.s.n8", "s"),
    ("exact_lumped.s.n16", "s"),
    ("exact_lumped.states.n16", "count"),
    ("exact_lumped.sweeps.n16", "count"),
    ("des.s.n32", "s"),
    ("des.rel_half_width.n32", "fraction"),
    ("archsim.replicate.s", "s"),
    ("runtime.round_trips", "count"),
    ("runtime.buffer_stalls", "count"),
    ("runtime.virtual_s", "s"),
    ("host.cpu_s", "s"),
    ("clock.handoffs", "count"),
    ("clock.handoffs_per_rt", "count"),
    ("clock.wall_ns_per_handoff", "ns"),
    ("clock.handoff_probe_ns", "ns"),
    ("clock.handoff_probe_ns.unpinned", "ns"),
    ("runtime.unpinned_wall_s", "s"),
    ("clock.overshoot_us.SyscallSend", "us"),
    ("clock.overshoot_us.ProcessSend", "us"),
    ("clock.overshoot_us.DmaOut", "us"),
    ("clock.overshoot_us.SyscallReceive", "us"),
    ("clock.overshoot_us.ProcessReceive", "us"),
    ("clock.overshoot_us.DmaIn", "us"),
    ("clock.overshoot_us.Match", "us"),
    ("clock.overshoot_us.RestartServer", "us"),
    ("clock.overshoot_us.SyscallReply", "us"),
    ("clock.overshoot_us.ProcessReply", "us"),
    ("clock.overshoot_us.RestartServerAfterReply", "us"),
    ("clock.overshoot_us.CleanupClient", "us"),
    ("clock.overshoot_us.RestartClient", "us"),
    ("clock.overshoot_us.ServerCompute", "us"),
    ("clock.overshoot_us_per_rt", "us"),
    ("msgkernel.roundtrip_ns", "ns"),
    ("smartmem.locked.txn_ns", "ns"),
    ("smartmem.lockfree.txn_ns", "ns"),
    ("smartmem.locked.txn_ns.contended", "ns"),
    ("smartmem.lockfree.txn_ns.contended", "ns"),
    ("smartmem.lockfree.overflow_panics", "count"),
    ("netsim.frames", "count"),
    ("netsim.frames_per_rt", "count"),
    ("netsim.peak_queue", "count"),
    ("netsim.frame_ns", "ns"),
    ("accounting.clock_ns_per_rt", "ns"),
    ("accounting.msgkernel_ns_per_rt", "ns"),
    ("accounting.smartmem_ns_per_rt", "ns"),
    ("accounting.netsim_ns_per_rt", "ns"),
    ("accounting.explained_ns_per_rt", "ns"),
    ("accounting.measured_ns_per_rt", "ns"),
    ("accounting.unexplained_ns_per_rt", "ns"),
    ("sim_rt_per_s", "1/s"),
    ("live_rt_per_ms", "1/ms"),
    ("live_p50_us", "us"),
    ("live_p95_us", "us"),
    ("error_rate", "fraction"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
];

fn complete(declared: &[Declared], measured: &[Metric]) -> Vec<Metric> {
    declared
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Every end-to-end metric, in declared order.
pub fn complete_e2e(measured: &[Metric]) -> Vec<Metric> {
    complete(&END_TO_END, measured)
}

/// Every per-layer metric, in declared order; layers the run did not
/// exercise read 0.
pub fn complete_layers(measured: &[Metric]) -> Vec<Metric> {
    complete(PER_LAYER, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json")
    }

    /// The names (and units) in `BENCHMARK.json` are exactly the ones the
    /// binary prints.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let text = benchmark_json();
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry
                            .find(&format!("\"{key}\""))
                            .unwrap_or_else(|| panic!("{key} in {entry}"));
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = rest[open..].find('"').expect("value end") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let as_owned = |d: &[Declared]| -> Vec<(String, String)> {
            d.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), as_owned(&END_TO_END));
        assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn completion_fills_unexercised_layers_with_zero() {
        let done = complete_layers(&[Metric::new("reach.s", 0.5, "s")]);
        assert_eq!(done.len(), PER_LAYER.len());
        assert_eq!(
            done.iter().find(|m| m.name == "reach.s").unwrap().value,
            0.5
        );
        assert_eq!(
            done.iter().find(|m| m.name == "solve.s").unwrap().value,
            0.0
        );
    }
}
