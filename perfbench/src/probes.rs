//! Layer probes: short loops over one crate's public functions, timed
//! from outside, run only in traced runs. Each probe reports a cost per
//! operation that the per-round-trip accounting can multiply by a count.

use crate::trace::Tracer;
use crate::{Metric, Outcome};
use hsipc::archsim::timings::{Architecture, Locality};
use hsipc::gtpn::{self, ParallelBudget};
use hsipc::msgkernel::{Kernel, Message, NodeId, SendMode, ServiceAddr, Syscall};
use hsipc::runtime::clock::{Bell, ClockSystem};
use hsipc::runtime::ClockMode;
use hsipc::smartmem::shared::{ListId, LockFreeModule, LockedModule, SharedQueue};
use hsipc::{archsim, models, netsim};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The architectures and X values of the fig6.17-family nets the solver
/// probes build (n = 1..4).
const PROBE_ARCHS: [Architecture; 3] = [
    Architecture::Uniprocessor,
    Architecture::MessageCoprocessor,
    Architecture::SmartBus,
];
const PROBE_X_US: [f64; 2] = [0.0, 1_140.0];

/// Solver layers under `model-figures`: net construction, canonicalize,
/// one warm engine-cache hit, the raw reachability + Gauss–Seidel path on
/// the largest fig6.17 net, and one archsim replication batch.
pub fn solver_layers(tr: &Tracer, out: &mut Outcome) {
    let mut nets = Vec::new();
    let t0 = Instant::now();
    for arch in PROBE_ARCHS {
        for n in 1..=4 {
            for x in PROBE_X_US {
                nets.push(
                    tr.span("models.build", None, 0, |_| {
                        models::local::build(arch, n, x)
                    })
                    .expect("probe net builds"),
                );
            }
        }
    }
    let build_s = t0.elapsed().as_secs_f64();
    out.layers.push(Metric::new("models.build.s", build_s, "s"));
    out.layers.push(Metric::new(
        "models.build.calls",
        nets.len() as f64,
        "count",
    ));

    let t0 = Instant::now();
    for net in &nets {
        std::hint::black_box(tr.span("canonical", None, 0, |_| gtpn::canonical::canonicalize(net)));
    }
    out.layers
        .push(Metric::new("canonical.s", t0.elapsed().as_secs_f64(), "s"));
    out.layers
        .push(Metric::new("canonical.calls", nets.len() as f64, "count"));

    // The pass just filled the default engine's cache with every fig6.17
    // point; re-solving one is a pure probe + hit.
    let before = gtpn::engine::cache_stats().hits;
    let mut hit_s = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        tr.span("engine.hit", None, 0, |_| {
            models::local::solve(Architecture::MessageCoprocessor, 4, 0.0)
        })
        .expect("cached point");
        hit_s.push(t.elapsed().as_secs_f64());
    }
    if gtpn::engine::cache_stats().hits >= before + 5 {
        out.layers.push(Metric::new(
            "engine.hit.s",
            crate::median_or(&hit_s, 0.0),
            "s",
        ));
    }

    let net =
        models::local::build(Architecture::MessageCoprocessor, 4, 0.0).expect("probe net builds");
    let t = Instant::now();
    let graph = tr
        .span("reach", None, 0, |_| {
            net.reachability_budgeted(models::STATE_BUDGET, &ParallelBudget::serial())
        })
        .expect("n = 4 fits the budget");
    out.layers
        .push(Metric::new("reach.s", t.elapsed().as_secs_f64(), "s"));
    out.layers.push(Metric::new(
        "reach.states",
        graph.state_count() as f64,
        "count",
    ));
    out.layers.push(Metric::new(
        "reach.edges",
        graph.edge_count() as f64,
        "count",
    ));
    let t = Instant::now();
    let solution = tr
        .span("solve", None, 0, |_| {
            graph.solve(models::TOLERANCE, models::MAX_SWEEPS)
        })
        .expect("n = 4 converges");
    out.layers
        .push(Metric::new("solve.s", t.elapsed().as_secs_f64(), "s"));
    out.layers.push(Metric::new(
        "solve.sweeps",
        solution.iterations() as f64,
        "count",
    ));

    let spec = archsim::WorkloadSpec {
        conversations: 4,
        server_compute_us: 2_850.0,
        locality: Locality::NonLocal,
        horizon_us: 4_000_000.0,
        warmup_us: 400_000.0,
        seed: 1,
    };
    let t = Instant::now();
    tr.span("archsim.replicate", None, 0, |_| {
        archsim::replicate(Architecture::MessageCoprocessor, &spec, 1, 2)
    });
    out.layers.push(Metric::new(
        "archsim.replicate.s",
        t.elapsed().as_secs_f64(),
        "s",
    ));
}

/// Turns of each handoff probe repetition.
pub const HANDOFF_TURNS: u32 = 20_000;

/// Wall ns per virtual-clock handoff: two actors ping-pong through two
/// bells, each advancing its clock 1 µs per turn, so every turn passes the
/// execution token.
pub fn clock_handoff_ns(turns: u32) -> f64 {
    let sys = ClockSystem::new(ClockMode::Virtual);
    let driver = sys.register();
    let ping = Arc::new(Bell::new(&sys));
    let pong = Arc::new(Bell::new(&sys));
    let spawn = |mine: Arc<Bell>, theirs: Arc<Bell>, serve: bool| {
        let h = sys.register();
        std::thread::spawn(move || {
            h.attach();
            for _ in 0..turns {
                if serve {
                    let epoch = mine.epoch();
                    h.wait_past(&mine, epoch, Duration::from_secs(60));
                }
                let epoch = mine.epoch();
                h.sleep(Duration::from_micros(1));
                theirs.ring();
                if !serve {
                    h.wait_past(&mine, epoch, Duration::from_secs(60));
                }
            }
            h.retire();
        })
    };
    let t0 = Instant::now();
    let a = spawn(Arc::clone(&ping), Arc::clone(&pong), false);
    let b = spawn(pong, ping, true);
    driver.sleep(Duration::from_secs(3_600));
    driver.retire();
    a.join().expect("ping actor");
    b.join().expect("pong actor");
    t0.elapsed().as_nanos() as f64 / sys.handoffs().max(1) as f64
}

/// Wall ns per local send/receive/reply rendezvous through the public
/// `Kernel` API (both sides' syscalls and the MP-side processing).
pub fn msgkernel_roundtrip_ns(rounds: u32) -> f64 {
    let mut k = Kernel::new(NodeId(0), 8);
    let client = k.create_task("client", 1, 64);
    let server = k.create_task("server", 1, 64);
    let service = k.create_service("echo");
    let drain = |k: &mut Kernel| {
        while let Some(t) = k.next_communication() {
            k.process(t).expect("probe syscall");
        }
        while k.next_computation().is_some() {}
    };
    k.submit(server, Syscall::Offer { service }).expect("offer");
    drain(&mut k);
    let to = ServiceAddr {
        node: k.node(),
        service,
    };
    let t0 = Instant::now();
    for _ in 0..rounds {
        k.submit(server, Syscall::Receive).expect("receive");
        drain(&mut k);
        k.submit(
            client,
            Syscall::Send {
                to,
                message: Message::from_bytes(b"ping"),
                mode: SendMode::invocation(),
            },
        )
        .expect("send");
        drain(&mut k);
        k.submit(
            server,
            Syscall::Reply {
                message: Message::from_bytes(b"pong"),
            },
        )
        .expect("reply");
        drain(&mut k);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(rounds)
}

/// Wall ns per Enqueue + First transaction pair on one module, from one
/// thread or (`contended`) from two threads circulating disjoint elements
/// through the same list. `Err` carries a worker's panic message: the
/// lock-free module can report a false `shared list overflow` when a
/// consumer is preempted between claiming a slot and releasing it.
pub fn smartmem_txn_ns(
    q: Arc<dyn SharedQueue>,
    rounds: u32,
    contended: bool,
) -> Result<f64, String> {
    let workers: u16 = if contended { 2 } else { 1 };
    let t0 = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..rounds {
                    q.enqueue(ListId(0), w * 2 + (i % 2) as u16);
                    std::hint::black_box(q.first(ListId(0)));
                }
            })
        })
        .collect();
    let mut failure = None;
    for h in handles {
        if let Err(e) = h.join() {
            failure = Some(crate::panic_message(e.as_ref()));
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(rounds);
    match failure {
        Some(msg) => Err(msg),
        None => Ok(ns),
    }
}

/// Wall ns per ring frame: `transmit` to another node plus its `try_recv`.
pub fn netsim_frame_ns(frames: u32) -> f64 {
    let (ring, ports) = netsim::live::live_ring::<u64>(2, 0);
    let t0 = Instant::now();
    for i in 0..frames {
        ring.transmit(
            netsim::RingNodeId(0),
            netsim::RingNodeId(1),
            40,
            u64::from(i),
        )
        .expect("node 1 attached");
        std::hint::black_box(ports[1].try_recv().expect("frame arrived"));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(frames)
}

/// Enqueue + First transaction pairs one round trip costs on a node's
/// shared module, from the node loop's Figure 4.4/4.5 protocol: the
/// communication list once per syscall (send, receive, reply), the
/// computation list once per wakeup (server delivery, client reply), and
/// the kernel-buffer free list once for the request's buffer.
pub const SMARTMEM_TXN_PAIRS_PER_RT: f64 = 6.0;

/// Repetitions of each runtime probe; the metric is their median.
const PROBE_REPS: usize = 3;

/// Runs probe `f` [`PROBE_REPS`] times and records the median cost as
/// `name`. A repetition that fails is not timed; it is reported as a
/// finding and counted in the returned number.
pub fn probe(
    tr: &Tracer,
    out: &mut Outcome,
    name: &str,
    f: impl Fn() -> Result<f64, String>,
) -> u32 {
    let mut costs = Vec::with_capacity(PROBE_REPS);
    let mut failures = 0;
    for _ in 0..PROBE_REPS {
        match tr.span(name, None, 0, |_| f()) {
            Ok(ns) => costs.push(ns),
            Err(msg) => {
                failures += 1;
                out.notes
                    .push(format!("finding: {name} probe panicked: {msg}"));
            }
        }
    }
    out.layers
        .push(Metric::new(name, crate::median_or(&costs, 0.0), "ns"));
    failures
}

/// The probes behind `fleet-virtual`'s per-round-trip accounting: clock
/// handoff, kernel rendezvous, lock-free queue transaction, ring frame.
pub fn fleet_layers(tr: &Tracer, out: &mut Outcome) {
    probe(tr, out, "clock.handoff_probe_ns", || {
        Ok(clock_handoff_ns(HANDOFF_TURNS))
    });
    probe(tr, out, "msgkernel.roundtrip_ns", || {
        Ok(msgkernel_roundtrip_ns(20_000))
    });
    probe(tr, out, "smartmem.lockfree.txn_ns", || {
        smartmem_txn_ns(Arc::new(LockFreeModule::new(4, 64)), 100_000, false)
    });
    probe(tr, out, "netsim.frame_ns", || Ok(netsim_frame_ns(100_000)));
}

/// The shared-memory probes behind `node-real`: both modules, from one
/// thread and from two. Panics of the lock-free module (the false
/// `shared list overflow`) are counted in
/// `smartmem.lockfree.overflow_panics`.
pub fn node_layers(tr: &Tracer, out: &mut Outcome) {
    let locked = || Arc::new(LockedModule::new(4, 64));
    let lockfree = || Arc::new(LockFreeModule::new(4, 64));
    let mut panics = 0;
    panics += probe(tr, out, "smartmem.locked.txn_ns", || {
        smartmem_txn_ns(locked(), 100_000, false)
    });
    panics += probe(tr, out, "smartmem.lockfree.txn_ns", || {
        smartmem_txn_ns(lockfree(), 100_000, false)
    });
    panics += probe(tr, out, "smartmem.locked.txn_ns.contended", || {
        smartmem_txn_ns(locked(), 100_000, true)
    });
    panics += probe(tr, out, "smartmem.lockfree.txn_ns.contended", || {
        smartmem_txn_ns(lockfree(), 100_000, true)
    });
    out.layers.push(Metric::new(
        "smartmem.lockfree.overflow_panics",
        f64::from(panics),
        "count",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_positive_costs() {
        assert!(clock_handoff_ns(200) > 0.0);
        assert!(msgkernel_roundtrip_ns(200) > 0.0);
        assert!(smartmem_txn_ns(Arc::new(LockedModule::new(4, 64)), 1_000, true).unwrap() > 0.0);
        assert!(smartmem_txn_ns(Arc::new(LockFreeModule::new(4, 64)), 1_000, false).unwrap() > 0.0);
        assert!(netsim_frame_ns(1_000) > 0.0);
    }
}
