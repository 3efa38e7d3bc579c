//! The per-layer suite of the traced run. Each probe times calls into
//! one layer's public functions from outside, inside spans, and the
//! per-layer metrics are derived from those spans and from counts read
//! at the same boundaries. Cache and frontier counts are taken with one
//! worker, where they repeat exactly.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_bench::experiments::{
    ablations, batch_sweep, codesign, compression, constraints, dse_sweep, energy_breakdown,
    event_crosscheck, fig1, fig3, fig4, fusion_study, headlines, multicore_scaling, per_layer_all,
    ranges, roofline_table, schedule_robustness, table1, table2, taxonomy, Context,
};
use codesign_bench::Table;
use codesign_core::{ArchitectureComparison, SweepSpace};
use codesign_dnn::{zoo, LayerClass, Network};
use codesign_sim::workload::ConvWork;
use codesign_sim::{
    optimize_tiling, simulate_network_event, try_simulate_conv, validate_network, SimOptions,
    Simulator,
};
use codesign_tensor::{
    run_layer_with, run_network_with, ActivationBuilder, NetworkActivations, Tensor, WeightStore,
};

use crate::dse_frontier::sweep;
use crate::inputs::{rng, Digest};
use crate::serve_mix::{field, Client, Reply, Request, Server, READ_TIMEOUT};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::Env;

/// An artifact generator and the name the `report` binary gives it.
pub type Generator = (&'static str, fn(&Context) -> Table);

/// The 21 generators.
pub const GENERATORS: [Generator; 21] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("ranges", ranges),
    ("codesign", codesign),
    ("headlines", headlines),
    ("sweep", dse_sweep),
    ("ablations", ablations),
    ("batch", batch_sweep),
    ("compression", compression),
    ("roofline", roofline_table),
    ("event", event_crosscheck),
    ("perlayer", per_layer_all),
    ("energy", energy_breakdown),
    ("robustness", schedule_robustness),
    ("fusion", fusion_study),
    ("taxonomy", taxonomy),
    ("multicore", multicore_scaling),
    ("constraints", constraints),
];

const REPS: u64 = 3;
const SERVE_REPS: u64 = 10;

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<String, f64>;

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// Median over repetitions of `f`'s wall time in ms, each inside a span.
fn timed(spans: &Spans, name: &str, reps: u64, mut f: impl FnMut(u64, usize)) -> f64 {
    for rep in 0..reps {
        spans.span(name, rep, None, |id| f(rep, id));
    }
    med(&spans.durations_ms(name))
}

/// Runs every probe and returns the per-layer metrics (all but
/// `bench.trace_overhead_pct` and `host.ref_loop_ms`, which the run
/// itself measures) and the digest of the seeded tensor inputs.
pub fn run_all(env: &Env, spans: &Spans) -> Result<(Metrics, u64), String> {
    let mut m = Metrics::new();
    bench_layer(spans, &mut m);
    sim_layer(spans, &mut m);
    core_layer(spans, &mut m);
    let digest = tensor_layer(env, spans, &mut m);
    serve_layer(env, spans, &mut m)?;
    Ok((m, digest))
}

/// `bench.exp.<name>.ms`: each generator cold (fresh context) and
/// serial; then one whole serial paper op for the cache counts.
fn bench_layer(spans: &Spans, m: &mut Metrics) {
    for rep in 0..REPS {
        for (name, generate) in GENERATORS {
            let ctx = Context::with_jobs(1);
            spans.span(&format!("bench.exp.{name}"), rep, None, |_| generate(&ctx));
        }
    }
    for (name, _) in GENERATORS {
        m.insert(
            format!("bench.exp.{name}.ms"),
            med(&spans.durations_ms(&format!("bench.exp.{name}"))),
        );
    }
    let ctx = Context::with_jobs(1);
    let t = Instant::now();
    spans.span("bench.paper-op.serial", 0, None, |id| {
        for (name, generate) in GENERATORS {
            spans.span(&format!("bench.serial.{name}"), 0, Some(id), |_| generate(&ctx));
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let stats = ctx.sim.stats();
    m.insert("sim.cache.misses".into(), stats.misses as f64);
    m.insert("sim.cache.hit_rate".into(), stats.hit_rate());
    m.insert("sim.mcycles_per_host_s".into(), ctx.sim.cycles_simulated() as f64 / secs / 1e6);
}

fn sim_layer(spans: &Spans, m: &mut Metrics) {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let nets = zoo::table_networks();
    let works: Vec<ConvWork> =
        nets.iter().flat_map(|n| n.layers().iter().filter_map(ConvWork::from_layer)).collect();
    let tiling_ms = timed(spans, "sim.tiling.pass", 5, |rep, id| {
        for w in &works {
            let _ = spans.span("sim.tiling", rep, Some(id), |_| optimize_tiling(w, &cfg));
        }
    });
    m.insert("sim.tiling.us".into(), tiling_ms * 1e3);
    let compute_ms = timed(spans, "sim.compute.pass", 5, |rep, id| {
        for w in &works {
            for d in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                let _ = spans
                    .span("sim.compute", rep, Some(id), |_| try_simulate_conv(w, &cfg, opts, d));
            }
        }
    });
    m.insert("sim.compute.us".into(), compute_ms * 1e3);
    for rep in 0..REPS {
        let sim = Simulator::new();
        for phase in ["cold", "warm"] {
            spans.span(&format!("sim.network.{phase}"), rep, None, |id| {
                for net in &nets {
                    let _ = spans.span("sim.network", rep, Some(id), |_| {
                        sim.try_simulate_network(net, &cfg, DataflowPolicy::PerLayer, opts)
                    });
                }
            });
        }
    }
    m.insert("sim.network.cold_ms".into(), med(&spans.durations_ms("sim.network.cold")));
    m.insert("sim.network.warm_ms".into(), med(&spans.durations_ms("sim.network.warm")));
    let event_ms = timed(spans, "sim.event.pass", REPS, |rep, id| {
        for net in &nets {
            spans.span("sim.event", rep, Some(id), |_| {
                simulate_network_event(net, &cfg, DataflowPolicy::PerLayer, opts)
            });
        }
    });
    m.insert("sim.event.ms".into(), event_ms);
    // Paid on every served request: the zoo lookup and the pre-flight.
    let names = [
        "alexnet",
        "mobilenet",
        "tiny-darknet",
        "squeezenet-v1.0",
        "squeezenet-v1.1",
        "squeezenext",
    ];
    for rep in 0..20 {
        for name in names {
            let net =
                spans.span("dnn.zoo_build", rep, None, |_| zoo::by_name(name)).expect("zoo name");
            let _ = spans.span("sim.validate", rep, None, |_| validate_network(&net, &cfg));
        }
    }
    m.insert("dnn.zoo_build_us".into(), med(&spans.durations_ms("dnn.zoo_build")) * 1e3);
    m.insert("sim.validate_us".into(), med(&spans.durations_ms("sim.validate")) * 1e3);
}

/// The fixed sweep the core probes share (seed-independent, so its
/// counts compare across runs): SqueezeNet v1.0 over 4 arrays × 3 RF
/// depths × 40 buffer levels.
pub fn probe_space() -> SweepSpace {
    SweepSpace {
        array_sizes: vec![8, 16, 24, 32],
        rf_depths: vec![8, 16, 32],
        buffer_bytes: (0..40).map(|i| (32 + 24 * i) * 1024).collect(),
    }
}

fn core_layer(spans: &Spans, m: &mut Metrics) {
    let cfg = AcceleratorConfig::paper_default();
    let opts = SimOptions::paper_default();
    let evaluate_ms = timed(spans, "core.evaluate.pass", REPS, |rep, id| {
        for net in zoo::table_networks() {
            spans.span("core.evaluate", rep, Some(id), |_| {
                ArchitectureComparison::evaluate_with(
                    &Simulator::new(),
                    &net,
                    &cfg,
                    opts,
                    EnergyModel::default(),
                )
            });
        }
    });
    m.insert("core.evaluate.ms".into(), evaluate_ms);

    let net = zoo::squeezenet_v1_0();
    let space = probe_space();
    let sim = Simulator::new();
    let out = spans.span("core.frontier.serial", 0, None, |_| sweep(&sim, &net, &space, 1, true));
    let c = out.counters;
    m.insert("core.frontier.evaluated".into(), c.evaluated as f64);
    m.insert("core.frontier.evaluated_frac".into(), c.evaluated as f64 / c.total as f64);
    m.insert("core.frontier.peak".into(), c.peak_frontier as f64);
    m.insert("sim.cache.misses_per_eval".into(), sim.stats().misses as f64 / c.evaluated as f64);
    let wall = |name: &str, jobs: usize, prune: bool| {
        timed(spans, name, REPS, |_, _| {
            sweep(&Simulator::new(), &net, &space, jobs, prune);
        })
    };
    let serial_ms = wall("core.frontier.jobs1", 1, true);
    let pruned_ms = wall("core.frontier.prune", 2, true);
    let unpruned_ms = wall("core.frontier.noprune", 2, false);
    m.insert("core.frontier.us_per_eval".into(), serial_ms * 1e3 / c.evaluated as f64);
    m.insert("core.prune.speedup".into(), unpruned_ms / pruned_ms);
    m.insert("parallel.sweep_scaling".into(), serial_ms / pruned_ms);
}

/// The metric name of a layer class.
fn class_slug(class: LayerClass) -> &'static str {
    match class {
        LayerClass::FirstConv => "conv1",
        LayerClass::Pointwise => "pointwise",
        LayerClass::Spatial => "spatial",
        LayerClass::Depthwise => "depthwise",
        LayerClass::FullyConnected => "fc",
        LayerClass::Other => "other",
    }
}

/// The metric name of a table network.
fn net_slug(net: &Network) -> &'static str {
    match net.name() {
        "AlexNet" => "alexnet",
        "1.00-MobileNet-224" => "mobilenet",
        "Tiny Darknet" => "tiny-darknet",
        "SqueezeNet v1.0" => "squeezenet-v1.0",
        "SqueezeNet v1.1" => "squeezenet-v1.1",
        "1.0-SqNxt-23v5" => "squeezenext",
        _ => "other",
    }
}

/// Seeded weights and image for each of `nets`.
fn tensor_inputs(seed: u64, nets: &[Network]) -> Vec<(WeightStore, Tensor)> {
    let mut r = rng(seed, "tensor");
    nets.iter()
        .map(|net| {
            (WeightStore::random(net, 8, 0.4, &mut r), Tensor::random(net.input(), 16, &mut r))
        })
        .collect()
}

/// Digest of every weight and image value, network by network.
fn tensor_digest(nets: &[Network], inputs: &[(WeightStore, Tensor)]) -> u64 {
    let mut d = Digest::new();
    for (net, (weights, image)) in nets.iter().zip(inputs) {
        d.str(net.name());
        for layer in net.compute_layers() {
            if let Some(f) = weights.get(&layer.name) {
                d.i32s(f.as_slice());
            }
        }
        d.i32s(image.as_slice());
    }
    d.finish()
}

/// Runs `net` on its `(weights, image)` layer by layer through
/// `run_layer_with`, exactly as `run_network_with` does, with one span
/// per layer named `tensor.<class>`.
fn run_traced(
    net: &Network,
    (weights, image): &(WeightStore, Tensor),
    jobs: usize,
    spans: &Spans,
    op: u64,
    parent: Option<usize>,
) -> NetworkActivations {
    let mut acts = ActivationBuilder::with_capacity(net.layers().len());
    for layer in net.layers() {
        let input = acts.primary_input(layer, image).expect("zoo networks resolve their inputs");
        let merge = acts.merge_operand(layer, image).expect("zoo networks resolve their merges");
        let name = format!("tensor.{}", class_slug(layer.class()));
        let out =
            spans.span(&name, op, parent, |_| run_layer_with(layer, input, merge, weights, jobs));
        acts.push(layer.name.clone(), out.expect("seeded weights cover every compute layer"));
    }
    acts.finish()
}

/// Returns the digest of the seeded inputs it ran.
fn tensor_layer(env: &Env, spans: &Spans, m: &mut Metrics) -> u64 {
    let nets = zoo::table_networks();
    let inputs = tensor_inputs(env.seed, &nets);
    const CLASSES: [LayerClass; 5] = [
        LayerClass::FirstConv,
        LayerClass::Pointwise,
        LayerClass::Spatial,
        LayerClass::Depthwise,
        LayerClass::FullyConnected,
    ];
    let mut class_macs = BTreeMap::new();
    for net in &nets {
        for layer in net.layers() {
            *class_macs.entry(class_slug(layer.class())).or_insert(0u64) += layer.macs();
        }
    }
    for rep in 0..2 {
        for (net, input) in nets.iter().zip(&inputs) {
            spans.span(&format!("tensor.net.{}", net_slug(net)), rep, None, |id| {
                run_traced(net, input, env.jobs, spans, rep, Some(id))
            });
        }
    }
    for class in CLASSES {
        let slug = class_slug(class);
        let ms = spans.durations_ms(&format!("tensor.{slug}")).iter().sum::<f64>() / 2.0;
        m.insert(format!("tensor.{slug}.ms"), ms);
        m.insert(
            format!("tensor.{slug}.gmacs"),
            class_macs.get(slug).copied().unwrap_or(0) as f64 / (ms * 1e6),
        );
    }
    for net in &nets {
        let name = format!("tensor.net.{}", net_slug(net));
        m.insert(format!("{name}.ms"), med(&spans.durations_ms(&name)));
    }
    m.insert("tensor.macs".into(), class_macs.values().sum::<u64>() as f64);
    // The same inference with one worker and with two.
    let (net, (weights, image)) = (&nets[3], &inputs[3]);
    let wall = |name: &str, jobs: usize| {
        timed(spans, name, REPS, |_, _| {
            run_network_with(net, image, weights, jobs).expect("seeded weights");
        })
    };
    let one = wall("parallel.gemm.jobs1", 1);
    let two = wall("parallel.gemm.jobs2", env.jobs);
    m.insert("parallel.gemm_scaling".into(), one / two);
    tensor_digest(&nets, &inputs)
}

/// Round trips through `codesign serve` beside the same requests run
/// in-process on an equally warm simulator: their difference is the
/// transport-and-protocol share.
fn serve_layer(env: &Env, spans: &Spans, m: &mut Metrics) -> Result<(), String> {
    let server = Server::spawn(&env.codesign_bin, env.jobs)?;
    let mut client = Client::connect(server.addr, READ_TIMEOUT)?;
    let mut id = 1u64;
    for rep in 0..20 {
        id += 1;
        spans.span("serve.ping", rep, None, |_| client.call(id, "\"cmd\":\"ping\""))?;
    }
    m.insert("serve.ping_ms".into(), med(&spans.durations_ms("serve.ping")));
    let cfg = (16, 8, 64);
    let requests = [
        Request::Simulate { net: "squeezenet-v1.0", arch: "hybrid", cfg },
        Request::Codesign { net: "squeezenet-v1.0", cfg },
        Request::Sweep { net: "squeezenet-v1.0" },
    ];
    let sim = Simulator::new();
    for request in &requests {
        let cmd = request.cmd();
        id += 1;
        let want = request.expected(&sim, env.jobs);
        if client.call(id, &request.json())? != want {
            return Err(format!("served {cmd} differs from the in-process result"));
        }
        for rep in 0..SERVE_REPS {
            id += 1;
            let got = spans.span(&format!("serve.rt.{cmd}"), rep, None, |_| {
                client.call(id, &request.json())
            })?;
            let local = spans.span(&format!("serve.compute.{cmd}"), rep, None, |_| {
                request.expected(&sim, env.jobs)
            });
            if got != want || local != want {
                return Err(format!("served {cmd} differs from the in-process result"));
            }
        }
        let rt = med(&spans.durations_ms(&format!("serve.rt.{cmd}")));
        let compute = med(&spans.durations_ms(&format!("serve.compute.{cmd}")));
        m.insert(format!("serve.{cmd}_ms"), rt);
        m.insert(format!("serve.compute.{cmd}_ms"), compute);
        m.insert(format!("serve.transport.{cmd}_ms"), rt - compute);
    }
    // Two connections send one cold sweep at once: the second should
    // subscribe to the first's computation.
    let burst = Request::Sweep { net: "squeezenext" };
    let barrier = Barrier::new(2);
    let mut second = Client::connect(server.addr, READ_TIMEOUT)?;
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let handles: Vec<_> = [(&mut client, id + 1), (&mut second, id + 2)]
            .into_iter()
            .map(|(c, rid)| {
                let (barrier, burst) = (&barrier, &burst);
                scope.spawn(move || {
                    barrier.wait();
                    c.call(rid, &burst.json())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst client panicked")).collect()
    });
    for reply in replies {
        reply?;
    }
    let stats = client.call(id + 3, "\"cmd\":\"stats\"")?.pop().unwrap_or_default();
    let (hits, misses) =
        (field(&stats, "hits").unwrap_or(0.0), field(&stats, "misses").unwrap_or(0.0));
    let (requests, deduped) =
        (field(&stats, "requests").unwrap_or(0.0), field(&stats, "deduped").unwrap_or(0.0));
    m.insert("serve.cache.hit_rate".into(), hits / (hits + misses));
    m.insert("serve.dedup_frac".into(), deduped / requests);
    drop(server);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights_and_image() {
        let nets = [zoo::squeezenet_v1_1()];
        let digest = |seed| tensor_digest(&nets, &tensor_inputs(seed, &nets));
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }
}
