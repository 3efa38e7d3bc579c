//! Generators for every table and figure in the paper's evaluation.
//!
//! Each function regenerates one artifact as a [`Table`] (figures are
//! emitted as the CSV series a plotting tool would consume). The
//! experiment ids match DESIGN.md §5.

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_core::{
    advantage_range_with, compare_all, machine_balance, pareto_front, roofline, spectrum_with,
    CodesignStudy, CostAxis, NetworkSchedule, SweepSpace,
};
use codesign_dnn::{zoo, LayerClass, MacBreakdown, Network};
use codesign_sim::{
    compare_taxonomy, simulate_network_batched, simulate_network_event, simulate_network_multicore,
    MultiCoreConfig, OsModelOptions, SimOptions, Simulator, SparsityModel, TaxonomyDataflow,
    TrafficModel, WeightCompression,
};

use crate::table::Table;

/// Shared experiment context: the hardware point and model options every
/// artifact is generated with.
#[derive(Debug, Clone)]
pub struct Context {
    /// Accelerator configuration (paper default: 32×32, RF 16, 128 KB).
    pub cfg: AcceleratorConfig,
    /// Simulation options (paper default: 40 % sparsity skipped by OS).
    pub opts: SimOptions,
    /// Energy table.
    pub energy: EnergyModel,
    /// Shared simulation handle. Every artifact routes per-layer
    /// simulation through this, so repeated shapes across tables are
    /// memoized once; cloning a `Context` shares the cache.
    pub sim: Simulator,
    /// Worker threads for the fan-out experiments (`0` = one per core).
    pub jobs: usize,
}

impl Context {
    /// The paper's evaluation context, with a fresh memoizing simulator
    /// and one worker per core.
    pub fn paper_default() -> Self {
        Self {
            cfg: AcceleratorConfig::paper_default(),
            opts: SimOptions::paper_default(),
            energy: EnergyModel::default(),
            sim: Simulator::new(),
            jobs: 0,
        }
    }

    /// The paper's evaluation context pinned to `jobs` worker threads.
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs, ..Self::paper_default() }
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::paper_default()
    }
}

fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

/// **T1** — Table 1: relative percentage of MAC operations per layer type
/// for each network.
pub fn table1(_ctx: &Context) -> Table {
    let mut t = Table::new(
        "Table 1: MAC share per layer type",
        &["Network", "Conv1", "1x1", "FxF", "DW", "FC"],
    );
    for net in zoo::table_networks() {
        let b = MacBreakdown::of(&net);
        t.push_row(vec![
            net.name().to_owned(),
            pct(b.fraction(LayerClass::FirstConv)),
            pct(b.fraction(LayerClass::Pointwise)),
            pct(b.fraction(LayerClass::Spatial)),
            pct(b.fraction(LayerClass::Depthwise)),
            pct(b.fraction(LayerClass::FullyConnected)),
        ]);
    }
    t
}

/// **T2** — Table 2: Squeezelerator speedup and energy reduction over the
/// fixed OS and WS reference architectures.
pub fn table2(ctx: &Context) -> Table {
    let mut t = Table::new(
        "Table 2: Squeezelerator vs fixed-dataflow references",
        &["Network", "Speedup vs OS", "Speedup vs WS", "Energy vs OS", "Energy vs WS"],
    );
    let nets = zoo::table_networks();
    for c in compare_all(&ctx.sim, &nets, &ctx.cfg, ctx.opts, ctx.energy, ctx.jobs) {
        t.push_row(vec![
            c.network.clone(),
            format!("{:.2}x", c.speedup_vs_os()),
            format!("{:.2}x", c.speedup_vs_ws()),
            pct(c.energy_reduction_vs_os()),
            pct(c.energy_reduction_vs_ws()),
        ]);
    }
    t
}

fn per_layer_series(net: &Network, ctx: &Context, title: &str) -> Table {
    let schedule = NetworkSchedule::build_with(&ctx.sim, net, &ctx.cfg, ctx.opts);
    let mut t = Table::new(
        title,
        &["Layer", "Class", "WS cycles", "OS cycles", "Chosen", "Hybrid cycles", "Utilization"],
    );
    for e in &schedule.entries {
        t.push_row(vec![
            e.name.clone(),
            e.class.to_string(),
            e.ws_cycles.to_string(),
            e.os_cycles.to_string(),
            e.chosen.map_or("SIMD".to_owned(), |d| d.tag().to_owned()),
            e.hybrid_cycles.to_string(),
            format!("{:.3}", e.utilization),
        ]);
    }
    t
}

/// **F1** — Figure 1: per-layer inference time and utilization of
/// SqueezeNet v1.0 on the reference WS/OS architectures and the
/// Squeezelerator.
pub fn fig1(ctx: &Context) -> Table {
    per_layer_series(
        &zoo::squeezenet_v1_0(),
        ctx,
        "Figure 1: SqueezeNet v1.0 per-layer time and utilization",
    )
}

/// **F3** — Figure 3: per-layer inference time and utilization of the
/// five 1.0-SqNxt-23 co-design variants (one table per variant,
/// concatenated with a Variant column).
pub fn fig3(ctx: &Context) -> Table {
    let mut t = Table::new(
        "Figure 3: SqueezeNext v1-v5 per-layer time and utilization",
        &["Variant", "Layer", "Class", "Hybrid cycles", "Utilization"],
    );
    for net in zoo::squeezenext_variants() {
        let schedule = NetworkSchedule::build_with(&ctx.sim, &net, &ctx.cfg, ctx.opts);
        for e in &schedule.entries {
            t.push_row(vec![
                net.name().to_owned(),
                e.name.clone(),
                e.class.to_string(),
                e.hybrid_cycles.to_string(),
                format!("{:.3}", e.utilization),
            ]);
        }
    }
    t
}

/// The model families plotted in Figure 4.
pub fn fig4_networks() -> Vec<Network> {
    let mut nets = zoo::squeezenext_family();
    nets.push(zoo::squeezenet_v1_0());
    nets.push(zoo::squeezenet_v1_1());
    nets.push(zoo::tiny_darknet());
    nets.extend(zoo::mobilenet_family());
    nets
}

/// **F4** — Figure 4: accuracy vs energy and accuracy vs inference time
/// for the model families, with Pareto membership flags.
pub fn fig4(ctx: &Context) -> Table {
    let nets = fig4_networks();
    let points = spectrum_with(&ctx.sim, &nets, &ctx.cfg, ctx.opts, &ctx.energy);
    let time_front = pareto_front(&points, CostAxis::Time);
    let energy_front = pareto_front(&points, CostAxis::Energy);
    let mut t = Table::new(
        "Figure 4: accuracy vs energy and inference time",
        &["Model", "Top-1", "Time (ms)", "Energy (MMAC-eq)", "Time-Pareto", "Energy-Pareto"],
    );
    for p in &points {
        t.push_row(vec![
            p.name.clone(),
            format!("{:.1}", p.accuracy),
            format!("{:.3}", p.time_ms),
            format!("{:.2}", p.energy / 1e6),
            time_front.iter().any(|q| q.name == p.name).to_string(),
            energy_front.iter().any(|q| q.name == p.name).to_string(),
        ]);
    }
    t
}

/// **S1** — §4.1.1 in-text dataflow-advantage ranges per layer class.
pub fn ranges(ctx: &Context) -> Table {
    let nets = zoo::table_networks();
    let mut t = Table::new(
        "S1: dataflow advantage ranges per layer class",
        &["Class", "Winner", "Min", "Max", "Samples", "Paper"],
    );
    let rows: [(LayerClass, Dataflow, &str); 3] = [
        (LayerClass::Pointwise, Dataflow::WeightStationary, "1.4x - 7.0x"),
        (LayerClass::FirstConv, Dataflow::OutputStationary, "1.6x - 6.3x"),
        (LayerClass::Depthwise, Dataflow::OutputStationary, "19x - 96x"),
    ];
    for (class, winner, paper) in rows {
        if let Some(r) = advantage_range_with(&ctx.sim, &nets, class, winner, &ctx.cfg, ctx.opts) {
            t.push_row(vec![
                class.to_string(),
                winner.tag().to_owned(),
                format!("{:.2}x", r.min),
                format!("{:.2}x", r.max),
                r.samples.to_string(),
                paper.to_owned(),
            ]);
        }
    }
    t
}

/// **S3** — §4.2 co-design study: the v1..v5 ladder before/after the RF
/// tune-up, plus the headline comparisons against SqueezeNet v1.0 and
/// AlexNet.
pub fn codesign(ctx: &Context) -> Table {
    let study = CodesignStudy::run_with(&ctx.sim, ctx.opts, &ctx.energy, ctx.jobs);
    let mut t = Table::new(
        "S3: co-design ladder (v1..v5, RF 8 vs RF 16)",
        &[
            "Variant",
            "Cycles (RF 8)",
            "Cycles (RF 16)",
            "Energy (RF 16)",
            "Utilization",
            "MACs (M)",
        ],
    );
    for (b, a) in study.before_tuneup.iter().zip(&study.after_tuneup) {
        t.push_row(vec![
            a.name.clone(),
            b.cycles.to_string(),
            a.cycles.to_string(),
            format!("{:.2}M", a.energy / 1e6),
            format!("{:.3}", a.utilization),
            format!("{:.0}", a.macs as f64 / 1e6),
        ]);
    }
    t
}

/// Headline §4.2 comparisons on the tuned hardware.
pub fn headlines(ctx: &Context) -> Table {
    let mut t = Table::new(
        "S3 headlines: SqueezeNext vs baselines (hybrid architecture)",
        &["Comparison", "Speedup", "Energy gain", "Paper"],
    );
    let sqnxt = zoo::squeezenext();
    for (base, paper) in
        [(zoo::squeezenet_v1_0(), "2.59x / 2.25x"), (zoo::alexnet(), "8.26x / 7.5x")]
    {
        let r = codesign_core::compare_networks_with(
            &ctx.sim,
            &sqnxt,
            &base,
            &ctx.cfg,
            ctx.opts,
            &ctx.energy,
        );
        t.push_row(vec![
            format!("{} vs {}", sqnxt.name(), base.name()),
            format!("{:.2}x", r.speedup),
            format!("{:.2}x", r.energy_gain),
            paper.to_owned(),
        ]);
    }
    t
}

/// **A1a** — design-space sweep over array size / RF depth / buffer.
pub fn dse_sweep(ctx: &Context) -> Table {
    let pts = codesign_core::sweep_full_with(
        &ctx.sim,
        &zoo::squeezenet_v1_0(),
        &SweepSpace::paper_default(),
        ctx.opts,
        &ctx.energy,
        ctx.jobs,
    )
    .expect("the paper-default sweep space is non-empty")
    .points;
    let front = codesign_core::pareto_designs(&pts);
    let mut t = Table::new(
        "A1a: design-space sweep (SqueezeNet v1.0)",
        &["Design", "Cycles", "Energy (MMAC-eq)", "Utilization", "EDP", "Area", "Pareto"],
    );
    for p in &pts {
        t.push_row(vec![
            p.params.to_string(),
            p.cycles.to_string(),
            format!("{:.2}", p.energy / 1e6),
            format!("{:.3}", p.utilization),
            format!("{:.3e}", p.energy_delay()),
            format!("{:.0}", p.area),
            front.iter().any(|q| q.params == p.params).to_string(),
        ]);
    }
    t
}

/// **A1b** — ablations: sparsity skipping, preload overlap, channel
/// packing, and double buffering, each toggled off individually on the
/// paper configuration.
pub fn ablations(ctx: &Context) -> Table {
    let net = zoo::squeezenet_v1_0();
    let mut t = Table::new(
        "A1b: ablation study (SqueezeNet v1.0, hybrid architecture)",
        &["Configuration", "Cycles", "Slowdown", "Energy (MMAC-eq)"],
    );
    let base = ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
    let base_cycles = base.total_cycles();
    let mut push = |name: &str, cfg: &AcceleratorConfig, opts: SimOptions| {
        let perf = ctx.sim.simulate_network(&net, cfg, DataflowPolicy::PerLayer, opts);
        t.push_row(vec![
            name.to_owned(),
            perf.total_cycles().to_string(),
            format!("{:.2}x", perf.total_cycles() as f64 / base_cycles as f64),
            format!("{:.2}", perf.total_energy(&ctx.energy) / 1e6),
        ]);
    };
    push("paper default", &ctx.cfg, ctx.opts);
    push(
        "no sparsity skipping",
        &ctx.cfg,
        SimOptions { os: ctx.opts.os.with_sparsity(SparsityModel::dense()), ..ctx.opts },
    );
    push(
        "no preload overlap",
        &ctx.cfg,
        SimOptions { os: OsModelOptions { preload_overlap: false, ..ctx.opts.os }, ..ctx.opts },
    );
    push(
        "no channel packing",
        &ctx.cfg,
        SimOptions { os: OsModelOptions { channel_packing: false, ..ctx.opts.os }, ..ctx.opts },
    );
    push(
        "closed-form traffic (no tiling search)",
        &ctx.cfg,
        SimOptions { traffic: TrafficModel::ClosedForm, ..ctx.opts },
    );
    let no_db = AcceleratorConfig::builder()
        .double_buffering(false)
        .build()
        .expect("no-double-buffering config is valid");
    push("no double buffering", &no_db, ctx.opts);
    t
}

/// **A2** — batched inference: per-image cycles vs batch size. The
/// paper's batch-1 choice "gives less opportunity for data reuse";
/// this quantifies what embedded batch-1 operation costs per network.
pub fn batch_sweep(ctx: &Context) -> Table {
    let mut t = Table::new(
        "A2: per-image cycles vs batch size (hybrid architecture)",
        &["Network", "batch 1", "batch 4", "batch 16", "b1/b16"],
    );
    for net in [zoo::alexnet(), zoo::squeezenet_v1_0(), zoo::mobilenet_v1()] {
        let per_image = |b: u64| {
            simulate_network_batched(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts, b)
                .total_cycles() as f64
                / b as f64
        };
        let (b1, b4, b16) = (per_image(1), per_image(4), per_image(16));
        t.push_row(vec![
            net.name().to_owned(),
            format!("{b1:.0}"),
            format!("{b4:.0}"),
            format!("{b16:.0}"),
            format!("{:.2}x", b1 / b16),
        ]);
    }
    t
}

/// **A3** — multi-core scaling: inference speedup vs core count behind a
/// shared DRAM channel.
pub fn multicore_scaling(ctx: &Context) -> Table {
    let mut t = Table::new(
        "A3: multi-core scaling (shared DRAM channel)",
        &["Network", "1 core", "2 cores", "4 cores", "speedup @4"],
    );
    for net in [zoo::alexnet(), zoo::squeezenet_v1_0(), zoo::tiny_darknet()] {
        let run = |cores: usize| {
            let mc = MultiCoreConfig { core: ctx.cfg.clone(), cores };
            simulate_network_multicore(&net, &mc, DataflowPolicy::PerLayer, ctx.opts).total_cycles()
        };
        let (c1, c2, c4) = (run(1), run(2), run(4));
        t.push_row(vec![
            net.name().to_owned(),
            c1.to_string(),
            c2.to_string(),
            c4.to_string(),
            format!("{:.2}x", c1 as f64 / c4 as f64),
        ]);
    }
    t
}

/// **A5** — roofline analysis: arithmetic intensity per network and per
/// layer class against the machine balance point (§4.2's "poor
/// Arithmetic Intensity" argument for avoiding depthwise separable
/// convolutions).
pub fn roofline_table(ctx: &Context) -> Table {
    let balance = machine_balance(&ctx.cfg);
    let mut t = Table::new(
        format!("A5: arithmetic intensity (machine balance {balance:.1} MACs/byte)"),
        &["Network", "MACs/byte", "Mem-bound MACs", "1x1", "FxF", "DW", "FC"],
    );
    let fmt_class = |r: &codesign_core::NetworkRoofline, c: LayerClass| {
        r.class_intensity(c).map_or("-".to_owned(), |v| format!("{v:.1}"))
    };
    for net in zoo::table_networks() {
        let r = roofline(&net, &ctx.cfg, ctx.opts);
        t.push_row(vec![
            net.name().to_owned(),
            format!("{:.1}", r.intensity()),
            pct(r.memory_bound_mac_fraction()),
            fmt_class(&r, LayerClass::Pointwise),
            fmt_class(&r, LayerClass::Spatial),
            fmt_class(&r, LayerClass::Depthwise),
            fmt_class(&r, LayerClass::FullyConnected),
        ]);
    }
    t
}

/// **L1** — the "longer version" per-layer evaluation the paper promises
/// ("a more detailed per-layer evaluation will be given for each DNN
/// model"): Figure-1-style tables for all six networks, concatenated
/// with a Network column.
pub fn per_layer_all(ctx: &Context) -> Table {
    let mut t = Table::new(
        "L1: per-layer evaluation for every network",
        &[
            "Network",
            "Layer",
            "Class",
            "WS cycles",
            "OS cycles",
            "Chosen",
            "Hybrid cycles",
            "Utilization",
        ],
    );
    for net in zoo::table_networks() {
        let schedule = NetworkSchedule::build_with(&ctx.sim, &net, &ctx.cfg, ctx.opts);
        for e in &schedule.entries {
            t.push_row(vec![
                net.name().to_owned(),
                e.name.clone(),
                e.class.to_string(),
                e.ws_cycles.to_string(),
                e.os_cycles.to_string(),
                e.chosen.map_or("SIMD".to_owned(), |d| d.tag().to_owned()),
                e.hybrid_cycles.to_string(),
                format!("{:.3}", e.utilization),
            ]);
        }
    }
    t
}

/// **L2** — energy breakdown across the memory hierarchy per network
/// (the accounting behind §4.1.3's energy discussion: AlexNet's FC
/// dominance, MobileNet's DRAM share).
pub fn energy_breakdown(ctx: &Context) -> Table {
    let mut t = Table::new(
        "L2: energy breakdown by hierarchy level (hybrid architecture)",
        &["Network", "Total (MMAC-eq)", "MAC", "RF", "Inter-PE", "Global buf", "DRAM"],
    );
    let m = ctx.energy;
    for net in zoo::table_networks() {
        let perf = ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
        let a = perf.total_accesses();
        let total = perf.total_energy(&m);
        let share = |x: f64| pct(x / total);
        t.push_row(vec![
            net.name().to_owned(),
            format!("{:.0}", total / 1e6),
            share(a.macs as f64 * m.mac),
            share(a.register_file as f64 * m.register_file),
            share(a.inter_pe as f64 * m.inter_pe),
            share(a.global_buffer as f64 * m.global_buffer),
            share(a.dram as f64 * m.dram),
        ]);
    }
    t
}

/// **L3** — static-schedule robustness: how many per-layer dataflow
/// choices made at the assumed 40 % sparsity flip when the deployed
/// sparsity differs.
pub fn schedule_robustness(ctx: &Context) -> Table {
    let mut t = Table::new(
        "L3: schedule robustness to the sparsity assumption (flipped layer choices)",
        &["Network", "z=0.0", "z=0.2", "z=0.4 (assumed)", "z=0.6", "z=0.8"],
    );
    let probes = [0.0, 0.2, 0.4, 0.6, 0.8];
    for net in zoo::table_networks() {
        let rows = codesign_core::schedule_sparsity_robustness_with(
            &ctx.sim,
            &net,
            &ctx.cfg,
            SparsityModel::paper_default(),
            &probes,
        );
        let mut cells = vec![net.name().to_owned()];
        cells.extend(rows.iter().map(|(_, flips)| flips.to_string()));
        t.push_row(cells);
    }
    t
}

/// **T3** — the full §3.2 dataflow taxonomy: fixed WS/OS/RS/NLR, the
/// paper's two-way hybrid, and the hypothetical four-way hybrid.
pub fn taxonomy(ctx: &Context) -> Table {
    let mut t = Table::new(
        "T3: full dataflow taxonomy (cycles; hybrid4 = per-layer min of all four)",
        &["Network", "WS", "OS", "RS", "NLR", "Hybrid2 (paper)", "Hybrid4", "Gain"],
    );
    for net in zoo::table_networks() {
        let c = compare_taxonomy(&net, &ctx.cfg, ctx.opts);
        t.push_row(vec![
            net.name().to_owned(),
            c.fixed_cycles(TaxonomyDataflow::Ws).to_string(),
            c.fixed_cycles(TaxonomyDataflow::Os).to_string(),
            c.fixed_cycles(TaxonomyDataflow::Rs).to_string(),
            c.fixed_cycles(TaxonomyDataflow::Nlr).to_string(),
            c.hybrid2.to_string(),
            c.hybrid4.to_string(),
            format!("{:.3}x", c.hybrid4_gain()),
        ]);
    }
    t
}

/// **L4** — cross-layer fusion study: how much DRAM traffic on-chip
/// forwarding could elide, as a function of global-buffer size. At the
/// paper's 128 KB almost nothing fuses; the table shows the buffer a
/// fusing design would need.
pub fn fusion_study(ctx: &Context) -> Table {
    let sizes = [128usize, 256, 512, 1024, 2048, 8192];
    let mut headers = vec!["Network".to_owned()];
    headers.extend(sizes.iter().map(|k| format!("{k} KiB")));
    let mut t = Table::new(
        "L4: DRAM traffic elided by cross-layer fusion vs buffer size",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for net in zoo::table_networks() {
        let mut cells = vec![net.name().to_owned()];
        for kib in sizes {
            let cfg = AcceleratorConfig::builder()
                .global_buffer_bytes(kib * 1024)
                .build()
                .expect("buffer sweep points are valid");
            let s = codesign_core::fusion_savings_with(&ctx.sim, &net, &cfg, ctx.opts, &ctx.energy);
            cells.push(pct(s.dram_fraction_saved()));
        }
        t.push_row(cells);
    }
    t
}

/// **A6** — discrete-event cross-check: the analytic
/// `max(compute, dram)` shortcut vs an explicit DMA/array pipeline with
/// tile prefetch and cross-layer weight streaming.
pub fn event_crosscheck(ctx: &Context) -> Table {
    let mut t = Table::new(
        "A6: analytic vs discrete-event pipeline",
        &["Network", "Analytic cycles", "Event cycles", "Event/Analytic", "Array stalls"],
    );
    for net in zoo::table_networks() {
        let analytic = ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
        let event = simulate_network_event(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
        t.push_row(vec![
            net.name().to_owned(),
            analytic.total_cycles().to_string(),
            event.total_cycles().to_string(),
            format!("{:.2}x", event.total_cycles() as f64 / analytic.total_cycles() as f64),
            pct(event.total_stalls() as f64 / event.total_cycles() as f64),
        ]);
    }
    t
}

/// **A4** — EIE-style weight compression on the DMA path: DRAM traffic
/// and cycle effect per network (§3.2 taxonomy: "data compression,
/// sparsity exploitation").
pub fn compression(ctx: &Context) -> Table {
    let mut t = Table::new(
        "A4: EIE-style weight compression (40% zeros, 16+4-bit encoding)",
        &[
            "Network",
            "DRAM MB dense",
            "DRAM MB compressed",
            "Speedup",
            "Energy dense",
            "Energy compressed",
        ],
    );
    let compressed_opts =
        SimOptions { weight_compression: Some(WeightCompression::eie_default()), ..ctx.opts };
    for net in zoo::table_networks() {
        let dense = ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
        let comp =
            ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, compressed_opts);
        let mb = |p: &codesign_sim::NetworkPerf| {
            p.layers.iter().map(|l| l.dram_bytes).sum::<u64>() as f64 / 1e6
        };
        t.push_row(vec![
            net.name().to_owned(),
            format!("{:.2}", mb(&dense)),
            format!("{:.2}", mb(&comp)),
            format!("{:.2}x", dense.total_cycles() as f64 / comp.total_cycles() as f64),
            format!("{:.0}", dense.total_energy(&ctx.energy) / 1e6),
            format!("{:.0}", comp.total_energy(&ctx.energy) / 1e6),
        ]);
    }
    t
}

/// **C1** — §2's embedded constraints: model footprints and real-time
/// headroom at the paper configuration.
pub fn constraints(ctx: &Context) -> Table {
    let mut t = Table::new(
        "C1: embedded constraints per model (paper hardware, batch 1)",
        &["Network", "MMACs", "Params (M)", "Weights (KB)", "Peak act (KB)", "ms/frame", "fps"],
    );
    // The six classification rows plus the §2 detection workload whose
    // feature maps "cannot be over sub-sampled".
    let mut nets = zoo::table_networks();
    nets.push(zoo::squeezedet_trunk());
    for net in nets {
        let perf = ctx.sim.simulate_network(&net, &ctx.cfg, DataflowPolicy::PerLayer, ctx.opts);
        let ms = ctx.cfg.cycles_to_ms(perf.total_cycles());
        t.push_row(vec![
            net.name().to_owned(),
            format!("{:.0}", net.total_macs() as f64 / 1e6),
            format!("{:.2}", net.total_params() as f64 / 1e6),
            format!("{}", codesign_dnn::weight_bytes(&net, 2) / 1024),
            format!("{}", codesign_dnn::peak_activation_bytes(&net, 2) / 1024),
            format!("{ms:.2}"),
            format!("{:.0}", 1000.0 / ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::paper_default()
    }

    #[test]
    fn table1_has_six_networks() {
        let t = table1(&ctx());
        assert_eq!(t.len(), 6);
        assert_eq!(t.cell(0, 0), Some("AlexNet"));
    }

    #[test]
    fn table2_rows_are_all_at_least_1x() {
        let t = table2(&ctx());
        assert_eq!(t.len(), 6);
        for i in 0..t.len() {
            for col in [1, 2] {
                let v: f64 =
                    t.cell(i, col).unwrap().trim_end_matches('x').parse().expect("ratio cell");
                assert!(v >= 1.0, "row {i} col {col}: {v}");
            }
        }
    }

    #[test]
    fn fig1_covers_every_layer() {
        let t = fig1(&ctx());
        assert_eq!(t.len(), zoo::squeezenet_v1_0().layers().len());
    }

    #[test]
    fn fig3_covers_five_variants() {
        let t = fig3(&ctx());
        let variants: std::collections::HashSet<&str> =
            (0..t.len()).map(|i| t.cell(i, 0).unwrap()).collect();
        assert_eq!(variants.len(), 5);
    }

    #[test]
    fn fig4_has_families_and_fronts() {
        let t = fig4(&ctx());
        assert!(t.len() >= 12, "got {} fig4 points", t.len());
        let any_pareto = (0..t.len()).any(|i| t.cell(i, 4) == Some("true"));
        assert!(any_pareto);
    }

    #[test]
    fn ranges_reports_three_classes() {
        let t = ranges(&ctx());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ablations_never_speed_things_up() {
        let t = ablations(&ctx());
        assert_eq!(t.len(), 6);
        for i in 1..t.len() {
            let v: f64 = t.cell(i, 2).unwrap().trim_end_matches('x').parse().unwrap();
            assert!(v >= 1.0, "ablation {i} should not be faster: {v}");
        }
    }

    #[test]
    fn batch_sweep_shows_alexnet_amortization() {
        let t = batch_sweep(&ctx());
        assert_eq!(t.len(), 3);
        let alex_gain: f64 = t.cell(0, 4).unwrap().trim_end_matches('x').parse().unwrap();
        let squeeze_gain: f64 = t.cell(1, 4).unwrap().trim_end_matches('x').parse().unwrap();
        assert!(alex_gain > squeeze_gain, "FC-heavy nets gain most from batching");
    }

    #[test]
    fn multicore_table_has_three_networks() {
        let t = multicore_scaling(&ctx());
        assert_eq!(t.len(), 3);
        for i in 0..t.len() {
            let s: f64 = t.cell(i, 4).unwrap().trim_end_matches('x').parse().unwrap();
            assert!((1.0..=4.0).contains(&s));
        }
    }

    #[test]
    fn roofline_table_shows_dw_below_fxf() {
        let t = roofline_table(&ctx());
        assert_eq!(t.len(), 6);
        // MobileNet row: DW intensity below 1x1 intensity.
        let dw: f64 = t.cell(1, 5).unwrap().parse().unwrap();
        let pw: f64 = t.cell(1, 3).unwrap().parse().unwrap();
        assert!(dw < pw);
        // AlexNet has no DW column value.
        assert_eq!(t.cell(0, 5), Some("-"));
    }

    #[test]
    fn per_layer_all_covers_every_layer_of_every_network() {
        let t = per_layer_all(&ctx());
        let expect: usize = zoo::table_networks().iter().map(|n| n.layers().len()).sum();
        assert_eq!(t.len(), expect);
    }

    #[test]
    fn energy_breakdown_shares_sum_to_one() {
        let t = energy_breakdown(&ctx());
        for i in 0..t.len() {
            let sum: f64 = (2..7)
                .map(|c| t.cell(i, c).unwrap().trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() <= 3.0, "row {i} sums to {sum}");
        }
        // DRAM is a major share everywhere on this hierarchy.
        let dram: f64 = t.cell(3, 6).unwrap().trim_end_matches('%').parse().unwrap();
        assert!(dram > 30.0);
    }

    #[test]
    fn schedule_robustness_is_zero_at_the_assumption() {
        let t = schedule_robustness(&ctx());
        for i in 0..t.len() {
            assert_eq!(t.cell(i, 3), Some("0"), "row {i} flips at the assumed sparsity");
        }
    }

    #[test]
    fn taxonomy_shows_zero_gain_on_the_design_target() {
        let t = taxonomy(&ctx());
        assert_eq!(t.len(), 6);
        // SqueezeNet v1.0 row: hybrid4 == hybrid2.
        assert_eq!(t.cell(3, 5), t.cell(3, 6));
    }

    #[test]
    fn fusion_study_savings_grow_with_buffer() {
        let t = fusion_study(&ctx());
        assert_eq!(t.len(), 6);
        for i in 0..t.len() {
            let first: f64 = t.cell(i, 1).unwrap().trim_end_matches('%').parse().unwrap();
            let last: f64 = t.cell(i, 6).unwrap().trim_end_matches('%').parse().unwrap();
            assert!(last >= first, "row {i}: {first} -> {last}");
        }
    }

    #[test]
    fn event_crosscheck_stays_in_band() {
        let t = event_crosscheck(&ctx());
        assert_eq!(t.len(), 6);
        for i in 0..t.len() {
            let r: f64 = t.cell(i, 3).unwrap().trim_end_matches('x').parse().unwrap();
            assert!((0.8..1.45).contains(&r), "row {i}: {r}");
        }
    }

    #[test]
    fn compression_cuts_dram_bytes_and_energy() {
        let t = compression(&ctx());
        assert_eq!(t.len(), 6);
        for i in 0..t.len() {
            let dense_mb: f64 = t.cell(i, 1).unwrap().parse().unwrap();
            let comp_mb: f64 = t.cell(i, 2).unwrap().parse().unwrap();
            assert!(comp_mb < dense_mb, "row {i}: {comp_mb} >= {dense_mb}");
            let speedup: f64 = t.cell(i, 3).unwrap().trim_end_matches('x').parse().unwrap();
            assert!(speedup >= 0.999, "row {i} slowed down: {speedup}");
            let dense_e: f64 = t.cell(i, 4).unwrap().parse().unwrap();
            let comp_e: f64 = t.cell(i, 5).unwrap().parse().unwrap();
            assert!(comp_e <= dense_e, "row {i} energy grew");
        }
    }

    #[test]
    fn constraints_table_reports_fps() {
        let t = constraints(&ctx());
        assert_eq!(t.len(), 7);
        for i in 0..t.len() {
            let fps: f64 = t.cell(i, 6).unwrap().parse().unwrap();
            assert!(fps > 1.0);
        }
        // The detection trunk's peak activations dwarf every classifier's.
        let det_act: f64 = t.cell(6, 4).unwrap().parse().unwrap();
        for i in 0..6 {
            let cls_act: f64 = t.cell(i, 4).unwrap().parse().unwrap();
            assert!(det_act > cls_act);
        }
    }

    #[test]
    fn codesign_and_headlines_render() {
        let c = codesign(&ctx());
        assert_eq!(c.len(), 5);
        let h = headlines(&ctx());
        assert_eq!(h.len(), 2);
        assert!(h.to_markdown().contains("AlexNet"));
    }

    #[test]
    fn dse_sweep_is_full_grid() {
        let t = dse_sweep(&ctx());
        assert_eq!(t.len(), 27);
    }

    #[test]
    fn shared_context_cache_accrues_hits_across_artifacts() {
        let c = ctx();
        table2(&c);
        let after_table2 = c.sim.stats();
        assert!(after_table2.hit_rate() > 0.5, "table2 replays hybrid runs: {after_table2}");
        dse_sweep(&c);
        let after_sweep = c.sim.stats();
        assert!(
            after_sweep.hits > after_table2.hits,
            "fire-module repeats inside each sweep point must hit: {after_sweep}"
        );
    }
}
