//! `dse-frontier`: each op is one pruned `sweep_frontier_with` sweep
//! (two workers, fresh `Simulator`) over a seeded space: a zoo network
//! × a seeded array/RF subset × a seeded buffer axis.

use std::time::Instant;

use codesign_arch::{area, AcceleratorConfig, AreaModel, DataflowPolicy, EnergyModel};
use codesign_core::{
    sweep_frontier_with, DesignPoint, FrontierConfig, FrontierOutcome, SweepSpace,
};
use codesign_dnn::{zoo, Network};
use codesign_sim::{CancelToken, SimOptions, Simulator};

use rand::Rng;

use crate::inputs::{rng, shuffle, Digest};
use crate::spans::{traced, Spans};
use crate::workload::{closed_loop, Env, Window, Workload};

/// Each space takes one array size from every band and one RF depth
/// from every band, and one buffer level from each of `BUFFER_LEVELS[n]`
/// equal-width bands of 32 KiB .. 1 MiB (1 KiB steps). Stratified draws
/// keep the work of an op nearly the same for every seed.
const ARRAY_BANDS: [[usize; 2]; 4] = [[8, 12], [16, 20], [24, 28], [30, 32]];
const RF_BANDS: [[usize; 2]; 3] = [[4, 8], [12, 16], [24, 32]];
const BUFFER_KIB: (usize, usize) = (32, 1);
const BUFFER_STEPS: usize = 992;
/// Buffer levels per table network (in `zoo::table_networks` order),
/// sized so that one sweep takes about 110 ms on a 2-core x86-64 host
/// whatever the network: per-point cost differs fourfold between them.
/// Sweeps of about 30 ms were too short: when the host's speed flickers,
/// their times split into a fast and a slow mode, and the median jumps
/// between the modes from run to run.
const BUFFER_LEVELS: [usize; 6] = [486, 234, 400, 238, 270, 121];
/// Spaces per network; ops cycle through all of them in seeded order.
const SPACES_PER_NET: usize = 2;

/// One sweep input.
#[derive(Debug, Clone)]
pub struct SweepCase {
    pub net: usize,
    pub space: SweepSpace,
}

/// One seeded draw from each band.
fn stratified(bands: &[[usize; 2]], r: &mut impl Rng) -> Vec<usize> {
    bands.iter().map(|b| b[r.gen_range(0..b.len())]).collect()
}

/// The seeded sweep deck: every table network appears `SPACES_PER_NET`
/// times, so the mix of networks is the same for every seed.
pub fn deck(seed: u64) -> Vec<SweepCase> {
    let mut r = rng(seed, "dse-frontier");
    let mut cases = Vec::new();
    for (net, &levels) in BUFFER_LEVELS.iter().enumerate() {
        for _ in 0..SPACES_PER_NET {
            let buffer_bytes = (0..levels)
                .map(|b| {
                    let step =
                        r.gen_range(b * BUFFER_STEPS / levels..(b + 1) * BUFFER_STEPS / levels);
                    (BUFFER_KIB.0 + BUFFER_KIB.1 * step) * 1024
                })
                .collect();
            let space = SweepSpace {
                array_sizes: stratified(&ARRAY_BANDS, &mut r),
                rf_depths: stratified(&RF_BANDS, &mut r),
                buffer_bytes,
            };
            cases.push(SweepCase { net, space });
        }
    }
    shuffle(&mut cases, &mut r);
    cases
}

/// Re-evaluates one design point from scratch on an uncached simulator,
/// the way the sweep engine evaluates grid points.
pub fn reevaluate(net: &Network, p: &DesignPoint) -> Option<DesignPoint> {
    let cfg = AcceleratorConfig::builder()
        .array_size(p.params.array_size)
        .rf_depth(p.params.rf_depth)
        .global_buffer_bytes(p.params.global_buffer_bytes)
        .build()
        .ok()?;
    let perf = Simulator::uncached()
        .try_simulate_network(net, &cfg, DataflowPolicy::PerLayer, SimOptions::paper_default())
        .ok()?;
    DesignPoint::checked(
        p.params,
        perf.total_cycles(),
        perf.total_energy(&EnergyModel::default()),
        perf.average_utilization(cfg.pe_count()),
        area(&cfg, &AreaModel::default(), true).total(),
    )
}

fn dominates(a: &DesignPoint, b: &DesignPoint) -> bool {
    a.cycles <= b.cycles
        && a.energy <= b.energy
        && a.area <= b.area
        && (a.cycles < b.cycles || a.energy < b.energy || a.area < b.area)
}

/// The full check of one sweep outcome: counters partition the space,
/// the frontier is mutually non-dominated, and every member matches an
/// uncached re-simulation exactly.
pub fn verify_outcome(
    net: &Network,
    space: &SweepSpace,
    out: &FrontierOutcome,
) -> Result<(), String> {
    let c = out.counters;
    if c.total != space.len() as u64 || c.evaluated + c.skipped + c.failed + c.pruned != c.total {
        return Err(format!("counters do not partition the {}-point space: {c:?}", space.len()));
    }
    for (i, a) in out.frontier.iter().enumerate() {
        if out.frontier.iter().enumerate().any(|(j, b)| i != j && dominates(b, a)) {
            return Err(format!("frontier member {} is dominated", a.params));
        }
        match reevaluate(net, a) {
            Some(fresh) if fresh == *a => {}
            other => return Err(format!("frontier member {} re-simulates to {other:?}", a.params)),
        }
    }
    Ok(())
}

/// One sweep as the workload runs it.
pub fn sweep(
    sim: &Simulator,
    net: &Network,
    space: &SweepSpace,
    jobs: usize,
    prune: bool,
) -> FrontierOutcome {
    let config = FrontierConfig { jobs, prune, ..FrontierConfig::default() };
    let energy = EnergyModel::default();
    sweep_frontier_with(
        sim,
        net,
        space,
        SimOptions::paper_default(),
        &energy,
        &config,
        &CancelToken::never(),
        |_| {},
    )
    .expect("non-empty, uncancelled sweep without checkpoints cannot fail")
}

pub struct DseFrontier {
    jobs: usize,
    nets: Vec<Network>,
    cases: Vec<SweepCase>,
    /// The first outcome of each case; later ops must repeat it, and it
    /// is fully verified after the window.
    first: Vec<Option<FrontierOutcome>>,
    /// Index of the next timed op.
    next_op: u64,
}

impl DseFrontier {
    fn run(&self, key: usize, op: u64, spans: Option<&Spans>) -> (f64, FrontierOutcome) {
        let case = &self.cases[key];
        let t = Instant::now();
        let out = traced(spans, "dse-frontier.sweep", op, None, |_| {
            sweep(&Simulator::new(), &self.nets[case.net], &case.space, self.jobs, true)
        });
        (t.elapsed().as_secs_f64() * 1e3, out)
    }

    fn record(&mut self, key: usize, out: FrontierOutcome) -> Result<(), String> {
        match &self.first[key] {
            None => {
                self.first[key] = Some(out);
                Ok(())
            }
            Some(first) if first.frontier == out.frontier && first.counters == out.counters => {
                Ok(())
            }
            Some(_) => Err(format!("sweep case {key} changed between ops")),
        }
    }
}

impl Workload for DseFrontier {
    fn setup(env: &Env) -> Result<Self, String> {
        let cases = deck(env.seed);
        let w = DseFrontier {
            jobs: env.jobs,
            nets: zoo::table_networks(),
            first: vec![None; cases.len()],
            cases,
            next_op: 0,
        };
        // The same warm-up sweep for every seed keeps set-up work fixed.
        let warm_up = &deck(0)[0];
        sweep(&Simulator::new(), &w.nets[warm_up.net], &warm_up.space, w.jobs, true);
        Ok(w)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for c in &self.cases {
            d.str(self.nets[c.net].name());
            for axis in [&c.space.array_sizes, &c.space.rf_depths, &c.space.buffer_bytes] {
                axis.iter().for_each(|&v| d.u64(v as u64));
                d.str("|");
            }
        }
        d.finish()
    }

    fn measure(&mut self, seconds: f64, min_ops: usize, spans: Option<&Spans>) -> Window {
        let mut next = self.next_op;
        let window =
            closed_loop(seconds, min_ops, self.cases.len(), spans, &mut next, |i, spans| {
                let key = (i as usize + 1) % self.cases.len();
                let (ms, out) = self.run(key, i, spans);
                (ms, key, self.record(key, out))
            });
        self.next_op = next;
        window
    }

    fn verify(&mut self) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        for (key, first) in self.first.iter().enumerate() {
            let Some(out) = first else { continue };
            let case = &self.cases[key];
            if let Err(e) = verify_outcome(&self.nets[case.net], &case.space, out) {
                bad.push((key, e));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_repeats_per_seed_and_keeps_the_network_mix() {
        let show = |seed| format!("{:?}", deck(seed));
        assert_eq!(show(4), show(4));
        assert_ne!(show(4), show(5));
        let cases = deck(4);
        for (net, &levels) in BUFFER_LEVELS.iter().enumerate() {
            let of_net: Vec<_> = cases.iter().filter(|c| c.net == net).collect();
            assert_eq!(of_net.len(), SPACES_PER_NET);
            for c in of_net {
                assert_eq!(c.space.len(), ARRAY_BANDS.len() * RF_BANDS.len() * levels);
                assert!(c.space.buffer_bytes.windows(2).all(|w| w[0] < w[1]), "one level per band");
            }
        }
    }
}
