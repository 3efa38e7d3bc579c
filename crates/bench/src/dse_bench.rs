//! Streaming design-space-exploration bench: covers a ~10M-point sweep
//! space through the bounded-memory frontier pipeline with dominance
//! branch-and-bound enabled, and reports coverage throughput, the
//! pruned fraction, and the peak live frontier.
//!
//! The space is deliberately too large to materialize: the classic
//! `sweep_full_with` path would allocate one [`DesignPoint`] per grid
//! point (~gigabytes), while the streaming pipeline holds only the live
//! Pareto frontier plus one in-flight chunk. The long monotone buffer
//! axis is the shape branch-and-bound exists for — DRAM traffic is
//! non-increasing in buffer budget, so once the frontier has the
//! traffic plateau, whole buffer segments are provably dominated and
//! skipped without evaluation.

use std::time::Instant;

use codesign_arch::EnergyModel;
use codesign_core::{sweep_frontier_with, FrontierConfig, FrontierOutcome, SweepSpace};
use codesign_dnn::{Network, NetworkBuilder, Shape};
use codesign_sim::{resolve_jobs, CancelToken, SimOptions, Simulator};

/// Headline numbers of the streaming-DSE bench.
#[derive(Debug, Clone, PartialEq)]
pub struct DseBench {
    /// Worker threads (already resolved; never 0).
    pub jobs: usize,
    /// Grid points in the swept space.
    pub points: u64,
    /// Points actually evaluated by the simulator.
    pub evaluated: u64,
    /// Points skipped by branch-and-bound dominance pruning.
    pub pruned: u64,
    /// Points whose configuration could not be built.
    pub skipped: u64,
    /// Points whose evaluation failed (expected 0).
    pub failed: u64,
    /// Pareto-optimal designs in the final frontier.
    pub frontier: usize,
    /// Largest number of design points held live at any moment — the
    /// bench's bounded-memory claim, in points.
    pub peak_frontier: u64,
    /// Measured wall time in milliseconds (best of [`Self::REPS`]).
    pub wall_ms: f64,
}

impl DseBench {
    /// Cold-cache repetitions; the reported wall time is the minimum.
    pub const REPS: usize = 2;
    /// Streaming chunk size. Small on purpose: more branch-and-bound
    /// decision points, which is the code path being benchmarked.
    pub const CHUNK: usize = 32;
    /// Buffer-axis levels: 64 KiB up in 32-byte steps.
    pub const BUFFER_LEVELS: usize = 2_560_000;

    /// The benchmarked network: one convolution, so every grid point is
    /// a single tiling search and the bench isolates sweep-engine and
    /// pruning overhead rather than per-layer simulation cost.
    pub fn network() -> Network {
        let mut b = NetworkBuilder::new("dse-bench-conv", Shape::new(16, 32, 32));
        b.conv("c1", 32, 3, 1, 1);
        b.finish().expect("static bench network builds")
    }

    /// The benchmarked space: 2 array edges x 2 register-file depths x
    /// 2.56M buffer levels = 10.24M grid points.
    pub fn space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8, 16],
            buffer_bytes: (0..Self::BUFFER_LEVELS).map(|i| 64 * 1024 + 32 * i).collect(),
        }
    }

    /// Runs the streaming frontier sweep over `space`, best wall time of
    /// [`Self::REPS`] cold-cache repetitions.
    pub fn measure_space(jobs: usize, network: &Network, space: &SweepSpace) -> Self {
        let opts = SimOptions::paper_default();
        let energy = EnergyModel::default();
        let config =
            FrontierConfig { jobs, chunk: Self::CHUNK, prune: true, ..FrontierConfig::default() };
        let mut best_wall_ms = f64::INFINITY;
        let mut outcome: Option<FrontierOutcome> = None;
        for _ in 0..Self::REPS {
            let sim = Simulator::new();
            let started = Instant::now();
            let out = sweep_frontier_with(
                &sim,
                network,
                space,
                opts,
                &energy,
                &config,
                &CancelToken::never(),
                |_| {},
            )
            .expect("bench space is non-empty and never cancelled");
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            if wall_ms < best_wall_ms {
                best_wall_ms = wall_ms;
            }
            // The outcome is deterministic across repetitions; keep the
            // last one.
            outcome = Some(out);
        }
        let out = outcome.expect("REPS >= 1");
        let c = out.counters;
        Self {
            jobs: resolve_jobs(jobs),
            points: c.total,
            evaluated: c.evaluated,
            pruned: c.pruned,
            skipped: c.skipped,
            failed: c.failed,
            frontier: out.frontier.len(),
            peak_frontier: c.peak_frontier,
            wall_ms: best_wall_ms,
        }
    }

    /// Runs the headline 10.24M-point bench.
    pub fn measure(jobs: usize) -> Self {
        Self::measure_space(jobs, &Self::network(), &Self::space())
    }

    /// Grid points covered (evaluated or proven dominated) per second.
    pub fn points_per_sec(&self) -> f64 {
        self.points as f64 / (self.wall_ms.max(f64::MIN_POSITIVE) / 1e3)
    }

    /// Fraction of the grid skipped by branch-and-bound.
    pub fn pruned_fraction(&self) -> f64 {
        self.pruned as f64 / (self.points as f64).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_core::{evaluate_point, pareto_designs, DesignPoint};

    /// A thousand-point slice of the headline space: big enough that
    /// branch-and-bound finds the traffic plateau, small enough to
    /// cross-check against a serial reference sweep.
    fn small_space() -> SweepSpace {
        SweepSpace {
            array_sizes: vec![8, 16],
            rf_depths: vec![8],
            buffer_bytes: (0..500).map(|i| 64 * 1024 + 4096 * i).collect(),
        }
    }

    #[test]
    fn bench_space_agrees_with_the_materializing_sweep() {
        let net = DseBench::network();
        let space = small_space();
        let b = DseBench::measure_space(2, &net, &space);
        assert_eq!(b.points as usize, space.len());
        assert_eq!(b.evaluated + b.pruned + b.skipped + b.failed, b.points);
        assert_eq!(b.failed, 0, "bench space evaluates cleanly");
        assert!(b.pruned_fraction() >= 0.2, "plateau must prune: {}", b.pruned_fraction());
        assert!(b.points_per_sec() > 0.0 && b.wall_ms > 0.0);
        assert!(b.peak_frontier >= b.frontier as u64);

        // Independent reference: a serial, uncached map over the grid.
        let sim = Simulator::uncached();
        let (opts, em) = (SimOptions::paper_default(), EnergyModel::default());
        let batch: Vec<DesignPoint> = space
            .grid()
            .filter_map(|params| evaluate_point(&sim, &net, params, opts, &em).ok().flatten())
            .collect();
        let expected = pareto_designs(&batch);
        assert_eq!(b.frontier, expected.len(), "pruning changed the frontier");
    }
}
