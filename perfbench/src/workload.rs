//! What every workload provides, and the closed loop the in-process
//! workloads share.

use std::path::PathBuf;
use std::time::Instant;

use crate::spans::Spans;

/// A run needs at least this many timed ops: `op_ms_p90` is only
/// reportable with ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Worker threads and connections: the host's two cores.
    pub jobs: usize,
    /// The release `codesign` binary (serve-mix spawns it).
    pub codesign_bin: PathBuf,
}

/// One timed op. `key` names the distinct input it ran, so a check made
/// after the window can fail every op that ran that input.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub ms: f64,
    pub key: usize,
    pub ok: bool,
    /// Whether the op ran inside spans.
    pub traced: bool,
}

/// In a traced window, ops run in alternating blocks of `block`
/// untraced and `block` traced ops, so that a change in host speed
/// during the window weighs on both kinds alike.
pub fn traced_op(op: u64, block: usize) -> bool {
    (op / block as u64) % 2 == 1
}

/// The timed ops of one measurement window.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<OpRecord>,
    /// Wall time spent inside timed ops (for one closed-loop stream the
    /// sum of their latencies; for concurrent streams the window).
    pub timed_s: f64,
    /// The first few check failures, for the run log.
    pub failures: Vec<String>,
}

impl Window {
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Appends a later window of the same workload.
    pub fn append(&mut self, later: Window) {
        self.ops.extend(later.ops);
        self.timed_s += later.timed_s;
        later.failures.into_iter().for_each(|f| self.fail(f));
    }
}

pub trait Workload: Sized {
    /// Generates the inputs from `env.seed`, starts the program and
    /// runs one untimed warm-up op.
    fn setup(env: &Env) -> Result<Self, String>;
    /// Digest of every input the program receives.
    fn digest(&self) -> u64;
    /// Runs timed ops, closed loop, for at least `seconds` and at least
    /// `min_ops` ops. With `spans`, each call into a layer of every
    /// other block of ops is traced (see [`traced_op`]).
    fn measure(&mut self, seconds: f64, min_ops: usize, spans: Option<&Spans>) -> Window;
    /// The process running the program, whose peak memory is reported.
    fn program_pid(&self) -> u32 {
        std::process::id()
    }
    /// Checks made after the window. Returns the keys whose outputs
    /// failed, with a message each.
    fn verify(&mut self) -> Vec<(usize, String)> {
        Vec::new()
    }
}

/// Runs `op` back to back until `seconds` have passed, at least
/// `min_ops` ops ran and the ops form whole rounds of `round` (so
/// that every input of a rotation weighs the same in the percentiles),
/// giving up after `4 * seconds + 30` s. With `spans`, rounds alternate
/// between untraced and traced, and the window ends on a traced one.
/// `next` is the index of the first op, and is left at the index after
/// the last, so that later windows continue the rotation. `op` gets the
/// op index and the spans to trace it in, and returns
/// `(latency_ms, key, check)`; it times only the call into the program
/// and checks outputs outside that time.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    round: usize,
    spans: Option<&Spans>,
    next: &mut u64,
    mut op: impl FnMut(u64, Option<&Spans>) -> (f64, usize, Result<(), String>),
) -> Window {
    let start = Instant::now();
    let give_up = 4.0 * seconds + 30.0;
    let whole_len = if spans.is_some() { 2 * round } else { round };
    let mut w = Window::default();
    let mut i = *next;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let whole = w.ops.len() % whole_len == 0;
        if (elapsed >= seconds && w.ops.len() >= min_ops && whole) || elapsed >= give_up {
            break;
        }
        let op_spans = spans.filter(|_| traced_op(i, round));
        let (ms, key, check) = op(i, op_spans);
        if let Err(e) = &check {
            w.fail(format!("op {i}: {e}"));
        }
        w.ops.push(OpRecord { ms, key, ok: check.is_ok(), traced: op_spans.is_some() });
        w.timed_s += ms / 1e3;
        i += 1;
    }
    *next = i;
    w
}
