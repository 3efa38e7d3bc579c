//! `serve-mix`: the release `codesign serve --jobs 2`, driven closed
//! loop by two connections from this process with a seeded mix of
//! `simulate`, `codesign` and small `sweep` requests drawn from one deck.
//!
//! The client uses plain blocking sockets with `TCP_NODELAY` on its own
//! side only, so whatever the server's transport does shows in the
//! round trip.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use codesign_arch::{AcceleratorConfig, Dataflow, DataflowPolicy, EnergyModel};
use codesign_core::{
    sweep_frontier_with, ArchitectureComparison, FrontierConfig, FrontierEvent, SweepSpace,
};
use codesign_dnn::zoo;
use codesign_sim::{resolve_jobs, CancelToken, SimOptions, Simulator};

use crate::inputs::{rng, shuffle, Digest};
use crate::spans::{traced, Spans};
use crate::workload::{traced_op, Env, OpRecord, Window, Workload};
use rand::Rng;

/// How long a client waits for the next response line before it counts
/// the op as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

const NETS: [&str; 6] =
    ["alexnet", "mobilenet", "tiny-darknet", "squeezenet-v1.0", "squeezenet-v1.1", "squeezenext"];
/// (array, RF depth, buffer KiB) configurations requests draw from.
const CONFIGS: [(usize, usize, usize); 4] =
    [(16, 8, 64), (16, 16, 128), (32, 16, 128), (32, 8, 256)];
const ARCHS: [&str; 3] = ["ws", "os", "hybrid"];
/// Requests per deck block: 14 `simulate`, 4 `codesign`, and one
/// `sweep` sent twice back to back, so the two connections often have it
/// in flight at once and the server's dedup is exercised.
const BLOCK: (usize, usize) = (14, 4);
const DECK_BLOCKS: usize = 128;
/// Deck positions per block.
const BLOCK_LEN: usize = BLOCK.0 + BLOCK.1 + 2;
/// The untimed warm-up op of every set-up: a cold `codesign` (three
/// whole-network simulations), the same for every seed.
const WARM_UP: Request = Request::Codesign { net: "squeezenext", cfg: CONFIGS[2] };

/// One request the mix can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Simulate { net: &'static str, arch: &'static str, cfg: (usize, usize, usize) },
    Codesign { net: &'static str, cfg: (usize, usize, usize) },
    Sweep { net: &'static str },
}

/// The small sweep space every `sweep` request asks for.
fn sweep_space() -> SweepSpace {
    SweepSpace {
        array_sizes: vec![8, 16],
        rf_depths: vec![8, 16],
        buffer_bytes: vec![64 * 1024, 128 * 1024],
    }
}

impl Request {
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Simulate { .. } => "simulate",
            Request::Codesign { .. } => "codesign",
            Request::Sweep { .. } => "sweep",
        }
    }

    /// The request object's fields after `id`.
    pub fn json(&self) -> String {
        match self {
            Request::Simulate { net, arch, cfg: (a, r, b) } => format!(
                "\"cmd\":\"simulate\",\"network\":\"{net}\",\"arch\":\"{arch}\",\"array\":{a},\"rf\":{r},\"buffer_kib\":{b}"
            ),
            Request::Codesign { net, cfg: (a, r, b) } => {
                format!("\"cmd\":\"codesign\",\"network\":\"{net}\",\"array\":{a},\"rf\":{r},\"buffer_kib\":{b}")
            }
            Request::Sweep { net } => format!(
                "\"cmd\":\"sweep\",\"network\":\"{net}\",\"arrays\":[8,16],\"rfs\":[8,16],\"buffers_kib\":[64,128],\"prune\":true"
            ),
        }
    }

    /// The response bodies (each line without its `id` wrapper) the
    /// server must send, computed in-process through the public
    /// functions the server calls.
    pub fn expected(&self, sim: &Simulator, jobs: usize) -> Vec<String> {
        let opts = SimOptions::paper_default();
        let energy = EnergyModel::default();
        let config = |(a, r, b): (usize, usize, usize)| {
            AcceleratorConfig::builder()
                .array_size(a)
                .rf_depth(r)
                .global_buffer_bytes(b * 1024)
                .build()
                .expect("pool configs are valid")
        };
        let network = |name: &str| zoo::by_name(name).expect("pool networks are in the zoo");
        match self {
            Request::Simulate { net, arch, cfg } => {
                let policy = match *arch {
                    "ws" => DataflowPolicy::Fixed(Dataflow::WeightStationary),
                    "os" => DataflowPolicy::Fixed(Dataflow::OutputStationary),
                    _ => DataflowPolicy::PerLayer,
                };
                let cfg = config(*cfg);
                match sim.try_simulate_network(&network(net), &cfg, policy, opts) {
                    Ok(perf) => vec![format!(
                        "\"event\":\"done\",\"cmd\":\"simulate\",\"cycles\":{},\"energy\":{},\"utilization\":{}",
                        perf.total_cycles(),
                        perf.total_energy(&energy),
                        perf.average_utilization(cfg.pe_count())
                    )],
                    Err(e) => vec![format!("in-process simulation failed: {e}")],
                }
            }
            Request::Codesign { net, cfg } => {
                let c = ArchitectureComparison::evaluate_with(
                    sim,
                    &network(net),
                    &config(*cfg),
                    opts,
                    energy,
                );
                vec![format!(
                    "\"event\":\"done\",\"cmd\":\"codesign\",\"network\":{},\"hybrid_cycles\":{},\"ws_cycles\":{},\"os_cycles\":{},\"speedup_vs_ws\":{},\"speedup_vs_os\":{},\"energy_reduction_vs_ws\":{},\"energy_reduction_vs_os\":{}",
                    escape(&c.network),
                    c.hybrid.total_cycles(),
                    c.ws.total_cycles(),
                    c.os.total_cycles(),
                    c.speedup_vs_ws(),
                    c.speedup_vs_os(),
                    c.energy_reduction_vs_ws(),
                    c.energy_reduction_vs_os()
                )]
            }
            Request::Sweep { net } => {
                let config = FrontierConfig {
                    jobs,
                    chunk: resolve_jobs(jobs).max(1),
                    prune: true,
                    ..FrontierConfig::default()
                };
                let mut lines = Vec::new();
                let outcome = sweep_frontier_with(
                    sim,
                    &network(net),
                    &sweep_space(),
                    opts,
                    &energy,
                    &config,
                    &CancelToken::never(),
                    |event| match event {
                        FrontierEvent::Entered { index, point } => lines.push(format!(
                            "\"event\":\"frontier\",\"index\":{index},\"design\":{},\"cycles\":{},\"energy\":{},\"utilization\":{},\"area\":{}",
                            escape(&point.params.to_string()),
                            point.cycles,
                            point.energy,
                            point.utilization,
                            point.area
                        )),
                        FrontierEvent::Pruned { from, until } => {
                            lines.push(format!("\"event\":\"pruned\",\"from\":{from},\"until\":{until}"))
                        }
                        FrontierEvent::Failure { .. } => {}
                    },
                )
                .expect("the pool sweep space is non-empty");
                let best = outcome
                    .best
                    .as_ref()
                    .map_or("null".to_owned(), |p| escape(&p.params.to_string()));
                lines.push(format!(
                    "\"event\":\"done\",\"cmd\":\"sweep\",\"points\":{},\"failures\":{},\"pruned\":{},\"frontier\":{},\"best\":{best}",
                    outcome.counters.evaluated,
                    outcome.counters.failed,
                    outcome.counters.pruned,
                    outcome.frontier.len()
                ));
                lines
            }
        }
    }
}

/// JSON string literal, escaped as the server escapes it.
fn escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every distinct request the deck draws from.
pub fn pool() -> Vec<Request> {
    let mut pool = Vec::new();
    for net in NETS {
        for arch in ARCHS {
            for cfg in CONFIGS {
                pool.push(Request::Simulate { net, arch, cfg });
            }
        }
    }
    for net in NETS {
        for cfg in CONFIGS {
            pool.push(Request::Codesign { net, cfg });
        }
    }
    pool.extend(NETS.map(|net| Request::Sweep { net }));
    pool
}

/// The seeded request sequence, as indices into [`pool`]. Every block
/// has the same command mix, so only the order and the choice of
/// network and configuration depend on the seed.
pub fn deck(seed: u64, pool: &[Request]) -> Vec<usize> {
    let mut r = rng(seed, "serve-mix");
    let of =
        |cmd: &str| -> Vec<usize> { (0..pool.len()).filter(|&i| pool[i].cmd() == cmd).collect() };
    let (sims, codesigns, sweeps) = (of("simulate"), of("codesign"), of("sweep"));
    let mut deck = Vec::new();
    for _ in 0..DECK_BLOCKS {
        let mut units: Vec<Vec<usize>> = Vec::new();
        units.extend((0..BLOCK.0).map(|_| vec![sims[r.gen_range(0..sims.len())]]));
        units.extend((0..BLOCK.1).map(|_| vec![codesigns[r.gen_range(0..codesigns.len())]]));
        let sweep = sweeps[r.gen_range(0..sweeps.len())];
        units.push(vec![sweep, sweep]);
        shuffle(&mut units, &mut r);
        deck.extend(units.into_iter().flatten());
    }
    deck
}

/// A spawned `codesign serve`, shut down (or killed) on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits for its
    /// `listening on` handshake line.
    pub fn spawn(bin: &Path, jobs: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--jobs", &jobs.to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let _ = out.read_line(&mut line);
            let _ = tx.send(line);
            out
        });
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap_or_default();
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| line.contains("listening on")) else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("server did not report its address (got {line:?})"));
        };
        let stdout = reader.join().map_err(|_| "handshake reader panicked".to_owned())?;
        Ok(Server { child, _stdout: stdout, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr, Duration::from_secs(2)) {
            let _ = c.call(0, "\"cmd\":\"shutdown\"");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The response bodies of one request, or why it failed.
pub type Reply = Result<Vec<String>, String>;

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(read_timeout)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(read_timeout)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends `{"id":id,<fields>}` and reads response lines up to the
    /// `done` or `error` one. Returns each line's body (without the
    /// `id` wrapper). An error response, a closed connection or a read
    /// timeout is an `Err`.
    pub fn call(&mut self, id: u64, fields: &str) -> Reply {
        self.writer
            .write_all(format!("{{\"id\":{id},{fields}}}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let prefix = format!("{{\"id\":{id},");
        let mut bodies = Vec::new();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".to_owned()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            let body = line
                .trim_end()
                .strip_prefix(&prefix)
                .and_then(|b| b.strip_suffix('}'))
                .ok_or_else(|| format!("response for another request: {}", line.trim_end()))?
                .to_owned();
            if body.starts_with("\"event\":\"error\"") {
                return Err(format!("error response: {body}"));
            }
            let done = body.starts_with("\"event\":\"done\"");
            bodies.push(body);
            if done {
                return Ok(bodies);
            }
        }
    }
}

/// The value of `"key":<number>` in a flat JSON body.
pub fn field(body: &str, key: &str) -> Option<f64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub struct ServeMix {
    jobs: usize,
    pool: Vec<Request>,
    deck: Vec<usize>,
    /// Next deck position; windows continue where the last one stopped.
    pos: usize,
    clients: Vec<Client>,
    /// Responses received, by pool index, checked after the window.
    responses: Vec<(usize, Vec<String>)>,
    /// `None` when the clients talk to a server this run did not spawn.
    server: Option<Server>,
}

impl ServeMix {
    /// Connects `env.jobs` clients to the server at `addr` (tests pass a
    /// stand-in server and no child process).
    pub fn connect(
        addr: SocketAddr,
        server: Option<Server>,
        env: &Env,
        read_timeout: Duration,
    ) -> Result<Self, String> {
        let pool = pool();
        let deck = deck(env.seed, &pool);
        let clients =
            (0..env.jobs).map(|_| Client::connect(addr, read_timeout)).collect::<Result<_, _>>()?;
        Ok(ServeMix { jobs: env.jobs, pool, deck, pos: 0, clients, responses: Vec::new(), server })
    }
}

impl Workload for ServeMix {
    fn setup(env: &Env) -> Result<Self, String> {
        let server = Server::spawn(&env.codesign_bin, env.jobs)?;
        let mut w = ServeMix::connect(server.addr, Some(server), env, READ_TIMEOUT)?;
        // The same warm-up request for every seed keeps set-up work fixed.
        let key =
            w.pool.iter().position(|r| *r == WARM_UP).expect("the warm-up request is in the pool");
        let bodies = w.clients[0].call(1, &w.pool[key].json())?;
        w.responses.push((key, bodies));
        Ok(w)
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for &k in &self.deck {
            d.str(&self.pool[k].json());
        }
        d.finish()
    }

    fn program_pid(&self) -> u32 {
        self.server.as_ref().map_or_else(std::process::id, Server::pid)
    }

    fn measure(&mut self, seconds: f64, min_ops: usize, spans: Option<&Spans>) -> Window {
        let start = Instant::now();
        let give_up = 4.0 * seconds + 30.0;
        let cursor = AtomicUsize::new(self.pos);
        let done = AtomicUsize::new(0);
        let results: Mutex<Vec<(OpRecord, Reply)>> = Mutex::new(Vec::new());
        let (pool, deck) = (&self.pool, &self.deck);
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                let (cursor, done, results) = (&cursor, &done, &results);
                scope.spawn(move || loop {
                    let elapsed = start.elapsed().as_secs_f64();
                    if (elapsed >= seconds && done.load(Ordering::SeqCst) >= min_ops)
                        || elapsed >= give_up
                    {
                        return;
                    }
                    let pos = cursor.fetch_add(1, Ordering::SeqCst);
                    let key = deck[pos % deck.len()];
                    let (name, fields) =
                        (format!("serve-mix.{}", pool[key].cmd()), pool[key].json());
                    let op_spans = spans.filter(|_| traced_op(pos as u64, BLOCK_LEN));
                    let t = Instant::now();
                    let reply = traced(op_spans, &name, pos as u64, None, |_| {
                        client.call(pos as u64 + 1, &fields)
                    });
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    done.fetch_add(1, Ordering::SeqCst);
                    let failed = reply.is_err();
                    results.lock().expect("results poisoned").push((
                        OpRecord { ms, key, ok: reply.is_ok(), traced: op_spans.is_some() },
                        reply,
                    ));
                    if failed {
                        // A connection that timed out or closed cannot
                        // be trusted to frame the next reply.
                        return;
                    }
                });
            }
        });
        let mut w = Window { timed_s: start.elapsed().as_secs_f64(), ..Window::default() };
        self.pos = cursor.into_inner();
        for (op, reply) in results.into_inner().expect("results poisoned") {
            match reply {
                Ok(bodies) => self.responses.push((op.key, bodies)),
                Err(e) => w.fail(format!("{}: {e}", self.pool[op.key].cmd())),
            }
            w.ops.push(op);
        }
        w
    }

    fn verify(&mut self) -> Vec<(usize, String)> {
        let sim = Simulator::new();
        let mut expected: Vec<Option<Vec<String>>> = vec![None; self.pool.len()];
        let mut bad = Vec::new();
        for (key, bodies) in &self.responses {
            let want =
                expected[*key].get_or_insert_with(|| self.pool[*key].expected(&sim, self.jobs));
            if bodies != want {
                bad.push((
                    *key,
                    format!(
                        "{} response differs from the in-process result: {bodies:?} vs {want:?}",
                        self.pool[*key].json()
                    ),
                ));
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::MIN_OPS;
    use std::net::TcpListener;

    #[test]
    fn deck_repeats_per_seed_with_a_fixed_command_mix() {
        let pool = pool();
        assert_eq!(deck(3, &pool), deck(3, &pool));
        assert_ne!(deck(3, &pool), deck(4, &pool));
        let d = deck(3, &pool);
        let count = |cmd| d.iter().filter(|&&k| pool[k].cmd() == cmd).count();
        assert_eq!(count("simulate"), BLOCK.0 * DECK_BLOCKS);
        assert_eq!(count("codesign"), BLOCK.1 * DECK_BLOCKS);
        assert_eq!(count("sweep"), 2 * DECK_BLOCKS);
    }

    #[test]
    fn a_hung_server_gives_failed_ops_not_a_hung_run() {
        // Connections complete in the kernel's backlog, but nothing ever
        // answers.
        let hung = TcpListener::bind("127.0.0.1:0").unwrap();
        let env = Env { seed: 1, jobs: 2, codesign_bin: "unused".into() };
        let mut w =
            ServeMix::connect(hung.local_addr().unwrap(), None, &env, Duration::from_millis(200))
                .unwrap();
        let t = Instant::now();
        let window = w.measure(0.05, MIN_OPS, None);
        assert!(t.elapsed() < Duration::from_secs(5), "the window ended on the read timeout");
        assert_eq!(
            window.ops.len(),
            env.jobs,
            "each connection records its timed-out op, then stops"
        );
        assert!(window.ops.iter().all(|op| !op.ok && op.ms >= 200.0));
        assert!(window.failures.iter().all(|f| f.contains("read")), "{:?}", window.failures);
    }

    #[test]
    fn numeric_fields_parse_from_flat_bodies() {
        let body = "\"event\":\"done\",\"requests\":12,\"cache\":{\"hits\":30,\"misses\":4}";
        assert_eq!(field(body, "requests"), Some(12.0));
        assert_eq!(field(body, "misses"), Some(4.0));
        assert_eq!(field(body, "absent"), None);
    }
}
