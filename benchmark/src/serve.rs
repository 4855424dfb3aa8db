//! The serve workloads: an open-loop generator on one loopback
//! connection against the real `cloudalloc serve` front end, run as a
//! child process, plus the in-process replay the traced run times.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cloudalloc_core::{profit_upper_bound, HierConfig, SolverConfig};
use cloudalloc_model::{
    evaluate, Allocation, ClientId, CloudSystem, ClusterId, Placement, ServerId,
};
use cloudalloc_protocol::{
    decode_line, encode_line, ClientMessage, ModelOp, ServerMessage, WirePlacement,
};
use cloudalloc_server::{Engine, EngineConfig, WallClock};
use cloudalloc_workload::ScenarioConfig;

use crate::datacenter::{sub_seed, Datacenter};
use crate::loadgen::{
    poisson_schedule, run_session, Inbound, Mix, Outbound, Phase, RequestGen, SessionLog,
    SessionPlan, PATIENCE,
};
use crate::report::{vm_hwm_kib, Outcome};
use crate::spans::{Recorder, SpanId};
use crate::stats::Sample;
use crate::{probes, RunArgs, THREADS};

/// Requests in flight during warm-up and the burst.
const WINDOW: usize = 64;
/// Rounds of open loop then burst: the host's speed drifts within a run,
/// and interleaving lets both phases sample all of it.
const ROUNDS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 200.0;
/// `serve --epoch-every`: no inline folds. A fold's duration depends on
/// the population's state; with folds every 16 mutations the churn tail
/// moved threefold from seed to seed.
const EPOCH_EVERY: u64 = 0;
/// `serve --slo-ms`, the engine's default: the latency limit on the tail.
const SLO_MS: u64 = 50;

/// One admission-serving session's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Universe clients.
    pub clients: usize,
    /// Scale preset (else the paper preset) for the universe.
    pub scale: bool,
    /// Admits, in seeded-permutation order, before timing starts.
    pub warmup: usize,
    /// Share of the run's seconds spent in the open loop.
    pub nominal_share: f64,
    /// Burst requests per run second.
    pub burst_per_s: f64,
    /// Request mix of the measured phases.
    pub mix: Mix,
    /// Whether the session closes with a forced fold (`Tick`).
    pub close_tick: bool,
}

/// `serve-churn`: a paper universe whose admitted population stays near
/// 150 clients, so per-request rebuilds are cheap and transport, codec
/// and the delta stream dominate. The closing `Tick` times one fold for
/// the layer rows.
pub fn churn(smoke: bool) -> ServeSpec {
    ServeSpec {
        clients: if smoke { 200 } else { 2000 },
        scale: false,
        warmup: if smoke { 60 } else { 600 },
        nominal_share: 0.7,
        burst_per_s: 200.0,
        mix: Mix { admit: 50, depart: 25, renegotiate: 25, query: 0 },
        close_tick: true,
    }
}

/// `serve-large`: a scale universe with thousands admitted and no folds,
/// where the per-request whole-population rebuild dominates.
pub fn large(smoke: bool) -> ServeSpec {
    ServeSpec {
        clients: if smoke { 2000 } else { 20_000 },
        scale: true,
        warmup: if smoke { 200 } else { 2500 },
        nominal_share: 0.7,
        burst_per_s: 150.0,
        mix: Mix { admit: 45, depart: 15, renegotiate: 20, query: 20 },
        close_tick: false,
    }
}

impl ServeSpec {
    fn datacenter(&self) -> Datacenter {
        let config = if self.scale {
            ScenarioConfig::scale(self.clients)
        } else {
            ScenarioConfig::paper(self.clients)
        };
        Datacenter::new(config)
    }

    /// The engine configuration `cloudalloc serve` builds from the flags
    /// [`ServerChild::spawn`] passes.
    fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            solver: SolverConfig { num_threads: Some(THREADS), ..SolverConfig::default() },
            slo_us: SLO_MS * 1000,
            epoch_every: EPOCH_EVERY,
            seed,
            ..EngineConfig::default()
        }
    }

    fn plan(&self, universe: &CloudSystem, seed: u64, seconds: f64, measured: bool) -> SessionPlan {
        let n = universe.num_clients();
        let mut order: Vec<usize> = (0..n).collect();
        // Seeded Fisher–Yates: the warm-up admits a prefix.
        let mut state = sub_seed(seed, 1);
        for i in (1..n).rev() {
            state = sub_seed(state, i as u64);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.truncate(self.warmup.min(n));
        let rates = universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect();
        let nominal_s = if measured { self.nominal_share * seconds } else { 0.0 };
        let nominal = poisson_schedule(sub_seed(seed, 2), RATE, nominal_s);
        let burst = if measured { (self.burst_per_s * seconds).round() as usize } else { 0 };
        SessionPlan {
            warmup: order,
            nominal,
            nominal_s,
            burst,
            rounds: ROUNDS,
            window: WINDOW,
            close_tick: measured && self.close_tick,
            close_query: measured,
            gen: RequestGen::new(sub_seed(seed, 3), rates, self.mix),
        }
    }
}

/// A `cloudalloc serve` child: the benchmark binary re-executed in its
/// hidden `__serve` mode. Dropping it kills and reaps the process.
struct ServerChild {
    child: Child,
    addr: String,
    rss_file: PathBuf,
}

impl ServerChild {
    fn spawn(universe: &Path, seed: u64, work: &Path) -> Result<Self, String> {
        let tag = format!("{}-{}", std::process::id(), next_tag());
        let addr_file = work.join(format!("addr-{tag}"));
        let rss_file = work.join(format!("rss-{tag}"));
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let child = Command::new(exe)
            .arg("__serve")
            .arg("--rss-out")
            .arg(&rss_file)
            .args(["serve", "--system"])
            .arg(universe)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--accept", "1", "--threads", &THREADS.to_string()])
            .args(["--epoch-every", &EPOCH_EVERY.to_string()])
            .args(["--slo-ms", &SLO_MS.to_string(), "--seed", &seed.to_string()])
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = ServerChild { child, addr: String::new(), rss_file };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = fs::read_to_string(&addr_file) {
                if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                    server.addr = text.trim().to_string();
                    let _ = fs::remove_file(&addr_file);
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not report its address".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Waits for the server to exit after its connection closed; returns
    /// its peak RSS in MiB.
    fn finish(mut self) -> Result<f64, String> {
        let status = self.child.wait().map_err(|e| format!("wait for server: {e}"))?;
        let rss = fs::read_to_string(&self.rss_file).map_err(|e| format!("server rss: {e}"));
        let _ = fs::remove_file(&self.rss_file);
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(vm_hwm_kib(&rss?) / 1024.0)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn next_tag() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static TAG: AtomicU64 = AtomicU64::new(0);
    TAG.fetch_add(1, Ordering::Relaxed)
}

struct TcpOut(TcpStream);

impl Outbound for TcpOut {
    fn send(&mut self, msg: &ClientMessage) -> std::io::Result<()> {
        let mut line = encode_line(msg);
        line.push('\n');
        self.0.write_all(line.as_bytes())
    }

    fn close(&mut self) {
        let _ = self.0.shutdown(Shutdown::Write);
    }
}

struct TcpIn(BufReader<TcpStream>);

impl Inbound for TcpIn {
    fn recv(&mut self) -> Option<Option<ServerMessage>> {
        let mut line = String::new();
        match self.0.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(decode_line(&line).ok()),
        }
    }
}

/// One session against a fresh server child.
struct Session {
    log: SessionLog,
    /// From the start of input generation to the end of warm-up.
    setup_s: f64,
    /// The server's peak RSS.
    rss_mib: f64,
}

fn session(
    universe: &CloudSystem,
    started: Instant,
    plan: SessionPlan,
    seed: u64,
    work: &Path,
) -> Result<Session, String> {
    let path = work.join(format!("universe-{}-{}.json", std::process::id(), next_tag()));
    let json = serde_json::to_string(universe).map_err(|e| format!("encode universe: {e}"))?;
    fs::write(&path, json).map_err(|e| format!("write universe: {e}"))?;
    let server = ServerChild::spawn(&path, seed, work);
    let _ = fs::remove_file(&path);
    let server = server?;
    let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_read_timeout(Some(PATIENCE)).map_err(|e| format!("read timeout: {e}"))?;
    let reader = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let log = run_session(plan, &mut TcpOut(stream), TcpIn(BufReader::new(reader)));
    let setup_s = log.setup_end.duration_since(started).as_secs_f64();
    let rss_mib = server.finish()?;
    Ok(Session { log, setup_s, rss_mib })
}

/// Runs a serve workload: three set-ups (the last one measured) in an
/// untraced run, one in a traced run.
pub fn run(spec: &ServeSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(spec, args, &mut out) {
        Ok(()) => {}
        Err(e) => out.check(format!("serve session ran ({e})"), false),
    }
    out
}

fn run_inner(spec: &ServeSpec, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut generate_ms = Vec::new();
    let mut measured = None;
    for k in 0..setups {
        let started = Instant::now();
        let dc = spec.datacenter();
        let universe = dc.populate(args.seed);
        generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let last = k + 1 == setups;
        let plan = spec.plan(&universe, args.seed, args.seconds, last);
        let s = session(&universe, started, plan, args.seed, &args.work)?;
        setup_times.push(s.setup_s);
        if last {
            measured = Some((universe, s));
        }
    }
    let (universe, s) = measured.expect("at least one set-up");
    println!(
        "serve: {} universe clients, {} requests, {} op-log deltas",
        universe.num_clients(),
        s.log.sent.len(),
        s.log.ops.len()
    );
    let socket = audit_socket_run(&universe, &s.log, out);
    if args.trace {
        out.set("workload.generate_ms", Sample::new(generate_ms).median());
        socket_layers(&s.log, out);
        let mut rec = Recorder::new();
        replay_layers(&universe, spec, args.seed, &s.log, &socket, &mut rec, out);
        crate::write_trace(&rec, args, out);
    } else {
        end_to_end(&s, &setup_times, &socket, out);
    }
    Ok(())
}

/// Checkpoints of the served population whose profit share is averaged.
const CHECKPOINTS: usize = 16;

/// Folds the socket run's op log into a mirror. Returns the mean profit
/// share — profit over its relaxation bound — of the mirrored population
/// at evenly spaced requests of the measured phases (the end state alone
/// is one step of a random walk), and the score of the final state.
fn mirror_scores(universe: &CloudSystem, log: &SessionLog) -> Result<(f64, Score), String> {
    let measured: Vec<usize> = (0..log.sent.len())
        .filter(|&i| matches!(log.sent[i].phase, Phase::Nominal | Phase::Burst))
        .collect();
    let checkpoints: Vec<usize> = match measured.len() {
        0 => Vec::new(),
        n => (1..=CHECKPOINTS).map(|k| measured[(k * n / CHECKPOINTS).max(1) - 1]).collect(),
    };
    let mut mirror = Mirror::new(universe);
    let mut ops = log.ops.iter().peekable();
    let mut shares = Vec::new();
    for &at in &checkpoints {
        while let Some((_, op)) = ops.next_if(|(owner, _)| *owner <= at) {
            mirror.apply(op)?;
        }
        let score = mirror.score()?;
        if score.bound > 0.0 {
            shares.push(score.profit / score.bound);
        }
    }
    for (_, op) in ops {
        mirror.apply(op)?;
    }
    Ok((Sample::new(shares).mean(), mirror.score()?))
}

/// What the socket run's responses say, checked.
struct SocketRun {
    digest: u64,
    /// Mean profit share of the served population over the run.
    profit_share: f64,
}

fn audit_socket_run(universe: &CloudSystem, log: &SessionLog, out: &mut Outcome) -> SocketRun {
    let missing = log.responses.iter().filter(|r| r.is_none()).count() as u64;
    let errors = log
        .responses
        .iter()
        .flatten()
        .filter(|r| matches!(r.msg, ServerMessage::Error { .. }))
        .count() as u64;
    out.attempted += log.sent.len() as u64;
    out.failed += missing + errors;
    out.check(
        format!("every request got one correlated response ({missing} missing)"),
        missing == 0 && log.protocol_faults == 0,
    );
    out.check(format!("no request was answered Error ({errors})"), errors == 0);
    let digest = digest(log.responses.iter().flatten().map(|r| &r.msg));
    let profit = final_profit(log.responses.iter().flatten().map(|r| &r.msg)).unwrap_or(f64::NAN);
    let mut profit_share = f64::NAN;
    match mirror_scores(universe, log) {
        Ok((share, end)) => {
            println!("serve: final population {} clients, profit {profit}", end.clients);
            out.check(
                format!("op-log mirror scores the final Query profit bit for bit ({profit})"),
                end.profit.to_bits() == profit.to_bits(),
            );
            profit_share = share;
        }
        Err(e) => out.check(format!("op-log mirror rebuilds ({e})"), false),
    }
    SocketRun { digest, profit_share }
}

fn end_to_end(s: &Session, setup_times: &[f64], socket: &SocketRun, out: &mut Outcome) {
    let log = &s.log;
    let latency = Sample::new(
        log.sent
            .iter()
            .zip(&log.responses)
            .filter_map(|(sent, r)| Some(r.as_ref()?.at.duration_since(sent.due?)))
            .map(|d| d.as_secs_f64() * 1e3)
            .collect(),
    );
    // The best round: the host's slow stretches last seconds, and the
    // rounds are seconds apart.
    let rates = log.bursts.iter().map(|&(n, secs)| n as f64 / secs.max(1e-9));
    let best = rates.fold(0.0, f64::max);
    let p99 = latency.pct(990);
    println!(
        "serve: open loop at {} req/s: p50 {:.3} ms, tail p99 {:.3} ms ({}), limit {} ms: {}",
        RATE,
        latency.median(),
        p99,
        latency.tail_note(),
        SLO_MS,
        if p99 <= SLO_MS as f64 { "met" } else { "missed" }
    );
    println!("serve: bursts of {:?} (requests, s), best {best:.1} req/s", log.bursts);
    out.set("setup_s", Sample::new(setup_times.to_vec()).median());
    out.set("latency_ms_p50", latency.median());
    out.set("latency_ms_tail", p99);
    out.set("throughput_per_s", best);
    out.set("profit_share", socket.profit_share);
    out.set("peak_rss_mib", s.rss_mib);
}

/// Metrics only the socket run sees: transport overhead, generator
/// lateness, the delta stream and the engine's busy share.
fn socket_layers(log: &SessionLog, out: &mut Outcome) {
    let mut overhead = Vec::new();
    let mut late = Vec::new();
    let mut busy_us = 0u64;
    let mut deltas = 0u64;
    let mut measured = 0u64;
    for (sent, r) in log.sent.iter().zip(&log.responses) {
        let Some(r) = r else { continue };
        if matches!(sent.phase, Phase::Nominal | Phase::Burst) {
            deltas += u64::from(r.deltas);
            measured += 1;
        }
        if let Some(due) = sent.due {
            let engine_us = engine_latency_us(&r.msg).unwrap_or(0);
            busy_us += engine_us;
            let rtt = r.at.duration_since(sent.at).as_secs_f64() * 1e3;
            overhead.push(rtt - engine_us as f64 / 1e3);
            late.push(sent.at.duration_since(due).as_secs_f64() * 1e3);
        }
    }
    let overhead = Sample::new(overhead);
    out.set("net.overhead_ms_p50", overhead.median());
    out.set("net.overhead_ms_p99", overhead.pct(990));
    out.set("net.deltas_per_req", deltas as f64 / measured.max(1) as f64);
    out.set("engine.busy_share", busy_us as f64 / 1e6 / log.nominal_s.max(1e-9));
    out.set("gen.late_ms_p99", Sample::new(late).pct(990));
    out.set("gen.lag_stalls", log.lag_stalls as f64);
}

fn engine_latency_us(msg: &ServerMessage) -> Option<u64> {
    match *msg {
        ServerMessage::Admitted { latency_us, .. }
        | ServerMessage::Rejected { latency_us, .. }
        | ServerMessage::Departed { latency_us, .. }
        | ServerMessage::Renegotiated { latency_us, .. }
        | ServerMessage::Ticked { latency_us, .. } => Some(latency_us),
        _ => None,
    }
}

/// Replays the socket run's exact request sequence through an
/// in-process engine twice — plain, then traced — checks both make the
/// socket run's decisions, and fills the engine and protocol rows.
/// Returns the traced replay and the tracing overhead.
fn replay_rows(
    universe: &CloudSystem,
    spec: &ServeSpec,
    seed: u64,
    log: &SessionLog,
    socket: &SocketRun,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> (Replay, f64) {
    let requests: Vec<&ClientMessage> = log.sent.iter().map(|s| &s.msg).collect();
    let plain = replay(universe, spec, seed, &requests, None);
    let traced = replay(universe, spec, seed, &requests, Some(&mut *rec));
    out.check(
        format!("in-process replay decides like the socket run (digest {:016x})", socket.digest),
        plain.digest == socket.digest && traced.digest == socket.digest,
    );
    let us = |name: &str| Sample::new(rec.durations_ns(name)).median() / 1e3;
    for (metric, span) in [
        ("engine.admit_us_p50", "engine.admit"),
        ("engine.depart_us_p50", "engine.depart"),
        ("engine.renegotiate_us_p50", "engine.renegotiate"),
        ("engine.query_us_p50", "engine.query"),
        ("protocol.encode_us", "protocol.encode"),
        ("protocol.decode_us", "protocol.decode"),
    ] {
        out.set(metric, us(span));
    }
    out.set("protocol.bytes_per_msg", traced.bytes as f64 / traced.messages.max(1) as f64);
    out.set("engine.fold_share", traced.fold_ns / traced.engine_ns.max(1.0));
    out.set("engine.folds", traced.folds as f64);
    out.set("engine.admit_accept_share", traced.admits_accepted / traced.admits.max(1.0));

    // The in-process rows explain the served latency only if the
    // replayed engine time agrees with what the server reported.
    let socket_us: u64 =
        log.responses.iter().flatten().filter_map(|r| engine_latency_us(&r.msg)).sum();
    let ratio = traced.engine_ns / 1e3 / (socket_us as f64).max(1.0);
    println!("serve: replayed engine time / served latency_us = {ratio:.3}");
    out.check(
        format!("replayed engine time reconciles with served latency_us (x{ratio:.2})"),
        (1.0 / 3.0..=3.0).contains(&ratio) || socket_us < 10_000,
    );
    let overhead = traced.wall_s / plain.wall_s.max(1e-9) - 1.0;
    (traced, overhead)
}

/// The traced run's rows beyond the socket: replay, then probes of the
/// model and core on the engine's final state.
fn replay_layers(
    universe: &CloudSystem,
    spec: &ServeSpec,
    seed: u64,
    log: &SessionLog,
    socket: &SocketRun,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let (traced, overhead) = replay_rows(universe, spec, seed, log, socket, rec, out);
    out.set("trace.overhead_share", overhead);
    let engine = traced.engine;
    let population = engine.masked_population();
    let alloc = engine.allocation();
    let config = spec.engine_config(seed).solver;
    probes::model_and_leaves(rec, &population, &alloc, &config);
    crate::batch::search_rows(rec, &population, &config, seed, out);
    out.set("hier.groups", crate::batch::groups(&population, &HierConfig::default()));
    crate::batch::model_rows(rec, out);
}

struct Replay {
    engine: Engine,
    digest: u64,
    wall_s: f64,
    engine_ns: f64,
    fold_ns: f64,
    folds: u64,
    admits: f64,
    admits_accepted: f64,
    bytes: u64,
    messages: u64,
}

/// Drives `Engine::handle` with `requests`, each round-tripped through
/// the wire codec, exactly as the server would; with a recorder, every
/// request's codec and engine work is a span under its own `req` root.
fn replay(
    universe: &CloudSystem,
    spec: &ServeSpec,
    seed: u64,
    requests: &[&ClientMessage],
    mut rec: Option<&mut Recorder>,
) -> Replay {
    let mut engine = Engine::new(universe.clone(), spec.engine_config(seed));
    let clock = WallClock::new();
    let mut responses = Vec::with_capacity(requests.len());
    let (mut engine_ns, mut fold_ns, mut folds) = (0.0, 0.0, 0u64);
    let (mut admits, mut admits_accepted, mut bytes, mut messages) = (0.0, 0.0, 0u64, 0u64);
    let started = Instant::now();
    for msg in requests {
        let root = rec.as_deref_mut().map(|r| r.open_req("req", SpanId::ROOT, Some(msg.req())));
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| match (rec.as_deref_mut(), root) {
            (Some(r), Some(root)) => r.time(name, root, f),
            _ => f(),
        };
        let mut line = String::new();
        timed("protocol.encode", &mut || line = encode_line(*msg));
        bytes += line.len() as u64 + 1;
        messages += 1;
        let mut decoded = None;
        timed("protocol.decode", &mut || decoded = decode_line::<ClientMessage>(&line).ok());
        let decoded = decoded.expect("an encoded request decodes");
        let t = Instant::now();
        let mut outcome = None;
        timed(engine_span(&decoded), &mut || outcome = Some(engine.handle(&decoded, &clock)));
        let ns = t.elapsed().as_nanos() as f64;
        let outcome = outcome.expect("handled");
        engine_ns += ns;
        if outcome.ops.iter().any(|(_, op)| matches!(op, ModelOp::Epoch { .. })) {
            fold_ns += ns;
            folds += 1;
        }
        if let ClientMessage::Admit { .. } = decoded {
            admits += 1.0;
            if matches!(outcome.response, ServerMessage::Admitted { .. }) {
                admits_accepted += 1.0;
            }
        }
        let deltas = outcome.ops.into_iter().map(|(log, op)| ServerMessage::Delta { log, op });
        for reply in std::iter::once(outcome.response.clone()).chain(deltas) {
            let mut line = String::new();
            timed("protocol.encode", &mut || line = encode_line(&reply));
            timed("protocol.decode", &mut || {
                std::hint::black_box(decode_line::<ServerMessage>(&line).ok());
            });
            bytes += line.len() as u64 + 1;
            messages += 1;
        }
        responses.push(outcome.response);
        if let (Some(r), Some(root)) = (rec.as_deref_mut(), root) {
            r.close(root);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Replay {
        digest: digest(responses.iter()),
        engine,
        wall_s,
        engine_ns,
        fold_ns,
        folds,
        admits,
        admits_accepted,
        bytes,
        messages,
    }
}

fn engine_span(msg: &ClientMessage) -> &'static str {
    match msg {
        ClientMessage::Admit { .. } => "engine.admit",
        ClientMessage::Depart { .. } => "engine.depart",
        ClientMessage::Renegotiate { .. } => "engine.renegotiate",
        ClientMessage::Query { .. } => "engine.query",
        ClientMessage::Subscribe { .. } => "engine.subscribe",
        ClientMessage::Tick { .. } => "engine.tick",
        ClientMessage::Bye { .. } => "engine.bye",
    }
}

/// FNV-1a over each decision's (req, kind, cluster or reason, profit
/// bits); latency and SLO flags are timing and stay out.
fn digest<'a>(responses: impl Iterator<Item = &'a ServerMessage>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for msg in responses {
        let (kind, what, profit) = match *msg {
            ServerMessage::Admitted { cluster, profit, .. } => (1, cluster.index() as u64, profit),
            ServerMessage::Rejected { reason, .. } => (2, reason as u64, 0.0),
            ServerMessage::Departed { profit, .. } => (3, 0, profit),
            ServerMessage::Renegotiated { profit, .. } => (4, 0, profit),
            ServerMessage::State { admitted, profit, .. } => (5, admitted, profit),
            ServerMessage::Ticked { shed, profit, .. } => (6, shed, profit),
            ServerMessage::Subscribed { log, .. } => (7, log.0, 0.0),
            ServerMessage::Bye { .. } => (8, 0, 0.0),
            ServerMessage::Error { .. } => (9, 0, 0.0),
            ServerMessage::Welcome { .. } | ServerMessage::Delta { .. } => continue,
        };
        eat(msg.req().unwrap_or(u64::MAX));
        eat(kind);
        eat(what);
        eat(profit.to_bits());
    }
    h
}

/// The profit of the last `State` response.
fn final_profit<'a>(responses: impl Iterator<Item = &'a ServerMessage>) -> Option<f64> {
    responses
        .filter_map(|m| match *m {
            ServerMessage::State { profit, .. } => Some(profit),
            _ => None,
        })
        .last()
}

/// A subscriber's mirror of the served population, folded from the op
/// log: members in admission order, their contracts and placements.
struct Mirror<'u> {
    universe: &'u CloudSystem,
    rates: Vec<(f64, f64)>,
    members: Vec<usize>,
    placed: Vec<Option<(ClusterId, Vec<WirePlacement>)>>,
    down: Vec<ServerId>,
}

/// A mirrored population, scored.
struct Score {
    clients: usize,
    /// Batch-evaluated profit of the mirrored allocation.
    profit: f64,
    /// Relaxation upper bound on the population's profit.
    bound: f64,
}

impl<'u> Mirror<'u> {
    fn new(universe: &'u CloudSystem) -> Self {
        Self {
            universe,
            rates: universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect(),
            members: Vec::new(),
            placed: vec![None; universe.num_clients()],
            down: Vec::new(),
        }
    }

    fn apply(&mut self, op: &ModelOp) -> Result<(), String> {
        let n = self.universe.num_clients();
        let known = |c: ClientId| {
            if c.index() < n {
                Ok(c.index())
            } else {
                Err(format!("op names client {c}"))
            }
        };
        match op {
            ModelOp::Admitted { client, cluster, placements } => {
                let c = known(*client)?;
                self.members.push(c);
                self.placed[c] = Some((*cluster, placements.clone()));
            }
            ModelOp::Departed { client } | ModelOp::Shed { client } => {
                let c = known(*client)?;
                self.members.retain(|&m| m != c);
                self.placed[c] = None;
            }
            ModelOp::Renegotiated { client, rate_agreed, rate_predicted } => {
                self.rates[known(*client)?] = (*rate_agreed, *rate_predicted);
            }
            ModelOp::Placements { client, cluster, placements } => {
                self.placed[known(*client)?] = Some((*cluster, placements.clone()));
            }
            ModelOp::ServerDown { server } => self.down.push(*server),
            ModelOp::ServerUp { server } => self.down.retain(|s| s != server),
            ModelOp::Epoch { .. } => {}
        }
        Ok(())
    }

    /// Rebuilds the population the way the engine does (dense ids in
    /// admission order, placements replayed in that order) and scores it.
    fn score(&self) -> Result<Score, String> {
        let clients = self
            .members
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                let mut c = self.universe.client(ClientId(u)).clone();
                c.id = ClientId(d);
                (c.rate_agreed, c.rate_predicted) = self.rates[u];
                c
            })
            .collect();
        let population = self
            .universe
            .try_with_clients(clients)
            .map_err(|e| format!("mirror population: {e}"))?
            .with_failed_servers(&self.down);
        let mut alloc = Allocation::new(&population);
        for (d, &u) in self.members.iter().enumerate() {
            let (cluster, placements) =
                self.placed[u].as_ref().ok_or("member without placements")?;
            alloc.assign_cluster(ClientId(d), *cluster);
            for p in placements {
                let placement = Placement { alpha: p.alpha, phi_p: p.phi_p, phi_c: p.phi_c };
                alloc.place(&population, ClientId(d), p.server, placement);
            }
        }
        Ok(Score {
            clients: self.members.len(),
            profit: evaluate(&population, &alloc).profit,
            bound: profit_upper_bound(&population),
        })
    }
}

/// The admission session a batch workload's traced run drives over its
/// own system: the paper scenario gets churn's shape, the scale system
/// serve-large's, both shortened.
pub fn batch_session_layers(
    universe: &CloudSystem,
    scale: bool,
    args: &RunArgs,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let base = if scale { large(args.smoke) } else { churn(args.smoke) };
    let spec = ServeSpec {
        clients: universe.num_clients(),
        warmup: universe.num_clients().min(base.warmup) / 4,
        burst_per_s: base.burst_per_s / 4.0,
        nominal_share: 0.15,
        ..base
    };
    let seconds = args.seconds.min(10.0);
    let plan = spec.plan(universe, args.seed, seconds, true);
    let result = session(universe, Instant::now(), plan, args.seed, &args.work);
    match result {
        Ok(s) => {
            let socket = audit_socket_run(universe, &s.log, out);
            socket_layers(&s.log, out);
            replay_rows(universe, &spec, args.seed, &s.log, &socket, rec, out);
        }
        Err(e) => out.check(format!("admission session ran ({e})"), false),
    }
}
