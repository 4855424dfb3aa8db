//! The serve workloads' load generator: a deterministic request stream
//! sent over one connection by a writer (this thread) while a reader
//! thread collects responses and op-log deltas.
//!
//! # Deterministic stream
//!
//! The targets of depart and renegotiate request `i` are seeded draws
//! from the membership the op log shows after request `i − LAG`. The
//! deltas a request caused are complete once the next response arrives
//! (one connection, one totally ordered engine), so when that response
//! is not in yet the writer waits — a *lag stall*. Since the engine is a
//! pure function of its input sequence, every run of a seed sends the
//! same requests and gets the same decisions, whatever the timing.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use cloudalloc_model::ClientId;
use cloudalloc_protocol::{ClientMessage, ModelOp, ServerMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests between a response and the first request targeted from it.
pub const LAG: usize = 256;

/// How long either side waits for the server before giving up on it.
pub const PATIENCE: Duration = Duration::from_secs(20);

/// Request kinds of the measured phases, as integer weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Weight of `Admit` (a non-member of the lagged view).
    pub admit: u32,
    /// Weight of `Depart` (a member of the lagged view).
    pub depart: u32,
    /// Weight of `Renegotiate` (a member, rates scaled by U(0.8, 1.25)).
    pub renegotiate: u32,
    /// Weight of `Query`.
    pub query: u32,
}

/// Arrival offsets, in seconds, of a Poisson process of `rate` per
/// second over `[0, duration)`.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 − U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// A membership change the op log carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// The universe client entered the served population.
    Join(usize),
    /// The universe client left it (departed or shed).
    Leave(usize),
}

impl Change {
    /// The membership change an op carries, if any.
    pub fn of(op: &ModelOp) -> Option<Change> {
        match op {
            ModelOp::Admitted { client, .. } => Some(Change::Join(client.index())),
            ModelOp::Departed { client } | ModelOp::Shed { client } => {
                Some(Change::Leave(client.index()))
            }
            _ => None,
        }
    }
}

/// A set of universe ids with O(1) insert, remove and uniform pick. Its
/// order depends only on the sequence of changes, so picks are
/// deterministic.
struct Members {
    list: Vec<usize>,
    slot: Vec<Option<usize>>,
}

impl Members {
    fn new(universe: usize) -> Self {
        Self { list: Vec::new(), slot: vec![None; universe] }
    }

    fn apply(&mut self, change: Change) {
        match change {
            Change::Join(u) if self.slot[u].is_none() => {
                self.slot[u] = Some(self.list.len());
                self.list.push(u);
            }
            Change::Leave(u) => {
                if let Some(s) = self.slot[u].take() {
                    self.list.swap_remove(s);
                    if let Some(&moved) = self.list.get(s) {
                        self.slot[moved] = Some(s);
                    }
                }
            }
            Change::Join(_) => {}
        }
    }
}

/// The seeded request stream over a universe of clients.
pub struct RequestGen {
    rng: StdRng,
    mix: Mix,
    /// The universe's `(rate_agreed, rate_predicted)` per client.
    rates: Vec<(f64, f64)>,
    view: Members,
}

impl RequestGen {
    /// A stream of `mix` over a universe with the given contract rates.
    pub fn new(seed: u64, rates: Vec<(f64, f64)>, mix: Mix) -> Self {
        let view = Members::new(rates.len());
        Self { rng: StdRng::seed_from_u64(seed), mix, rates, view }
    }

    /// Folds one membership change into the lagged view.
    pub fn apply(&mut self, change: Change) {
        self.view.apply(change);
    }

    /// The next request, with correlation id `req`.
    pub fn next(&mut self, req: u64) -> ClientMessage {
        let Mix { admit, depart, renegotiate, query } = self.mix;
        let roll = self.rng.gen_range(0..admit + depart + renegotiate + query);
        let member = |gen: &mut Self| {
            let n = gen.view.list.len();
            (n > 0).then(|| ClientId(gen.view.list[gen.rng.gen_range(0..n)]))
        };
        if roll < admit {
            return self.admit(req);
        }
        if roll < admit + depart {
            return match member(self) {
                Some(client) => ClientMessage::Depart { req, client },
                None => self.admit(req),
            };
        }
        if roll < admit + depart + renegotiate {
            return match member(self) {
                Some(client) => {
                    let f = 0.8 + 0.45 * self.rng.gen::<f64>();
                    let (agreed, predicted) = self.rates[client.index()];
                    ClientMessage::Renegotiate {
                        req,
                        client,
                        rate_agreed: agreed * f,
                        rate_predicted: predicted * f,
                    }
                }
                None => self.admit(req),
            };
        }
        ClientMessage::Query { req }
    }

    fn admit(&mut self, req: u64) -> ClientMessage {
        // A non-member by rejection sampling; a crowded universe may
        // still yield a member, which the server answers AlreadyAdmitted.
        let n = self.rates.len();
        let mut u = self.rng.gen_range(0..n);
        for _ in 0..32 {
            if self.view.slot[u].is_none() {
                break;
            }
            u = self.rng.gen_range(0..n);
        }
        ClientMessage::Admit { req, client: ClientId(u) }
    }
}

/// Which part of a session a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Subscribe and warm-up admits, pipelined; part of set-up.
    Setup,
    /// Open-loop Poisson arrivals, timed from their due time.
    Nominal,
    /// Back-to-back requests with a window in flight: saturation.
    Burst,
    /// The closing fold and query, one at a time.
    Close,
}

/// What a session sends. The measured phases run in `rounds` rounds,
/// each an equal slice of the open-loop schedule followed by an equal
/// share of the burst, so both phases sample the whole run.
pub struct SessionPlan {
    /// Universe ids admitted (in order) before the measured phases.
    pub warmup: Vec<usize>,
    /// Due offsets, in seconds, of the open loop's arrivals.
    pub nominal: Vec<f64>,
    /// Length of the open-loop schedule, in seconds.
    pub nominal_s: f64,
    /// Requests of the saturation burst.
    pub burst: usize,
    /// Rounds the measured phases are cut into.
    pub rounds: usize,
    /// Requests in flight during warm-up and burst.
    pub window: usize,
    /// Whether the session closes with a forced fold (`Tick`).
    pub close_tick: bool,
    /// Whether the session closes with a `Query` of the final state.
    pub close_query: bool,
    /// The request stream of the measured phases.
    pub gen: RequestGen,
}

/// One request as sent.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The request.
    pub msg: ClientMessage,
    /// Its phase.
    pub phase: Phase,
    /// When it was due (open loop only).
    pub due: Option<Instant>,
    /// When it was written.
    pub at: Instant,
}

/// One response as received.
#[derive(Debug, Clone)]
pub struct Received {
    /// The response.
    pub msg: ServerMessage,
    /// When its line was read.
    pub at: Instant,
    /// Op-log deltas that followed it.
    pub deltas: u32,
}

/// Everything a session observed.
pub struct SessionLog {
    /// Requests in the order sent; request `i` has correlation id `i`.
    pub sent: Vec<Sent>,
    /// Responses by correlation id.
    pub responses: Vec<Option<Received>>,
    /// The op log in arrival order, each op with the correlation id of
    /// the request that caused it.
    pub ops: Vec<(usize, ModelOp)>,
    /// Requests whose send waited for a lagged response.
    pub lag_stalls: u64,
    /// Lines that answered no request, decoded to no message, answered
    /// out of order, or carried an op-log position out of sequence.
    pub protocol_faults: u64,
    /// End of set-up (all warm-up responses in).
    pub setup_end: Instant,
    /// Length of the open-loop schedule, in seconds.
    pub nominal_s: f64,
    /// Each round's burst: requests, and seconds from its first send to
    /// its last response.
    pub bursts: Vec<(usize, f64)>,
}

/// The sending half of a connection.
pub trait Outbound {
    /// Writes one request.
    fn send(&mut self, msg: &ClientMessage) -> std::io::Result<()>;
    /// Ends the request stream (the server then closes its side).
    fn close(&mut self);
}

/// The receiving half of a connection.
pub trait Inbound: Send {
    /// The next message, `Some(None)` for a line that did not decode,
    /// `None` once the connection is closed.
    fn recv(&mut self) -> Option<Option<ServerMessage>>;
}

#[derive(Default)]
struct Inbox {
    responses: Vec<Option<Received>>,
    changes: Vec<Vec<Change>>,
    ops: Vec<(usize, ModelOp)>,
    /// Responses received, in request order.
    answered: usize,
    /// Correlation id of the latest response (owner of later deltas).
    current: Option<usize>,
    closed: bool,
    faults: u64,
}

struct Shared {
    inbox: Mutex<Inbox>,
    arrived: Condvar,
}

impl Shared {
    /// Blocks until `answered >= n` or the connection closes; returns
    /// whether it had to wait. A server silent for [`PATIENCE`] counts as
    /// gone, so later waits return at once.
    fn wait_answered(&self, n: usize) -> bool {
        let mut inbox = self.inbox.lock().expect("inbox lock poisoned by the reader");
        let waited = inbox.answered < n && !inbox.closed;
        let deadline = Instant::now() + PATIENCE;
        while inbox.answered < n && !inbox.closed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                inbox.closed = true;
                break;
            }
            inbox = self.arrived.wait_timeout(inbox, left).expect("inbox lock poisoned").0;
        }
        waited
    }

    fn take_changes(&self, req: usize) -> Vec<Change> {
        let mut inbox = self.inbox.lock().expect("inbox lock poisoned by the reader");
        inbox.changes.get_mut(req).map(std::mem::take).unwrap_or_default()
    }
}

/// Runs `plan` over one connection: subscribe, warm up, the rounds of
/// open loop and burst, then the closing `Tick` and `Query` if planned,
/// and `Bye`. Returns once the server has closed the connection (or
/// stopped answering).
pub fn run_session(
    mut plan: SessionPlan,
    out: &mut dyn Outbound,
    inbound: impl Inbound,
) -> SessionLog {
    let shared = Shared { inbox: Mutex::new(Inbox::default()), arrived: Condvar::new() };
    let written = std::thread::scope(|scope| {
        let reader_shared = &shared;
        scope.spawn(move || read_loop(inbound, reader_shared));
        write_loop(&mut plan, out, &shared)
    });
    let mut inbox = shared.inbox.into_inner().expect("inbox lock poisoned");
    let mut responses = std::mem::take(&mut inbox.responses);
    responses.resize(written.sent.len(), None);
    SessionLog {
        sent: written.sent,
        responses,
        ops: inbox.ops,
        lag_stalls: written.lag_stalls,
        protocol_faults: inbox.faults,
        setup_end: written.setup_end,
        nominal_s: plan.nominal_s,
        bursts: written.bursts,
    }
}

/// The writer's half of a [`SessionLog`].
struct Written {
    sent: Vec<Sent>,
    lag_stalls: u64,
    setup_end: Instant,
    bursts: Vec<(usize, f64)>,
}

fn read_loop(mut inbound: impl Inbound, shared: &Shared) {
    while let Some(received) = inbound.recv() {
        let at = Instant::now();
        let mut inbox = shared.inbox.lock().expect("inbox lock poisoned by the writer");
        let Some(msg) = received else {
            inbox.faults += 1;
            continue;
        };
        match (&msg, msg.req()) {
            (ServerMessage::Delta { log, op }, _) => {
                let Some(owner) = inbox.current else {
                    inbox.faults += 1;
                    continue;
                };
                if let Some(change) = Change::of(op) {
                    inbox.changes[owner].push(change);
                }
                if let Some(Some(r)) = inbox.responses.get_mut(owner) {
                    r.deltas += 1;
                }
                if log.0 != inbox.ops.len() as u64 {
                    inbox.faults += 1;
                }
                inbox.ops.push((owner, op.clone()));
            }
            (_, Some(req)) => {
                let req = req as usize;
                if req != inbox.answered {
                    inbox.faults += 1;
                }
                if inbox.responses.len() <= req {
                    inbox.responses.resize(req + 1, None);
                    inbox.changes.resize(req + 1, Vec::new());
                }
                inbox.responses[req] = Some(Received { msg, at, deltas: 0 });
                inbox.current = Some(req);
                inbox.answered += 1;
                shared.arrived.notify_all();
            }
            // Welcome.
            (_, None) => {}
        }
    }
    let mut inbox = shared.inbox.lock().expect("inbox lock poisoned by the writer");
    inbox.closed = true;
    shared.arrived.notify_all();
}

fn write_loop(plan: &mut SessionPlan, out: &mut dyn Outbound, shared: &Shared) -> Written {
    let mut sent: Vec<Sent> = Vec::new();
    let mut send =
        |sent: &mut Vec<Sent>, msg: ClientMessage, phase: Phase, due: Option<Instant>| {
            let at = Instant::now();
            // A failed write shows up as a missing response.
            let _ = out.send(&msg);
            sent.push(Sent { msg, phase, due, at });
        };

    send(&mut sent, ClientMessage::Subscribe { req: 0 }, Phase::Setup, None);
    for &u in &plan.warmup {
        shared.wait_answered((sent.len() + 1).saturating_sub(plan.window));
        let req = sent.len() as u64;
        send(&mut sent, ClientMessage::Admit { req, client: ClientId(u) }, Phase::Setup, None);
    }
    shared.wait_answered(sent.len());
    let setup_end = Instant::now();

    // The lagged view: changes of requests `..applied` are folded in.
    let mut applied = 0usize;
    let mut lag_stalls = 0u64;
    let mut targeted = |plan: &mut SessionPlan, req: usize| -> ClientMessage {
        let mut stalled = false;
        while applied + LAG <= req {
            // Request `applied`'s deltas are complete once the response
            // to `applied + 1` is in.
            stalled |= shared.wait_answered(applied + 2);
            for change in shared.take_changes(applied) {
                plan.gen.apply(change);
            }
            applied += 1;
        }
        lag_stalls += u64::from(stalled);
        plan.gen.next(req as u64)
    };

    let slice = plan.nominal_s / plan.rounds as f64;
    let mut bursts = Vec::new();
    let mut next = 0;
    for round in 0..plan.rounds {
        let start = Instant::now();
        let from = slice * round as f64;
        while let Some(&offset) = plan.nominal.get(next).filter(|&&t| t < from + slice) {
            next += 1;
            let due = start + Duration::from_secs_f64((offset - from).max(0.0));
            let req = sent.len();
            let msg = targeted(plan, req);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            send(&mut sent, msg, Phase::Nominal, Some(due));
        }
        shared.wait_answered(sent.len());

        let start = Instant::now();
        let share = plan.burst * (round + 1) / plan.rounds - plan.burst * round / plan.rounds;
        for _ in 0..share {
            let req = sent.len();
            let msg = targeted(plan, req);
            shared.wait_answered((req + 1).saturating_sub(plan.window));
            send(&mut sent, msg, Phase::Burst, None);
        }
        shared.wait_answered(sent.len());
        bursts.push((share, start.elapsed().as_secs_f64()));
    }

    if plan.close_tick {
        let req = sent.len() as u64;
        send(&mut sent, ClientMessage::Tick { req }, Phase::Close, None);
        shared.wait_answered(sent.len());
    }
    if plan.close_query {
        let req = sent.len() as u64;
        send(&mut sent, ClientMessage::Query { req }, Phase::Close, None);
        shared.wait_answered(sent.len());
    }
    let req = sent.len() as u64;
    send(&mut sent, ClientMessage::Bye { req }, Phase::Close, None);
    out.close();
    Written { sent, lag_stalls, setup_end, bursts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_protocol::LogPosition;
    use std::sync::mpsc;

    #[test]
    fn poisson_schedules_repeat_for_a_seed() {
        let a = poisson_schedule(7, 200.0, 5.0);
        assert_eq!(a, poisson_schedule(7, 200.0, 5.0));
        assert_ne!(a, poisson_schedule(8, 200.0, 5.0));
        // About rate × duration arrivals, increasing, inside the window.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
    }

    #[test]
    fn members_pick_deterministically_after_churn() {
        let mut m = Members::new(10);
        for u in [3, 1, 4, 1, 5, 9] {
            m.apply(Change::Join(u));
        }
        m.apply(Change::Leave(1));
        m.apply(Change::Leave(7));
        assert_eq!(m.list, vec![3, 9, 4, 5]);
        assert_eq!(m.slot[9], Some(1));
        assert_eq!(m.slot[1], None);
    }

    /// A stand-in server: admits even clients it does not serve yet,
    /// departs members, answers everything else, and delivers every
    /// line after a seeded random delay.
    fn fake_server(
        rx: mpsc::Receiver<ClientMessage>,
        tx: mpsc::Sender<ServerMessage>,
        jitter_seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(jitter_seed);
        let mut served = std::collections::BTreeSet::new();
        let mut log = 0u64;
        for msg in rx {
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..300)));
            let req = msg.req();
            let (response, ops) = match msg {
                ClientMessage::Admit { client, .. }
                    if client.index() % 2 == 0 && served.insert(client.index()) =>
                {
                    let admitted = ServerMessage::Admitted {
                        req,
                        client,
                        cluster: cloudalloc_model::ClusterId(0),
                        profit: served.len() as f64,
                        profit_delta: 1.0,
                        latency_us: 1,
                        slo_ok: true,
                    };
                    (
                        admitted,
                        vec![ModelOp::Admitted {
                            client,
                            cluster: cloudalloc_model::ClusterId(0),
                            placements: vec![],
                        }],
                    )
                }
                ClientMessage::Depart { client, .. } if served.remove(&client.index()) => {
                    let departed = ServerMessage::Departed {
                        req,
                        client,
                        profit: served.len() as f64,
                        latency_us: 1,
                        slo_ok: true,
                    };
                    (departed, vec![ModelOp::Departed { client }])
                }
                ClientMessage::Bye { req } => (ServerMessage::Bye { req }, vec![]),
                _ => (ServerMessage::Subscribed { req, log: LogPosition(0) }, vec![]),
            };
            if tx.send(response).is_err() {
                return;
            }
            for op in ops {
                log += 1;
                if tx.send(ServerMessage::Delta { log: LogPosition(log - 1), op }).is_err() {
                    return;
                }
            }
        }
    }

    struct ChanOut(Option<mpsc::Sender<ClientMessage>>);
    impl Outbound for ChanOut {
        fn send(&mut self, msg: &ClientMessage) -> std::io::Result<()> {
            let tx = self.0.as_ref().ok_or(std::io::ErrorKind::BrokenPipe)?;
            tx.send(msg.clone()).map_err(|_| std::io::ErrorKind::BrokenPipe.into())
        }
        fn close(&mut self) {
            self.0 = None;
        }
    }
    struct ChanIn(mpsc::Receiver<ServerMessage>);
    impl Inbound for ChanIn {
        fn recv(&mut self) -> Option<Option<ServerMessage>> {
            self.0.recv().ok().map(Some)
        }
    }

    fn session(jitter_seed: u64) -> (Vec<ClientMessage>, u64) {
        let (req_tx, req_rx) = mpsc::channel();
        let (resp_tx, resp_rx) = mpsc::channel();
        let server = std::thread::spawn(move || fake_server(req_rx, resp_tx, jitter_seed));
        let mix = Mix { admit: 50, depart: 30, renegotiate: 10, query: 10 };
        let plan = SessionPlan {
            warmup: (0..40).collect(),
            nominal: poisson_schedule(3, 2000.0, 0.1),
            nominal_s: 0.1,
            burst: 1200,
            rounds: 2,
            // Far more in flight than the lag: the writer must stall.
            window: 2 * LAG,
            close_tick: true,
            close_query: true,
            gen: RequestGen::new(11, vec![(1.0, 1.0); 100], mix),
        };
        let log = run_session(plan, &mut ChanOut(Some(req_tx)), ChanIn(resp_rx));
        server.join().expect("fake server");
        assert!(log.responses.iter().all(Option::is_some), "a request went unanswered");
        assert_eq!(log.protocol_faults, 0);
        (log.sent.into_iter().map(|s| s.msg).collect(), log.lag_stalls)
    }

    #[test]
    fn lagged_targeting_repeats_the_stream_whatever_the_reply_timing() {
        let (a, stalls_a) = session(1);
        let (b, stalls_b) = session(2);
        assert_eq!(a, b, "reply jitter changed the request stream");
        assert!(a.iter().any(|m| matches!(m, ClientMessage::Depart { .. })));
        assert!(stalls_a + stalls_b > 0, "the window never outran the lag");
    }
}
