//! Deterministic integration suite for the live admission server.
//!
//! Every test runs the real TCP/JSONL stack — `TcpListener` on loopback,
//! accept thread, reader threads, engine loop — but pins all three
//! nondeterminism seams: the clock is a [`LogicalClock`], the solver seed
//! is explicit, and the harness follows the lockstep discipline (one
//! session connects at a time; each request waits for its response), so
//! the engine consumes a totally ordered input stream and transcripts
//! are byte-for-byte reproducible.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

use cloudalloc::core::SolverConfig;
use cloudalloc::model::{check_feasibility, evaluate, ClientId, Violation};
use cloudalloc::protocol::{
    decode_line, encode_line, ClientMessage, ModelOp, RejectReason, ServerMessage, PROTOCOL_VERSION,
};
use cloudalloc::server::{serve, Engine, EngineConfig, LogicalClock, ServeOptions, ServeSummary};
use cloudalloc::workload::{generate, ScenarioConfig};

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        solver: SolverConfig { num_threads: Some(threads), ..SolverConfig::fast() },
        seed: 7,
        ..EngineConfig::default()
    }
}

/// Starts a serve loop on an ephemeral loopback port with a logical
/// clock; returns the bound address and the join handle yielding the
/// summary plus the final engine for in-process auditing.
fn spawn_server(
    clients: usize,
    threads: usize,
    accept: usize,
) -> (SocketAddr, thread::JoinHandle<(ServeSummary, Engine)>) {
    let system = generate(&ScenarioConfig::paper(clients), 4242);
    let engine = Engine::new(system, engine_config(threads));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        serve(
            listener,
            engine,
            Box::new(LogicalClock::new(1)),
            ServeOptions { accept: Some(accept) },
        )
        .expect("serve loop")
    });
    (addr, handle)
}

/// One scripted session. Records every received line verbatim.
struct Session {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    transcript: String,
}

impl Session {
    fn connect(addr: SocketAddr) -> Session {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut session = Session { stream, reader, transcript: String::new() };
        let welcome = session.recv();
        assert!(
            matches!(welcome, ServerMessage::Welcome { protocol, .. } if protocol == PROTOCOL_VERSION)
        );
        session
    }

    fn recv(&mut self) -> ServerMessage {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read server line");
        assert!(n > 0, "server closed the connection mid-session");
        self.transcript.push_str(&line);
        decode_line(&line).expect("server line decodes")
    }

    /// Lockstep request: send, then read until the correlated response,
    /// recording any interleaved op-log deltas.
    fn request(&mut self, msg: &ClientMessage) -> ServerMessage {
        let mut line = encode_line(msg);
        line.push('\n');
        self.stream.write_all(line.as_bytes()).expect("send request");
        loop {
            let received = self.recv();
            if received.req() == Some(msg.req()) {
                return received;
            }
        }
    }

    fn bye(mut self, req: u64) -> String {
        let reply = self.request(&ClientMessage::Bye { req });
        assert_eq!(reply, ServerMessage::Bye { req });
        self.transcript
    }
}

#[test]
fn scripted_session_covers_the_request_surface() {
    let (addr, handle) = spawn_server(12, 1, 1);
    let mut s = Session::connect(addr);

    // Admit a handful of clients; the paper scenario is profitable, so
    // at least some must land.
    let mut admitted = Vec::new();
    for i in 0..6u64 {
        match s.request(&ClientMessage::Admit { req: 10 + i, client: ClientId(i as usize) }) {
            ServerMessage::Admitted { client, slo_ok, .. } => {
                assert!(slo_ok, "logical-clock latency must sit inside the SLO");
                admitted.push(client);
            }
            ServerMessage::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::Unprofitable);
            }
            other => panic!("unexpected admit reply: {other:?}"),
        }
    }
    assert!(!admitted.is_empty(), "paper scenario admitted nobody");
    let first = admitted[0];

    // Duplicate admit → AlreadyAdmitted; out-of-universe id → UnknownClient.
    assert!(matches!(
        s.request(&ClientMessage::Admit { req: 20, client: first }),
        ServerMessage::Rejected { reason: RejectReason::AlreadyAdmitted, .. }
    ));
    assert!(matches!(
        s.request(&ClientMessage::Admit { req: 21, client: ClientId(999) }),
        ServerMessage::Rejected { reason: RejectReason::UnknownClient, .. }
    ));

    // Renegotiate: invalid rates are rejected without touching state;
    // a sane proposal gets a fresh decision.
    assert!(matches!(
        s.request(&ClientMessage::Renegotiate {
            req: 22,
            client: first,
            rate_agreed: -1.0,
            rate_predicted: 1.0
        }),
        ServerMessage::Rejected { reason: RejectReason::InvalidRates, .. }
    ));
    match s.request(&ClientMessage::Renegotiate {
        req: 23,
        client: first,
        rate_agreed: 1.5,
        rate_predicted: 1.5,
    }) {
        ServerMessage::Renegotiated { client, .. } => assert_eq!(client, first),
        ServerMessage::Rejected { reason: RejectReason::Unprofitable, .. } => {}
        other => panic!("unexpected renegotiate reply: {other:?}"),
    }

    // Forced fold, then a state snapshot that reflects it.
    let epoch_after = match s.request(&ClientMessage::Tick { req: 24 }) {
        ServerMessage::Ticked { epoch, .. } => epoch,
        other => panic!("unexpected tick reply: {other:?}"),
    };
    match s.request(&ClientMessage::Query { req: 25 }) {
        ServerMessage::State { epoch, admitted: n, .. } => {
            assert_eq!(epoch, epoch_after);
            assert!(n >= 1);
        }
        other => panic!("unexpected query reply: {other:?}"),
    }

    // Depart, then the same depart again → NotAdmitted.
    assert!(matches!(
        s.request(&ClientMessage::Depart { req: 26, client: first }),
        ServerMessage::Departed { .. }
    ));
    assert!(matches!(
        s.request(&ClientMessage::Depart { req: 27, client: first }),
        ServerMessage::Rejected { reason: RejectReason::NotAdmitted, .. }
    ));

    s.bye(28);
    let (summary, engine) = handle.join().expect("server thread");
    assert_eq!(summary.connections, 1);
    assert!(!engine.is_admitted(first));
    assert_eq!(summary.stats.slo_misses, 0);
}

/// The acceptance criterion of the whole exercise: the profit the server
/// reports for the admitted population equals — bit for bit — the batch
/// scorer's verdict on that same final population. The engine *decides*
/// with the incremental scorer but *reports* `evaluate`, so this holds
/// exactly, not within a tolerance.
#[test]
fn served_profit_matches_batch_score_of_final_population_exactly() {
    let (addr, handle) = spawn_server(16, 2, 1);
    let mut s = Session::connect(addr);
    for i in 0..10u64 {
        s.request(&ClientMessage::Admit { req: i, client: ClientId(i as usize) });
    }
    s.request(&ClientMessage::Depart { req: 100, client: ClientId(3) });
    s.request(&ClientMessage::Renegotiate {
        req: 101,
        client: ClientId(1),
        rate_agreed: 2.0,
        rate_predicted: 2.0,
    });
    s.request(&ClientMessage::Tick { req: 102 });
    s.bye(103);

    let (summary, engine) = handle.join().expect("server thread");
    let population = engine.masked_population();
    let allocation = engine.allocation();
    let batch = evaluate(&population, &allocation);
    assert_eq!(
        engine.profit().to_bits(),
        batch.profit.to_bits(),
        "served profit {} != batch profit {}",
        engine.profit(),
        batch.profit
    );
    assert_eq!(summary.profit.to_bits(), batch.profit.to_bits());

    // And the allocation the profit was scored on is a valid plan: the
    // only tolerated violation class is declined admission.
    allocation.assert_consistent(&population);
    assert!(check_feasibility(&population, &allocation)
        .iter()
        .all(|v| matches!(v, Violation::Unassigned { .. })));
}

/// Replays the same two-session script and returns the concatenation of
/// both transcripts plus the rendered summary numbers.
fn scripted_run(threads: usize) -> String {
    let (addr, handle) = spawn_server(14, threads, 2);

    // Session A: subscriber. Connects first, then watches session B's
    // op-log deltas arrive interleaved with B's own responses.
    let mut a = Session::connect(addr);
    assert!(matches!(
        a.request(&ClientMessage::Subscribe { req: 1 }),
        ServerMessage::Subscribed { .. }
    ));

    let mut b = Session::connect(addr);
    for i in 0..8u64 {
        b.request(&ClientMessage::Admit { req: 10 + i, client: ClientId(i as usize) });
    }
    b.request(&ClientMessage::Depart { req: 30, client: ClientId(2) });
    b.request(&ClientMessage::Renegotiate {
        req: 31,
        client: ClientId(0),
        rate_agreed: 1.25,
        rate_predicted: 1.5,
    });
    b.request(&ClientMessage::Tick { req: 32 });
    let transcript_b = b.bye(33);

    // The subscriber's deltas are already queued on its socket in op-log
    // order; a final Query then Bye flushes and closes.
    a.request(&ClientMessage::Query { req: 2 });
    let transcript_a = a.bye(3);

    let (summary, engine) = handle.join().expect("server thread");
    format!(
        "--- session A ---\n{transcript_a}--- session B ---\n{transcript_b}\
         --- summary ---\nprofit={:?} admitted={} epoch={} requests={} sheds={}\n",
        engine.profit(),
        summary.admitted,
        summary.epoch,
        summary.stats.requests,
        summary.stats.shed,
    )
}

#[test]
fn transcripts_are_bit_identical_across_runs_and_thread_counts() {
    let one = scripted_run(1);
    let again = scripted_run(1);
    assert_eq!(one, again, "same script, same seams, different bytes");
    let four = scripted_run(4);
    assert_eq!(one, four, "solver thread count leaked into the transcript");
    assert!(one.contains("Delta"), "subscriber saw no op-log deltas");
}

/// A connection that dies mid-request — half a line, no newline, socket
/// gone — must not take the server down or corrupt state for the next
/// session.
#[test]
fn disconnect_mid_request_leaves_the_server_healthy() {
    let (addr, handle) = spawn_server(12, 1, 3);

    // Victim 1: connects, reads Welcome, writes half an Admit, vanishes.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("welcome");
        stream.write_all(br#"{"Admit":{"req":1,"cli"#).expect("partial write");
        // Dropped here: mid-request disconnect.
    }

    // Victim 2: sends a complete but malformed line, then a valid one.
    {
        let mut s = Session::connect(addr);
        let mut stream = s.stream.try_clone().expect("clone");
        stream.write_all(b"{\"Admit\":[not json\n").expect("malformed write");
        match s.recv() {
            ServerMessage::Error { req, .. } => assert_eq!(req, 0),
            other => panic!("malformed line got {other:?}"),
        }
        assert!(matches!(
            s.request(&ClientMessage::Admit { req: 2, client: ClientId(0) }),
            ServerMessage::Admitted { .. } | ServerMessage::Rejected { .. }
        ));
        s.bye(3);
    }

    // Survivor: full session after both casualties.
    let mut s = Session::connect(addr);
    assert!(matches!(
        s.request(&ClientMessage::Admit { req: 4, client: ClientId(1) }),
        ServerMessage::Admitted { .. } | ServerMessage::Rejected { .. }
    ));
    match s.request(&ClientMessage::Query { req: 5 }) {
        ServerMessage::State { .. } => {}
        other => panic!("unexpected query reply: {other:?}"),
    }
    s.bye(6);

    let (summary, engine) = handle.join().expect("server thread");
    assert_eq!(summary.connections, 3);
    // The half-written Admit was dropped, not processed: only victim 2
    // and the survivor admitted anybody.
    assert!(engine.members().len() <= 2);
}

/// A subscriber can fold the op-log deltas into a mirror of the admitted
/// set: every `Admitted` adds, `Departed`/`Shed` removes, and the mirror
/// ends up equal to the server's own final membership.
#[test]
fn op_log_deltas_reconstruct_the_admitted_set() {
    let (addr, handle) = spawn_server(14, 1, 2);

    let mut a = Session::connect(addr);
    assert!(matches!(
        a.request(&ClientMessage::Subscribe { req: 1 }),
        ServerMessage::Subscribed { .. }
    ));

    let mut b = Session::connect(addr);
    for i in 0..7u64 {
        b.request(&ClientMessage::Admit { req: 10 + i, client: ClientId(i as usize) });
    }
    b.request(&ClientMessage::Depart { req: 20, client: ClientId(4) });
    b.request(&ClientMessage::Tick { req: 21 });
    b.bye(22);

    a.request(&ClientMessage::Query { req: 2 });
    let transcript = a.bye(3);

    let mut mirror: Vec<usize> = Vec::new();
    let mut positions = Vec::new();
    for line in transcript.lines() {
        if let Ok(ServerMessage::Delta { log, op }) = decode_line::<ServerMessage>(line) {
            positions.push(log.0);
            match op {
                ModelOp::Admitted { client, .. } => mirror.push(client.index()),
                ModelOp::Departed { client } | ModelOp::Shed { client } => {
                    mirror.retain(|&c| c != client.index())
                }
                _ => {}
            }
        }
    }
    assert!(!positions.is_empty(), "subscriber saw no deltas");
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "op log positions not increasing");

    let (_, engine) = handle.join().expect("server thread");
    let mut served: Vec<usize> = engine.members().iter().map(|c| c.index()).collect();
    served.sort_unstable();
    mirror.sort_unstable();
    assert_eq!(mirror, served, "folded op log disagrees with the server's membership");
}

/// Each outcome reaches each connection as one ordered run of lines: a
/// subscribed requester reads its response and then the outcome's deltas,
/// every other subscriber reads the same delta lines byte for byte, and a
/// requester that never subscribed reads its response alone.
#[test]
fn a_subscribed_requester_reads_its_response_then_the_deltas_others_see() {
    let (addr, handle) = spawn_server(12, 1, 3);
    let mut a = Session::connect(addr);
    let mut b = Session::connect(addr);
    for s in [&mut a, &mut b] {
        assert!(matches!(
            s.request(&ClientMessage::Subscribe { req: 1 }),
            ServerMessage::Subscribed { .. }
        ));
    }
    let mut c = Session::connect(addr);

    for i in 0..5u64 {
        a.request(&ClientMessage::Admit { req: 10 + i, client: ClientId(i as usize) });
    }
    a.request(&ClientMessage::Depart { req: 20, client: ClientId(2) });
    c.request(&ClientMessage::Admit { req: 30, client: ClientId(6) });
    let c_transcript = c.bye(31);
    a.request(&ClientMessage::Query { req: 21 });
    let a_transcript = a.bye(22);
    b.request(&ClientMessage::Query { req: 2 });
    let b_transcript = b.bye(3);
    handle.join().expect("server thread");

    let deltas = |transcript: &str| -> Vec<String> {
        transcript
            .lines()
            .filter(|line| matches!(decode_line(line), Ok(ServerMessage::Delta { .. })))
            .map(str::to_owned)
            .collect()
    };
    let a_deltas = deltas(&a_transcript);
    assert!(!a_deltas.is_empty(), "the subscribed requester saw no deltas");
    assert_eq!(a_deltas, deltas(&b_transcript), "subscribers read different delta lines");
    assert!(deltas(&c_transcript).is_empty(), "a requester that never subscribed read deltas");
    let positions: Vec<u64> = a_deltas
        .iter()
        .map(|line| match decode_line(line) {
            Ok(ServerMessage::Delta { log, .. }) => log.0,
            other => panic!("not a delta: {other:?}"),
        })
        .collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "a delta reached the requester twice");

    // Each of the requester's own mutations answers first, then its op.
    let lines: Vec<ServerMessage> =
        a_transcript.lines().map(|line| decode_line(line).expect("line decodes")).collect();
    let mut answered = 0;
    for pair in lines.windows(2) {
        let (ServerMessage::Admitted { client, .. } | ServerMessage::Departed { client, .. }) =
            &pair[0]
        else {
            continue;
        };
        match &pair[1] {
            ServerMessage::Delta {
                op:
                    ModelOp::Admitted { client: op_client, .. }
                    | ModelOp::Departed { client: op_client },
                ..
            } => assert_eq!(op_client, client),
            other => panic!("{client}'s response was followed by {other:?}"),
        }
        answered += 1;
    }
    assert!(answered >= 2, "the requester's admits and depart were not answered");
}
