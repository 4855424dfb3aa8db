//! Property tests for the wire protocol: every message variant survives
//! encode→decode bit-for-bit, and no malformed/truncated input can make
//! the decoder panic — it must always return a typed [`WireError`].

use cloudalloc_model::{ClientId, ClusterId, ServerId};
use cloudalloc_protocol::{
    decode_line, encode_line, ClientMessage, LogPosition, ModelOp, RejectReason, ServerMessage,
    WireError, WirePlacement,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Raw material for one generated message: a variant selector plus a pool
/// of field values the builders below draw from. Floats come from bounded
/// ranges, so they are always finite — the shim's `float_roundtrip`
/// formatting makes finite f64s encode/decode exactly.
#[derive(Debug, Clone)]
struct Pool {
    variant: usize,
    a: u64,
    b: u64,
    x: f64,
    y: f64,
    placements: Vec<WirePlacement>,
}

fn pool(variants: usize) -> impl Strategy<Value = Pool> {
    let placement = (0u64..64, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(server, alpha, phi_p, phi_c)| WirePlacement {
            server: ServerId(server as usize),
            alpha,
            phi_p,
            phi_c,
        },
    );
    (0usize..variants, 0u64..1 << 48, 0u64..256, 0.001f64..1e6, 0.001f64..1e6, vec(placement, 0..4))
        .prop_map(|(variant, a, b, x, y, placements)| Pool { variant, a, b, x, y, placements })
}

fn client_message(p: &Pool) -> ClientMessage {
    let client = ClientId(p.b as usize);
    match p.variant {
        0 => ClientMessage::Admit { req: p.a, client },
        1 => ClientMessage::Depart { req: p.a, client },
        2 => ClientMessage::Renegotiate { req: p.a, client, rate_agreed: p.x, rate_predicted: p.y },
        3 => ClientMessage::Query { req: p.a },
        4 => ClientMessage::Subscribe { req: p.a },
        5 => ClientMessage::Tick { req: p.a },
        _ => ClientMessage::Bye { req: p.a },
    }
}

fn model_op(p: &Pool) -> ModelOp {
    let client = ClientId(p.b as usize);
    match p.variant {
        0 => ModelOp::Admitted {
            client,
            cluster: ClusterId((p.a % 8) as usize),
            placements: p.placements.clone(),
        },
        1 => ModelOp::Departed { client },
        2 => ModelOp::Shed { client },
        3 => ModelOp::Renegotiated { client, rate_agreed: p.x, rate_predicted: p.y },
        4 => ModelOp::Placements {
            client,
            cluster: ClusterId((p.a % 8) as usize),
            placements: p.placements.clone(),
        },
        5 => ModelOp::ServerDown { server: ServerId(p.b as usize) },
        6 => ModelOp::ServerUp { server: ServerId(p.b as usize) },
        _ => ModelOp::Epoch { epoch: p.a, profit: p.x },
    }
}

fn server_message(p: &Pool) -> ServerMessage {
    let client = ClientId(p.b as usize);
    let reasons = [
        RejectReason::UnknownClient,
        RejectReason::AlreadyAdmitted,
        RejectReason::NotAdmitted,
        RejectReason::Unprofitable,
        RejectReason::InvalidRates,
    ];
    match p.variant {
        0 => {
            ServerMessage::Welcome { protocol: p.a as u32, clients: p.b, servers: p.a, epoch: p.b }
        }
        1 => ServerMessage::Admitted {
            req: p.a,
            client,
            cluster: ClusterId((p.a % 8) as usize),
            profit: p.x,
            profit_delta: p.y,
            latency_us: p.a,
            slo_ok: p.b.is_multiple_of(2),
        },
        2 => ServerMessage::Rejected {
            req: p.a,
            client,
            reason: reasons[(p.a % reasons.len() as u64) as usize],
            latency_us: p.a,
            slo_ok: p.b.is_multiple_of(2),
        },
        3 => ServerMessage::Departed {
            req: p.a,
            client,
            profit: p.x,
            latency_us: p.a,
            slo_ok: p.b.is_multiple_of(2),
        },
        4 => ServerMessage::Renegotiated {
            req: p.a,
            client,
            profit: p.x,
            profit_delta: p.y,
            latency_us: p.a,
            slo_ok: p.b.is_multiple_of(2),
        },
        5 => ServerMessage::State {
            req: p.a,
            epoch: p.b,
            admitted: p.b,
            profit: p.x,
            log: LogPosition(p.a),
        },
        6 => ServerMessage::Subscribed { req: p.a, log: LogPosition(p.b) },
        7 => ServerMessage::Ticked {
            req: p.a,
            epoch: p.b,
            profit: p.x,
            shed: p.b,
            latency_us: p.a,
            slo_ok: p.b.is_multiple_of(2),
        },
        8 => ServerMessage::Delta {
            log: LogPosition(p.a),
            op: model_op(&Pool { variant: p.b as usize % 8, ..p.clone() }),
        },
        9 => ServerMessage::Error { req: p.a, message: format!("boom {}", p.b) },
        _ => ServerMessage::Bye { req: p.a },
    }
}

proptest! {
    /// Every `ClientMessage` survives serialize→parse bit-for-bit, and the
    /// canonical encoding is stable (re-encoding the decoded value yields
    /// the same bytes).
    #[test]
    fn client_message_round_trips(p in pool(7)) {
        let msg = client_message(&p);
        let line = encode_line(&msg);
        prop_assert!(!line.contains('\n'));
        let back: ClientMessage = decode_line(&line).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(encode_line(&back), line);
    }

    /// Every `ServerMessage` (including `Delta`-wrapped `ModelOp`s) survives
    /// serialize→parse bit-for-bit with a stable canonical encoding.
    #[test]
    fn server_message_round_trips(p in pool(11)) {
        let msg = server_message(&p);
        let line = encode_line(&msg);
        prop_assert!(!line.contains('\n'));
        let back: ServerMessage = decode_line(&line).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(encode_line(&back), line);
    }

    /// Every `ModelOp` survives a round trip on its own (subscribers fold
    /// ops straight off the wire).
    #[test]
    fn model_op_round_trips(p in pool(8)) {
        let op = model_op(&p);
        let line = encode_line(&op);
        let back: ModelOp = decode_line(&line).unwrap();
        prop_assert_eq!(back, op);
    }

    /// Truncating a valid encoded message at *any* byte boundary yields a
    /// typed error — never a panic, never a silently wrong parse.
    #[test]
    fn truncated_lines_error_not_panic(p in pool(11)) {
        let line = encode_line(&server_message(&p));
        for cut in 1..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let truncated = &line[..cut];
            match decode_line::<ServerMessage>(truncated) {
                Ok(parsed) => {
                    // A strict prefix of canonical JSON cannot itself be a
                    // complete canonical message.
                    prop_assert!(
                        false,
                        "truncated line {truncated:?} parsed as {parsed:?}"
                    );
                }
                Err(WireError::Empty) | Err(WireError::Malformed { .. }) => {}
            }
        }
    }

    /// Garbage bytes (valid UTF-8, arbitrary structure) always produce a
    /// typed error on both message types.
    #[test]
    fn garbage_lines_error_not_panic(bytes in vec(0u32..128, 0..40)) {
        let garbage: String = bytes.iter().filter_map(|&b| char::from_u32(b)).collect();
        if let Err(e) = decode_line::<ClientMessage>(&garbage) {
            let typed = matches!(e, WireError::Empty | WireError::Malformed { .. });
            prop_assert!(typed, "untyped client error for {garbage:?}");
        }
        if let Err(e) = decode_line::<ServerMessage>(&garbage) {
            let typed = matches!(e, WireError::Empty | WireError::Malformed { .. });
            prop_assert!(typed, "untyped server error for {garbage:?}");
        }
    }
}

/// Unknown *fields* inside a known variant are ignored: a newer server can
/// add fields without breaking older clients.
#[test]
fn unknown_fields_are_tolerated() {
    let line = r#"{"Admit":{"req":5,"client":2,"priority":"gold","hint":[1,2,3]}}"#;
    let msg: ClientMessage = decode_line(line).unwrap();
    assert_eq!(msg, ClientMessage::Admit { req: 5, client: ClientId(2) });

    let line = r#"{"Bye":{"req":9,"grace_ms":250}}"#;
    let msg: ServerMessage = decode_line(line).unwrap();
    assert_eq!(msg, ServerMessage::Bye { req: 9 });
}

/// Unknown *variants* are a hard typed error on every message type.
#[test]
fn unknown_variants_are_typed_errors() {
    for line in
        [r#"{"Teleport":{"req":1}}"#, r#"{"Admit":[1,2]}"#, r#"{"":{}}"#, r#"[1,2,3]"#, r#"42"#]
    {
        assert!(
            matches!(decode_line::<ClientMessage>(line), Err(WireError::Malformed { .. })),
            "expected Malformed for {line:?}"
        );
        assert!(
            matches!(decode_line::<ModelOp>(line), Err(WireError::Malformed { .. })),
            "expected Malformed for {line:?}"
        );
    }
}
