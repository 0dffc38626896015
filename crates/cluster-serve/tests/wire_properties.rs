//! Generated-input batteries for both wires.
//!
//! The binary frame (the router↔worker hop): random batches and
//! responses round-trip bit-exactly, and every truncation, every single
//! bit flip and arbitrary bytes decode or fail with a typed
//! [`WireError::BadFrame`] — never a panic, and never an allocation
//! beyond a small constant times the input length, measured by a
//! counting allocator.
//!
//! The JSONL edge (the router's client-facing `/submit`): the same
//! round trips and damage, a table of the spellings a line may take
//! beyond what the encoder writes, and integers too large for their
//! field — in request lines and in the control bodies' epochs — which
//! must be refused, not narrowed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use hom_classifiers::MajorityClassifier;
use hom_cluster_serve::{wire, ClusterError, Router, WireError, WorkerServer, DEFAULT_VNODES};
use hom_core::{encode_model, Concept, HighOrderModel, TransitionStats};
use hom_data::Schema;
use hom_serve::transport::{HttpResponse, HttpServer};
use hom_serve::{http_request, Request, Response, ServeEngine, ServeTelemetry};
use proptest::collection::vec;
use proptest::prelude::*;

/// Counts the bytes this thread asks the allocator for, so a test can
/// bound what one decode reserves.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it allocated on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// The smallest request encoding is 13 bytes and a decoded [`Request`]
/// is 40, so a decode may allocate about three times its input — and no
/// more, whatever count the input declares.
const ALLOC_PER_INPUT_BYTE: usize = 4;

/// A request reduced to comparable parts: op, stream, attribute bits,
/// label or step count.
fn parts(r: &Request) -> (&'static str, u64, Vec<u64>, u64) {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect();
    match r {
        Request::Predict { stream, x } => ("predict", *stream, bits(x), 0),
        Request::Observe { stream, x, y } => ("observe", *stream, bits(x), u64::from(*y)),
        Request::Step { stream, x, y } => ("step", *stream, bits(x), u64::from(*y)),
        Request::Advance { stream, k } => ("advance", *stream, Vec::new(), *k as u64),
    }
}

/// Stream ids, weighted towards the ones `f64` cannot hold exactly.
fn stream_id() -> impl Strategy<Value = u64> {
    (0usize..4, any::<u64>()).prop_map(|(pick, raw)| [0, (1 << 53) + 1, u64::MAX, raw][pick])
}

/// Finite attributes, weighted towards the renderings that are easy to
/// get wrong: negative zero, subnormals, huge and whole values.
fn attribute() -> impl Strategy<Value = f64> {
    (0usize..7, any::<u64>()).prop_map(|(pick, raw)| match pick {
        0 => -0.0,
        1 => f64::from_bits(raw % (1 << 52)), // subnormal (or +0)
        2 => 1e300,
        3 => (raw % 1_000_000) as f64,
        4 => -((raw >> 11) as f64),
        _ => Some(f64::from_bits(raw))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5),
    })
}

fn request() -> impl Strategy<Value = Request> {
    (
        0u8..4,
        stream_id(),
        vec(attribute(), 0..5),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(op, stream, x, y, k)| match op {
            0 => Request::Predict { stream, x },
            1 => Request::Observe { stream, x, y },
            2 => Request::Step { stream, x, y },
            _ => Request::Advance {
                stream,
                k: k as usize,
            },
        })
}

fn response() -> impl Strategy<Value = Response> {
    (stream_id(), any::<bool>(), any::<u32>()).prop_map(|(stream, some, class)| Response {
        stream,
        prediction: some.then_some(class),
    })
}

/// Every prefix of `bytes` and every single bit flip of it.
fn damaged_bytes(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            out.push(flipped);
        }
    }
    out
}

/// Decoding `bytes` with `decode` yields a value or a typed frame error
/// at an offset inside the input, and allocates within the bound.
fn frame_outcome<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, WireError>,
) -> Result<(), TestCaseError> {
    let (outcome, allocated) = allocated_by(|| decode(bytes));
    prop_assert!(
        allocated <= ALLOC_PER_INPUT_BYTE * bytes.len(),
        "{allocated} bytes allocated decoding {} input bytes",
        bytes.len()
    );
    if let Err(e) = outcome {
        prop_assert!(
            matches!(e, WireError::BadFrame { at, .. } if at <= bytes.len()),
            "{e:?} for {bytes:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_frames_round_trip_bit_exactly(batch in vec(request(), 0..12)) {
        let frame = wire::encode_requests(&batch).expect("finite attributes encode");
        let back = wire::decode_requests(&frame).expect("own frame decodes");
        prop_assert_eq!(
            batch.iter().map(parts).collect::<Vec<_>>(),
            back.iter().map(parts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn response_frames_round_trip(responses in vec(response(), 0..12)) {
        let frame = wire::encode_responses(&responses);
        prop_assert_eq!(wire::decode_responses(&frame).expect("own frame decodes"), responses);
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(raw in vec(any::<u8>(), 0..64)) {
        frame_outcome(&raw, wire::decode_requests)?;
        frame_outcome(&raw, wire::decode_responses)?;
        // Behind a valid header, so the body is what gets read.
        for magic in [wire::REQUEST_MAGIC, wire::RESPONSE_MAGIC] {
            let mut framed = magic.to_vec();
            framed.extend_from_slice(&wire::FRAME_VERSION.to_le_bytes());
            framed.extend_from_slice(&raw);
            frame_outcome(&framed, wire::decode_requests)?;
            frame_outcome(&framed, wire::decode_responses)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn damaged_request_frames_decode_or_fail_typed(batch in vec(request(), 1..3)) {
        let frame = wire::encode_requests(&batch).expect("finite attributes encode");
        for bad in damaged_bytes(&frame) {
            frame_outcome(&bad, wire::decode_requests)?;
        }
    }

    #[test]
    fn damaged_response_frames_decode_or_fail_typed(responses in vec(response(), 1..3)) {
        let frame = wire::encode_responses(&responses);
        for bad in damaged_bytes(&frame) {
            frame_outcome(&bad, wire::decode_responses)?;
        }
    }
}

#[test]
fn a_count_the_body_cannot_hold_is_refused_before_reserving() {
    // A header declaring u32::MAX elements, in a 20-byte body.
    let body = |magic: [u8; 4]| {
        let mut body = magic.to_vec();
        body.extend_from_slice(&wire::FRAME_VERSION.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.resize(20, 0);
        body
    };
    let truncated = Some(WireError::BadFrame {
        at: 10,
        what: "truncated",
    });
    let requests = body(wire::REQUEST_MAGIC);
    let (outcome, allocated) = allocated_by(|| wire::decode_requests(&requests));
    assert_eq!((outcome.err(), allocated), (truncated.clone(), 0));
    let responses = body(wire::RESPONSE_MAGIC);
    let (outcome, allocated) = allocated_by(|| wire::decode_responses(&responses));
    assert_eq!((outcome.err(), allocated), (truncated, 0));
    // An attribute count the body cannot hold, inside a sane batch.
    let mut body = wire::encode_requests(&[Request::Predict {
        stream: 1,
        x: vec![0.5],
    }])
    .expect("encodes");
    body[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        wire::decode_requests(&body).err(),
        Some(WireError::BadFrame {
            at: 23,
            what: "truncated"
        })
    );
}

#[test]
fn frame_edge_values_survive_bit_for_bit() {
    let batch = vec![
        Request::Observe {
            stream: u64::MAX,
            x: vec![-0.0, f64::from_bits(1), f64::MIN_POSITIVE, f64::MAX],
            y: u32::MAX,
        },
        Request::Advance {
            stream: (1 << 53) + 1,
            k: usize::MAX,
        },
    ];
    let frame = wire::encode_requests(&batch).expect("encodes");
    let back = wire::decode_requests(&frame).expect("decodes");
    assert_eq!(
        batch.iter().map(parts).collect::<Vec<_>>(),
        back.iter().map(parts).collect::<Vec<_>>()
    );
    let responses = vec![Response {
        stream: u64::MAX,
        prediction: Some(u32::MAX),
    }];
    let frame = wire::encode_responses(&responses);
    assert_eq!(wire::decode_responses(&frame), Ok(responses));
}

// ---------------------------------------------------------------------
// The JSONL edge.
// ---------------------------------------------------------------------

/// Every prefix of `text` and every single bit flip of it, as the
/// strings a decoder can be handed (flips that break UTF-8 are
/// rejected before the codec, as the HTTP handlers do).
fn damaged(text: &str) -> Vec<String> {
    damaged_bytes(text.as_bytes())
        .into_iter()
        .filter_map(|bytes| String::from_utf8(bytes).ok())
        .collect()
}

/// A decode outcome is fine when it is a value or a typed line error
/// naming a line of the input.
fn typed<T>(text: &str, outcome: Result<T, WireError>) -> Result<(), TestCaseError> {
    if let Err(e) = outcome {
        let lines = text.lines().count().max(1);
        prop_assert!(
            matches!(e, WireError::BadLine { line, .. } if (1..=lines).contains(&line)),
            "{e:?} for {text:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jsonl_request_batches_round_trip_bit_exactly(batch in vec(request(), 0..12)) {
        let text = wire::jsonl::encode_requests(&batch).expect("finite attributes encode");
        let back = wire::jsonl::decode_requests(&text).expect("own encoding decodes");
        prop_assert_eq!(
            batch.iter().map(parts).collect::<Vec<_>>(),
            back.iter().map(parts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn jsonl_responses_round_trip(responses in vec(response(), 0..12)) {
        let text = wire::jsonl::encode_responses(&responses);
        prop_assert_eq!(
            wire::jsonl::decode_responses(&text).expect("own encoding decodes"),
            responses
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn damaged_jsonl_requests_decode_or_fail_typed(batch in vec(request(), 1..3)) {
        let text = wire::jsonl::encode_requests(&batch).expect("finite attributes encode");
        for bad in damaged(&text) {
            typed(&bad, wire::jsonl::decode_requests(&bad))?;
        }
    }

    #[test]
    fn damaged_jsonl_responses_decode_or_fail_typed(responses in vec(response(), 1..3)) {
        let text = wire::jsonl::encode_responses(&responses);
        for bad in damaged(&text) {
            typed(&bad, wire::jsonl::decode_responses(&bad))?;
        }
    }
}

#[test]
fn accepted_spellings_of_a_request() {
    let step = Request::Step {
        stream: 7,
        x: vec![1.0, 0.5],
        y: 1,
    };
    for line in [
        // What the encoder writes.
        r#"{"op":"step","stream":7,"x":[1,0.5],"y":1}"#,
        // Reordered keys.
        r#"{"y":1,"x":[1,0.5],"stream":7,"op":"step"}"#,
        // Whitespace around every token, CRLF line end.
        " { \"op\" : \"step\" ,\t\"stream\" : 7 , \"x\" : [ 1 , 0.5 ] , \"y\" : 1 } \r\n",
        // Unknown keys of every value kind, nested arrays included.
        r#"{"op":"step","v":null,"stream":7,"n":-1.5e3,"x":[1,0.5],"a":[[],[1,["s"]]],"y":1,"s":"t"}"#,
        // Escapes in unknown keys and values.
        r#"{"k\"\\\/ey":"v\n\t\r\"","op":"step","stream":7,"x":[1,0.5],"y":1}"#,
        // Duplicate keys: the first occurrence wins, whatever follows.
        r#"{"op":"step","op":"dance","stream":7,"stream":8,"x":[1,0.5],"x":"no","y":1,"y":null}"#,
        // Equivalent number spellings of the same bits.
        r#"{"op":"step","stream":7,"x":[1.0,5e-1],"y":1}"#,
    ] {
        let back = wire::jsonl::decode_requests(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back.len(), 1, "{line}");
        assert_eq!(parts(&back[0]), parts(&step), "{line}");
    }
    // Blank and whitespace-only lines are skipped; numbering counts them.
    let text = "\n  \r\n{\"op\":\"advance\",\"stream\":1,\"k\":2}\n\nbroken\n";
    assert_eq!(
        wire::jsonl::decode_requests(text).unwrap_err(),
        WireError::BadLine {
            line: 5,
            what: "unexpected character"
        }
    );
}

#[test]
fn syntax_errors_outrank_shape_errors() {
    for (line, what) in [
        // A wrongly shaped field is reported only once the line parses.
        (
            r#"{"op":"step","stream":1.5,"x":[1],"y":1} trailing"#,
            "trailing bytes after object",
        ),
        (
            r#"{"op":"step","stream":1.5,"x":[1],"y":1}"#,
            "missing or non-integer field",
        ),
        (
            r#"{"op":"step","stream":1,"x":[1,"a"],"y":1}"#,
            "non-numeric array element",
        ),
        (
            r#"{"op":"step","stream":1,"x":[1,],"y":1}"#,
            "expected a number",
        ),
        (
            r#"{"op":"step","stream":1,"x":[1 2],"y":1}"#,
            "expected , or ] in array",
        ),
        (
            r#"{"op":"step","stream":1,"x":[1],"y":1,}"#,
            "unexpected character",
        ),
        (
            r#"{"op":"step","stream":1,"x":[1],"y":1"#,
            "expected , or } in object",
        ),
        (r#"{"op":"st\qep","stream":1}"#, "unsupported escape"),
        (r#"{"op":"step\"#, "unterminated escape"),
        (r#"{"op":"step"#, "unterminated string"),
        (r#"{"op":"#, "unexpected end of line"),
        (r#"{"op":"step","stream":1,"x":nul}"#, "bad literal"),
        (r#"{"op":"step","stream":1,"x":[1e5e5]}"#, "bad number"),
    ] {
        assert_eq!(
            wire::jsonl::decode_requests(line).err(),
            Some(WireError::BadLine { line: 1, what }),
            "{line}"
        );
    }
    // Skipped values nest at most MAX_DEPTH arrays deep.
    let nested = |depth: usize| {
        format!(
            "{{\"op\":\"advance\",\"stream\":1,\"k\":1,\"junk\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    assert!(wire::jsonl::decode_requests(&nested(wire::jsonl::MAX_DEPTH)).is_ok());
    assert_eq!(
        wire::jsonl::decode_requests(&nested(wire::jsonl::MAX_DEPTH + 1)).err(),
        Some(WireError::BadLine {
            line: 1,
            what: "nesting too deep"
        })
    );
}

#[test]
fn integers_too_large_for_their_field_are_refused_not_narrowed() {
    // 2^32 + 1 would narrow to 1: a stream trained on the wrong label.
    for line in [
        r#"{"op":"step","stream":7,"x":[1,0.5],"y":4294967297}"#,
        r#"{"op":"observe","stream":7,"x":[1,0.5],"y":4294967296}"#,
    ] {
        assert_eq!(
            wire::jsonl::decode_requests(line).err(),
            Some(WireError::BadLine {
                line: 1,
                what: "missing or non-integer field"
            }),
            "{line}"
        );
    }
    assert_eq!(
        wire::jsonl::decode_responses(r#"{"stream":7,"prediction":4294967297}"#).err(),
        Some(WireError::BadLine {
            line: 1,
            what: "missing or non-integer field"
        })
    );
    // The largest values that fit still decode.
    let line = r#"{"op":"step","stream":7,"x":[1],"y":4294967295}"#;
    let back = wire::jsonl::decode_requests(line).expect("u32::MAX fits");
    assert_eq!(parts(&back[0]).3, u64::from(u32::MAX));
}

const T: Duration = Duration::from_secs(5);

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback")
}

/// A one-concept model: enough for a worker to stage and commit.
fn tiny_model() -> Arc<HighOrderModel> {
    let schema = Schema::new(vec![hom_data::Attribute::numeric("x")], ["neg", "pos"]);
    let concepts = vec![Concept {
        id: 0,
        model: Arc::new(MajorityClassifier::from_counts(&[3, 1])),
        err: 0.25,
        n_records: 4,
        n_occurrences: 1,
    }];
    let stats = TransitionStats::from_occurrences(1, &[(0, 4)]);
    Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
}

#[test]
fn a_worker_refuses_a_commit_epoch_beyond_u32() {
    let model = tiny_model();
    let engine = Arc::new(ServeEngine::new(Arc::clone(&model)));
    let worker = WorkerServer::bind(
        loopback(),
        Arc::clone(&engine),
        Arc::new(ServeTelemetry::new()),
    )
    .expect("worker binds");
    let post = |path: &str, body: &[u8]| {
        http_request(worker.addr(), "POST", path, body, T).expect("worker answers")
    };
    let blob = encode_model(&model, 1).expect("encodes");
    assert_eq!(post("/swap/prepare", &blob).0, 200);
    // 2^32 + 1 narrows to the staged epoch 1: it must not flip the model.
    let (status, reason) = post("/swap/commit", b"{\"epoch\":4294967297}");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reason));
    assert_eq!(engine.epoch(), 0, "an out-of-range epoch committed");
    assert_eq!(post("/swap/commit", b"{\"epoch\":1}").0, 200);
    assert_eq!(engine.epoch(), 1);
}

/// A stand-in worker whose `/swap/*` and `/healthz` answers carry an
/// epoch of 2^32 + 1.
fn oversized_epoch_worker() -> HttpServer {
    HttpServer::bind(
        loopback(),
        "stub-worker",
        Arc::new(|req| match req.path.as_str() {
            "/healthz" => HttpResponse::ok(
                "application/json",
                "{\"epoch\":4294967297,\"live\":1,\"parked\":0}\n",
            ),
            _ => HttpResponse::ok("application/json", "{\"epoch\":4294967297}\n"),
        }),
    )
    .expect("stub binds")
}

#[test]
fn a_router_refuses_worker_epochs_beyond_u32() {
    let stub = oversized_epoch_worker();
    let router = Router::new(vec![stub.addr()], DEFAULT_VNODES, T).expect("router");
    // A HOMM header targeting epoch 1: the stub's 2^32 + 1 would narrow
    // to it and the swap would report success.
    let blob = b"HOMM\x01\x00\x01\x00\x00\x00";
    match router.swap(blob) {
        Err(ClusterError::BadResponse { worker: 0, what }) => {
            assert!(what.contains("no epoch"), "{what}")
        }
        other => panic!("expected a bad prepare response, got {other:?}"),
    }
    // The census reads the epoch the same way: an unreadable row is
    // reported unhealthy, not as epoch 1.
    let status = router.cluster_status();
    assert!(!status[0].healthy, "{status:?}");
}
