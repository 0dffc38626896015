//! Generated-input battery for the JSONL wire codec: random batches and
//! responses round-trip bit-exactly, and every truncation and single
//! bit flip of a valid payload decodes or fails with a typed
//! [`WireError`] — never a panic. A table pins the spellings of a line
//! the decoder accepts beyond what the encoder writes.

use hom_cluster_serve::{wire, WireError};
use hom_serve::{Request, Response};
use proptest::collection::vec;
use proptest::prelude::*;

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

/// Every prefix of `text` and every single bit flip of it, as the
/// strings a decoder can be handed (flips that break UTF-8 are
/// rejected before the codec, as the HTTP handlers do).
fn damaged(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = (0..bytes.len())
        .filter(|&cut| text.is_char_boundary(cut))
        .map(|cut| text[..cut].to_string())
        .collect();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            if let Ok(s) = String::from_utf8(flipped) {
                out.push(s);
            }
        }
    }
    out
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
    fn request_batches_round_trip_bit_exactly(batch in vec(request(), 0..12)) {
        let text = wire::encode_requests(&batch).expect("finite attributes encode");
        let back = wire::decode_requests(&text).expect("own encoding decodes");
        prop_assert_eq!(
            batch.iter().map(parts).collect::<Vec<_>>(),
            back.iter().map(parts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn responses_round_trip(responses in vec(response(), 0..12)) {
        let text = wire::encode_responses(&responses);
        prop_assert_eq!(wire::decode_responses(&text).expect("own encoding decodes"), responses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn damaged_requests_decode_or_fail_typed(batch in vec(request(), 1..3)) {
        let text = wire::encode_requests(&batch).expect("finite attributes encode");
        for bad in damaged(&text) {
            typed(&bad, wire::decode_requests(&bad))?;
        }
    }

    #[test]
    fn damaged_responses_decode_or_fail_typed(responses in vec(response(), 1..3)) {
        let text = wire::encode_responses(&responses);
        for bad in damaged(&text) {
            typed(&bad, wire::decode_responses(&bad))?;
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
        let back = wire::decode_requests(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back.len(), 1, "{line}");
        assert_eq!(parts(&back[0]), parts(&step), "{line}");
    }
    // Blank and whitespace-only lines are skipped; numbering counts them.
    let text = "\n  \r\n{\"op\":\"advance\",\"stream\":1,\"k\":2}\n\nbroken\n";
    assert_eq!(
        wire::decode_requests(text).unwrap_err(),
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
            wire::decode_requests(line).err(),
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
    assert!(wire::decode_requests(&nested(wire::MAX_DEPTH)).is_ok());
    assert_eq!(
        wire::decode_requests(&nested(wire::MAX_DEPTH + 1)).err(),
        Some(WireError::BadLine {
            line: 1,
            what: "nesting too deep"
        })
    );
}
