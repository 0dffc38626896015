//! Generators the wire batteries share: requests and responses for both
//! wires, and the damage every decoder must survive.

use hom_serve::{Request, Response};
use proptest::collection::vec;
use proptest::prelude::*;

/// A request reduced to comparable parts: op, stream, attribute bits,
/// label or step count.
pub fn parts(r: &Request) -> (&'static str, u64, Vec<u64>, u64) {
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

pub fn request() -> impl Strategy<Value = Request> {
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

pub fn response() -> impl Strategy<Value = Response> {
    (stream_id(), any::<bool>(), any::<u32>()).prop_map(|(stream, some, class)| Response {
        stream,
        prediction: some.then_some(class),
    })
}

/// Every prefix of `bytes` and every single bit flip of it.
pub fn damaged_bytes(bytes: &[u8]) -> Vec<Vec<u8>> {
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
