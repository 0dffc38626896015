//! Convert between the router's JSONL and the workers' binary frame, so
//! a worker's `/submit` can still be driven and read by hand.
//!
//! ```sh
//! cargo run -q --release --example wire_frame -- encode requests < batch.jsonl > batch.frame
//! curl -s --data-binary @batch.frame http://127.0.0.1:7101/submit > reply.frame
//! cargo run -q --release --example wire_frame -- decode responses < reply.frame
//! ```
//!
//! `encode` reads JSONL on standard input and writes a frame to standard
//! output; `decode` does the reverse. The second argument, `requests` or
//! `responses`, names which frame. A JSONL batch in the encoder's own
//! spelling survives `encode` then `decode` byte for byte, which CI
//! checks. Malformed input is reported on standard error with the
//! codec's typed reason, and the exit status is 1.

use std::io::{Read, Write};

use high_order_models::cluster_serve::wire::{self, jsonl, WireError};

const USAGE: &str = "usage: wire_frame (encode|decode) (requests|responses) < input > output";

fn convert(direction: &str, kind: &str, input: &[u8]) -> Result<Vec<u8>, String> {
    let text = || std::str::from_utf8(input).map_err(|_| "input is not UTF-8".to_string());
    let typed = |e: WireError| e.to_string();
    Ok(match (direction, kind) {
        ("encode", "requests") => {
            wire::encode_requests(&jsonl::decode_requests(text()?).map_err(typed)?)
                .map_err(typed)?
        }
        ("encode", "responses") => {
            wire::encode_responses(&jsonl::decode_responses(text()?).map_err(typed)?)
        }
        ("decode", "requests") => {
            jsonl::encode_requests(&wire::decode_requests(input).map_err(typed)?)
                .map_err(typed)?
                .into_bytes()
        }
        ("decode", "responses") => {
            jsonl::encode_responses(&wire::decode_responses(input).map_err(typed)?).into_bytes()
        }
        _ => return Err(USAGE.to_string()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [direction, kind] = args.as_slice() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let mut input = Vec::new();
    let outcome = std::io::stdin()
        .read_to_end(&mut input)
        .map_err(|e| format!("reading standard input: {e}"))
        .and_then(|_| convert(direction, kind, &input));
    match outcome {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            if let Err(e) = stdout.write_all(&output).and_then(|()| stdout.flush()) {
                eprintln!("wire_frame: writing standard output: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("wire_frame: {e}");
            std::process::exit(1);
        }
    }
}
