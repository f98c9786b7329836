//! Robustness properties of the HTTP request parser: arbitrary bytes,
//! truncations, and mutations of valid requests each yield a parsed
//! request, "incomplete", or a classified [`HttpError`] — never a
//! panic — and incremental framing agrees with a one-shot parse however
//! the bytes are split across reads.

use proptest::prelude::*;
use v6portal::http::{HttpError, HttpRequest, RequestReader, MAX_BODY_BYTES, MAX_HEAD_BYTES};

type Outcome = Result<Option<HttpRequest>, HttpError>;

/// Feed `raw` through a [`RequestReader`] in chunks cut at `cuts`
/// (offsets taken modulo the length), stopping at the first verdict.
fn feed_in_chunks(raw: &[u8], cuts: &[usize]) -> Outcome {
    let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (raw.len() + 1)).collect();
    offsets.push(raw.len());
    offsets.sort_unstable();
    let mut reader = RequestReader::new();
    let mut at = 0;
    for end in offsets {
        if let Some(verdict) = reader.feed(&raw[at..end]).transpose() {
            return verdict.map(Some);
        }
        at = end;
    }
    Ok(None)
}

/// The invariants every outcome must satisfy, plus agreement between
/// the one-shot and chunked parses.
fn check(raw: &[u8], cuts: &[usize]) {
    let whole = HttpRequest::try_parse(raw);
    match &whole {
        Ok(Some(req)) => {
            assert!(req.body.len() <= MAX_BODY_BYTES);
            assert!(!req.method.is_empty() && !req.path.is_empty());
        }
        // "Incomplete" never waits on more than MAX_HEAD_BYTES of an
        // unterminated header block.
        Ok(None) => assert!(
            raw.len() < MAX_HEAD_BYTES
                || raw[..MAX_HEAD_BYTES].windows(4).any(|w| w == b"\r\n\r\n")
        ),
        Err(e) => assert!(!e.reason().is_empty()),
    }
    assert_eq!(feed_in_chunks(raw, cuts), whole, "raw = {raw:?}");
    assert_eq!(HttpRequest::parse(raw), whole.ok().flatten());
}

fn arb_request() -> impl Strategy<Value = (String, HttpRequest)> {
    (
        prop::sample::select(vec!["GET", "POST", "DELETE"]),
        "/[a-z0-9?=&/]{0,24}",
        "[a-z0-9.-]{0,16}",
        "[ -~]{0,40}",
        any::<bool>(),
    )
        .prop_map(|(method, path, host, body, with_body)| {
            let body = if with_body { body } else { String::new() };
            let wire = if with_body {
                format!(
                    "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            } else {
                format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n")
            };
            let req = HttpRequest {
                method: method.to_string(),
                path,
                host,
                body,
            };
            (wire, req)
        })
}

/// Bytes biased towards the characters that steer the parser.
fn arb_wire_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        prop::sample::select(b"\r\n: 0123456789GETPOSTContent-Length\xff\xc3".to_vec()),
    ]
}

proptest! {
    /// Arbitrary byte strings never panic and chunking never matters.
    #[test]
    fn arbitrary_bytes_are_classified(
        raw in prop::collection::vec(arb_wire_byte(), 0..400),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        check(&raw, &cuts);
    }

    /// A valid request parses to exactly what was sent, whole or in
    /// pieces, and every strict prefix of it is "incomplete".
    #[test]
    fn valid_requests_parse_and_truncations_wait(
        (wire, expected) in arb_request(),
        cut in any::<usize>(),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let raw = wire.as_bytes();
        prop_assert_eq!(HttpRequest::try_parse(raw), Ok(Some(expected)));
        check(raw, &cuts);
        let prefix = &raw[..cut % raw.len()];
        prop_assert_eq!(HttpRequest::try_parse(prefix), Ok(None));
        check(prefix, &cuts);
    }

    /// Overwriting, inserting, or deleting bytes of a valid request
    /// still yields a classified outcome.
    #[test]
    fn mutated_requests_are_classified(
        (wire, _) in arb_request(),
        edits in prop::collection::vec((0u8..3, any::<usize>(), arb_wire_byte()), 1..8),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut raw = wire.into_bytes();
        for (op, at, byte) in edits {
            let at = at % (raw.len() + 1);
            match op {
                0 if at < raw.len() => raw[at] = byte,
                1 => raw.insert(at, byte),
                _ if at < raw.len() => {
                    raw.remove(at);
                }
                _ => raw.push(byte),
            }
        }
        check(&raw, &cuts);
    }

    /// Header blocks around the size limit: refused past it, whole or
    /// in pieces, and never buffered without bound.
    #[test]
    fn header_block_limit_holds_at_any_size(
        filler in (MAX_HEAD_BYTES - 64)..(MAX_HEAD_BYTES + 64),
        terminated in any::<bool>(),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut wire = format!("GET / HTTP/1.1\r\nX: {}", "a".repeat(filler));
        if terminated {
            wire.push_str("\r\n\r\n");
        }
        let raw = wire.as_bytes();
        let verdict = HttpRequest::try_parse(raw);
        if terminated && raw.len() <= MAX_HEAD_BYTES {
            prop_assert!(matches!(verdict, Ok(Some(_))));
        } else if raw.len() >= MAX_HEAD_BYTES {
            prop_assert_eq!(verdict, Err(HttpError::HeadTooLarge));
        } else {
            prop_assert_eq!(verdict, Ok(None));
        }
        check(raw, &cuts);
    }
}
