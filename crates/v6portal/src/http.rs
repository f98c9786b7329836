//! A minimal HTTP/1.1 subset: one request, one response, server closes.
//!
//! Request framing is strict and bounded. The header block may be at
//! most [`MAX_HEAD_BYTES`]; `Content-Length` must be ASCII digits and
//! appear at most once; a declared body over [`MAX_BODY_BYTES`] is
//! refused as soon as the header block is complete, before any of it
//! is read. Every refusal is a classified [`HttpError`], which a server
//! answers with a 400. [`RequestReader`] frames a request incrementally
//! as bytes arrive: the end-of-headers search resumes where the last
//! read stopped instead of rescanning from byte 0.

/// Largest accepted header block, including the blank line ending it.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request was refused. A server answers each with a 400.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// The header block is larger than [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The header block or body is not UTF-8, or the request line lacks
    /// a method or a path.
    Malformed,
    /// `Content-Length` is not ASCII digits, or appears more than once.
    BadContentLength,
    /// The declared body is larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl HttpError {
    /// One-line reason, for the 400 body.
    pub fn reason(self) -> &'static str {
        match self {
            HttpError::HeadTooLarge => "request header block too large",
            HttpError::Malformed => "malformed request",
            HttpError::BadContentLength => "bad Content-Length",
            HttpError::BodyTooLarge => "request body too large",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (GET, or POST for the lab daemon's job API).
    pub method: String,
    /// Request path including any query string.
    pub path: String,
    /// `Host:` header (virtual-host routing key).
    pub host: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Offset of the `\r\n\r\n` ending the header block, searching
/// `raw[from..]`.
fn head_end(raw: &[u8], from: usize) -> Option<usize> {
    raw.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + from)
}

/// The `Host:` value (empty when absent) and `Content-Length` (0 when
/// absent) from the header lines after the start line.
fn scan_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<(&'a str, usize), HttpError> {
    let mut host = "";
    let mut length = None;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        if k.eq_ignore_ascii_case("host") {
            host = v.trim();
        } else if k.eq_ignore_ascii_case("content-length") {
            let v = v.trim_matches([' ', '\t']);
            if length.is_some() || v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadContentLength);
            }
            // All digits: the parse fails only on overflow.
            length = Some(v.parse().map_err(|_| HttpError::BodyTooLarge)?);
        }
    }
    Ok((host, length.unwrap_or(0)))
}

/// A request whose header block is complete; only the body is pending.
#[derive(Debug, Clone)]
struct Head {
    method: String,
    path: String,
    host: String,
    body_start: usize,
    body_len: usize,
}

fn parse_head(head: &[u8], body_start: usize) -> Result<Head, HttpError> {
    let head = core::str::from_utf8(head).map_err(|_| HttpError::Malformed)?;
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(HttpError::Malformed);
    };
    let (host, body_len) = scan_headers(lines)?;
    if body_len > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        host: host.to_string(),
        body_start,
        body_len,
    })
}

/// Framing progress over a growing request buffer.
#[derive(Debug, Clone, Default)]
struct Framing {
    /// Bytes already searched for the end of the header block.
    scanned: usize,
    /// The parsed head, once the header block is complete.
    head: Option<Head>,
}

impl Framing {
    /// Advance over `raw`, which extends the bytes the last call saw.
    fn advance(&mut self, raw: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        if self.head.is_none() {
            // The terminator must end within the first MAX_HEAD_BYTES;
            // back up three bytes in case the last read split it.
            let window = &raw[..raw.len().min(MAX_HEAD_BYTES)];
            match head_end(window, self.scanned.saturating_sub(3)) {
                Some(end) => self.head = Some(parse_head(&raw[..end], end + 4)?),
                None if raw.len() >= MAX_HEAD_BYTES => return Err(HttpError::HeadTooLarge),
                None => {
                    self.scanned = raw.len();
                    return Ok(None);
                }
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        let Some(body) = raw.get(head.body_start..head.body_start + head.body_len) else {
            return Ok(None);
        };
        let body = core::str::from_utf8(body)
            .map_err(|_| HttpError::Malformed)?
            .to_string();
        let head = self.head.take().expect("head parsed above");
        Ok(Some(HttpRequest {
            method: head.method,
            path: head.path,
            host: head.host,
            body,
        }))
    }
}

/// Incremental request framing: feed bytes as reads return them until
/// a request or an [`HttpError`] comes out. Up to that verdict, the
/// buffer it keeps is bounded by the header and body limits plus the
/// last read.
#[derive(Debug, Clone, Default)]
pub struct RequestReader {
    buf: Vec<u8>,
    framing: Framing,
}

impl RequestReader {
    /// An empty reader.
    pub fn new() -> RequestReader {
        RequestReader::default()
    }

    /// Append `bytes` from the wire. `Ok(None)` means more bytes are
    /// needed; once this returns a request or an error, the reader is
    /// spent.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        self.buf.extend_from_slice(bytes);
        self.framing.advance(&self.buf)
    }
}

impl HttpRequest {
    /// Parse a request out of raw bytes: `Ok(None)` until the header
    /// block — and any `Content-Length` body — is complete, or the
    /// [`HttpError`] that refuses it.
    pub fn try_parse(raw: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        Framing::default().advance(raw)
    }

    /// [`HttpRequest::try_parse`] for callers that treat a refused
    /// request like an incomplete one: `None` until the request is
    /// complete and well-framed.
    pub fn parse(raw: &[u8]) -> Option<HttpRequest> {
        HttpRequest::try_parse(raw).ok().flatten()
    }

    /// Format the wire form of a GET.
    pub fn format_get(host: &str, path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n")
    }

    /// Format the wire form of a POST with a body.
    pub fn format_post(host: &str, path: &str, body: &str) -> String {
        format!(
            "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }
}

/// A parsed HTTP response — the client side of the same subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Response body (complete per `Content-Length`).
    pub body: String,
}

impl HttpResponse {
    /// Parse a response out of raw bytes. Returns `None` until the header
    /// block and the full `Content-Length` body have arrived.
    pub fn parse(raw: &[u8]) -> Option<HttpResponse> {
        let head_len = head_end(raw, 0)?;
        let head = core::str::from_utf8(&raw[..head_len]).ok()?;
        let mut lines = head.lines();
        let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
        let (_, want) = scan_headers(lines).ok()?;
        let rest = &raw[head_len + 4..];
        if rest.len() < want {
            return None;
        }
        let body = core::str::from_utf8(&rest[..want]).ok()?.to_string();
        Some(HttpResponse { status, body })
    }
}

/// Format a response (server closes the connection afterwards).
pub fn format_response(status: u16, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        302 => "Found",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Status",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let wire = HttpRequest::format_get("ip6.me", "/");
        let req = HttpRequest::parse(wire.as_bytes()).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/");
        assert_eq!(req.host, "ip6.me");
        assert_eq!(req.body, "");
    }

    #[test]
    fn incomplete_request_waits() {
        assert!(HttpRequest::parse(b"GET / HTTP/1.1\r\nHost: x").is_none());
        assert_eq!(
            HttpRequest::try_parse(b"GET / HTTP/1.1\r\nHost: x"),
            Ok(None)
        );
    }

    #[test]
    fn post_body_roundtrip_and_partial_body_waits() {
        let wire = HttpRequest::format_post("lab", "/jobs", "{\"kind\":\"matrix\"}");
        let req = HttpRequest::parse(wire.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"kind\":\"matrix\"}");
        // Truncate mid-body: the parser must keep waiting.
        assert!(HttpRequest::parse(&wire.as_bytes()[..wire.len() - 3]).is_none());
    }

    #[test]
    fn response_format() {
        let r = format_response(200, "hello");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.ends_with("\r\n\r\nhello"));
        assert!(r.contains("Content-Length: 5"));
    }

    #[test]
    fn response_roundtrip_and_partial_waits() {
        let wire = format_response(404, "no such job");
        let resp = HttpResponse::parse(wire.as_bytes()).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, "no such job");
        assert!(HttpResponse::parse(&wire.as_bytes()[..wire.len() - 2]).is_none());
    }

    #[test]
    fn host_header_case_insensitive() {
        let req = HttpRequest::parse(b"GET /x HTTP/1.1\r\nhOsT:  mirror.sc24\r\n\r\n").unwrap();
        assert_eq!(req.host, "mirror.sc24");
    }

    #[test]
    fn oversized_header_block_is_refused() {
        let filler = "a".repeat(MAX_HEAD_BYTES);
        let wire = format!("GET / HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n");
        assert_eq!(
            HttpRequest::try_parse(wire.as_bytes()),
            Err(HttpError::HeadTooLarge)
        );
        // Refused as soon as 8 KiB arrive without a terminator, before
        // the rest of the block is read.
        assert_eq!(
            HttpRequest::try_parse(&wire.as_bytes()[..MAX_HEAD_BYTES]),
            Err(HttpError::HeadTooLarge)
        );
        // A block that ends exactly at the limit is accepted.
        let fit = MAX_HEAD_BYTES - "GET / HTTP/1.1\r\nX: \r\n\r\n".len();
        let wire = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(fit));
        assert_eq!(wire.len(), MAX_HEAD_BYTES);
        assert!(HttpRequest::try_parse(wire.as_bytes()).unwrap().is_some());
    }

    #[test]
    fn content_length_must_be_digits() {
        for value in ["abc", "-1", "+5", "1e3", "0x10", "", "5 5"] {
            let wire = format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert_eq!(
                HttpRequest::try_parse(wire.as_bytes()),
                Err(HttpError::BadContentLength),
                "Content-Length: {value:?}"
            );
        }
        // Surrounding whitespace is not part of the value.
        let req = HttpRequest::try_parse(b"POST / HTTP/1.1\r\nContent-Length:\t 2 \r\n\r\nok")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn content_length_must_appear_once() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok";
        assert_eq!(
            HttpRequest::try_parse(wire),
            Err(HttpError::BadContentLength)
        );
    }

    #[test]
    fn oversized_body_is_refused_before_it_is_read() {
        let wire = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(
            HttpRequest::try_parse(wire.as_bytes()),
            Err(HttpError::BodyTooLarge)
        );
        let wire = "POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert_eq!(
            HttpRequest::try_parse(wire.as_bytes()),
            Err(HttpError::BodyTooLarge)
        );
    }

    #[test]
    fn malformed_request_line_and_encoding_are_refused() {
        for wire in [
            &b"GET\r\n\r\n"[..],
            b"\r\n\r\n",
            b"GET /\xff HTTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\n\xff",
        ] {
            assert_eq!(
                HttpRequest::try_parse(wire),
                Err(HttpError::Malformed),
                "{wire:?}"
            );
        }
    }

    #[test]
    fn reader_resumes_across_split_terminator_and_body() {
        let wire = HttpRequest::format_post("lab", "/jobs", "{\"kind\":\"matrix\"}");
        let whole = HttpRequest::try_parse(wire.as_bytes()).unwrap().unwrap();
        // Byte-at-a-time feeding splits the terminator every way.
        let mut reader = RequestReader::new();
        let bytes = wire.as_bytes();
        for (i, b) in bytes.iter().enumerate() {
            let out = reader.feed(std::slice::from_ref(b)).unwrap();
            if i + 1 < bytes.len() {
                assert!(out.is_none(), "complete early at byte {i}");
            } else {
                assert_eq!(out, Some(whole.clone()));
            }
        }
    }

    #[test]
    fn reader_refuses_an_endless_header_block_at_the_limit() {
        let mut reader = RequestReader::new();
        let chunk = [b'a'; 1000];
        let mut fed = 0;
        let err = loop {
            match reader.feed(&chunk) {
                Ok(None) => fed += chunk.len(),
                Ok(Some(_)) => panic!("no terminator was sent"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, HttpError::HeadTooLarge);
        assert!(fed < MAX_HEAD_BYTES);
    }
}
