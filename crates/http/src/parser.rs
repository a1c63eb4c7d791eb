//! Incremental HTTP parsers for streamed (and pipelined) input.
//!
//! Both parsers follow the same push model: [`RequestParser::feed`] bytes as
//! they arrive from the socket, then drain complete messages with `next()`.
//! Pipelined messages in a single read are returned one by one; partial
//! messages stay buffered until completed by a later feed. This is exactly
//! what the prototype's back-end needs to support HTTP/1.1 request
//! pipelining ("fully supported by the handoff protocol", paper §7.2).

use bytes::{Buf, Bytes, BytesMut};

use crate::message::{keep_alive_with, Headers, Request, Response, Version};

/// Why parsing failed. The connection should be dropped on any of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line was not of the expected shape.
    BadStartLine(String),
    /// A header line had no colon.
    BadHeader(String),
    /// The version token was not HTTP/1.x.
    BadVersion(String),
    /// `Content-Length` was present but unparseable.
    BadContentLength(String),
    /// Message head exceeded the size bound.
    HeadTooLarge,
    /// Advertised `Content-Length` exceeded [`MAX_BODY`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            ParseError::BadHeader(l) => write!(f, "malformed header line: {l:?}"),
            ParseError::BadVersion(v) => write!(f, "unsupported HTTP version: {v:?}"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::HeadTooLarge => write!(f, "message head exceeds limit"),
            ParseError::BodyTooLarge(n) => {
                write!(f, "advertised body of {n} bytes exceeds limit")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Upper bound on head (start line + headers) size; DoS guard.
const MAX_HEAD: usize = 16 * 1024;

/// Upper bound on an advertised message body. Without it, a peer
/// declaring an absurd `Content-Length` makes the parser buffer
/// everything it sends while reporting "incomplete" forever — unbounded
/// memory pinned per connection. 64 MiB is far above the largest corpus
/// document (the synthetic trace clamps sizes to single-digit MiB) and
/// far below anything a hostile client should get to pin.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Finds `\r\n\r\n`; returns the index just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// The buffered message head, checked against [`MAX_HEAD`]: its length
/// (through the blank line) and its text without the blank line.
/// `Ok(None)` while the head is incomplete.
fn split_head(buf: &[u8]) -> Result<Option<(usize, &str)>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::HeadTooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD {
        return Err(ParseError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::BadStartLine("non-utf8 head".into()))?;
    Ok(Some((head_end, head)))
}

/// The `(name, value)` fields of one header block (excluding the blank
/// line), trimmed, in order; `Err(line)` for a line with no colon.
fn fields(block: &str) -> impl Iterator<Item = Result<(&str, &str), &str>> {
    block.split("\r\n").filter(|l| !l.is_empty()).map(|line| {
        line.split_once(':')
            .map(|(name, value)| (name.trim(), value.trim()))
            .ok_or(line)
    })
}

/// Splits one header block (excluding the blank line) into lines.
fn parse_headers(block: &str) -> Result<Headers, ParseError> {
    let mut headers = Headers::new();
    for field in fields(block) {
        let (name, value) = field.map_err(|line| ParseError::BadHeader(line.to_owned()))?;
        headers.push(name, value);
    }
    Ok(headers)
}

/// The body length a message's first `Content-Length` value declares
/// (0 when absent).
fn parse_content_length(value: Option<&str>) -> Result<usize, ParseError> {
    match value {
        None => Ok(0),
        Some(v) => {
            // RFC 9110 §8.6: Content-Length is 1*DIGIT. `usize::parse`
            // alone is laxer than that (it accepts a leading `+`), so
            // reject anything that is not pure ASCII digits before
            // parsing; parse() then only fails on overflow.
            let digits = v.trim();
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::BadContentLength(v.to_owned()));
            }
            let n: usize = digits
                .parse()
                .map_err(|_| ParseError::BadContentLength(v.to_owned()))?;
            if n > MAX_BODY {
                return Err(ParseError::BodyTooLarge(n));
            }
            Ok(n)
        }
    }
}

/// A complete request, borrowed in place from the parser's buffer:
/// what [`RequestParser::next_with`] hands its closure. Building it
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// Request method.
    pub method: &'a str,
    /// Request-URI.
    pub uri: &'a str,
    /// Protocol version.
    pub version: Version,
    /// Whether the connection persists after this request (the
    /// [`keep_alive`](crate::keep_alive) rule over its headers).
    pub keep_alive: bool,
    /// Request body (empty for GET).
    pub body: &'a [u8],
    /// The validated header block: every line has a colon.
    header_block: &'a str,
}

impl<'a> RequestView<'a> {
    /// The owned request.
    fn to_request(self) -> Request {
        let mut headers = Headers::new();
        for (name, value) in fields(self.header_block).filter_map(Result::ok) {
            headers.push(name, value);
        }
        Request {
            method: self.method.to_owned(),
            uri: self.uri.to_owned(),
            version: self.version,
            headers,
            body: Bytes::copy_from_slice(self.body),
        }
    }
}

/// Incremental request parser.
///
/// # Examples
///
/// ```
/// use phttp_http::RequestParser;
///
/// let mut p = RequestParser::new();
/// // Two pipelined requests arriving in one segment, plus a partial third.
/// p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HT");
/// assert_eq!(p.next().unwrap().unwrap().uri, "/a");
/// assert_eq!(p.next().unwrap().unwrap().uri, "/b");
/// assert!(p.next().unwrap().is_none()); // /c is incomplete
/// p.feed(b"TP/1.1\r\n\r\n");
/// assert_eq!(p.next().unwrap().unwrap().uri, "/c");
/// ```
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: BytesMut,
}

impl RequestParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to extract the next complete request.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    // Named like `Iterator::next` on purpose: same pull semantics, but
    // fallible and non-blocking, so the trait does not fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Request>, ParseError> {
        self.next_with(|view| view.to_request())
    }

    /// Attempts to extract the next complete request, handing it to `f`
    /// as a view borrowed from the buffer; the request's bytes are
    /// consumed once `f` returns. [`next`](Self::next) is this method
    /// with a closure that builds the owned [`Request`], so the two make
    /// the same checks; this one allocates nothing unless the request
    /// is malformed.
    ///
    /// Returns `Ok(None)` when more bytes are needed (`f` is not called).
    ///
    /// # Examples
    ///
    /// ```
    /// use phttp_http::{RequestParser, Version};
    ///
    /// let mut p = RequestParser::new();
    /// p.feed(b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
    /// let a = p.next_with(|r| (r.uri.len(), r.version, r.keep_alive)).unwrap();
    /// assert_eq!(a, Some((2, Version::Http10, true)));
    /// assert_eq!(p.next_with(|r| r.uri == "/b").unwrap(), Some(true));
    /// assert_eq!(p.next_with(|_| ()).unwrap(), None);
    /// ```
    pub fn next_with<T>(
        &mut self,
        f: impl FnOnce(RequestView<'_>) -> T,
    ) -> Result<Option<T>, ParseError> {
        // Parse the head without consuming, in case the body is incomplete.
        let Some((head_end, head)) = split_head(&self.buf)? else {
            return Ok(None);
        };
        let (start, rest) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = start.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?;
        let uri = parts
            .next()
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?;
        let version_tok = parts.next().unwrap_or("HTTP/1.0");
        if parts.next().is_some() {
            return Err(ParseError::BadStartLine(start.to_owned()));
        }
        let version = Version::parse(version_tok)
            .ok_or_else(|| ParseError::BadVersion(version_tok.into()))?;
        // The two headers the parser acts on, first occurrence each
        // (`Headers::get` semantics); every line is checked for a colon
        // before the length is judged, as `parse_headers` does.
        let (mut connection, mut length) = (None, None);
        for field in fields(rest) {
            let (name, value) = field.map_err(|line| ParseError::BadHeader(line.to_owned()))?;
            if connection.is_none() && name.eq_ignore_ascii_case("Connection") {
                connection = Some(value);
            } else if length.is_none() && name.eq_ignore_ascii_case("Content-Length") {
                length = Some(value);
            }
        }
        let body_len = parse_content_length(length)?;
        if self.buf.len() < head_end + body_len {
            return Ok(None); // body incomplete
        }
        let out = f(RequestView {
            method,
            uri,
            version,
            keep_alive: keep_alive_with(version, connection),
            body: &self.buf[head_end..head_end + body_len],
            header_block: rest,
        });
        self.buf.advance(head_end + body_len);
        Ok(Some(out))
    }
}

/// A parsed response head whose body may still be in flight — the
/// streaming consumption mode ([`ResponseParser::next_head`] +
/// [`ResponseParser::take_body`]) used when the consumer forwards body
/// bytes as they arrive instead of waiting for the full message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP version from the status line.
    pub version: Version,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Response headers.
    pub headers: Headers,
    /// Declared body length (`Content-Length`, 0 when absent).
    pub body_len: usize,
}

impl ResponseHead {
    /// Whether the sender intends to keep the connection open (same
    /// rule as [`Response::keep_alive`](crate::Response::keep_alive)).
    pub fn keep_alive(&self) -> bool {
        crate::message::keep_alive(self.version, &self.headers)
    }
}

/// Incremental response parser (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: BytesMut,
}

impl ResponseParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Parses the buffered response head without consuming it: the
    /// head's length and the head.
    fn peek_head(&self) -> Result<Option<(usize, ResponseHead)>, ParseError> {
        let Some((head_end, head)) = split_head(&self.buf)? else {
            return Ok(None);
        };
        let (start, rest) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = start.splitn(3, ' ');
        let version_tok = parts
            .next()
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?;
        let version = Version::parse(version_tok)
            .ok_or_else(|| ParseError::BadVersion(version_tok.into()))?;
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?;
        let reason = parts.next().unwrap_or("").to_owned();
        let headers = parse_headers(rest)?;
        let body_len = parse_content_length(headers.get("Content-Length"))?;
        let head = ResponseHead {
            version,
            status,
            reason,
            headers,
            body_len,
        };
        Ok(Some((head_end, head)))
    }

    /// Attempts to extract the next complete response.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    // See `RequestParser::next` for the naming rationale.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Response>, ParseError> {
        let Some((head_end, head)) = self.peek_head()? else {
            return Ok(None);
        };
        if self.buf.len() < head_end + head.body_len {
            return Ok(None);
        }
        self.buf.advance(head_end);
        let body = self.buf.split_to(head.body_len).freeze();
        Ok(Some(Response {
            version: head.version,
            status: head.status,
            reason: head.reason,
            headers: head.headers,
            body,
        }))
    }

    /// Attempts to parse — and *consume* — the next response head without
    /// waiting for its body: the streaming mode. On `Some`, the head is
    /// gone from the buffer and the caller owns draining exactly
    /// [`body_len`](ResponseHead::body_len) body bytes via
    /// [`take_body`](Self::take_body) before parsing another head.
    /// Returns `Ok(None)` when the head is still incomplete.
    pub fn next_head(&mut self) -> Result<Option<ResponseHead>, ParseError> {
        let Some((head_end, head)) = self.peek_head()? else {
            return Ok(None);
        };
        self.buf.advance(head_end);
        Ok(Some(head))
    }

    /// Removes and returns up to `max` buffered bytes — the body-chunk
    /// reader paired with [`next_head`](Self::next_head). The caller is
    /// responsible for capping `max` at the head's remaining body length
    /// so pipelined next-response bytes are not consumed as body.
    pub fn take_body(&mut self, max: usize) -> Bytes {
        let n = max.min(self.buf.len());
        self.buf.split_to(n).freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_get() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x.html HTTP/1.0\r\nHost: h\r\n\r\n");
        let r = p.next().unwrap().unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.uri, "/x.html");
        assert_eq!(r.version, Version::Http10);
        assert_eq!(r.headers.get("host"), Some("h"));
        assert!(p.next().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn byte_by_byte_feeding() {
        let wire = b"GET /slow HTTP/1.1\r\nA: b\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, &b) in wire.iter().enumerate() {
            p.feed(&[b]);
            let r = p.next().unwrap();
            if i + 1 < wire.len() {
                assert!(r.is_none(), "complete too early at byte {i}");
            } else {
                assert_eq!(r.unwrap().uri, "/slow");
            }
        }
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let mut p = RequestParser::new();
        p.feed(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n");
        let mut uris = Vec::new();
        while let Some(r) = p.next().unwrap() {
            uris.push(r.uri);
        }
        assert_eq!(uris, vec!["/1", "/2", "/3"]);
    }

    #[test]
    fn request_with_body() {
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert!(p.next().unwrap().is_none()); // body incomplete
        p.feed(b"lo");
        let r = p.next().unwrap().unwrap();
        assert_eq!(&r.body[..], b"hello");
    }

    #[test]
    fn malformed_inputs_error() {
        let mut p = RequestParser::new();
        p.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadStartLine(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/9.9\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadVersion(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadHeader(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadContentLength(_))));
    }

    #[test]
    fn non_rfc_content_length_forms_are_rejected() {
        // `"+5".parse::<usize>()` succeeds, but RFC 9110 says 1*DIGIT:
        // a sign, embedded spaces, or an empty value must all fail.
        for v in ["+5", "-5", "5 5", "0x10", ""] {
            let mut p = RequestParser::new();
            p.feed(format!("POST /f HTTP/1.1\r\nContent-Length: {v}\r\n\r\n").as_bytes());
            assert!(
                matches!(p.next(), Err(ParseError::BadContentLength(_))),
                "Content-Length {v:?} must be rejected"
            );
        }
        // Overflowing digit strings are bad lengths, not panics.
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadContentLength(_))));
    }

    #[test]
    fn huge_advertised_body_is_rejected_up_front() {
        let mut p = RequestParser::new();
        let decl = MAX_BODY + 1;
        p.feed(format!("POST /f HTTP/1.1\r\nContent-Length: {decl}\r\n\r\n").as_bytes());
        // The error fires as soon as the head is parsed — the parser must
        // not wait (and buffer) for a body that will never finish.
        assert_eq!(p.next(), Err(ParseError::BodyTooLarge(decl)));

        // Same guard on the response side.
        let mut p = ResponseParser::new();
        p.feed(format!("HTTP/1.1 200 OK\r\nContent-Length: {decl}\r\n\r\n").as_bytes());
        assert_eq!(p.next(), Err(ParseError::BodyTooLarge(decl)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        let filler = format!("X-Pad: {}\r\n", "a".repeat(1024));
        for _ in 0..20 {
            p.feed(filler.as_bytes());
        }
        assert!(matches!(p.next(), Err(ParseError::HeadTooLarge)));
    }

    #[test]
    fn oversized_response_head_is_rejected_even_when_complete() {
        let wire = format!(
            "HTTP/1.1 200 OK\r\nX-Pad: {}\r\nContent-Length: 0\r\n\r\n",
            "a".repeat(MAX_HEAD)
        );
        let mut p = ResponseParser::new();
        p.feed(wire.as_bytes());
        assert_eq!(p.next(), Err(ParseError::HeadTooLarge));
        assert_eq!(p.next_head(), Err(ParseError::HeadTooLarge));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(Version::Http11, Bytes::from(vec![7u8; 2048]));
        let wire = resp.to_bytes();
        let mut p = ResponseParser::new();
        // Split the wire bytes into three chunks.
        p.feed(&wire[..10]);
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[10..500]);
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[500..]);
        let parsed = p.next().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body.len(), 2048);
        assert_eq!(parsed, resp);
    }

    #[test]
    fn streaming_head_then_body_chunks() {
        let body: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let resp = Response::ok(Version::Http11, Bytes::from(body.clone()));
        let wire = resp.to_bytes();
        let split = wire.len() - 4000;
        let mut p = ResponseParser::new();
        p.feed(&wire[..20]);
        assert!(p.next_head().unwrap().is_none(), "head incomplete");
        p.feed(&wire[20..split]);
        let head = p.next_head().unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.body_len, 5000);
        assert!(head.keep_alive());
        // Drain body bytes as they arrive, capped at the declared length.
        let mut got = Vec::new();
        let mut remaining = head.body_len;
        let c = p.take_body(remaining);
        remaining -= c.len();
        got.extend_from_slice(&c);
        assert!(remaining > 0, "first window held only part of the body");
        // The tail arrives with a pipelined second response behind it.
        p.feed(&wire[split..]);
        p.feed(&Response::not_found(Version::Http11).to_bytes());
        while remaining > 0 {
            let c = p.take_body(remaining);
            assert!(!c.is_empty());
            remaining -= c.len();
            got.extend_from_slice(&c);
        }
        assert_eq!(got, body, "chunks reassemble the exact body");
        // The cap protected the pipelined response; it parses intact.
        assert_eq!(p.next().unwrap().unwrap().status, 404);
        assert_eq!(p.buffered(), 0);
    }

    /// The request parser as it was before [`RequestParser::next_with`]
    /// existed: owned headers first, then every check against them. It
    /// shares no header or length helper with the parser, so the
    /// property test below holds the in-place parser to an independent
    /// copy.
    fn reference_next(buf: &mut BytesMut) -> Result<Option<Request>, ParseError> {
        let Some(head_end) = find_head_end(buf) else {
            if buf.len() > MAX_HEAD {
                return Err(ParseError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_end > MAX_HEAD {
            return Err(ParseError::HeadTooLarge);
        }
        let head = std::str::from_utf8(&buf[..head_end - 4])
            .map_err(|_| ParseError::BadStartLine("non-utf8 head".into()))?;
        let (start, rest) = head.split_once("\r\n").unwrap_or((head, ""));
        let mut parts = start.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?
            .to_owned();
        let uri = parts
            .next()
            .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?
            .to_owned();
        let version_tok = parts.next().unwrap_or("HTTP/1.0");
        if parts.next().is_some() {
            return Err(ParseError::BadStartLine(start.to_owned()));
        }
        let version = Version::parse(version_tok)
            .ok_or_else(|| ParseError::BadVersion(version_tok.into()))?;
        let mut headers = Headers::new();
        for line in rest.split("\r\n").filter(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ParseError::BadHeader(line.to_owned()))?;
            headers.push(name.trim(), value.trim());
        }
        let body_len = match headers.get("Content-Length") {
            None => 0,
            Some(v) => {
                let digits = v.trim();
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(ParseError::BadContentLength(v.to_owned()));
                }
                let n: usize = digits
                    .parse()
                    .map_err(|_| ParseError::BadContentLength(v.to_owned()))?;
                if n > MAX_BODY {
                    return Err(ParseError::BodyTooLarge(n));
                }
                n
            }
        };
        if buf.len() < head_end + body_len {
            return Ok(None);
        }
        buf.advance(head_end);
        let body = buf.split_to(body_len).freeze();
        Ok(Some(Request {
            method,
            uri,
            version,
            headers,
            body,
        }))
    }

    /// Header names and values the generated requests draw from:
    /// `Connection` and `Content-Length` in several spellings, bad
    /// lengths, and a line without a colon.
    const NAMES: &[&str] = &[
        "Connection",
        "connection",
        " CONNECTION ",
        "Content-Length",
        "content-length",
        "Host",
        "X-Pad",
        "NoColon",
    ];
    const VALUES: &[&str] = &[
        "close",
        " Close",
        "keep-alive",
        "KEEP-ALIVE ",
        "upgrade",
        "",
        "0",
        "3",
        " 11 ",
        "+5",
        "abc",
        "67108865",
        "99999999999999999999999",
    ];
    const STARTS: &[&str] = &[
        "GET /t/1 HTTP/1.1",
        "GET /t/22 HTTP/1.0",
        "POST /up HTTP/1.1",
        "HEAD /a?b=c HTTP/0.9",
        "GET /no-version",
        "GET / HTTP/9.9",
        "GET  HTTP/1.1",
        "GET / HTTP/1.1 extra",
        " / HTTP/1.1",
        "NONSENSE",
    ];
    const GARBAGE: &[u8] = b"GET /\r\n: H\xff1";

    /// Well-formed start lines and length values (the leading entries
    /// of `STARTS` and `VALUES`).
    const GOOD_STARTS: usize = 4;
    const GOOD_LENGTHS: &[&str] = &["0", "3", " 11 "];

    /// One stream piece: a well-formed request (kinds 0–9), a request
    /// drawn from the whole tables — usually malformed — (10–13), raw
    /// garbage (14) or an oversized head (15). A request's body is as
    /// long as its first `Content-Length` says, when that is small and
    /// well formed.
    fn build_piece(
        kind: usize,
        start: usize,
        headers: &[(usize, usize)],
        noise: &[usize],
    ) -> Vec<u8> {
        match kind {
            0..=13 => {
                let good = kind < 10;
                let starts = if good { &STARTS[..GOOD_STARTS] } else { STARTS };
                let mut head = format!("{}\r\n", starts[start % starts.len()]);
                let mut body_len = None;
                for &(n, v) in headers {
                    let (mut name, mut value) = (NAMES[n % NAMES.len()], VALUES[v % VALUES.len()]);
                    let is_length = name.trim().eq_ignore_ascii_case("content-length");
                    if good && name == "NoColon" {
                        name = "Host";
                    } else if good && is_length {
                        value = GOOD_LENGTHS[v % GOOD_LENGTHS.len()];
                    }
                    if name == "NoColon" {
                        head.push_str(&format!("{name} {value}\r\n"));
                        continue;
                    }
                    if body_len.is_none() && is_length {
                        body_len = Some(value.trim().parse::<usize>().unwrap_or(0).min(64));
                    }
                    head.push_str(&format!("{name}:{value}\r\n"));
                }
                head.push_str("\r\n");
                let mut out = head.into_bytes();
                let body = noise.iter().cycle().take(body_len.unwrap_or(0));
                out.extend(body.map(|&i| GARBAGE[i % GARBAGE.len()]));
                out
            }
            14 => noise.iter().map(|&i| GARBAGE[i % GARBAGE.len()]).collect(),
            _ => format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(MAX_HEAD)).into_bytes(),
        }
    }

    fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
        let piece = (
            0usize..16,
            0usize..STARTS.len(),
            proptest::collection::vec((0usize..NAMES.len(), 0usize..VALUES.len()), 0..6),
            proptest::collection::vec(0usize..GARBAGE.len(), 0..24),
        );
        proptest::collection::vec(piece, 1..8).prop_map(|pieces| {
            pieces
                .iter()
                .flat_map(|(kind, start, headers, noise)| {
                    build_piece(*kind, *start, headers, noise)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn split_feeding_matches_the_reference_parser(
            stream in arb_stream(),
            cuts in proptest::collection::vec(1usize..48, 1..64),
        ) {
            // Reference: today's parser, everything fed at once.
            let mut whole = BytesMut::new();
            whole.extend_from_slice(&stream);
            let mut expected = Vec::new();
            let expected_end = loop {
                match reference_next(&mut whole) {
                    Ok(Some(req)) => expected.push(req),
                    Ok(None) => break Ok(whole.len()),
                    Err(e) => break Err(e),
                }
            };

            // Subject: `next_with`, fed at arbitrary split points and
            // drained after every feed.
            let mut p = RequestParser::new();
            let mut got = Vec::new();
            let mut rest = &stream[..];
            let mut cut = cuts.iter().cycle();
            let got_end = 'feed: loop {
                let n = (*cut.next().unwrap()).min(rest.len());
                p.feed(&rest[..n]);
                rest = &rest[n..];
                loop {
                    match p.next_with(|v| (v.to_request(), v.keep_alive)) {
                        Ok(Some(view)) => got.push(view),
                        Ok(None) => break,
                        Err(e) => break 'feed Err(e),
                    }
                }
                if rest.is_empty() {
                    break Ok(p.buffered());
                }
            };

            // Method, URI, version, headers and body through the view;
            // its keep-alive verdict against the owned headers' rule.
            prop_assert_eq!(got.len(), expected.len());
            for ((viewed, keep), req) in got.iter().zip(&expected) {
                prop_assert_eq!(viewed, req);
                prop_assert_eq!(*keep, crate::keep_alive(req.version, &req.headers));
            }
            prop_assert_eq!(got_end, expected_end);
        }
    }

    #[test]
    fn pipelined_responses() {
        let a = Response::ok(Version::Http11, Bytes::from_static(b"aaaa"));
        let b = Response::not_found(Version::Http11);
        let mut wire = BytesMut::new();
        a.encode(&mut wire);
        b.encode(&mut wire);
        let mut p = ResponseParser::new();
        p.feed(&wire);
        assert_eq!(p.next().unwrap().unwrap().status, 200);
        assert_eq!(p.next().unwrap().unwrap().status, 404);
        assert!(p.next().unwrap().is_none());
    }
}
