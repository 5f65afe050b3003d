//! A hand-rolled HTTP/1.1 subset: exactly what `latencyd` needs and
//! nothing more.
//!
//! Supported: request-line + header parsing, `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default) and `Connection: close`, and response
//! serialization. Not supported (rejected with a clear status): chunked
//! request bodies (`411`), bodies over the configured cap (`413`),
//! malformed framing (`400`). The parser enforces hard limits on line
//! length and header count so a hostile peer cannot balloon memory.

use std::io::{self, BufRead, Write};

/// Longest accepted request/header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component only (query string stripped).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after the
    /// response (the HTTP/1.1 default).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a request line —
    /// a normal end of a keep-alive session, not an error to report.
    Closed,
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The request violates the supported HTTP subset; respond with the
    /// given status and message, then close.
    Bad {
        /// HTTP status to answer with (400, 411, 413, 431).
        status: u16,
        /// Human-readable reason, echoed into the error body.
        message: String,
    },
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> ReadError {
    ReadError::Bad {
        status,
        message: message.into(),
    }
}

/// Read one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = match reader.read(&mut byte) {
            Ok(n) => n,
            Err(e) => return Err(ReadError::Io(e)),
        };
        if n == 0 {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(bad(400, "truncated request line"));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let s = String::from_utf8(line).map_err(|_| bad(400, "non-UTF-8 header data"))?;
            return Ok(Some(s));
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(bad(431, "header line too long"));
        }
    }
}

/// Parse a request line (`GET /path HTTP/1.1`) into a body-less
/// [`Request`].
fn parse_request_line(request_line: &str) -> Result<Request, ReadError> {
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| bad(400, "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(400, format!("unsupported protocol '{version}'")));
    }
    // Strip the query string; latencyd routes on the path alone.
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method,
        path,
        headers: Vec::new(),
        body: Vec::new(),
    })
}

/// Parse one `Name: value` header line into the request (lowercased
/// name, trimmed value), enforcing [`MAX_HEADERS`].
fn push_header(req: &mut Request, line: &str) -> Result<(), ReadError> {
    if req.headers.len() >= MAX_HEADERS {
        return Err(bad(431, "too many headers"));
    }
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| bad(400, format!("malformed header line '{line}'")))?;
    req.headers
        .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    Ok(())
}

/// Validate body framing for a parsed head: reject chunked transfer
/// encoding (`411`) and bodies over `max_body` (`413`); return the
/// declared `Content-Length` (0 when absent).
fn body_length(req: &Request, max_body: usize) -> Result<usize, ReadError> {
    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(bad(
                411,
                "chunked bodies are not supported; send Content-Length",
            ));
        }
    }
    let content_length = match req.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(400, format!("invalid Content-Length '{v}'")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(bad(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    Ok(content_length)
}

/// Outcome of [`RequestParser::poll`].
#[derive(Debug)]
pub enum ParseStatus {
    /// Not enough bytes buffered yet for a complete request.
    Pending,
    /// One complete request; leftover (pipelined) bytes stay buffered.
    Ready(Request),
    /// The buffered bytes violate the supported HTTP subset; respond
    /// with the given status and close. Terminal: the parser stays in
    /// this state because the stream offset is no longer trustworthy.
    Bad {
        /// HTTP status to answer with (400, 411, 413, 431).
        status: u16,
        /// Human-readable reason, echoed into the error body.
        message: String,
    },
}

/// Incremental, resumable request parser for non-blocking sockets.
///
/// The reactor feeds whatever bytes a readiness poll produced and polls
/// for a complete request; partial heads and bodies persist across
/// calls, so a request may arrive one byte at a time without holding a
/// thread. Enforces [`MAX_LINE`] per header line and [`MAX_HEADERS`]
/// per head (both checked
/// incrementally, so a slow-loris stream of overlong lines or endless
/// short header lines is rejected as soon as the limit is crossed, not
/// when the head completes), and the `max_body` cap (checked at head
/// completion, before any body byte is buffered).
#[derive(Debug)]
pub struct RequestParser {
    max_body: usize,
    buf: Vec<u8>,
    /// Byte offset scanned for the head terminator so far.
    scanned: usize,
    /// Offset where the current (unterminated) header line began.
    line_start: usize,
    /// Completed head lines (request line included) for the in-progress
    /// head; bounds header count before the head terminator arrives.
    head_lines: usize,
    /// Parsed head waiting for `content_length` body bytes; `usize` is
    /// the total head length in `buf` (request line + headers + blank).
    head: Option<(Request, usize, usize)>,
    /// Terminal parse failure, replayed on every later poll.
    failed: Option<(u16, String)>,
}

impl RequestParser {
    /// A fresh parser; `max_body` caps the accepted `Content-Length`.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            buf: Vec::new(),
            scanned: 0,
            line_start: 0,
            head_lines: 0,
            head: None,
            failed: None,
        }
    }

    /// Buffer bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Ceiling on buffered bytes the owner should tolerate while it is
    /// *not* polling this parser (a request is dispatched, so nothing
    /// drains the buffer): one request's worth of body plus slack for a
    /// pipelined follow-up head. Past this, stop reading and let TCP
    /// backpressure hold further bytes in the kernel — exactly where a
    /// blocking front end would have left them.
    pub fn pipeline_cap(&self) -> usize {
        self.max_body + 2 * MAX_LINE
    }

    /// Whether a partial request is buffered — distinguishes a peer
    /// that went away mid-request (report `400`) from one that closed
    /// cleanly between requests (silent close).
    pub fn mid_request(&self) -> bool {
        self.head.is_some() || !self.buf.is_empty()
    }

    /// Try to complete one request from the buffered bytes.
    pub fn poll(&mut self) -> ParseStatus {
        if let Some((status, message)) = &self.failed {
            return ParseStatus::Bad {
                status: *status,
                message: message.clone(),
            };
        }
        match self.advance() {
            Ok(status) => status,
            Err(ReadError::Bad { status, message }) => {
                self.failed = Some((status, message.clone()));
                ParseStatus::Bad { status, message }
            }
            // The incremental path never does I/O and never observes a
            // clean close; fold the impossible variants into a 400.
            Err(_) => {
                self.failed = Some((400, "malformed request".into()));
                ParseStatus::Bad {
                    status: 400,
                    message: "malformed request".into(),
                }
            }
        }
    }

    fn advance(&mut self) -> Result<ParseStatus, ReadError> {
        if self.head.is_none() {
            // Scan unexamined bytes for the end-of-head blank line,
            // bounding each line as it streams in.
            while self.scanned < self.buf.len() {
                let b = self.buf[self.scanned];
                if b == b'\n' {
                    let mut line_end = self.scanned;
                    if line_end > self.line_start && self.buf[line_end - 1] == b'\r' {
                        line_end -= 1;
                    }
                    if line_end == self.line_start {
                        // Blank line: the head is complete.
                        let head_len = self.scanned + 1;
                        self.parse_head(head_len)?;
                        break;
                    }
                    self.scanned += 1;
                    self.line_start = self.scanned;
                    // Bound the header count as lines complete (the
                    // request line is head_lines == 1), rejecting the
                    // 65th header as it arrives — an endless stream of
                    // short header lines must not buffer until some
                    // outer timeout fires.
                    self.head_lines += 1;
                    if self.head_lines > MAX_HEADERS + 1 {
                        return Err(bad(431, "too many headers"));
                    }
                } else {
                    self.scanned += 1;
                    if self.scanned - self.line_start > MAX_LINE {
                        return Err(bad(431, "header line too long"));
                    }
                }
            }
        }
        let Some((_, head_len, content_length)) = self.head.as_ref() else {
            return Ok(ParseStatus::Pending);
        };
        let (head_len, content_length) = (*head_len, *content_length);
        if self.buf.len() < head_len + content_length {
            return Ok(ParseStatus::Pending);
        }
        // lt-lint: allow(LT01, invariant: head is Some on this path, checked above)
        let (mut req, _, _) = self.head.take().expect("head parsed");
        req.body = self.buf[head_len..head_len + content_length].to_vec();
        self.buf.drain(..head_len + content_length);
        self.scanned = 0;
        self.line_start = 0;
        self.head_lines = 0;
        Ok(ParseStatus::Ready(req))
    }

    /// Parse the complete head occupying `buf[..head_len]`.
    fn parse_head(&mut self, head_len: usize) -> Result<(), ReadError> {
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| bad(400, "non-UTF-8 header data"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let request_line = lines.next().unwrap_or("");
        if request_line.is_empty() {
            return Err(bad(400, "empty request line"));
        }
        let mut req = parse_request_line(request_line)?;
        for line in lines {
            if line.is_empty() {
                break;
            }
            push_header(&mut req, line)?;
        }
        let content_length = body_length(&req, self.max_body)?;
        self.head = Some((req, head_len, content_length));
        Ok(())
    }
}

/// A response parsed off the wire (the cluster forwarding client reads
/// peer answers with the same bounded parser the server uses for
/// requests).
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body (`Content-Length`-framed; peers always send it).
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read and parse one response from the stream. `max_body` caps the
/// accepted `Content-Length`; responses without one (latencyd never
/// sends any) are rejected rather than read-to-EOF, so a stalled peer
/// cannot pin the caller past its read timeout.
pub fn read_response(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<ParsedResponse, ReadError> {
    let status_line = match read_line(reader)? {
        None => return Err(ReadError::Closed),
        Some(l) if l.is_empty() => return Err(bad(400, "empty status line")),
        Some(l) => l,
    };
    let mut parts = status_line.split_whitespace();
    let version = parts
        .next()
        .ok_or_else(|| bad(400, "missing HTTP version in status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(400, format!("unsupported protocol '{version}'")));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(400, "missing status code"))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or_else(|| bad(400, "truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad(431, "too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(400, format!("malformed header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut resp = ParsedResponse {
        status,
        headers,
        body: Vec::new(),
    };
    let content_length = resp
        .header("content-length")
        .ok_or_else(|| bad(400, "peer response has no Content-Length"))?
        .parse::<usize>()
        .map_err(|_| bad(400, "invalid Content-Length in peer response"))?;
    if content_length > max_body {
        return Err(bad(
            413,
            format!("peer body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        io::Read::read_exact(reader, &mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                bad(400, "peer body shorter than Content-Length")
            } else {
                ReadError::Io(e)
            }
        })?;
        resp.body = body;
    }
    Ok(resp)
}

/// An HTTP response ready for serialization.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to advertise (and perform) connection close.
    pub close: bool,
    /// Optional `Retry-After` header value in seconds (load shedding).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
        }
    }

    /// Mark the connection for closing after this response.
    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Attach a `Retry-After: {seconds}` header (shed/overload answers).
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Serialize to the wire.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )?;
        if let Some(seconds) = self.retry_after {
            write!(w, "Retry-After: {seconds}\r\n")?;
        }
        write!(
            w,
            "{}\r\n",
            if self.close {
                "Connection: close\r\n"
            } else {
                "Connection: keep-alive\r\n"
            },
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes latencyd emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Feed `raw` to a fresh parser in one piece and poll once.
    fn parse(raw: &str) -> ParseStatus {
        let mut parser = RequestParser::new(1024);
        parser.feed(raw.as_bytes());
        parser.poll()
    }

    fn ready(raw: &str) -> Request {
        match parse(raw) {
            ParseStatus::Ready(req) => req,
            other => panic!("expected a request from {raw:?}, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_request() {
        let req = ready("GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz", "query string stripped");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = ready(
            "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn connection_close_is_honored() {
        let req = ready("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n");
        assert!(!req.keep_alive());
    }

    #[test]
    fn lf_only_line_endings_accepted() {
        let req = ready("GET /metrics HTTP/1.1\nHost: y\n\n");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        let mut parser = RequestParser::new(1024);
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(
            !parser.mid_request(),
            "no bytes: the reactor closes silently"
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (raw, want_status) in [
            ("GARBAGE\r\n\r\n", 400),
            ("\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 413),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                411,
            ),
        ] {
            let mut parser = RequestParser::new(1024);
            parser.feed(raw.as_bytes());
            match parser.poll() {
                ParseStatus::Bad { status, .. } => {
                    assert_eq!(status, want_status, "for {raw:?}")
                }
                other => panic!("expected Bad for {raw:?}, got {other:?}"),
            }
            // Terminal: the same verdict replays on later polls.
            assert!(matches!(parser.poll(), ParseStatus::Bad { .. }));
        }
    }

    #[test]
    fn truncated_body_stays_mid_request() {
        // Two of five body bytes: still pending, and mid-request, so a
        // peer that closes here is answered 400 by the reactor.
        let mut parser = RequestParser::new(1024);
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(parser.mid_request());
    }

    #[test]
    fn rejects_oversized_header_line() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        match parse(&raw) {
            ParseStatus::Bad { status, .. } => assert_eq!(status, 431),
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "{text}"
        );
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(2)
            .with_close()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn parses_a_serialized_response_back() {
        let mut out = Vec::new();
        Response::json(429, "{\"ok\":false}".into())
            .with_retry_after(2)
            .write_to(&mut out)
            .unwrap();
        let resp = read_response(&mut BufReader::new(out.as_slice()), 1024).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body, b"{\"ok\":false}");
    }

    #[test]
    fn response_parser_rejects_unframed_bodies() {
        let raw = "HTTP/1.1 200 OK\r\n\r\nstuff";
        match read_response(&mut BufReader::new(raw.as_bytes()), 1024) {
            Err(ReadError::Bad { status, message }) => {
                assert_eq!(status, 400);
                assert!(message.contains("Content-Length"), "{message}");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_request_fed_one_byte_at_a_time() {
        let raw = "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let mut parser = RequestParser::new(1024);
        for (i, b) in raw.as_bytes().iter().enumerate() {
            parser.feed(&[*b]);
            match parser.poll() {
                ParseStatus::Pending => {
                    assert!(i + 1 < raw.len(), "must complete on the last byte");
                    assert!(parser.mid_request());
                }
                ParseStatus::Ready(req) => {
                    assert_eq!(i + 1, raw.len(), "completed early at byte {i}");
                    assert_eq!(req.method, "POST");
                    assert_eq!(req.path, "/v1/solve");
                    assert_eq!(req.body, b"{\"a\":1}");
                }
                ParseStatus::Bad { status, message } => {
                    panic!("unexpected Bad {status}: {message}")
                }
            }
        }
        assert!(!parser.mid_request(), "buffer drained after Ready");
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\nHost: y\n\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.path, "/a"),
            other => panic!("expected /a, got {other:?}"),
        }
        match parser.poll() {
            ParseStatus::Ready(req) => {
                assert_eq!(req.path, "/b");
                assert_eq!(req.header("host"), Some("y"), "LF-only head parsed");
            }
            other => panic!("expected /b, got {other:?}"),
        }
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(!parser.mid_request());
    }

    #[test]
    fn incremental_parser_bounds_header_lines_before_they_complete() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /");
        // Stream an endless path one chunk at a time: the parser must
        // reject at MAX_LINE without waiting for the line to finish.
        let chunk = [b'a'; 512];
        let mut rejected = false;
        for _ in 0..(MAX_LINE / chunk.len() + 2) {
            parser.feed(&chunk);
            if let ParseStatus::Bad { status, .. } = parser.poll() {
                assert_eq!(status, 431);
                rejected = true;
                break;
            }
        }
        assert!(rejected, "oversized request line must be rejected");
    }

    #[test]
    fn incremental_parser_bounds_header_count_before_head_completes() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /x HTTP/1.1\r\n");
        // Stream endless short header lines, never a blank terminator:
        // rejection must come at the 65th header line, not at some outer
        // timeout.
        let mut rejected_at = None;
        for i in 0..MAX_HEADERS + 8 {
            parser.feed(format!("X-H{i}: v\r\n").as_bytes());
            if let ParseStatus::Bad { status, message } = parser.poll() {
                assert_eq!(status, 431, "{message}");
                rejected_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(
            rejected_at,
            Some(MAX_HEADERS + 1),
            "must reject on the first over-limit header line"
        );
    }

    #[test]
    fn incremental_parser_accepts_exactly_max_headers() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /x HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            parser.feed(format!("X-H{i}: v\r\n").as_bytes());
            assert!(
                matches!(parser.poll(), ParseStatus::Pending),
                "header {i} within the limit must not reject"
            );
        }
        parser.feed(b"\r\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.headers.len(), MAX_HEADERS),
            other => panic!("expected Ready at the limit, got {other:?}"),
        }
        // The counter reset with the completed request: a follow-up
        // request on the same connection gets a fresh budget.
        parser.feed(b"GET /y HTTP/1.1\r\nHost: z\r\n\r\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.path, "/y"),
            other => panic!("expected pipelined follow-up, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_at_head_completion() {
        let mut parser = RequestParser::new(16);
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n");
        match parser.poll() {
            ParseStatus::Bad { status, .. } => assert_eq!(status, 413),
            other => panic!("expected 413 before body bytes, got {other:?}"),
        }
    }

    #[test]
    fn two_requests_on_one_connection() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        for want in ["/a", "/b"] {
            match parser.poll() {
                ParseStatus::Ready(req) => assert_eq!(req.path, want),
                other => panic!("expected {want}, got {other:?}"),
            }
        }
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(!parser.mid_request(), "the stream ends cleanly after /b");
    }
}
