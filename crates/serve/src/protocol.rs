//! The sweep-server wire protocol: newline-delimited, flat-JSON, hardened.
//!
//! One TCP connection carries a sequence of *request lines* from the
//! client and *event lines* from the server, each a single `\n`-terminated
//! line. Requests are either a bare keyword (`ping`, `stats`) or a
//! scenario job payload — the exact `oasis-fuzz-scenario-v1` flat JSON
//! object the repro corpus already uses, parsed by the same
//! [`oasis_fuzz::parse_flat_object`] grammar (scalar fields only, no
//! nesting, no escapes). Server events are flat JSON objects tagged by a
//! `"serve"` field (`accepted`, `rejected`, `dispatched`, `progress`,
//! `result`, `pong`, `stats`, `error`).
//!
//! Hardening rules, enforced by [`LineReader`] and [`parse_request`]:
//!
//! * a request line is capped at [`MAX_LINE_BYTES`]; an oversized line is
//!   a typed [`ProtocolError::LineTooLong`] and the connection is closed
//!   cleanly (framing can no longer be trusted mid-line);
//! * bytes that are not UTF-8 are [`ProtocolError::NotUtf8`], garbage or
//!   truncated JSON is [`ProtocolError::BadRequest`] — both answered with
//!   a typed `error` event, and the connection *survives*;
//! * a connection with no outstanding jobs that stays silent past the
//!   server's idle timeout is closed with [`ProtocolError::IdleTimeout`]
//!   so a stalled client can never pin a server slot.
//!
//! Nothing in this module panics on wire input, whatever the bytes.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read};

use oasis_fuzz::{
    bool_field, from_json, parse_flat_object, str_field, u64_field, JsonValue, Scenario,
};

/// Hard cap on one request line, bytes (newline included). A scenario
/// wire line is ~300 bytes; 64 KiB leaves two orders of magnitude of
/// headroom while bounding per-connection buffer growth.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A typed wire-protocol failure. Conversion to an `error` event line is
/// [`event_error`]; [`ProtocolError::code`] is the stable machine tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A request line exceeded the server's line cap without a newline.
    /// The connection is closed (the stream can no longer be re-framed).
    LineTooLong {
        /// The cap that was exceeded, bytes.
        limit: usize,
    },
    /// A request line held bytes that are not valid UTF-8.
    NotUtf8,
    /// A request line was UTF-8 but not a request: garbage, truncated or
    /// malformed JSON, an unknown keyword, or an invalid scenario.
    BadRequest(String),
    /// The connection sat idle (no requests, no jobs in flight) past the
    /// server's idle timeout and was closed to free the slot.
    IdleTimeout {
        /// The timeout that expired, seconds.
        secs: u64,
    },
}

impl ProtocolError {
    /// Stable machine-readable tag, the `"code"` field of `error` events.
    pub fn code(&self) -> &'static str {
        match self {
            ProtocolError::LineTooLong { .. } => "line-too-long",
            ProtocolError::NotUtf8 => "not-utf8",
            ProtocolError::BadRequest(_) => "bad-request",
            ProtocolError::IdleTimeout { .. } => "idle-timeout",
        }
    }

    /// Whether the server must close the connection after reporting this
    /// error (true only when the stream can no longer be framed).
    pub fn fatal_to_connection(&self) -> bool {
        matches!(
            self,
            ProtocolError::LineTooLong { .. } | ProtocolError::IdleTimeout { .. }
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::LineTooLong { limit } => {
                write!(f, "request line exceeds the {limit}-byte cap")
            }
            ProtocolError::NotUtf8 => write!(f, "request line is not valid UTF-8"),
            ProtocolError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ProtocolError::IdleTimeout { secs } => {
                write!(f, "connection idle for {secs}s with no jobs in flight")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with a `pong` event.
    Ping,
    /// Counter snapshot; answered with a `stats` event.
    Stats,
    /// A scenario job in `oasis-fuzz-scenario-v1` flat JSON.
    Submit(Box<Scenario>),
}

/// Parses one request line (newline already stripped).
///
/// Returns `Ok(None)` for a blank line (tolerated, ignored).
///
/// # Errors
///
/// [`ProtocolError::NotUtf8`] for non-UTF-8 bytes and
/// [`ProtocolError::BadRequest`] for anything that is neither a keyword
/// nor a parsable scenario object. Never panics.
pub fn parse_request(raw: &[u8]) -> Result<Option<Request>, ProtocolError> {
    let text = std::str::from_utf8(raw).map_err(|_| ProtocolError::NotUtf8)?;
    let text = text.trim();
    if text.is_empty() {
        return Ok(None);
    }
    match text {
        "ping" => Ok(Some(Request::Ping)),
        "stats" => Ok(Some(Request::Stats)),
        _ if text.starts_with('{') => match from_json(text) {
            Ok((scenario, _oracle)) => Ok(Some(Request::Submit(Box::new(scenario)))),
            Err(e) => Err(ProtocolError::BadRequest(format!("scenario: {e}"))),
        },
        other => Err(ProtocolError::BadRequest(format!(
            "unknown request '{}'",
            sanitize(&other.chars().take(32).collect::<String>())
        ))),
    }
}

/// What one [`LineReader::poll_line`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum LinePoll {
    /// A complete line (without its terminator).
    Line(Vec<u8>),
    /// The peer closed the stream (any unterminated tail was already
    /// returned as a final [`LinePoll::Line`]).
    Eof,
    /// No complete line yet: the read timed out, or a line is partial.
    Pending,
}

/// Incremental, capped line framing over any [`Read`].
///
/// A read that times out (`WouldBlock`/`TimedOut`, under an OS read
/// timeout) surfaces as [`LinePoll::Pending`], so a caller blocked here
/// can still act on a deadline. The internal buffer never grows past the
/// cap: a line that exceeds it without a newline is a typed
/// [`ProtocolError::LineTooLong`], after which the caller must drop the
/// connection.
#[derive(Debug)]
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    limit: usize,
    eof: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps `inner` with a `limit`-byte line cap.
    pub fn new(inner: R, limit: usize) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            limit,
            eof: false,
        }
    }

    fn take_line(&mut self) -> Option<Vec<u8>> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
        line.pop(); // the newline
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(line)
    }

    /// Advances the framer by at most one `read(2)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::LineTooLong`] once buffered bytes exceed the cap
    /// with no newline in sight.
    pub fn poll_line(&mut self) -> Result<LinePoll, ProtocolError> {
        if let Some(line) = self.take_line() {
            return Ok(LinePoll::Line(line));
        }
        if self.eof {
            if self.buf.is_empty() {
                return Ok(LinePoll::Eof);
            }
            // A truncated final line (peer died mid-write): surface it
            // once so the caller can reject it as a typed bad request.
            let tail = std::mem::take(&mut self.buf);
            return Ok(LinePoll::Line(tail));
        }
        let mut chunk = [0u8; 4096];
        match self.inner.read(&mut chunk) {
            Ok(0) => {
                self.eof = true;
                self.poll_line()
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                if let Some(line) = self.take_line() {
                    return Ok(LinePoll::Line(line));
                }
                if self.buf.len() > self.limit {
                    return Err(ProtocolError::LineTooLong { limit: self.limit });
                }
                Ok(LinePoll::Pending)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(LinePoll::Pending)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(LinePoll::Pending),
            Err(_) => {
                // Connection-level failure (reset, broken pipe): same
                // shape as a close — the conversation is over.
                self.eof = true;
                self.poll_line()
            }
        }
    }
}

/// Clamps a string to the protocol's string-value subset: printable ASCII
/// minus the two JSON-significant characters (`"`, `\`), everything else
/// replaced by a space. The flat parser on the other end accepts no
/// escapes, so this is what keeps arbitrary violation details and error
/// messages representable on the wire without ever breaking framing.
pub fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' => ' ',
            c if (' '..='~').contains(&c) => c,
            _ => ' ',
        })
        .collect()
}

/// Renders a digest the way every protocol line spells it (`0x%016x`).
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

// ---------------------------------------------------------------------
// Server-event builders: every line the server can write.
// ---------------------------------------------------------------------

/// `accepted`: the job was admitted (or coalesced onto an identical
/// queued job) and a `result` event will follow.
pub fn event_accepted(job: u64, digest: u64, coalesced: bool) -> String {
    format!(
        "{{\"serve\": \"accepted\", \"job\": {job}, \"digest\": \"{}\", \"coalesced\": {coalesced}}}",
        digest_hex(digest)
    )
}

/// `rejected`: admission control shed this submission; no result will
/// follow. `reason` is a stable tag (`overloaded`, `connection-inflight`,
/// `draining`, `busy`).
pub fn event_rejected(digest: u64, reason: &str, detail: &str) -> String {
    format!(
        "{{\"serve\": \"rejected\", \"digest\": \"{}\", \"reason\": \"{reason}\", \
         \"detail\": \"{}\"}}",
        digest_hex(digest),
        sanitize(detail)
    )
}

/// `dispatched`: an attempt for the job was handed to a pool worker.
pub fn event_dispatched(digest: u64, attempt: u32) -> String {
    format!(
        "{{\"serve\": \"dispatched\", \"digest\": \"{}\", \"attempt\": {attempt}}}",
        digest_hex(digest)
    )
}

/// `progress`: deterministic activity counts from the scenario's run
/// under the oasis policy, named after the engine's `TraceEvent` taxonomy
/// (far faults, migrations, duplications, shootdowns, evictions). Emitted
/// for freshly computed clean jobs only — cached results recompute
/// nothing, so they stream nothing.
pub fn event_progress(
    digest: u64,
    far_faults: u64,
    migrations: u64,
    duplications: u64,
    shootdowns: u64,
    evictions: u64,
) -> String {
    format!(
        "{{\"serve\": \"progress\", \"digest\": \"{}\", \"far_fault\": {far_faults}, \
         \"migration\": {migrations}, \"duplication\": {duplications}, \
         \"shootdown\": {shootdowns}, \"eviction\": {evictions}}}",
        digest_hex(digest)
    )
}

/// `result`: the job's final verdict. `outcome` is the journal taxonomy
/// (`completed` / `failed` / `quarantined`); `verdict` is the rendered
/// oracle verdict (`clean`, `violation <kind>: ...`, or the supervision
/// failure); `cached` marks a content-addressed cache hit (zero
/// recompute).
pub fn event_result(
    digest: u64,
    outcome: &str,
    verdict: &str,
    cached: bool,
    attempts: u32,
) -> String {
    format!(
        "{{\"serve\": \"result\", \"digest\": \"{}\", \"outcome\": \"{outcome}\", \
         \"verdict\": \"{}\", \"cached\": {cached}, \"attempts\": {attempts}}}",
        digest_hex(digest),
        sanitize(verdict)
    )
}

/// `error`: a typed protocol failure for the offending request line.
pub fn event_error(err: &ProtocolError) -> String {
    format!(
        "{{\"serve\": \"error\", \"code\": \"{}\", \"detail\": \"{}\"}}",
        err.code(),
        sanitize(&err.to_string())
    )
}

/// `pong`: the `ping` reply.
pub fn event_pong() -> String {
    "{\"serve\": \"pong\"}".to_string()
}

/// `stats`: a flat snapshot of the server's `serve.*` counters.
pub fn event_stats(counters: &[(String, u64)]) -> String {
    let mut out = String::from("{\"serve\": \"stats\"");
    for (key, value) in counters {
        out.push_str(&format!(", \"{}\": {value}", sanitize(key)));
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Client-side event parsing.
// ---------------------------------------------------------------------

/// One parsed server event, the client's view of the conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// Submission admitted; a result will follow.
    Accepted {
        /// Server-side job id.
        job: u64,
        /// Scenario content digest.
        digest: u64,
        /// Whether it coalesced onto an identical queued job.
        coalesced: bool,
    },
    /// Submission shed by admission control.
    Rejected {
        /// Scenario content digest.
        digest: u64,
        /// Stable rejection tag.
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// An attempt was handed to a worker.
    Dispatched {
        /// Scenario content digest.
        digest: u64,
        /// 1-based attempt number.
        attempt: u64,
    },
    /// Deterministic activity counts for a freshly computed job.
    Progress {
        /// Scenario content digest.
        digest: u64,
        /// `(event kind, count)` in wire order.
        counts: Vec<(String, u64)>,
    },
    /// Final verdict for a job.
    Result {
        /// Scenario content digest.
        digest: u64,
        /// `completed` / `failed` / `quarantined`.
        outcome: String,
        /// Rendered verdict string.
        verdict: String,
        /// Served from the content-addressed cache (zero recompute).
        cached: bool,
        /// Attempts consumed.
        attempts: u64,
    },
    /// `ping` reply.
    Pong,
    /// Counter snapshot.
    Stats(Vec<(String, u64)>),
    /// Typed protocol error for one of this client's lines.
    Error {
        /// Stable error code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

fn field_digest(fields: &BTreeMap<String, JsonValue>) -> Result<u64, String> {
    let s = str_field(fields, "digest")?;
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("digest '{s}' lacks its 0x prefix"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("digest '{s}': {e}"))
}

/// Parses one server event line.
///
/// # Errors
///
/// Returns a message naming the malformed field; the client treats any
/// unparsable event as a fatal protocol breach (servers never emit them).
pub fn parse_event(line: &str) -> Result<ServerEvent, String> {
    let fields = parse_flat_object(line)?;
    let kind = str_field(&fields, "serve")?;
    Ok(match kind.as_str() {
        "accepted" => ServerEvent::Accepted {
            job: u64_field(&fields, "job")?,
            digest: field_digest(&fields)?,
            coalesced: bool_field(&fields, "coalesced")?,
        },
        "rejected" => ServerEvent::Rejected {
            digest: field_digest(&fields)?,
            reason: str_field(&fields, "reason")?,
            detail: str_field(&fields, "detail")?,
        },
        "dispatched" => ServerEvent::Dispatched {
            digest: field_digest(&fields)?,
            attempt: u64_field(&fields, "attempt")?,
        },
        "progress" => {
            let digest = field_digest(&fields)?;
            let counts = fields
                .iter()
                .filter(|(k, _)| k.as_str() != "serve" && k.as_str() != "digest")
                .filter_map(|(k, v)| match v {
                    JsonValue::Num(n) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect();
            ServerEvent::Progress { digest, counts }
        }
        "result" => ServerEvent::Result {
            digest: field_digest(&fields)?,
            outcome: str_field(&fields, "outcome")?,
            verdict: str_field(&fields, "verdict")?,
            cached: bool_field(&fields, "cached")?,
            attempts: u64_field(&fields, "attempts")?,
        },
        "pong" => ServerEvent::Pong,
        "stats" => ServerEvent::Stats(
            fields
                .iter()
                .filter(|(k, _)| k.as_str() != "serve")
                .filter_map(|(k, v)| match v {
                    JsonValue::Num(n) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect(),
        ),
        "error" => ServerEvent::Error {
            code: str_field(&fields, "code")?,
            detail: str_field(&fields, "detail")?,
        },
        other => return Err(format!("unknown server event '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn keywords_and_scenarios_parse() {
        assert_eq!(parse_request(b"ping").unwrap(), Some(Request::Ping));
        assert_eq!(parse_request(b"  stats  ").unwrap(), Some(Request::Stats));
        assert_eq!(parse_request(b"").unwrap(), None);
        assert_eq!(parse_request(b"   ").unwrap(), None);
        let s = Scenario::generate(3);
        let line = oasis_fuzz::to_json_line(&s);
        match parse_request(line.as_bytes()).unwrap() {
            Some(Request::Submit(back)) => assert_eq!(*back, s),
            other => panic!("expected submit, got {other:?}"),
        }
    }

    /// The satellite's garbage-bytes contract: every malformed shape is a
    /// typed error, never a panic, and only framing damage is fatal to
    /// the connection.
    #[test]
    fn garbage_bytes_produce_typed_errors_never_panics() {
        // Non-UTF-8 bytes.
        let err = parse_request(&[0xff, 0xfe, 0x80, b'{']).unwrap_err();
        assert_eq!(err.code(), "not-utf8");
        assert!(!err.fatal_to_connection());

        // Garbage, truncated JSON, wrong schema, unknown keyword.
        for bad in [
            &b"complete garbage"[..],
            b"{\"schema\": \"oasis-fuzz-scenario-v1\"",
            b"{\"schema\": \"wrong\", \"seed\": 1}",
            b"{\"nested\": {\"x\": 1}}",
            b"quit",
            b"{",
            b"[1,2,3]",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code(), "bad-request", "{bad:?}");
            assert!(!err.fatal_to_connection(), "{bad:?}");
            // And the error renders without leaking unsanitized bytes.
            let line = event_error(&err);
            assert!(parse_event(&line).is_ok(), "{line}");
        }

        // A pile of random-ish binary through the framer: typed results
        // only, no panic.
        let noise: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
            .collect();
        let mut reader = LineReader::new(Cursor::new(noise), MAX_LINE_BYTES);
        loop {
            match reader.poll_line() {
                Ok(LinePoll::Line(l)) => {
                    let _ = parse_request(&l); // typed Ok or Err, never panic
                }
                Ok(LinePoll::Eof) => break,
                Ok(LinePoll::Pending) => {}
                Err(e) => {
                    assert_eq!(e.code(), "line-too-long");
                    break;
                }
            }
        }
    }

    #[test]
    fn line_reader_frames_caps_and_reports_truncation() {
        // Multiple lines in one read, CRLF tolerated.
        let mut r = LineReader::new(Cursor::new(b"ping\r\nstats\nrest".to_vec()), 64);
        assert_eq!(r.poll_line().unwrap(), LinePoll::Line(b"ping".to_vec()));
        assert_eq!(r.poll_line().unwrap(), LinePoll::Line(b"stats".to_vec()));
        // The unterminated tail surfaces once at EOF, then Eof.
        assert_eq!(r.poll_line().unwrap(), LinePoll::Line(b"rest".to_vec()));
        assert_eq!(r.poll_line().unwrap(), LinePoll::Eof);

        // An oversized line trips the cap with a typed error.
        let long = vec![b'x'; 200];
        let mut r = LineReader::new(Cursor::new(long), 64);
        let err = loop {
            match r.poll_line() {
                Ok(LinePoll::Pending) => {}
                Err(e) => break e,
                other => panic!("expected the cap to trip, got {other:?}"),
            }
        };
        assert_eq!(err, ProtocolError::LineTooLong { limit: 64 });
        assert!(err.fatal_to_connection());
    }

    #[test]
    fn events_round_trip_through_the_flat_parser() {
        let cases = [
            event_accepted(7, 0xdead_beef, false),
            event_rejected(1, "overloaded", "queue depth 8 at limit 8"),
            event_dispatched(2, 1),
            event_progress(3, 10, 4, 2, 1, 0),
            event_result(4, "completed", "clean", true, 1),
            event_error(&ProtocolError::NotUtf8),
            event_pong(),
            event_stats(&[("serve.cache_hits".to_string(), 5)]),
        ];
        for line in &cases {
            let ev = parse_event(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            match (line, &ev) {
                (
                    l,
                    ServerEvent::Result {
                        verdict, cached, ..
                    },
                ) if l.contains("result") => {
                    assert_eq!(verdict, "clean");
                    assert!(*cached);
                }
                (l, ServerEvent::Stats(counters)) if l.contains("stats") => {
                    assert_eq!(counters, &[("serve.cache_hits".to_string(), 5)]);
                }
                _ => {}
            }
        }
        // Verdicts with JSON-hostile characters are sanitized, not escaped.
        let hostile = event_result(9, "completed", "violation \"abort\": a\\b\nc", false, 2);
        match parse_event(&hostile).unwrap() {
            ServerEvent::Result { verdict, .. } => {
                assert!(!verdict.contains('"') && !verdict.contains('\\'));
                assert!(verdict.contains("violation"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_timeout_is_typed_and_fatal() {
        let err = ProtocolError::IdleTimeout { secs: 30 };
        assert_eq!(err.code(), "idle-timeout");
        assert!(err.fatal_to_connection());
        assert!(err.to_string().contains("30"));
    }
}
