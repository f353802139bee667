//! The sweep-server wire protocol: newline-delimited, flat-JSON, hardened.
//!
//! One TCP connection carries a sequence of *request lines* from the
//! client and *event lines* from the server, each a single `\n`-terminated
//! line. Requests are either a bare keyword (`ping`, `stats`) or a
//! scenario job payload — the exact `oasis-fuzz-scenario-v1` flat JSON
//! object the repro corpus already uses, parsed by the same
//! [`oasis_engine::json::parse_flat_object`] grammar (scalar fields only,
//! no nesting, no escapes). Server events are [`ServerEvent`]s, written by
//! [`ServerEvent::line`] as flat JSON objects tagged by a `"serve"` field
//! (`accepted`, `rejected`, `dispatched`, `progress`, `result`, `pong`,
//! `stats`, `error`) and read back by [`parse_event`].
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

use std::fmt;
use std::io::{self, Read};

use oasis_engine::json::{
    bool_field, hex_field, parse_flat_object, str_field, u64_field, JsonValue, Writer,
};
use oasis_fuzz::{from_json, Scenario};

/// Hard cap on one request line, bytes (newline included). A scenario
/// wire line is ~300 bytes; 64 KiB leaves two orders of magnitude of
/// headroom while bounding per-connection buffer growth.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A typed wire-protocol failure. Conversion to an `error` event is
/// `ServerEvent::from`; [`ProtocolError::code`] is the stable machine tag.
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

/// Spells a digest the way protocol lines do ([`Writer::hex`], unquoted).
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// One server event: what the server writes and the client reads.
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
    /// Submission shed by admission control; no result will follow.
    Rejected {
        /// Scenario content digest.
        digest: u64,
        /// Stable rejection tag (`overloaded`, `connection-inflight`,
        /// `draining`, `unavailable`, `busy`).
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
    /// Deterministic activity counts from the scenario's run under the
    /// oasis policy, named after the engine's `TraceEvent` taxonomy (far
    /// faults, migrations, duplications, shootdowns, evictions). Sent for
    /// freshly computed clean jobs only: a cached result recomputes
    /// nothing, so it streams nothing.
    Progress {
        /// Scenario content digest.
        digest: u64,
        /// `(event kind, count)` pairs, written in this order;
        /// [`parse_event`] returns them in key order.
        counts: Vec<(String, u64)>,
    },
    /// Final verdict for a job.
    Result {
        /// Scenario content digest.
        digest: u64,
        /// `completed` / `failed` / `quarantined`, the journal taxonomy.
        outcome: String,
        /// Rendered oracle verdict (`clean`, `violation <kind>: ...`) or
        /// the supervision failure.
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

impl ServerEvent {
    /// The event's wire line, without its newline. Every string goes
    /// through [`sanitize`] first: the reader on the other end accepts no
    /// escapes.
    pub fn line(&self) -> String {
        let w = Writer::line();
        match self {
            ServerEvent::Accepted {
                job,
                digest,
                coalesced,
            } => w
                .str("serve", "accepted")
                .u64("job", *job)
                .hex("digest", *digest)
                .bool("coalesced", *coalesced),
            ServerEvent::Rejected {
                digest,
                reason,
                detail,
            } => w
                .str("serve", "rejected")
                .hex("digest", *digest)
                .str("reason", &sanitize(reason))
                .str("detail", &sanitize(detail)),
            ServerEvent::Dispatched { digest, attempt } => w
                .str("serve", "dispatched")
                .hex("digest", *digest)
                .u64("attempt", *attempt),
            ServerEvent::Progress { digest, counts } => {
                let w = w.str("serve", "progress").hex("digest", *digest);
                counts
                    .iter()
                    .fold(w, |w, (kind, n)| w.u64(&sanitize(kind), *n))
            }
            ServerEvent::Result {
                digest,
                outcome,
                verdict,
                cached,
                attempts,
            } => w
                .str("serve", "result")
                .hex("digest", *digest)
                .str("outcome", &sanitize(outcome))
                .str("verdict", &sanitize(verdict))
                .bool("cached", *cached)
                .u64("attempts", *attempts),
            ServerEvent::Pong => w.str("serve", "pong"),
            ServerEvent::Stats(counters) => {
                let w = w.str("serve", "stats");
                counters
                    .iter()
                    .fold(w, |w, (key, n)| w.u64(&sanitize(key), *n))
            }
            ServerEvent::Error { code, detail } => w
                .str("serve", "error")
                .str("code", &sanitize(code))
                .str("detail", &sanitize(detail)),
        }
        .finish()
    }
}

impl From<&ProtocolError> for ServerEvent {
    fn from(err: &ProtocolError) -> Self {
        ServerEvent::Error {
            code: err.code().to_string(),
            detail: err.to_string(),
        }
    }
}

/// Parses one server event line.
///
/// # Errors
///
/// Returns a message naming the malformed field; the client treats any
/// unparsable event as a fatal protocol breach (servers never emit them).
pub fn parse_event(line: &str) -> Result<ServerEvent, String> {
    let fields = parse_flat_object(line)?;
    // Progress and stats carry their counts as the object's integer
    // fields; the tag and the digest are strings.
    let counts = || {
        let numbers = fields.iter().filter_map(|(k, v)| match v {
            JsonValue::Num(n) => Some((k.clone(), *n)),
            _ => None,
        });
        numbers.collect()
    };
    let kind = str_field(&fields, "serve")?;
    Ok(match kind.as_str() {
        "accepted" => ServerEvent::Accepted {
            job: u64_field(&fields, "job")?,
            digest: hex_field(&fields, "digest")?,
            coalesced: bool_field(&fields, "coalesced")?,
        },
        "rejected" => ServerEvent::Rejected {
            digest: hex_field(&fields, "digest")?,
            reason: str_field(&fields, "reason")?,
            detail: str_field(&fields, "detail")?,
        },
        "dispatched" => ServerEvent::Dispatched {
            digest: hex_field(&fields, "digest")?,
            attempt: u64_field(&fields, "attempt")?,
        },
        "progress" => ServerEvent::Progress {
            digest: hex_field(&fields, "digest")?,
            counts: counts(),
        },
        "result" => ServerEvent::Result {
            digest: hex_field(&fields, "digest")?,
            outcome: str_field(&fields, "outcome")?,
            verdict: str_field(&fields, "verdict")?,
            cached: bool_field(&fields, "cached")?,
            attempts: u64_field(&fields, "attempts")?,
        },
        "pong" => ServerEvent::Pong,
        "stats" => ServerEvent::Stats(counts()),
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
            let line = ServerEvent::from(&err).line();
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
        let counts = [
            "far_fault",
            "migration",
            "duplication",
            "shootdown",
            "eviction",
        ]
        .into_iter()
        .zip([10, 4, 2, 1, 0])
        .map(|(kind, n)| (kind.to_string(), n))
        .collect();
        let events = [
            ServerEvent::Accepted {
                job: 7,
                digest: 0xdead_beef,
                coalesced: false,
            },
            ServerEvent::Rejected {
                digest: 1,
                reason: "overloaded".to_string(),
                detail: "queue depth 8 at limit 8".to_string(),
            },
            ServerEvent::Dispatched {
                digest: 2,
                attempt: 1,
            },
            ServerEvent::Progress { digest: 3, counts },
            ServerEvent::Result {
                digest: u64::MAX,
                outcome: "completed".to_string(),
                verdict: "clean".to_string(),
                cached: true,
                attempts: 1,
            },
            ServerEvent::from(&ProtocolError::NotUtf8),
            ServerEvent::Pong,
            ServerEvent::Stats(vec![("serve.cache_hits".to_string(), 5)]),
        ];
        for event in events {
            let line = event.line();
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            // The reader hands progress counts back in key order.
            let want = match event {
                ServerEvent::Progress { digest, mut counts } => {
                    counts.sort();
                    ServerEvent::Progress { digest, counts }
                }
                event => event,
            };
            assert_eq!(back, want, "{line}");
        }
        // Verdicts with JSON-hostile characters are sanitized, not escaped.
        let hostile = ServerEvent::Result {
            digest: 9,
            outcome: "completed".to_string(),
            verdict: "violation \"abort\": a\\b\nc".to_string(),
            cached: false,
            attempts: 2,
        };
        match parse_event(&hostile.line()).unwrap() {
            ServerEvent::Result { verdict, .. } => {
                assert_eq!(verdict, "violation  abort : a b c");
            }
            other => panic!("{other:?}"),
        }
    }

    /// One literal line per event kind: the bytes every client reads.
    #[test]
    fn every_event_line_is_pinned() {
        let digest = 0x0123_4567_89ab_cdef;
        let cases = [
            (
                ServerEvent::Accepted {
                    job: 7,
                    digest,
                    coalesced: false,
                },
                r#"{"serve": "accepted", "job": 7, "digest": "0x0123456789abcdef", "coalesced": false}"#,
            ),
            (
                ServerEvent::Rejected {
                    digest,
                    reason: "overloaded".to_string(),
                    detail: "queue \"full\"\nretry".to_string(),
                },
                concat!(
                    r#"{"serve": "rejected", "digest": "0x0123456789abcdef", "#,
                    r#""reason": "overloaded", "detail": "queue  full  retry"}"#
                ),
            ),
            (
                ServerEvent::Dispatched { digest, attempt: 2 },
                r#"{"serve": "dispatched", "digest": "0x0123456789abcdef", "attempt": 2}"#,
            ),
            (
                ServerEvent::Progress {
                    digest,
                    counts: [
                        "far_fault",
                        "migration",
                        "duplication",
                        "shootdown",
                        "eviction",
                    ]
                    .into_iter()
                    .zip([10, 4, 2, 1, 0])
                    .map(|(kind, n)| (kind.to_string(), n))
                    .collect(),
                },
                concat!(
                    r#"{"serve": "progress", "digest": "0x0123456789abcdef", "far_fault": 10, "#,
                    r#""migration": 4, "duplication": 2, "shootdown": 1, "eviction": 0}"#
                ),
            ),
            (
                ServerEvent::Result {
                    digest,
                    outcome: "completed".to_string(),
                    verdict: "clean".to_string(),
                    cached: true,
                    attempts: 1,
                },
                concat!(
                    r#"{"serve": "result", "digest": "0x0123456789abcdef", "#,
                    r#""outcome": "completed", "verdict": "clean", "cached": true, "attempts": 1}"#
                ),
            ),
            (
                ServerEvent::from(&ProtocolError::BadRequest("scenario: \"x\"".to_string())),
                r#"{"serve": "error", "code": "bad-request", "detail": "bad request: scenario:  x "}"#,
            ),
            (ServerEvent::Pong, r#"{"serve": "pong"}"#),
            (
                ServerEvent::Stats(vec![
                    ("serve.cache_hits".to_string(), 5),
                    ("serve.connections".to_string(), 2),
                ]),
                r#"{"serve": "stats", "serve.cache_hits": 5, "serve.connections": 2}"#,
            ),
        ];
        for (event, want) in cases {
            assert_eq!(event.line(), want);
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
