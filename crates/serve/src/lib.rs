//! Crash-durable sweep service: a zero-dependency TCP job server for
//! scenario sweeps, with admission control, a content-addressed result
//! cache, and graceful drain.
//!
//! The server ([`run_serve`]) accepts `oasis-fuzz-scenario-v1` jobs over
//! newline-delimited flat JSON on a localhost socket, schedules them on
//! the engine's supervised worker pool (per-job deadlines, bounded
//! retries, panic quarantine), and makes every admission and verdict
//! durable through the engine's write-ahead sweep journal *before* it
//! becomes visible — a SIGKILL at any instant loses at most replies,
//! never admitted work, and a restart resumes with results byte-identical
//! to an uninterrupted run.
//!
//! The three robustness pillars, each its own module:
//!
//! * [`protocol`] — hardened wire framing: capped request lines, typed
//!   errors for garbage/truncated/non-UTF-8 input, idle timeouts; a
//!   malformed client can never panic the server or wedge a slot.
//! * [`cache`] — content-addressed results keyed by scenario digest,
//!   checksum-verified on read; duplicates are served with zero recompute
//!   and a corrupt entry costs a recompute, never correctness.
//! * [`server`] — bounded admission (queue depth, per-connection
//!   in-flight caps, connection limits) with typed overload rejections;
//!   the server sheds load, it does not grow without bound.
//!
//! [`client`] is the matching `submit` side: batch submission with
//! deterministic stdout, duplicate coalescing, and streamed progress.
//!
//! [`run_serve`]: server::run_serve

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheRead, CachedResult, ResultCache};
pub use client::{submit_batch, submit_batch_with_retry, SubmitError, SubmitOutcome};
pub use protocol::{
    parse_event, parse_request, LinePoll, LineReader, ProtocolError, Request, ServerEvent,
    MAX_LINE_BYTES,
};
pub use server::{queue_tag, run_serve, ServeConfig, ServeSummary, CACHE_DIR, JOURNAL_FILE};
