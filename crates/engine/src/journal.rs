//! Crash-safe write-ahead sweep journal.
//!
//! A parallel sweep (fuzz, inject, verify-replay) is hours of work that a
//! single SIGKILL used to erase. The journal makes sweep progress durable:
//! the sweep runner ([`crate::sweep`]) writes one `Adjudicated` record per
//! final outcome, each append fsync'd, so a resumed sweep skips every job
//! that already has an adjudicated outcome and runs only unfinished work.
//!
//! The format reuses the checkpoint codec's discipline — magic + version
//! header, little-endian primitives, FNV-1a 64 integrity — but is
//! append-only, with a per-record checksum instead of one trailer:
//!
//! ```text
//! +----------+---------+----------------------------------------+
//! | magic 8B | ver u32 | records ...                            |
//! +----------+---------+----------------------------------------+
//!
//! record := kind:u8 | payload_len:u32 | payload | fnv1a:u64
//! ```
//!
//! The checksum covers `kind`, `payload_len`, and `payload`, so a torn
//! append (kill mid-write) or a flipped byte is detected exactly at the
//! record where it happened. Recovery ([`recover`]) salvages the longest
//! valid prefix: a corrupt or truncated tail becomes a typed
//! [`TailSalvage`] warning, never an abort — everything adjudicated before
//! the damage is still skipped on resume.
//!
//! Record kinds:
//!
//! * `Begin` (0) — first record; carries a caller-computed `tag` hashing
//!   the sweep parameters (seed, case count, ...) so a resume with
//!   different parameters is rejected with [`JournalError::TagMismatch`]
//!   instead of silently merging incompatible sweeps, plus a
//!   human-readable label.
//! * `Adjudicated` (2) — the supervisor's final outcome for a job, with an
//!   opaque caller payload (the fuzzer stores the encoded oracle verdict,
//!   the injector the outcome line, ...).
//! * `Enqueued` (4) — a job was *admitted* with an opaque payload
//!   describing the work itself (the sweep server stores the scenario wire
//!   line). Written before the job is queued, so a killed server can
//!   rebuild its pending queue on restart: pending = enqueued −
//!   adjudicated.
//!
//! Older versions held kinds this one no longer writes: a per-attempt
//! `Dispatched` record (kind 1, version 1) and a clean-drain `Interrupted`
//! trailer (kind 3, versions 1 and 2), neither read by any resume. This
//! version refuses both whole with [`JournalError::UnsupportedVersion`]: a
//! salvage scan would stop at their first such record, and a resume would
//! then cut every later record from the file — a resumed version 2 file
//! holds its trailers mid-stream, ahead of later admissions.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{fnv1a, ByteReader, ByteWriter};
use crate::failpoint;
use crate::fsio::atomic_write;
use crate::pool::JobOutcome;

/// File magic: identifies an OASIS sweep journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"OASISJNL";

/// Current journal format version; readers reject other versions with
/// [`JournalError::UnsupportedVersion`].
pub const JOURNAL_VERSION: u32 = 3;

const KIND_BEGIN: u8 = 0;
const KIND_ADJUDICATED: u8 = 2;
const KIND_ENQUEUED: u8 = 4;

/// kind (1) + payload_len (4).
const RECORD_HEADER_LEN: usize = 5;
/// magic (8) + version (4).
const FILE_HEADER_LEN: usize = 12;

/// A typed journal failure. Tail corruption is *not* here — it is
/// reported as a [`TailSalvage`] inside a successful [`Recovery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The journal file exists but holds zero bytes (killed before the
    /// header landed, or never a journal at all).
    Empty,
    /// The file does not start with the OASIS journal magic.
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The file ended inside the fixed header.
    TruncatedHeader {
        /// Bytes a journal header needs.
        needed: usize,
        /// Bytes actually present.
        available: usize,
    },
    /// The first record is not a valid `Begin`, so the sweep parameters
    /// cannot be verified and nothing can be safely resumed.
    MissingBegin,
    /// The journal's `Begin` tag does not match the sweep being resumed —
    /// the journal belongs to a sweep with different parameters.
    TagMismatch {
        /// Tag the resuming sweep computed from its parameters.
        expected: u64,
        /// Tag stored in the journal.
        found: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o failed: {e}"),
            JournalError::Empty => write!(f, "journal file is empty"),
            JournalError::BadMagic => write!(f, "not an OASIS sweep journal (bad magic)"),
            JournalError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported journal format version {found} (this build reads {expected})"
            ),
            JournalError::TruncatedHeader { needed, available } => write!(
                f,
                "journal truncated inside the header: needed {needed} bytes, {available} present"
            ),
            JournalError::MissingBegin => {
                write!(f, "journal has no valid Begin record; nothing to resume")
            }
            JournalError::TagMismatch { expected, found } => write!(
                f,
                "journal belongs to a different sweep: resume computed tag {expected:#018x}, \
                 journal says {found:#018x} (same seed/cases/flags required)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// The supervisor's final verdict for a job, as stored in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjudicatedOutcome {
    /// The job completed and its payload encodes the result.
    Completed,
    /// Every attempt returned a typed failure.
    Failed,
    /// The final attempt crashed or wedged its worker.
    Quarantined,
}

impl AdjudicatedOutcome {
    /// The journal verdict for a pool outcome.
    pub fn of<T>(outcome: &JobOutcome<T>) -> Self {
        match outcome {
            JobOutcome::Completed(_) => AdjudicatedOutcome::Completed,
            JobOutcome::Failed(_) => AdjudicatedOutcome::Failed,
            JobOutcome::Quarantined(_) => AdjudicatedOutcome::Quarantined,
        }
    }

    /// The byte this verdict is stored as, in journal records and in the
    /// serve cache's entries.
    pub fn as_u8(self) -> u8 {
        match self {
            AdjudicatedOutcome::Completed => 0,
            AdjudicatedOutcome::Failed => 1,
            AdjudicatedOutcome::Quarantined => 2,
        }
    }

    /// The verdict [`AdjudicatedOutcome::as_u8`] stored as `b`, if any.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(AdjudicatedOutcome::Completed),
            1 => Some(AdjudicatedOutcome::Failed),
            2 => Some(AdjudicatedOutcome::Quarantined),
            _ => None,
        }
    }

    /// Stable short tag (`completed` / `failed` / `quarantined`).
    pub fn kind(&self) -> &'static str {
        match self {
            AdjudicatedOutcome::Completed => "completed",
            AdjudicatedOutcome::Failed => "failed",
            AdjudicatedOutcome::Quarantined => "quarantined",
        }
    }
}

/// A job's journaled final state, keyed off the `Adjudicated` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjudication {
    /// Final verdict.
    pub outcome: AdjudicatedOutcome,
    /// Attempts consumed.
    pub attempts: u32,
    /// Opaque caller payload (the encoded result).
    pub payload: Vec<u8>,
}

/// Typed warning describing a corrupt or truncated journal tail that
/// recovery dropped while salvaging the longest valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailSalvage {
    /// Valid records kept.
    pub records_kept: usize,
    /// File offset where the valid prefix ends.
    pub valid_bytes: u64,
    /// Bytes dropped after the valid prefix.
    pub dropped_bytes: u64,
    /// What stopped the scan (truncation, checksum mismatch, bad tag...).
    pub reason: String,
}

impl fmt::Display for TailSalvage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "salvaged {} journal record(s) ({} bytes); dropped {} trailing byte(s): {}",
            self.records_kept, self.valid_bytes, self.dropped_bytes, self.reason
        )
    }
}

/// Everything recovery learned from a journal.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Sweep parameter tag from the `Begin` record.
    pub tag: u64,
    /// Final outcome per job id; the *first* `Adjudicated` record wins so
    /// replayed or duplicated appends can never rewrite history.
    pub adjudicated: BTreeMap<u64, Adjudication>,
    /// Job ids that appeared in more than one `Adjudicated` record
    /// (first kept, rest ignored with this warning).
    pub duplicate_adjudications: Vec<u64>,
    /// Admitted-job payload per job id from `Enqueued` records; the
    /// *first* record per id wins, mirroring the adjudication rule.
    /// Empty for sweeps that never persist their queue.
    pub enqueued: BTreeMap<u64, Vec<u8>>,
    /// Job ids that appeared in more than one `Enqueued` record (first
    /// kept, rest ignored with this warning).
    pub duplicate_enqueues: Vec<u64>,
    /// Present when a corrupt/truncated tail was dropped.
    pub salvage: Option<TailSalvage>,
    /// File offset where the valid prefix ends (header included).
    pub valid_bytes: u64,
}

impl Recovery {
    /// Human-readable warnings accumulated during recovery (tail salvage,
    /// duplicate adjudications). Empty for a pristine journal.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(s) = &self.salvage {
            out.push(format!("journal tail salvaged: {s}"));
        }
        if !self.duplicate_adjudications.is_empty() {
            out.push(format!(
                "journal holds duplicate Adjudicated records for job(s) {:?}; first kept",
                self.duplicate_adjudications
            ));
        }
        if !self.duplicate_enqueues.is_empty() {
            out.push(format!(
                "journal holds duplicate Enqueued records for job(s) {:?}; first kept",
                self.duplicate_enqueues
            ));
        }
        out
    }

    /// The durable queue a restarted server must finish: every `Enqueued`
    /// job without an `Adjudicated` verdict, in job-id order.
    pub fn pending(&self) -> BTreeMap<u64, &[u8]> {
        self.enqueued
            .iter()
            .filter(|(id, _)| !self.adjudicated.contains_key(id))
            .map(|(&id, payload)| (id, payload.as_slice()))
            .collect()
    }
}

fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("journal record payload exceeds 4 GiB");
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + payload.len() + 8);
    buf.push(kind);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// One decoded record.
enum Record {
    Begin { tag: u64 },
    Adjudicated(u64, Adjudication),
    Enqueued(u64, Vec<u8>),
}

fn decode_payload(kind: u8, payload: &[u8]) -> Option<Record> {
    let mut r = ByteReader::new("journal-record", payload);
    Some(match kind {
        KIND_BEGIN => {
            // The label is for people reading the file; recovery only
            // checks that it is there.
            let (tag, _label) = (r.u64().ok()?, r.str().ok()?);
            if !r.is_empty() {
                return None; // trailing garbage inside a checksummed record
            }
            Record::Begin { tag }
        }
        KIND_ADJUDICATED => {
            let job_id = r.u64().ok()?;
            let outcome = AdjudicatedOutcome::from_u8(r.u8().ok()?)?;
            let attempts = r.u32().ok()?;
            let payload = r.rest().to_vec();
            Record::Adjudicated(
                job_id,
                Adjudication {
                    outcome,
                    attempts,
                    payload,
                },
            )
        }
        KIND_ENQUEUED => Record::Enqueued(r.u64().ok()?, r.rest().to_vec()),
        _ => return None,
    })
}

/// Files `value` under `id` unless an earlier record holds it, so
/// replayed or duplicated appends can never rewrite history; a repeated id
/// is noted once in `duplicates`.
fn keep_first<V>(map: &mut BTreeMap<u64, V>, duplicates: &mut Vec<u64>, id: u64, value: V) {
    match map.entry(id) {
        Entry::Vacant(slot) => {
            slot.insert(value);
        }
        Entry::Occupied(_) if !duplicates.contains(&id) => duplicates.push(id),
        Entry::Occupied(_) => {}
    }
}

/// Replays the journal at `path`, salvaging the longest valid prefix.
///
/// Fails only when nothing at all is usable (missing/empty file, foreign
/// magic, unreadable version, no `Begin`). Tail damage — truncation from a
/// kill mid-append, a flipped byte, an unknown record kind — ends the scan
/// at the last intact record and is reported as [`Recovery::salvage`].
pub fn recover(path: &Path) -> Result<Recovery, JournalError> {
    let bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(JournalError::Empty);
    }
    if bytes.len() < FILE_HEADER_LEN {
        return Err(JournalError::TruncatedHeader {
            needed: FILE_HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion {
            found: version,
            expected: JOURNAL_VERSION,
        });
    }

    let mut begin: Option<u64> = None;
    let mut records = 0usize;
    let mut adjudicated: BTreeMap<u64, Adjudication> = BTreeMap::new();
    let mut duplicate_adjudications: Vec<u64> = Vec::new();
    let mut enqueued: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut duplicate_enqueues: Vec<u64> = Vec::new();
    let mut pos = FILE_HEADER_LEN;
    let mut stop_reason: Option<String> = None;
    while pos < bytes.len() {
        let avail = bytes.len() - pos;
        if avail < RECORD_HEADER_LEN {
            stop_reason = Some(format!(
                "truncated record header at offset {pos}: needed {RECORD_HEADER_LEN} bytes, \
                 {avail} present"
            ));
            break;
        }
        let kind = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 length bytes"))
            as usize;
        let total = RECORD_HEADER_LEN + len + 8;
        if avail < total {
            stop_reason = Some(format!(
                "truncated record at offset {pos}: needed {total} bytes, {avail} present"
            ));
            break;
        }
        let body = &bytes[pos..pos + RECORD_HEADER_LEN + len];
        let stored = u64::from_le_bytes(
            bytes[pos + total - 8..pos + total]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = fnv1a(body);
        if stored != computed {
            stop_reason = Some(format!(
                "checksum mismatch in record {records} at offset {pos}: computed \
                 {computed:#018x}, stored {stored:#018x}"
            ));
            break;
        }
        let Some(rec) = decode_payload(kind, &body[RECORD_HEADER_LEN..]) else {
            stop_reason = Some(format!(
                "unrecognized or malformed record kind {kind} at offset {pos}"
            ));
            break;
        };
        match rec {
            Record::Begin { tag } if records == 0 => begin = Some(tag),
            // A Begin anywhere but first means two sweeps were interleaved
            // into one file; trust only the first sweep's prefix.
            Record::Begin { .. } => {
                stop_reason = Some(format!(
                    "second Begin record at offset {pos}: journal was reused for another sweep"
                ));
                break;
            }
            _ if records == 0 => break, // no Begin to verify the sweep by
            Record::Adjudicated(id, adj) => {
                keep_first(&mut adjudicated, &mut duplicate_adjudications, id, adj);
            }
            Record::Enqueued(id, payload) => {
                keep_first(&mut enqueued, &mut duplicate_enqueues, id, payload);
            }
        }
        records += 1;
        pos += total;
    }

    let Some(tag) = begin else {
        return Err(JournalError::MissingBegin);
    };
    let salvage = stop_reason.map(|reason| TailSalvage {
        records_kept: records,
        valid_bytes: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
        reason,
    });
    Ok(Recovery {
        tag,
        adjudicated,
        duplicate_adjudications,
        enqueued,
        duplicate_enqueues,
        salvage,
        valid_bytes: pos as u64,
    })
}

/// Appends fsync'd records to a sweep journal.
///
/// Every append is `write_all` + `sync_data`, so a record either made it
/// to disk whole or the recovery scan drops it as a torn tail — there is
/// no in-between the reader can misinterpret.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Starts a fresh journal at `path` for a sweep identified by `tag`,
    /// replacing any previous file. The header and `Begin` record land
    /// atomically (staged write + rename), so the file on disk is never a
    /// torn header: it either does not exist or opens cleanly.
    pub fn create(path: &Path, tag: u64, label: &str) -> Result<JournalWriter, JournalError> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&JOURNAL_MAGIC);
        buf.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        let mut payload = ByteWriter::new();
        payload.u64(tag);
        payload.str(label);
        buf.extend_from_slice(&encode_record(KIND_BEGIN, payload.as_slice()));
        failpoint::on_io("journal.begin", path)?;
        atomic_write(path, &buf)?;
        let file = OpenOptions::new().append(true).open(path)?;
        file.sync_data()?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Reopens the journal at `path` for a resumed sweep: recovers it,
    /// verifies `expected_tag`, truncates any salvaged tail so appends
    /// start at a clean record boundary, and returns the recovery
    /// alongside the writer.
    pub fn resume(
        path: &Path,
        expected_tag: u64,
    ) -> Result<(JournalWriter, Recovery), JournalError> {
        let recovery = recover(path)?;
        if recovery.tag != expected_tag {
            return Err(JournalError::TagMismatch {
                expected: expected_tag,
                found: recovery.tag,
            });
        }
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(recovery.valid_bytes)?;
        file.sync_data()?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((
            JournalWriter {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), JournalError> {
        let rec = encode_record(kind, payload);
        match failpoint::on_write("journal.append.write", &self.path, rec.len()) {
            failpoint::WriteFault::Clear => {}
            failpoint::WriteFault::Fail(e) => return Err(e.into()),
            failpoint::WriteFault::Torn { cut, error } => {
                // Persist the truncated record for real — this is exactly
                // the torn tail the recovery scan must salvage around.
                self.file.write_all(&rec[..cut])?;
                let _ = self.file.sync_data();
                return Err(error.into());
            }
        }
        self.file.write_all(&rec)?;
        failpoint::on_io("journal.append.fsync", &self.path)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Journals a job's final outcome with an opaque caller payload.
    pub fn adjudicated(
        &mut self,
        job_id: u64,
        outcome: AdjudicatedOutcome,
        attempts: u32,
        payload: &[u8],
    ) -> Result<(), JournalError> {
        let mut w = ByteWriter::new();
        w.u64(job_id);
        w.u8(outcome.as_u8());
        w.u32(attempts);
        w.bytes(payload);
        self.append(KIND_ADJUDICATED, w.as_slice())
    }

    /// Journals a job admission with an opaque payload describing the
    /// work, *before* the job enters the in-memory queue — the durable
    /// half of the serve subsystem's admission control.
    pub fn enqueued(&mut self, job_id: u64, payload: &[u8]) -> Result<(), JournalError> {
        let mut w = ByteWriter::new();
        w.u64(job_id);
        w.bytes(payload);
        self.append(KIND_ENQUEUED, w.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_the_wire_byte() {
        for o in [
            AdjudicatedOutcome::Completed,
            AdjudicatedOutcome::Failed,
            AdjudicatedOutcome::Quarantined,
        ] {
            assert_eq!(AdjudicatedOutcome::from_u8(o.as_u8()), Some(o));
        }
        assert_eq!(AdjudicatedOutcome::from_u8(3), None);
    }

    #[test]
    fn errors_render_their_context() {
        let e = JournalError::TagMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("different sweep"));
        assert!(JournalError::Empty.to_string().contains("empty"));
        let e = JournalError::UnsupportedVersion {
            found: 9,
            expected: JOURNAL_VERSION,
        };
        assert!(e.to_string().contains("version 9"));
    }

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oasis-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn enqueued_records_round_trip_and_pending_subtracts_adjudicated() {
        let path = temp_journal("enqueued-roundtrip.jnl");
        let mut w = JournalWriter::create(&path, 7, "serve test").expect("create");
        w.enqueued(0, b"job zero").expect("enq 0");
        w.enqueued(1, b"job one").expect("enq 1");
        w.enqueued(2, b"").expect("enq 2 (empty payload)");
        w.adjudicated(0, AdjudicatedOutcome::Completed, 1, b"clean")
            .expect("adj 0");
        drop(w);

        let rec = recover(&path).expect("recover");
        assert!(rec.salvage.is_none(), "{:?}", rec.salvage);
        assert_eq!(rec.enqueued.len(), 3);
        assert_eq!(rec.enqueued[&0], b"job zero");
        assert_eq!(rec.enqueued[&2], b"");
        let pending = rec.pending();
        assert_eq!(
            pending.keys().copied().collect::<Vec<_>>(),
            vec![1, 2],
            "adjudicated job 0 must not be pending"
        );
        assert_eq!(pending[&1], b"job one");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_enqueues_keep_the_first_and_warn() {
        let path = temp_journal("enqueued-dup.jnl");
        let mut w = JournalWriter::create(&path, 7, "serve test").expect("create");
        w.enqueued(5, b"original").expect("enq");
        w.enqueued(5, b"replayed").expect("enq dup");
        drop(w);
        let rec = recover(&path).expect("recover");
        assert_eq!(rec.enqueued[&5], b"original", "first enqueue wins");
        assert_eq!(rec.duplicate_enqueues, vec![5]);
        assert!(rec
            .warnings()
            .iter()
            .any(|w| w.contains("duplicate Enqueued")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_enqueued_tail_is_salvaged_not_fatal() {
        let path = temp_journal("enqueued-torn.jnl");
        let mut w = JournalWriter::create(&path, 7, "serve test").expect("create");
        w.enqueued(0, b"whole").expect("enq");
        w.enqueued(1, b"about to tear").expect("enq");
        drop(w);
        // Tear the last record mid-payload, as a SIGKILL mid-append would.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 6]).expect("tear");
        let rec = recover(&path).expect("salvage");
        let salvage = rec.salvage.clone().expect("tail salvage reported");
        assert!(salvage.reason.contains("truncated"), "{}", salvage.reason);
        assert_eq!(rec.enqueued.len(), 1, "only the whole record survives");
        assert_eq!(rec.pending().keys().copied().collect::<Vec<_>>(), vec![0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn outcome_of_maps_pool_outcomes() {
        use crate::pool::JobError;
        assert_eq!(
            AdjudicatedOutcome::of(&JobOutcome::Completed(1u64)),
            AdjudicatedOutcome::Completed
        );
        assert_eq!(
            AdjudicatedOutcome::of::<u64>(&JobOutcome::Failed(JobError::Failed("x".into()))),
            AdjudicatedOutcome::Failed
        );
        assert_eq!(
            AdjudicatedOutcome::of::<u64>(&JobOutcome::Quarantined(JobError::Panicked("x".into()))),
            AdjudicatedOutcome::Quarantined
        );
    }
}
