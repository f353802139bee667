//! Crash-shaped journal recovery: every way a SIGKILL (or a bad disk) can
//! mangle a write-ahead sweep journal must map to either the longest valid
//! prefix plus a typed [`TailSalvage`] warning, or a typed [`JournalError`]
//! — never a panic, never silently wrong history.

use std::path::PathBuf;

use oasis_engine::journal::{recover, JournalError, JournalWriter, Recovery, TailSalvage};
use oasis_engine::AdjudicatedOutcome;

/// Fresh per-test path under the OS temp dir.
fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-journal-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Writes a healthy journal: Begin + 3 enqueue/adjudicate pairs.
fn write_reference(path: &std::path::Path, tag: u64) -> Vec<u8> {
    let mut w = JournalWriter::create(path, tag, "test sweep").expect("create");
    for id in 0..3u64 {
        w.enqueued(id, &[id as u8; 3]).expect("enqueue");
        w.adjudicated(id, AdjudicatedOutcome::Completed, 1, &[id as u8; 4])
            .expect("adjudicate");
    }
    std::fs::read(path).expect("journal bytes")
}

/// Records `rec` kept: `Begin` plus every admission and adjudication.
fn records(rec: &Recovery) -> usize {
    1 + rec.enqueued.len() + rec.adjudicated.len()
}

/// `rec` kept a prefix of [`write_reference`]'s records, which alternate
/// admission and adjudication per id: it admits ids `0..k` and
/// adjudicates `0..k` or `0..k-1`, with no gap where a record was skipped.
fn assert_prefix(rec: &Recovery, what: &str) {
    let (admitted, settled) = (rec.enqueued.len() as u64, rec.adjudicated.len() as u64);
    assert!(
        admitted == settled || admitted == settled + 1,
        "{what} kept a non-prefix"
    );
    assert!(
        rec.enqueued.keys().copied().eq(0..admitted),
        "{what}: admissions are not ids 0..{admitted}"
    );
    assert!(
        rec.adjudicated.keys().copied().eq(0..settled),
        "{what}: adjudications are not ids 0..{settled}"
    );
}

/// Every record `prefix` kept is the one `full` holds under its id.
fn assert_faithful(prefix: &Recovery, full: &Recovery, what: &str) {
    for (id, adj) in &prefix.adjudicated {
        assert_eq!(
            full.adjudicated.get(id),
            Some(adj),
            "{what}: adjudication {id}"
        );
    }
    for (id, payload) in &prefix.enqueued {
        assert_eq!(
            full.enqueued.get(id),
            Some(payload),
            "{what}: admission {id}"
        );
    }
}

#[test]
fn a_pristine_journal_recovers_everything_with_no_warnings() {
    let path = temp_journal("pristine.jnl");
    write_reference(&path, 0xABCD);
    let rec = recover(&path).expect("recover");
    assert_eq!(rec.tag, 0xABCD);
    assert_eq!(rec.adjudicated.len(), 3);
    assert_eq!(rec.enqueued.len(), 3);
    assert!(rec.warnings().is_empty(), "{:?}", rec.warnings());
    assert!(rec.salvage.is_none());
    assert_eq!(rec.adjudicated[&2].payload, vec![2u8; 4]);
}

#[test]
fn every_truncation_point_salvages_a_valid_prefix() {
    let path = temp_journal("truncated.jnl");
    let full = write_reference(&path, 7);
    let full_rec = recover(&path).expect("full recover");
    // Chop the file at *every* byte offset past the header: recovery must
    // keep some prefix of the reference records and warn about the rest.
    // Until the Begin record fits completely there is no sweep identity to
    // salvage, so those cuts are the typed `MissingBegin` instead.
    let mut begin_complete = false;
    for cut in 12..full.len() {
        std::fs::write(&path, &full[..cut]).expect("write truncated");
        let rec = match recover(&path) {
            Ok(rec) => {
                begin_complete = true;
                rec
            }
            Err(JournalError::MissingBegin) if !begin_complete => continue,
            Err(e) => panic!("cut at {cut}: {e}"),
        };
        assert_prefix(&rec, &format!("cut at {cut}"));
        assert!(rec.enqueued.len() <= 3, "cut at {cut} invented records");
        assert_faithful(&rec, &full_rec, &format!("cut at {cut}"));
        if rec.valid_bytes < cut as u64 {
            // The cut fell inside a record: the partial bytes are dropped
            // with a typed warning.
            let s: &TailSalvage = rec.salvage.as_ref().expect("truncation must warn");
            assert_eq!(s.valid_bytes + s.dropped_bytes, cut as u64);
            assert!(!rec.warnings().is_empty());
        } else {
            // The cut fell exactly on a record boundary: the shorter
            // journal is simply a pristine, shorter journal.
            assert!(rec.salvage.is_none(), "cut at {cut} warned spuriously");
        }
    }
    // Cutting inside the 12-byte file header is a typed hard error, not a
    // salvage: without magic+version there is no journal to speak of.
    for cut in 1..12 {
        std::fs::write(&path, &full[..cut]).expect("write header stub");
        match recover(&path) {
            Err(JournalError::TruncatedHeader { .. }) | Err(JournalError::BadMagic) => {}
            other => panic!("header cut at {cut}: expected typed error, got {other:?}"),
        }
    }
}

#[test]
fn a_flipped_byte_drops_the_tail_from_that_record_on() {
    let path = temp_journal("flipped.jnl");
    let full = write_reference(&path, 7);
    // Flip one byte in the middle of the record stream (inside record 2's
    // area) — the checksum must reject that record and everything after.
    let mid = 12 + (full.len() - 12) / 2;
    let mut bytes = full.clone();
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted");
    let rec = recover(&path).expect("salvaged recover");
    let s = rec.salvage.as_ref().expect("corruption must warn");
    assert!(
        s.reason.contains("checksum") || s.reason.contains("record"),
        "{}",
        s.reason
    );
    assert!(records(&rec) < 7, "corrupt record must not survive");
    assert_eq!(s.records_kept, records(&rec));
    assert!(
        s.valid_bytes as usize <= mid,
        "kept bytes past the flipped one"
    );
    assert_prefix(&rec, "flipped byte");
    // The surviving prefix is bit-faithful to the uncorrupted journal.
    std::fs::write(&path, &full).expect("restore");
    let full_rec = recover(&path).expect("full recover");
    assert_faithful(&rec, &full_rec, "flipped byte");

    // Flipping the *last* byte (inside the final checksum) drops exactly
    // the final record.
    let mut bytes = full.clone();
    *bytes.last_mut().expect("nonempty") ^= 0x01;
    std::fs::write(&path, &bytes).expect("write tail-corrupted");
    let rec = recover(&path).expect("salvaged recover");
    assert_eq!(records(&rec), 6, "exactly the last record is dropped");
    assert_eq!(rec.adjudicated.len(), 2);
    assert_prefix(&rec, "flipped last byte");
}

#[test]
fn duplicate_adjudications_keep_the_first_and_warn() {
    let path = temp_journal("duplicate.jnl");
    let mut w = JournalWriter::create(&path, 1, "dup").expect("create");
    w.enqueued(5, b"five").expect("enqueue");
    w.adjudicated(5, AdjudicatedOutcome::Completed, 1, b"first")
        .expect("adjudicate");
    w.adjudicated(5, AdjudicatedOutcome::Failed, 3, b"second")
        .expect("duplicate adjudicate");
    let rec = recover(&path).expect("recover");
    assert_eq!(rec.duplicate_adjudications, vec![5]);
    let adj = &rec.adjudicated[&5];
    assert_eq!(adj.outcome, AdjudicatedOutcome::Completed, "first wins");
    assert_eq!(adj.payload, b"first");
    assert!(rec.warnings().iter().any(|w| w.contains("duplicate")));
}

#[test]
fn empty_and_alien_files_are_typed_errors() {
    let path = temp_journal("empty.jnl");
    std::fs::write(&path, b"").expect("write empty");
    assert!(matches!(recover(&path), Err(JournalError::Empty)));

    std::fs::write(&path, b"definitely not a journal file").expect("write alien");
    assert!(matches!(recover(&path), Err(JournalError::BadMagic)));

    let missing = temp_journal("never-created.jnl");
    std::fs::remove_file(&missing).ok();
    assert!(matches!(recover(&missing), Err(JournalError::Io(_))));
}

#[test]
fn a_header_without_begin_is_missing_begin() {
    let path = temp_journal("headeronly.jnl");
    let full = write_reference(&path, 7);
    std::fs::write(&path, &full[..12]).expect("write bare header");
    assert!(matches!(recover(&path), Err(JournalError::MissingBegin)));
}

#[test]
fn resume_rejects_a_different_sweep_tag() {
    let path = temp_journal("tagmismatch.jnl");
    write_reference(&path, 0xAAAA);
    match JournalWriter::resume(&path, 0xBBBB) {
        Err(JournalError::TagMismatch { expected, found }) => {
            assert_eq!(expected, 0xBBBB);
            assert_eq!(found, 0xAAAA);
        }
        other => panic!("expected TagMismatch, got {other:?}"),
    }
}

#[test]
fn resume_truncates_the_salvaged_tail_and_appends_cleanly() {
    let path = temp_journal("salvage-append.jnl");
    let full = write_reference(&path, 7);
    // Kill mid-append: half of the final record made it to disk.
    std::fs::write(&path, &full[..full.len() - 7]).expect("write torn");
    let (mut w, rec) = JournalWriter::resume(&path, 7).expect("resume");
    assert!(rec.salvage.is_some(), "torn tail must be reported");
    assert_eq!(rec.adjudicated.len(), 2, "record 2's adjudication was torn");
    // New appends land on the clean boundary and survive a re-recover.
    w.adjudicated(2, AdjudicatedOutcome::Completed, 1, &[2u8; 4])
        .expect("readjudicate");
    w.enqueued(3, b"three").expect("admit after the repair");
    drop(w);
    let rec = recover(&path).expect("recover after repair");
    assert!(rec.salvage.is_none(), "repaired journal is pristine");
    assert_eq!(rec.adjudicated.len(), 3);
    assert_eq!(rec.pending().keys().copied().collect::<Vec<_>>(), vec![3]);
}
