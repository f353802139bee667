//! Property test: journal recovery salvages the longest clean prefix
//! under *mid-append* storage faults.
//!
//! The existing truncation suite chops a finished journal at arbitrary
//! byte offsets after the fact. This test injects the damage where it
//! actually happens — inside `JournalWriter::append`, via the
//! `journal.append.write` failpoint with a `TornAppend` plan — at every
//! record index and every intra-record cut offset, and asserts the
//! salvage invariant exactly: the records appended before the fault
//! survive byte-for-byte, the torn tail is dropped and reported, and a
//! resumed writer continues from a clean boundary.

use std::path::PathBuf;

use oasis_engine::failpoint::{arm_thread, FailPlan, FaultKind};
use oasis_engine::journal::{recover, AdjudicatedOutcome, JournalWriter};

const TAG: u64 = 0x5045_5250; // arbitrary sweep tag
const RECORDS: u64 = 3;

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oasis-journal-short-append-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir.join("sweep.jnl")
}

/// Appends record `i`: job `i` adjudicated after `i + 1` attempts, so
/// every record has the same length.
fn append(w: &mut JournalWriter, i: u64) -> Result<(), oasis_engine::JournalError> {
    w.adjudicated(i, AdjudicatedOutcome::Completed, i as u32 + 1, b"clean")
}

/// One appended record's encoded length, measured from a scratch journal
/// so the test never hardcodes the wire format.
fn record_len() -> u64 {
    let path = temp_journal("measure");
    let mut w = JournalWriter::create(&path, TAG, "measure").expect("create");
    let before = std::fs::metadata(&path).expect("metadata").len();
    append(&mut w, 0).expect("append");
    let after = std::fs::metadata(&path).expect("metadata").len();
    after - before
}

#[test]
fn recovery_salvages_the_longest_clean_prefix_at_every_cut_offset() {
    let rec_len = record_len();
    assert!(rec_len > 0);

    for k in 0..RECORDS {
        for cut in 0..=rec_len {
            let path = temp_journal(&format!("k{k}-c{cut}"));
            let _ = std::fs::remove_file(&path);
            let mut writer = JournalWriter::create(&path, TAG, "short-append").expect("create");

            let spec = format!("torn append after {k}, cut {cut}");
            let scope = arm_thread(FailPlan {
                after: k,
                cut: Some(cut as usize),
                ..FailPlan::once("journal.append.write", FaultKind::TornAppend)
            });

            let mut failed_at = None;
            for i in 0..RECORDS {
                match append(&mut writer, i) {
                    Ok(()) => {}
                    Err(e) => {
                        let msg = e.to_string();
                        assert!(msg.contains("journal.append.write"), "{spec}: {msg}");
                        failed_at = Some(i);
                        break;
                    }
                }
            }
            assert_eq!(failed_at, Some(k), "{spec}: fault must strike append {k}");
            assert_eq!(scope.firings().len(), 1, "{spec}");
            assert_eq!(scope.firings()[0].cut, Some(cut as usize), "{spec}");
            drop(scope);
            drop(writer);

            // The salvage invariant: Begin plus exactly the k appends that
            // completed, with the torn tail dropped and accounted for.
            // `cut == rec_len` is the boundary case where the "torn"
            // record actually landed whole before the error was reported —
            // recovery rightly keeps it.
            let recovery = recover(&path).expect("recover never aborts on a torn tail");
            let whole = cut == rec_len;
            let kept_appends = if whole { k + 1 } else { k };
            assert_eq!(recovery.tag, TAG, "{spec}");
            let kept: Vec<(u64, u32)> = recovery
                .adjudicated
                .iter()
                .map(|(&id, adj)| (id, adj.attempts))
                .collect();
            let expected: Vec<(u64, u32)> = (0..kept_appends).map(|i| (i, i as u32 + 1)).collect();
            assert_eq!(kept, expected, "{spec}: the {kept_appends} whole appends");
            assert!(recovery.enqueued.is_empty(), "{spec}");
            match (&recovery.salvage, cut) {
                (None, 0) => {}          // nothing of the torn record persisted
                (None, _) if whole => {} // the record landed whole
                (Some(s), _) => {
                    assert_eq!(s.dropped_bytes, cut, "{spec}");
                    assert_eq!(s.records_kept as u64, 1 + kept_appends, "{spec}");
                    assert!(s.reason.contains("truncated"), "{spec}: {}", s.reason);
                }
                (None, _) => panic!("{spec}: a {cut}-byte torn tail must be reported"),
            }

            // Resume truncates the tail and appends continue cleanly.
            let (mut resumed, _) = JournalWriter::resume(&path, TAG).expect("resume");
            append(&mut resumed, 99).expect("post-salvage append");
            drop(resumed);
            let clean = recover(&path).expect("recover after resume");
            assert!(clean.salvage.is_none(), "{spec}: {:?}", clean.salvage);
            assert_eq!(clean.adjudicated.len() as u64, kept_appends + 1, "{spec}");
        }
    }
}
