//! The `reproduce` binary's exit status: a lost CSV or an unknown entry
//! name must fail the run. Both cases simulate nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `reproduce args` in a fresh working directory prepared by `setup`.
fn reproduce(test: &str, args: &[&str], setup: impl Fn(&PathBuf)) -> Output {
    let dir = std::env::temp_dir().join(format!("oasis-reproduce-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    setup(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(&dir)
        .env_remove("OASIS_FAST")
        .output()
        .expect("reproduce runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn a_lost_csv_fails_the_run_and_names_its_path() {
    let out = reproduce("lost-csv", &["table3_footprints"], |dir| {
        std::fs::write(dir.join("results"), "not a directory").expect("plain file");
    });
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(
        stdout.contains("## Table III"),
        "the table still prints: {stdout}"
    );
    assert!(stderr.contains("bench-table results"), "stderr: {stderr}");
}

#[test]
fn a_written_csv_succeeds() {
    let out = reproduce("written-csv", &["table3_footprints"], |_| {});
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn an_unknown_name_fails_and_lists_the_valid_names() {
    let out = reproduce("unknown-name", &["fig99_nothing"], |_| {});
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("fig99_nothing"), "stderr: {stderr}");
    assert!(
        stderr.contains("table1_config") && stderr.contains("observation2"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
}
