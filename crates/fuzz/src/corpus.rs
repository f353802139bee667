//! JSON repro corpus: serialization, parsing, and file management.
//!
//! Every shrunk repro is written as one flat JSON object under
//! `tests/corpus/` so the regression suite replays it forever after. The
//! format is deliberately minimal — scalar fields only, the fault plan as
//! its spec-grammar string — and is written and read by
//! [`oasis_engine::json`]. This module owns the field list.
//!
//! ```json
//! {
//!   "schema": "oasis-fuzz-scenario-v1",
//!   "oracle": "abort",
//!   "seed": 42,
//!   "app": "MT",
//!   "gpu_count": 2,
//!   "footprint_mb": 2,
//!   "workload_seed": 7,
//!   "max_phases": 1,
//!   "large_pages": false,
//!   "striped": false,
//!   "lanes_per_gpu": 4,
//!   "counter_threshold": 256,
//!   "capacity_pages": 64,
//!   "fault_plan": "seed:0"
//! }
//! ```

use std::io;
use std::path::{Path, PathBuf};

use oasis_engine::json::{
    bool_field, opt_u64_field, parse_flat_object, str_field, u64_field, Writer,
};
use oasis_interconnect::FaultPlan;
use oasis_workloads::{App, ALL_APPS};

use crate::oracle::OracleKind;
use crate::scenario::Scenario;

/// Schema tag stamped into (and required from) every corpus file.
pub const SCHEMA: &str = "oasis-fuzz-scenario-v1";

/// Serializes a scenario (plus the oracle kind it violated, if any) into
/// the corpus JSON format.
pub fn to_json(scenario: &Scenario, oracle: Option<OracleKind>) -> String {
    write_fields(Writer::pretty(), scenario, oracle) + "\n"
}

/// Serializes a scenario into its *canonical wire line*: the same flat
/// object as [`to_json`] collapsed onto a single line, oracle always
/// `"none"`, no trailing newline. This is the newline-JSON job payload of
/// the sweep-server protocol and the preimage of [`scenario_digest`] —
/// the byte sequence is a compatibility contract, so any change here
/// invalidates every content-addressed result cache in the wild.
pub fn to_json_line(scenario: &Scenario) -> String {
    write_fields(Writer::line(), scenario, None)
}

/// The one field list of both layouts, in file order.
fn write_fields(w: Writer, scenario: &Scenario, oracle: Option<OracleKind>) -> String {
    w.str("schema", SCHEMA)
        .str("oracle", oracle.map_or("none", OracleKind::as_str))
        .u64("seed", scenario.seed)
        .str("app", scenario.app.abbr())
        .u64("gpu_count", scenario.gpu_count as u64)
        .u64("footprint_mb", scenario.footprint_mb)
        .u64("workload_seed", scenario.workload_seed)
        .u64("max_phases", scenario.max_phases as u64)
        .bool("large_pages", scenario.large_pages)
        .bool("striped", scenario.striped)
        .u64("lanes_per_gpu", scenario.lanes_per_gpu as u64)
        .u64("counter_threshold", scenario.counter_threshold.into())
        .opt_u64("capacity_pages", scenario.capacity_pages)
        .str("fault_plan", &scenario.fault_plan.to_spec())
        .finish()
}

/// The scenario's content address: FNV-1a 64 over the canonical wire line
/// ([`to_json_line`]). Two submissions of the same scenario — whatever
/// whitespace or field order the submitter used — hash identically, so
/// this is the sweep server's result-cache key and the digest printed in
/// every protocol response.
pub fn scenario_digest(scenario: &Scenario) -> u64 {
    oasis_engine::fnv1a(to_json_line(scenario).as_bytes())
}

/// Parses a corpus file produced by [`to_json`].
///
/// # Errors
///
/// Returns a message naming the missing or malformed field. The parser
/// accepts exactly the flat-object subset of JSON [`to_json`] emits
/// (string, integer, boolean, and null values; no nesting).
pub fn from_json(text: &str) -> Result<(Scenario, Option<OracleKind>), String> {
    let fields = parse_flat_object(text)?;
    let schema = str_field(&fields, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema '{schema}' (expected '{SCHEMA}')"
        ));
    }
    let oracle = match str_field(&fields, "oracle")?.as_str() {
        "none" => None,
        s => Some(OracleKind::parse(s).ok_or_else(|| format!("unknown oracle kind '{s}'"))?),
    };
    let abbr = str_field(&fields, "app")?;
    let app = app_from_abbr(&abbr).ok_or_else(|| format!("unknown app '{abbr}'"))?;
    let capacity_pages = opt_u64_field(&fields, "capacity_pages")?;
    let plan_spec = str_field(&fields, "fault_plan")?;
    let fault_plan =
        FaultPlan::parse(&plan_spec).map_err(|e| format!("field 'fault_plan': {e}"))?;
    let gpu_count = u64_field(&fields, "gpu_count")? as usize;
    if gpu_count == 0 {
        return Err("field 'gpu_count' must be positive".to_string());
    }
    fault_plan
        .validate_for(gpu_count)
        .map_err(|e| format!("field 'fault_plan': {e}"))?;
    let scenario = Scenario {
        seed: u64_field(&fields, "seed")?,
        app,
        gpu_count,
        footprint_mb: u64_field(&fields, "footprint_mb")?.max(1),
        workload_seed: u64_field(&fields, "workload_seed")?,
        max_phases: (u64_field(&fields, "max_phases")? as usize).max(1),
        large_pages: bool_field(&fields, "large_pages")?,
        striped: bool_field(&fields, "striped")?,
        lanes_per_gpu: (u64_field(&fields, "lanes_per_gpu")? as usize).max(1),
        counter_threshold: u64_field(&fields, "counter_threshold")?.min(u64::from(u32::MAX)) as u32,
        capacity_pages,
        fault_plan,
    };
    Ok((scenario, oracle))
}

/// Maps a Table II abbreviation back to its [`App`].
pub fn app_from_abbr(abbr: &str) -> Option<App> {
    ALL_APPS.into_iter().find(|a| a.abbr() == abbr)
}

/// Writes the repro for a shrunk violation into `dir`, creating it if
/// needed. The filename encodes the seed and oracle kind, so distinct
/// failures never collide and replays are greppable in CI logs.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or file cannot be
/// written.
pub fn write_repro(
    dir: &Path,
    scenario: &Scenario,
    oracle: Option<OracleKind>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "repro-{:016x}-{}.json",
        scenario.seed,
        oracle.map_or("none", OracleKind::as_str)
    );
    let path = dir.join(name);
    oasis_engine::failpoint::on_io("corpus.write", &path)?;
    // Atomic: a kill mid-write must never leave a torn repro for the
    // regression replay to choke on.
    oasis_engine::fsio::atomic_write(&path, to_json(scenario, oracle).as_bytes())?;
    Ok(path)
}

/// One successfully parsed corpus repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The file the repro was loaded from.
    pub path: PathBuf,
    /// The parsed scenario.
    pub scenario: Scenario,
    /// The oracle kind recorded with the repro, if any.
    pub oracle: Option<OracleKind>,
}

/// A directory entry `load_dir` skipped, with the typed reason — a
/// warning for the report, not an abort for the replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedFile {
    /// The offending path.
    pub path: PathBuf,
    /// Why it was skipped (wrong extension, unreadable, parse failure).
    pub reason: String,
}

/// The result of loading a corpus directory: the repros that parsed plus
/// the files that didn't. One garbage file in the directory must never
/// cost the replay of five hundred good repros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Parsed repros, sorted by filename for deterministic replay order.
    pub entries: Vec<CorpusEntry>,
    /// Files skipped with their reasons, sorted by filename.
    pub skipped: Vec<SkippedFile>,
}

impl Corpus {
    /// Whether no repro parsed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of parsed repros.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Loads every corpus repro in `dir`, sorted by filename for deterministic
/// replay order. A missing directory is an empty corpus. Non-`.json`
/// files and malformed repro files are *skipped with a typed warning* in
/// [`Corpus::skipped`] rather than aborting the load (subdirectories are
/// ignored silently).
///
/// # Errors
///
/// Only directory-level failures (unreadable directory) error out;
/// per-file problems land in [`Corpus::skipped`].
pub fn load_dir(dir: &Path) -> Result<Corpus, String> {
    let mut corpus = Corpus::default();
    let mut paths = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
                if path.is_dir() {
                    continue;
                }
                if path.extension().is_some_and(|e| e == "json") {
                    paths.push(path);
                } else {
                    corpus.skipped.push(SkippedFile {
                        path,
                        reason: "not a .json repro file".to_string(),
                    });
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(corpus),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    paths.sort();
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                corpus.skipped.push(SkippedFile {
                    path,
                    reason: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        match from_json(&text) {
            Ok((scenario, oracle)) => corpus.entries.push(CorpusEntry {
                path,
                scenario,
                oracle,
            }),
            Err(e) => corpus.skipped.push(SkippedFile {
                path,
                reason: format!("malformed repro: {e}"),
            }),
        }
    }
    corpus.skipped.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_round_trip_through_json() {
        for seed in 0..100u64 {
            let s = Scenario::generate(seed);
            for oracle in [None, Some(OracleKind::Abort), Some(OracleKind::Panic)] {
                let text = to_json(&s, oracle);
                let (back, kind) = from_json(&text)
                    .unwrap_or_else(|e| panic!("seed {seed}: round-trip failed: {e}\n{text}"));
                assert_eq!(back, s, "seed {seed}");
                assert_eq!(kind, oracle, "seed {seed}");
            }
        }
    }

    #[test]
    fn wire_line_round_trips_and_digest_is_stable() {
        for seed in 0..50u64 {
            let s = Scenario::generate(seed);
            let line = to_json_line(&s);
            assert!(!line.contains('\n'), "wire line must be one line");
            let (back, oracle) = from_json(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: wire line failed to parse: {e}\n{line}"));
            assert_eq!(back, s, "seed {seed}");
            assert_eq!(oracle, None, "wire lines carry no oracle verdict");
            // The digest is a pure function of the scenario: pretty and
            // wire forms of the same scenario share it.
            assert_eq!(scenario_digest(&s), scenario_digest(&back));
        }
        // Distinct scenarios get distinct cache keys (for these seeds).
        assert_ne!(
            scenario_digest(&Scenario::generate(1)),
            scenario_digest(&Scenario::generate(2))
        );
    }

    /// A scenario with every field off what the generator usually picks,
    /// a capacity cap, and a fault plan with every clause kind.
    fn pinned_scenario() -> Scenario {
        Scenario {
            seed: 0xDEAD_BEEF_0BAD_F00D,
            app: App::C2d,
            gpu_count: 4,
            footprint_mb: 3,
            workload_seed: 12_345_678_901_234_567_890,
            max_phases: 2,
            large_pages: true,
            striped: true,
            lanes_per_gpu: 16,
            counter_threshold: 64,
            capacity_pages: Some(96),
            fault_plan: FaultPlan::parse("seed:7,down:0-1@2,flaky:2-3@1-6:1/8,ecc:0@3x2")
                .expect("valid plan"),
        }
    }

    /// The corpus file, the wire line and the serve cache key are
    /// compatibility contracts: these bytes may never move.
    #[test]
    fn corpus_file_wire_line_and_digest_are_pinned() {
        let s = pinned_scenario();
        let file = r#"{
  "schema": "oasis-fuzz-scenario-v1",
  "oracle": "resume-divergence",
  "seed": 16045690981293355021,
  "app": "C2D",
  "gpu_count": 4,
  "footprint_mb": 3,
  "workload_seed": 12345678901234567890,
  "max_phases": 2,
  "large_pages": true,
  "striped": true,
  "lanes_per_gpu": 16,
  "counter_threshold": 64,
  "capacity_pages": 96,
  "fault_plan": "seed:7,down:0-1@2,flaky:2-3@1-6:1/8,ecc:0@3x2"
}
"#;
        assert_eq!(to_json(&s, Some(OracleKind::ResumeDivergence)), file);
        let line = concat!(
            r#"{"schema": "oasis-fuzz-scenario-v1", "oracle": "none", "#,
            r#""seed": 16045690981293355021, "app": "C2D", "gpu_count": 4, "footprint_mb": 3, "#,
            r#""workload_seed": 12345678901234567890, "max_phases": 2, "large_pages": true, "#,
            r#""striped": true, "lanes_per_gpu": 16, "counter_threshold": 64, "#,
            r#""capacity_pages": 96, "fault_plan": "seed:7,down:0-1@2,flaky:2-3@1-6:1/8,ecc:0@3x2"}"#,
        );
        assert_eq!(to_json_line(&s), line);
        assert_eq!(scenario_digest(&s), 0xfd22_77d9_be33_5acd);
    }

    #[test]
    fn committed_corpus_files_reserialize_to_their_own_bytes() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let corpus = load_dir(&dir).expect("corpus directory");
        assert!(corpus.skipped.is_empty(), "{:?}", corpus.skipped);
        assert!(!corpus.is_empty());
        for entry in &corpus.entries {
            let text = std::fs::read_to_string(&entry.path).expect("read corpus file");
            let (scenario, oracle) = from_json(&text).expect("parse corpus file");
            assert_eq!(to_json(&scenario, oracle), text, "{}", entry.path.display());
        }
    }

    #[test]
    fn parser_rejects_malformed_corpus_files() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unterminated"),
            ("[]", "not an object"),
            ("{\"schema\": \"wrong\"}", "schema mismatch"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": {\"nested\": 1}}", "nesting"),
            ("{\"a\": -1}", "negative number"),
            ("{\"a\": \"x\\\"y\"}", "escape"),
        ] {
            assert!(from_json(bad).is_err(), "accepted {why}: {bad}");
        }
        // A valid object missing required fields is also rejected.
        assert!(from_json(&format!("{{\"schema\": \"{SCHEMA}\"}}")).is_err());
    }

    #[test]
    fn write_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("oasis-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        let pa = write_repro(&dir, &a, Some(OracleKind::Abort)).expect("write a");
        let pb = write_repro(&dir, &b, None).expect("write b");
        assert_ne!(pa, pb);
        let corpus = load_dir(&dir).expect("load");
        assert_eq!(corpus.len(), 2);
        assert!(corpus.skipped.is_empty());
        assert!(corpus
            .entries
            .iter()
            .any(|e| e.scenario == a && e.oracle == Some(OracleKind::Abort)));
        assert!(corpus
            .entries
            .iter()
            .any(|e| e.scenario == b && e.oracle.is_none()));
        // Missing directory is an empty corpus, not an error.
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(load_dir(&dir).expect("missing dir").is_empty());
    }

    #[test]
    fn garbage_files_are_skipped_with_typed_warnings_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("oasis-fuzz-corpus-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let good = Scenario::generate(3);
        write_repro(&dir, &good, None).expect("write good repro");
        // Plant the three failure shapes next to it: a non-JSON file, an
        // unparsable .json file, and a structurally-valid .json file with
        // a bad schema. None of them may sink the good repro.
        std::fs::write(dir.join("README.txt"), "not a repro").expect("write txt");
        std::fs::write(dir.join("broken.json"), "{ this is not json").expect("write broken");
        std::fs::write(dir.join("wrong-schema.json"), "{\"schema\": \"nope\"}")
            .expect("write wrong schema");
        std::fs::create_dir_all(dir.join("subdir")).expect("mkdir subdir");

        let corpus = load_dir(&dir).expect("directory itself is readable");
        assert_eq!(corpus.len(), 1, "the good repro survives");
        assert_eq!(corpus.entries[0].scenario, good);
        assert_eq!(corpus.skipped.len(), 3, "{:?}", corpus.skipped);
        let reason_for = |name: &str| {
            corpus
                .skipped
                .iter()
                .find(|s| s.path.file_name().is_some_and(|f| f == name))
                .unwrap_or_else(|| panic!("{name} not in skipped list"))
                .reason
                .clone()
        };
        assert!(reason_for("README.txt").contains("not a .json"));
        assert!(reason_for("broken.json").contains("malformed"));
        assert!(reason_for("wrong-schema.json").contains("malformed"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
