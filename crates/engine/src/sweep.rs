//! One journaled runner for every batch sweep.
//!
//! `fuzz`, the `inject` campaign and `verify-replay` share one shape: a
//! fixed list of jobs numbered `0..total`, fanned over the supervised pool
//! ([`crate::pool`]), with every dispatch and final outcome written ahead
//! to a sweep journal ([`crate::journal`]) so a killed or drained sweep
//! resumes where it stopped. [`Sweep`] owns that whole lifecycle:
//!
//! 1. [`Sweep::open`] creates the journal, or resumes it after its tag
//!    check and merges every job it already adjudicates;
//! 2. [`Sweep::run`] feeds a batch of pending ids to the pool under their
//!    sweep ids, journals each dispatch and adjudication, and stops the
//!    sweep on the first failed append;
//! 3. [`Sweep::finish`] writes the `Interrupted` trailer after a drain and
//!    returns every settled job in id order, with the [`SweepStats`] every
//!    caller's report carries.
//!
//! A caller brings its job bodies and a [`SweepCodec`] for the values its
//! jobs complete with; lost jobs need no codec, because the runner
//! journals their rendered supervision error itself. The record grammar
//! is the journal's: a caller that changes its payload encoding bumps its
//! tag string, so an old journal is refused with a tag mismatch instead
//! of being decoded wrongly. The sweep server is deliberately not a
//! caller (DESIGN.md §16): it shares the pool's feed, not this runner,
//! because it degrades instead of stopping on a failed append and its job
//! ids come from `Enqueued` admission records.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::journal::{AdjudicatedOutcome, JournalError, JournalWriter};
use crate::pool::{
    open_feed, supervise, Job, JobOutcome, JobRecord, PoolConfig, StopHandle, SweepControl,
};

/// How a batch sweep runs, apart from its jobs.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Pool shape: workers, per-job deadline, attempts per job.
    pub pool: PoolConfig,
    /// Write-ahead journal; `None` runs the sweep without durability.
    pub journal: Option<PathBuf>,
    /// Resume the journal at [`SweepOptions::journal`] instead of creating
    /// it afresh: adjudicated jobs are merged, not re-run.
    pub resume: bool,
    /// Cooperative stop (a signal handler's): once raised, in-flight jobs
    /// finish and nothing new dispatches. The runner raises it as well
    /// when a journal append fails.
    pub stop: Option<StopHandle>,
}

/// How a sweep's completed job values travel through `Adjudicated`
/// journal payloads.
pub trait SweepCodec {
    /// What a completed job produces.
    type Value: Send + 'static;
    /// Writes a completed job's value.
    fn encode(&self, value: &Self::Value, w: &mut ByteWriter);
    /// Reads back the value [`SweepCodec::encode`] wrote for job `id`.
    fn decode(&self, id: u64, r: &mut ByteReader<'_>) -> Result<Self::Value, CodecError>;
}

/// A job lost to supervision: it panicked, blew its deadline, or failed
/// every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lost {
    /// The supervision error, rendered.
    pub error: String,
    /// Whether the final attempt crashed or wedged its worker.
    pub quarantined: bool,
}

impl Lost {
    fn new(verdict: AdjudicatedOutcome, error: String) -> Self {
        Lost {
            error,
            quarantined: verdict == AdjudicatedOutcome::Quarantined,
        }
    }
}

/// One job's final state, adjudicated live or merged from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled<T> {
    /// Sweep-level job id.
    pub id: u64,
    /// The completed value, or how the job was lost.
    pub outcome: Result<T, Lost>,
    /// Attempts consumed.
    pub attempts: u32,
}

/// How a sweep went, apart from what its jobs settled to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Jobs merged from a resumed journal instead of run.
    pub resumed: u64,
    /// Whether a stop drained the sweep before every job settled; an
    /// interrupted journaled sweep is resumable.
    pub interrupted: bool,
    /// Retried attempts, summed from per-job attempt counts, so a resumed
    /// sweep reports the same value as a straight one.
    pub retries: u64,
    /// Journal warnings: a salvaged tail, duplicate or stray records, a
    /// trailer that could not be written.
    pub warnings: Vec<String>,
}

/// Why a journaled sweep could not run. Job failures are never errors:
/// they settle as [`Lost`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The journal could not be created, so the sweep refused to start.
    Create {
        /// Journal path.
        path: PathBuf,
        /// What failed.
        error: JournalError,
    },
    /// The journal could not be resumed: unreadable, or written by a sweep
    /// with other parameters ([`JournalError::TagMismatch`]).
    Resume {
        /// Journal path.
        path: PathBuf,
        /// What failed.
        error: JournalError,
    },
    /// An append failed mid-sweep; the sweep stopped rather than run on
    /// without durability.
    Append(JournalError),
    /// A journaled payload did not decode.
    Payload {
        /// Sweep-level job id of the record.
        id: u64,
        /// What failed.
        error: CodecError,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Create { path, error } => {
                write!(f, "cannot create sweep journal {}: {error}", path.display())
            }
            SweepError::Resume { path, error } => {
                write!(f, "cannot resume sweep journal {}: {error}", path.display())
            }
            SweepError::Append(error) => write!(f, "sweep journal append failed: {error}"),
            SweepError::Payload { id, error } => {
                write!(f, "journaled job {id} is undecodable: {error}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Journal payloads keep strings bounded so one pathological message
/// cannot overflow the codec's u16 string prefix.
pub fn clip(s: &str) -> String {
    const MAX_CHARS: usize = 2048;
    s.chars().take(MAX_CHARS).collect()
}

/// A batch sweep in progress: see the module docs for the lifecycle.
pub struct Sweep<C: SweepCodec> {
    codec: C,
    total: u64,
    pool: PoolConfig,
    stop: StopHandle,
    journal: Option<JournalWriter>,
    settled: Vec<Settled<C::Value>>,
    stats: SweepStats,
}

impl<C: SweepCodec> Sweep<C> {
    /// Opens a sweep of jobs `0..total`. With a journal configured, creates
    /// it under `tag` and `label`, or (on [`SweepOptions::resume`]) resumes
    /// it, refusing a journal whose tag differs, and merges its
    /// adjudicated jobs.
    pub fn open(
        codec: C,
        opts: &SweepOptions,
        tag: u64,
        label: &str,
        total: u64,
    ) -> Result<Self, SweepError> {
        let mut sweep = Sweep {
            codec,
            total,
            pool: opts.pool.clone(),
            stop: opts.stop.clone().unwrap_or_default(),
            journal: None,
            settled: Vec::new(),
            stats: SweepStats::default(),
        };
        let Some(path) = &opts.journal else {
            return Ok(sweep);
        };
        if !opts.resume {
            sweep.journal = Some(JournalWriter::create(path, tag, label).map_err(|error| {
                SweepError::Create {
                    path: path.clone(),
                    error,
                }
            })?);
            return Ok(sweep);
        }
        let (writer, recovery) =
            JournalWriter::resume(path, tag).map_err(|error| SweepError::Resume {
                path: path.clone(),
                error,
            })?;
        sweep.stats.warnings = recovery.warnings();
        for (&id, adj) in &recovery.adjudicated {
            if id >= total {
                sweep.stats.warnings.push(format!(
                    "journal adjudicates job {id}, beyond the sweep's {total} job(s); ignored"
                ));
                continue;
            }
            let mut r = ByteReader::new("sweep-payload", &adj.payload);
            let outcome = match adj.outcome {
                AdjudicatedOutcome::Completed => sweep.codec.decode(id, &mut r).map(Ok),
                lost => r.str().map(|error| Err(Lost::new(lost, error))),
            }
            .map_err(|error| SweepError::Payload { id, error })?;
            sweep.settled.push(Settled {
                id,
                outcome,
                attempts: adj.attempts,
            });
        }
        sweep.stats.resumed = sweep.settled.len() as u64;
        sweep.journal = Some(writer);
        Ok(sweep)
    }

    /// Ids in `0..total` not yet settled, ascending.
    pub fn pending(&self) -> Vec<u64> {
        let settled: BTreeSet<u64> = self.settled.iter().map(|s| s.id).collect();
        (0..self.total).filter(|id| !settled.contains(id)).collect()
    }

    /// Whether a stop drained the sweep; further [`Sweep::run`] calls
    /// dispatch nothing.
    pub fn interrupted(&self) -> bool {
        self.stats.interrupted
    }

    /// Runs the pending jobs `ids` on one pool, fed under their sweep ids,
    /// `job(id)` building each. Returns once every dispatched job settled
    /// or a stop drained the batch.
    ///
    /// # Errors
    ///
    /// [`SweepError::Append`] when a journal append failed: the sweep
    /// stopped at that record and must not be continued.
    pub fn run(
        &mut self,
        ids: &[u64],
        mut job: impl FnMut(u64) -> Job<C::Value>,
    ) -> Result<(), SweepError> {
        if ids.is_empty() {
            return Ok(());
        }
        if self.stats.interrupted || self.stop.is_stopped() {
            self.stats.interrupted = true;
            return Ok(());
        }
        let (feed, intake) = open_feed();
        for &id in ids {
            feed.submit(id, job(id));
        }
        drop(feed);
        let journal = RefCell::new(self.journal.take());
        let failure: RefCell<Option<JournalError>> = RefCell::new(None);
        let (codec, stop) = (&self.codec, &self.stop);
        // Every append goes through here: after the first failure the
        // journal takes nothing more, and the stop drains the batch.
        let append = |write: &mut dyn FnMut(&mut JournalWriter) -> Result<(), JournalError>| {
            if failure.borrow().is_some() {
                return;
            }
            if let Some(w) = journal.borrow_mut().as_mut() {
                if let Err(e) = write(w) {
                    *failure.borrow_mut() = Some(e);
                    stop.stop();
                }
            }
        };
        let mut on_dispatch = |id: u64, attempt: u32| {
            append(&mut |w| w.dispatched(id, attempt));
        };
        let mut on_adjudicated = |rec: &JobRecord<C::Value>| {
            append(&mut |w| {
                let mut payload = ByteWriter::new();
                match &rec.outcome {
                    JobOutcome::Completed(value) => codec.encode(value, &mut payload),
                    JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => {
                        payload.str(&clip(&e.to_string()));
                    }
                }
                let verdict = AdjudicatedOutcome::of(&rec.outcome);
                w.adjudicated(rec.id, verdict, rec.attempts, payload.as_slice())
            });
        };
        let report = supervise(
            &self.pool,
            intake,
            SweepControl {
                stop: Some(self.stop.clone()),
                on_dispatch: Some(&mut on_dispatch),
                on_adjudicated: Some(&mut on_adjudicated),
            },
        );
        if let Some(e) = failure.into_inner() {
            return Err(SweepError::Append(e));
        }
        self.journal = journal.into_inner();
        self.stats.interrupted = report.interrupted;
        for rec in report.jobs {
            let verdict = AdjudicatedOutcome::of(&rec.outcome);
            let outcome = match rec.outcome {
                JobOutcome::Completed(value) => Ok(value),
                JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => {
                    Err(Lost::new(verdict, e.to_string()))
                }
            };
            self.settled.push(Settled {
                id: rec.id,
                outcome,
                attempts: rec.attempts,
            });
        }
        Ok(())
    }

    /// Ends the sweep: a drained journal gets its `Interrupted` trailer,
    /// and every settled job comes back in id order.
    pub fn finish(mut self) -> (Vec<Settled<C::Value>>, SweepStats) {
        if self.stats.interrupted {
            if let Some(w) = self.journal.as_mut() {
                if let Err(e) = w.interrupted(self.settled.len() as u64) {
                    self.stats
                        .warnings
                        .push(format!("could not journal the Interrupted trailer: {e}"));
                }
            }
        }
        self.settled.sort_by_key(|s| s.id);
        self.stats.retries = self
            .settled
            .iter()
            .map(|s| u64::from(s.attempts.saturating_sub(1)))
            .sum();
        (self.settled, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64s;

    impl SweepCodec for U64s {
        type Value = u64;

        fn encode(&self, value: &u64, w: &mut ByteWriter) {
            w.u64(*value);
        }

        fn decode(&self, _id: u64, r: &mut ByteReader<'_>) -> Result<u64, CodecError> {
            r.u64()
        }
    }

    /// Job 1 fails every attempt, job 2 panics every attempt, the rest
    /// complete.
    fn sweep(opts: &SweepOptions) -> (Vec<Settled<u64>>, SweepStats) {
        let mut sweep = Sweep::open(U64s, opts, 7, "lost jobs", 4).expect("open");
        let pending = sweep.pending();
        sweep
            .run(&pending, |id| {
                Job::new(format!("job-{id}"), move |_ctx| match id {
                    1 => Err("refused".to_string()),
                    2 => panic!("job 2 blew up"),
                    _ => Ok(id * 10),
                })
            })
            .expect("run");
        sweep.finish()
    }

    #[test]
    fn lost_jobs_keep_their_error_quarantine_and_attempts_across_a_resume() {
        let dir = std::env::temp_dir().join(format!("oasis-sweep-lost-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut opts = SweepOptions {
            pool: PoolConfig {
                max_attempts: 2,
                ..PoolConfig::with_workers(2)
            },
            journal: Some(dir.join("lost.jnl")),
            resume: false,
            stop: None,
        };
        let (straight, stats) = sweep(&opts);
        let lost: Vec<_> = straight.iter().map(|s| (&s.outcome, s.attempts)).collect();
        assert_eq!(lost[0], (&Ok(0), 1));
        let failed = Lost {
            error: "failed: refused".into(),
            quarantined: false,
        };
        assert_eq!(lost[1], (&Err(failed), 2));
        match lost[2] {
            (Err(Lost { error, quarantined }), 2) => {
                assert!(*quarantined);
                assert!(error.contains("job 2 blew up"), "{error}");
            }
            other => panic!("job 2 should be quarantined after 2 attempts: {other:?}"),
        }
        assert_eq!(stats.retries, 2);

        // Every job comes back from the journal: the lost ones through the
        // runner's own payload, the completed ones through the codec.
        opts.resume = true;
        let (resumed, resumed_stats) = sweep(&opts);
        assert_eq!(resumed, straight);
        assert_eq!(
            resumed_stats,
            SweepStats {
                resumed: 4,
                ..stats
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
