//! Discrete-event simulation kernel for the OASIS multi-GPU memory-system
//! simulator.
//!
//! This crate plays the role that the Akita engine plays for MGPUSim: it
//! provides simulated time ([`Time`], [`Duration`]), deterministic event
//! queues ([`EventQueue`], [`LaneTree`]), and bandwidth-serialized
//! transfer channels ([`Channel`]) from which the rest of the simulator is
//! built.
//!
//! # Example
//!
//! ```
//! use oasis_engine::{Duration, EventQueue, Time};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(Time::ZERO + Duration::from_ns(5), "later");
//! q.push(Time::ZERO, "now");
//! assert_eq!(q.pop().map(|e| e.payload), Some("now"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("later"));
//! ```

pub mod channel;
pub mod codec;
pub mod digest;
pub mod error;
pub mod failpoint;
pub mod fsio;
pub mod fxhash;
pub mod hash;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sweep;
pub mod time;
pub mod trace;

pub use channel::{Channel, Transfer};
pub use codec::{
    emit_checkpoint, ByteReader, ByteWriter, CheckpointReader, CheckpointWriter, CodecError,
    Encoder, Restore, Snapshot,
};
pub use digest::{DigestMap, SetDigest, StateHasher};
pub use error::{
    ErrorPolicy, EvictionError, FaultError, InvariantViolation, MigrationError, SimError,
    SimResult, TableError, TraceError,
};
pub use failpoint::{FailPlan, FaultKind as IoFaultKind, Firing};
pub use fsio::atomic_write;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hash::{fnv1a, Fnv1a};
pub use journal::{
    recover, AdjudicatedOutcome, Adjudication, JournalError, JournalWriter, Recovery, TailSalvage,
};
pub use metrics::{CounterHandle, Histogram, HistogramHandle, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use obs::Observer;
pub use pool::{
    open_feed, run_sweep, supervise, Feed, Intake, Job, JobError, JobOutcome, JobRecord,
    PoolConfig, StopHandle, SweepControl, SweepReport,
};
pub use queue::{Event, EventQueue, LaneTree};
pub use rng::SimRng;
pub use time::{Duration, Time};
pub use trace::{chrome_trace_json, Endpoint, RingTracer, TimedEvent, TraceEvent};
