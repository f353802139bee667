//! Typed error taxonomy for the whole simulator.
//!
//! Every layer of the stack reports failures through [`SimError`] rather than
//! aborting the process: the memory subsystem raises [`TableError`]s, the UVM
//! driver raises [`FaultError`]/[`MigrationError`]/[`EvictionError`]s, trace
//! loading raises [`TraceError`]s, and the sim-guard invariant checker raises
//! [`InvariantViolation`]s. The taxonomy lives in the engine crate — the one
//! crate everything else depends on — so variants carry primitive payloads
//! (raw VPNs, GPU indices) instead of higher-layer types.
//!
//! At the driver boundary an [`ErrorPolicy`] decides what a failure does to
//! the run: `FailFast` propagates it (the right mode for tests and
//! debugging), `RecordAndContinue` logs it and keeps simulating (the right
//! mode for long batch runs where one malformed access should not burn the
//! whole experiment).

use std::fmt;

/// Shorthand for a fallible simulator operation.
pub type SimResult<T> = Result<T, SimError>;

/// What the simulation boundary does when a [`SimError`] surfaces mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Abort the run and return the error to the caller. Default; the mode
    /// tests and fault-injection campaigns want.
    #[default]
    FailFast,
    /// Record the error (counted, first few kept verbatim), skip the
    /// offending access, and keep simulating.
    RecordAndContinue,
}

/// Top-level simulator error: one variant per layer of the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Page-fault handling failed.
    Fault(FaultError),
    /// A migration / duplication / collapse mechanic failed.
    Migration(MigrationError),
    /// Oversubscription eviction failed.
    Eviction(EvictionError),
    /// A page-table or O-Table operation failed.
    Table(TableError),
    /// The input trace is malformed.
    Trace(TraceError),
    /// The sim-guard runtime invariant checker found divergent state.
    Invariant(InvariantViolation),
    /// A checkpoint could not be written or read back.
    Codec(crate::codec::CodecError),
    /// The determinism auditor found a resumed/replayed run whose per-epoch
    /// state digest departed from the reference run.
    Divergence {
        /// First epoch whose digest differs.
        epoch: u64,
        /// Digest the reference run recorded for that epoch.
        expected: u64,
        /// Digest the audited run produced.
        got: u64,
    },
    /// The progress watchdog saw no retired trace step and no page-state
    /// transition for a full window and aborted the run.
    Stalled {
        /// Global step count when the stall was declared.
        step: u64,
        /// The configured no-progress window (in processed events).
        window: u64,
    },
    /// An artifact write or read failed at the OS boundary (EIO, ENOSPC,
    /// a failing fsync, ...). Carries the operation that failed — a
    /// failpoint site name when injected, an artifact role otherwise — so
    /// a storage failure is attributable without a backtrace.
    Io {
        /// What was being done (e.g. `"fsio.rename"`, `"bench-table"`).
        op: String,
        /// The stringified OS error.
        detail: String,
    },
    /// The hardware-fault layer exhausted its recovery budget: a page lost
    /// to ECC poisoning could not be re-serviced within the bounded
    /// retry/backoff budget (e.g. every frame on the GPU is quarantined).
    HardwareExhausted {
        /// The GPU whose page could not be recovered.
        gpu: u8,
        /// The virtual page being re-serviced.
        vpn: u64,
        /// How many re-service attempts were made before giving up.
        retries: u32,
    },
}

/// Errors raised while servicing a page fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A GPU faulted on a page the host driver has no registration for
    /// (e.g. a trace touching freed or never-allocated memory).
    UnregisteredPage {
        /// Faulting virtual page number.
        vpn: u64,
        /// Faulting GPU index.
        gpu: u8,
    },
    /// Repeated fault-and-retry on one access never produced a valid
    /// translation.
    Unresolvable {
        /// Faulting virtual page number.
        vpn: u64,
        /// Faulting GPU index.
        gpu: u8,
        /// How many service rounds were attempted.
        rounds: u32,
    },
    /// A fault named a GPU outside the system.
    NoSuchGpu {
        /// The out-of-range GPU index.
        gpu: u8,
        /// Number of GPUs actually present.
        gpu_count: usize,
    },
}

/// Errors raised by the migration / duplication / collapse mechanics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The host-table entry for a page vanished mid-mechanic.
    SourceMissing {
        /// The page being moved.
        vpn: u64,
    },
}

/// Errors raised by oversubscription eviction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionError {
    /// The LRU victim chosen by the frame allocator has no host-table
    /// registration — allocator and host table have diverged.
    VictimUnregistered {
        /// The victim page.
        vpn: u64,
        /// The GPU evicting it.
        gpu: u8,
    },
}

/// Errors raised by page-table / O-Table bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// `register` called twice for the same page (overlapping allocations).
    DoubleRegistration {
        /// The page registered twice.
        vpn: u64,
    },
}

/// Errors raised while loading or replaying a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An access named an object id that was never allocated.
    UnknownObject {
        /// The unknown object id.
        object: u16,
    },
    /// An access offset falls outside its object.
    OffsetOutOfRange {
        /// The object accessed.
        object: u16,
        /// The out-of-range byte offset.
        offset: u64,
        /// The object's size in bytes.
        size: u64,
    },
    /// An access named a GPU outside the configured system.
    GpuOutOfRange {
        /// The out-of-range GPU index.
        gpu: usize,
        /// Number of GPUs configured.
        gpu_count: usize,
    },
}

/// A failed sim-guard check: which invariant, and what state broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Short name of the invariant (e.g. `"owner-holds-frame"`).
    pub check: &'static str,
    /// Human-readable description of the divergent state.
    pub detail: String,
}

impl SimError {
    /// Convenience constructor for an invariant violation.
    pub fn invariant(check: &'static str, detail: impl Into<String>) -> Self {
        SimError::Invariant(InvariantViolation {
            check,
            detail: detail.into(),
        })
    }

    /// Convenience constructor for a storage-layer failure.
    pub fn io(op: impl Into<String>, err: impl fmt::Display) -> Self {
        SimError::Io {
            op: op.into(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault(e) => write!(f, "fault error: {e}"),
            SimError::Migration(e) => write!(f, "migration error: {e}"),
            SimError::Eviction(e) => write!(f, "eviction error: {e}"),
            SimError::Table(e) => write!(f, "table error: {e}"),
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Invariant(v) => write!(f, "invariant violated: {v}"),
            SimError::Codec(e) => write!(f, "checkpoint error: {e}"),
            SimError::Divergence {
                epoch,
                expected,
                got,
            } => write!(
                f,
                "determinism divergence at epoch {epoch}: expected digest {expected:#018x}, got {got:#018x}"
            ),
            SimError::Io { op, detail } => write!(f, "i/o error during {op}: {detail}"),
            SimError::Stalled { step, window } => write!(
                f,
                "watchdog: no forward progress within a {window}-event window at step {step}"
            ),
            SimError::HardwareExhausted { gpu, vpn, retries } => write!(
                f,
                "hardware: page {vpn:#x} on GPU {gpu} unrecoverable after {retries} re-service retries"
            ),
        }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::UnregisteredPage { vpn, gpu } => {
                write!(f, "GPU {gpu} faulted on unregistered page {vpn:#x}")
            }
            FaultError::Unresolvable { vpn, gpu, rounds } => write!(
                f,
                "GPU {gpu} fault on page {vpn:#x} unresolved after {rounds} rounds"
            ),
            FaultError::NoSuchGpu { gpu, gpu_count } => {
                write!(f, "fault names GPU {gpu} but only {gpu_count} exist")
            }
        }
    }
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::SourceMissing { vpn } => {
                write!(f, "page {vpn:#x} disappeared from the host table mid-move")
            }
        }
    }
}

impl fmt::Display for EvictionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionError::VictimUnregistered { vpn, gpu } => write!(
                f,
                "eviction victim {vpn:#x} on GPU {gpu} has no host-table entry"
            ),
        }
    }
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::DoubleRegistration { vpn } => {
                write!(f, "page {vpn:#x} registered twice")
            }
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownObject { object } => {
                write!(f, "access names unallocated object {object}")
            }
            TraceError::OffsetOutOfRange {
                object,
                offset,
                size,
            } => write!(f, "offset {offset} outside object {object} of {size} bytes"),
            TraceError::GpuOutOfRange { gpu, gpu_count } => {
                write!(f, "access names GPU {gpu} but only {gpu_count} configured")
            }
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

impl std::error::Error for SimError {}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        SimError::Fault(e)
    }
}
impl From<MigrationError> for SimError {
    fn from(e: MigrationError) -> Self {
        SimError::Migration(e)
    }
}
impl From<EvictionError> for SimError {
    fn from(e: EvictionError) -> Self {
        SimError::Eviction(e)
    }
}
impl From<TableError> for SimError {
    fn from(e: TableError) -> Self {
        SimError::Table(e)
    }
}
impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}
impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> Self {
        SimError::Invariant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_layer() {
        let e = SimError::from(FaultError::UnregisteredPage { vpn: 0x42, gpu: 1 });
        let s = e.to_string();
        assert!(s.contains("fault error"), "{s}");
        assert!(s.contains("0x42"), "{s}");

        let e = SimError::from(TableError::DoubleRegistration { vpn: 7 });
        assert!(e.to_string().contains("registered twice"));

        let e = SimError::invariant("owner-holds-frame", "page 0x9 owner GPU 2 frame absent");
        assert!(e.to_string().contains("owner-holds-frame"));

        let e = SimError::Divergence {
            epoch: 3,
            expected: 0xAA,
            got: 0xBB,
        };
        let s = e.to_string();
        assert!(s.contains("divergence"), "{s}");
        assert!(s.contains("epoch 3"), "{s}");

        let e = SimError::Stalled {
            step: 120,
            window: 64,
        };
        let s = e.to_string();
        assert!(s.contains("watchdog"), "{s}");
        assert!(s.contains("step 120"), "{s}");

        let e = SimError::Codec(crate::codec::CodecError::BadMagic);
        assert!(e.to_string().contains("checkpoint error"));

        let e = SimError::io("fsio.rename", "injected rename failure");
        let s = e.to_string();
        assert!(s.contains("fsio.rename"), "{s}");
        assert!(s.contains("injected rename failure"), "{s}");

        let e = SimError::HardwareExhausted {
            gpu: 2,
            vpn: 0x77,
            retries: 4,
        };
        let s = e.to_string();
        assert!(s.contains("hardware"), "{s}");
        assert!(s.contains("0x77"), "{s}");
        assert!(s.contains("4 re-service retries"), "{s}");
    }

    #[test]
    fn error_policy_defaults_to_fail_fast() {
        assert_eq!(ErrorPolicy::default(), ErrorPolicy::FailFast);
    }
}
