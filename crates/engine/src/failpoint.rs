//! Deterministic storage-fault injection: named failpoint sites and a
//! [`FailPlan`] saying which one fails, how, and when.
//!
//! Sweeps and the serve daemon are crash-durable, but a process kill is
//! not the only way storage fails: real services die to ENOSPC, EIO, and
//! failing fsyncs far more often than to SIGKILL. This module lets tests
//! and the `chaos` CLI subcommand inject exactly those faults at named
//! sites threaded through the persistence surface
//! ([`atomic_write`](crate::fsio::atomic_write) legs, journal appends and
//! `Begin` publication, checkpoint emission, the serve result cache,
//! corpus/trace/bench artifact writes), deterministically and replayably.
//!
//! # Design
//!
//! - **Sites** are static string names (the [`SITES`] registry). A site
//!   calls [`on_io`] (immediate-failure legs: create, fsync, rename) or
//!   [`on_write`] (payload legs, where a short write or torn append needs
//!   a byte count) and otherwise behaves normally.
//! - **Zero cost when disabled**: every check opens with one relaxed
//!   atomic load of a scope counter; with no plan armed anywhere in the
//!   process that load is the entire cost, so production and bench runs
//!   are unaffected.
//! - **Thread-scoped activation** ([`arm_thread`]) arms a plan for the
//!   calling thread only — parallel pool workers inject independently and
//!   concurrent tests never see each other's faults. **Process-scoped
//!   activation** ([`arm_process`]) arms every thread, which is what the
//!   `chaos` serve cells need (journal and cache writes happen on the
//!   server's scheduler and connection threads); process scopes are
//!   serialized against each other so two cannot interleave.
//! - **Deterministic and replayable**: the plan is plain data, and every
//!   firing is recorded with its site, kind, hit index, and cut. A cut the
//!   plan leaves open is drawn from one fixed-seed [`SimRng`] stream, so
//!   the same plan always tears at the same byte.

use std::cell::RefCell;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::rng::SimRng;

/// Every failpoint site threaded through the workspace. The `chaos`
/// subcommand enumerates this registry; checks `debug_assert` membership
/// so a typo'd site name fails tests instead of silently never firing.
pub const SITES: &[&str] = &[
    "fsio.create",
    "fsio.write",
    "fsio.fsync",
    "fsio.rename",
    "journal.begin",
    "journal.append.write",
    "journal.append.fsync",
    "codec.checkpoint",
    "serve.cache.read",
    "serve.cache.write",
    "corpus.write",
];

/// True when `site` is in the [`SITES`] registry.
pub fn site_registered(site: &str) -> bool {
    SITES.contains(&site)
}

/// The storage-fault flavors a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic I/O error (`EIO`): the operation fails, nothing persists.
    Eio,
    /// Device full (`ENOSPC`).
    Enospc,
    /// The write persists only a prefix of the payload, then errors.
    ShortWrite,
    /// `fsync`/`sync_data` reports failure (the lying-fsync case).
    FsyncFail,
    /// The rename leg of an atomic publish fails.
    RenameFail,
    /// A journal append persists a prefix of the record — a torn tail the
    /// recovery scan must drop — then errors.
    TornAppend,
}

impl FaultKind {
    /// All kinds, for matrix enumeration.
    pub const ALL: &'static [FaultKind] = &[
        FaultKind::Eio,
        FaultKind::Enospc,
        FaultKind::ShortWrite,
        FaultKind::FsyncFail,
        FaultKind::RenameFail,
        FaultKind::TornAppend,
    ];

    /// Stable short name for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short-write",
            FaultKind::FsyncFail => "fsync",
            FaultKind::RenameFail => "rename",
            FaultKind::TornAppend => "torn-append",
        }
    }

    /// Whether this kind truncates the payload (vs failing outright).
    pub fn is_truncating(self) -> bool {
        matches!(self, FaultKind::ShortWrite | FaultKind::TornAppend)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A declarative injection plan: which site, which fault, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPlan {
    /// Target site name.
    pub site: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Matching hits to let through before the first firing.
    pub after: u64,
    /// Firings before the plan disarms (`u64::MAX` = unbounded).
    pub count: u64,
    /// Persisted-prefix length for truncating kinds; `None` draws it per
    /// firing from the fixed-seed stream.
    pub cut: Option<usize>,
    /// Only fire when the artifact path contains this substring.
    pub path: Option<String>,
}

impl FailPlan {
    /// A single-shot plan: fire `kind` at `site` on the first hit.
    pub fn once(site: &str, kind: FaultKind) -> FailPlan {
        FailPlan {
            site: site.to_string(),
            kind,
            after: 0,
            count: 1,
            cut: None,
            path: None,
        }
    }

    fn matches(&self, site: &str, path: &Path) -> bool {
        self.site == site
            && self
                .path
                .as_ref()
                .is_none_or(|filter| path.to_string_lossy().contains(filter.as_str()))
    }
}

/// One recorded firing: everything needed to explain (and replay) why an
/// operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The site that fired.
    pub site: String,
    /// The fault injected.
    pub kind: FaultKind,
    /// The matching-hit index (0-based) the plan struck at.
    pub hit: u64,
    /// Bytes actually persisted, for truncating kinds.
    pub cut: Option<usize>,
}

struct ActiveState {
    plan: FailPlan,
    rng: SimRng,
    hits: u64,
    fired: u64,
    firings: Vec<Firing>,
}

impl ActiveState {
    fn new(plan: FailPlan) -> ActiveState {
        ActiveState {
            plan,
            rng: SimRng::seed_from_u64(0),
            hits: 0,
            fired: 0,
            firings: Vec::new(),
        }
    }

    /// Advances the hit counter for a matching site and decides whether
    /// this hit fires. Returns the fault and cut when it does.
    fn strike(&mut self, site: &str, len: Option<usize>) -> Option<(FaultKind, Option<usize>)> {
        if self.fired >= self.plan.count {
            return None;
        }
        let hit = self.hits;
        self.hits += 1;
        if hit < self.plan.after {
            return None;
        }
        self.fired += 1;
        let cut = if self.plan.kind.is_truncating() {
            let len = len.unwrap_or(0);
            Some(match self.plan.cut {
                Some(c) => c.min(len),
                // Derived cut: strictly short of the payload so the
                // truncation is real whenever there is anything to cut.
                None => (self.rng.next_u64() as usize) % len.max(1),
            })
        } else {
            None
        };
        self.firings.push(Firing {
            site: site.to_string(),
            kind: self.plan.kind,
            hit,
            cut,
        });
        Some((self.plan.kind, cut))
    }
}

/// Count of live scopes (thread + process). The single relaxed load of
/// this counter is the only cost a disabled failpoint adds to any I/O
/// path.
static ARMED_SCOPES: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_PLAN: RefCell<Option<ActiveState>> = const { RefCell::new(None) };
}

static PROCESS_PLAN: Mutex<Option<ActiveState>> = Mutex::new(None);
/// Serializes process-scoped arming: a second [`arm_process`] blocks
/// until the first scope drops, so concurrent tests cannot interleave
/// process-wide plans.
static PROCESS_TOKEN: Mutex<()> = Mutex::new(());

#[inline]
fn disabled() -> bool {
    ARMED_SCOPES.load(Ordering::Relaxed) == 0
}

/// Arms `plan` for the calling thread only. Dropping the returned scope
/// disarms it. Panics if this thread already has an armed plan (scopes do
/// not nest — a chaos cell is one plan).
pub fn arm_thread(plan: FailPlan) -> ThreadScope {
    debug_assert!(
        site_registered(&plan.site),
        "failplan targets unregistered site '{}'",
        plan.site
    );
    THREAD_PLAN.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(
            slot.is_none(),
            "failpoint: this thread already has an armed plan"
        );
        *slot = Some(ActiveState::new(plan));
    });
    ARMED_SCOPES.fetch_add(1, Ordering::Relaxed);
    ThreadScope { _priv: () }
}

/// Arms `plan` for every thread in the process — what the `chaos` serve
/// cells use, since journal and cache writes happen on the server's own
/// threads. Blocks until any other process scope has dropped; pair with a
/// `path:` filter to confine the blast radius to one state directory.
pub fn arm_process(plan: FailPlan) -> ProcessScope {
    debug_assert!(
        site_registered(&plan.site),
        "failplan targets unregistered site '{}'",
        plan.site
    );
    let token = PROCESS_TOKEN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    *PROCESS_PLAN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(ActiveState::new(plan));
    ARMED_SCOPES.fetch_add(1, Ordering::Relaxed);
    ProcessScope { _token: token }
}

/// A thread-scoped armed plan; disarms on drop.
pub struct ThreadScope {
    _priv: (),
}

impl ThreadScope {
    /// Every firing so far, in order.
    pub fn firings(&self) -> Vec<Firing> {
        THREAD_PLAN.with(|slot| {
            slot.borrow()
                .as_ref()
                .map(|s| s.firings.clone())
                .unwrap_or_default()
        })
    }

    /// How many times the plan has fired.
    pub fn fired(&self) -> u64 {
        THREAD_PLAN.with(|slot| slot.borrow().as_ref().map_or(0, |s| s.fired))
    }
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        THREAD_PLAN.with(|slot| slot.borrow_mut().take());
        ARMED_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A process-scoped armed plan; disarms on drop and releases the
/// process-scope serialization token.
pub struct ProcessScope {
    _token: MutexGuard<'static, ()>,
}

impl ProcessScope {
    /// Every firing so far, in order.
    pub fn firings(&self) -> Vec<Firing> {
        PROCESS_PLAN
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
            .map(|s| s.firings.clone())
            .unwrap_or_default()
    }

    /// How many times the plan has fired.
    pub fn fired(&self) -> u64 {
        PROCESS_PLAN
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
            .map_or(0, |s| s.fired)
    }
}

impl Drop for ProcessScope {
    fn drop(&mut self) {
        *PROCESS_PLAN
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
        ARMED_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

fn injected_error(site: &str, kind: FaultKind) -> io::Error {
    let msg = format!("failpoint {site}: injected {kind}");
    match kind {
        FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, msg),
        _ => io::Error::other(msg),
    }
}

/// Consults the armed plan (thread scope first, then process scope) for
/// one hit at `site`.
fn consult(site: &str, path: &Path, len: Option<usize>) -> Option<(FaultKind, Option<usize>)> {
    debug_assert!(
        site_registered(site),
        "unregistered failpoint site '{site}'"
    );
    let thread_hit = THREAD_PLAN.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_mut() {
            Some(state) if state.plan.matches(site, path) => Some(state.strike(site, len)),
            Some(_) => Some(None), // armed on this thread, different site
            None => None,          // not armed on this thread at all
        }
    });
    match thread_hit {
        Some(outcome) => outcome,
        None => {
            let mut guard = PROCESS_PLAN
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            match guard.as_mut() {
                Some(state) if state.plan.matches(site, path) => state.strike(site, len),
                _ => None,
            }
        }
    }
}

/// Failpoint check for immediate-failure legs (create, fsync, rename,
/// reads). Returns the injected error when the armed plan fires at
/// `site`; truncating kinds degrade to an immediate error here since
/// there is no payload to cut.
#[inline]
pub fn on_io(site: &str, path: &Path) -> io::Result<()> {
    if disabled() {
        return Ok(());
    }
    match consult(site, path, None) {
        Some((kind, _)) => Err(injected_error(site, kind)),
        None => Ok(()),
    }
}

/// What [`on_write`] tells a payload-writing site to do.
#[derive(Debug)]
pub enum WriteFault {
    /// No fault: write the full payload normally.
    Clear,
    /// Fail without persisting anything.
    Fail(io::Error),
    /// Persist exactly `cut` bytes of the payload, then report `error` —
    /// the short-write / torn-append shape.
    Torn {
        /// Bytes to actually persist.
        cut: usize,
        /// The error to report after the truncated write.
        error: io::Error,
    },
}

/// Failpoint check for payload-writing legs. `len` is the payload size;
/// truncating kinds return [`WriteFault::Torn`] with a cut strictly
/// inside the payload (explicit `cut:` clamped to it).
#[inline]
pub fn on_write(site: &str, path: &Path, len: usize) -> WriteFault {
    if disabled() {
        return WriteFault::Clear;
    }
    match consult(site, path, Some(len)) {
        None => WriteFault::Clear,
        Some((kind, Some(cut))) => WriteFault::Torn {
            cut,
            error: injected_error(site, kind),
        },
        Some((kind, None)) => WriteFault::Fail(injected_error(site, kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_checks_are_clear() {
        assert!(on_io("fsio.create", Path::new("/tmp/x")).is_ok());
        assert!(matches!(
            on_write("fsio.write", Path::new("/tmp/x"), 64),
            WriteFault::Clear
        ));
    }

    #[test]
    fn thread_scope_fires_after_n_hits_then_disarms() {
        let mut plan = FailPlan::once("fsio.write", FaultKind::Eio);
        plan.after = 2;
        let scope = arm_thread(plan);
        let p = Path::new("/tmp/artifact");
        assert!(matches!(on_write("fsio.write", p, 10), WriteFault::Clear));
        assert!(matches!(on_write("fsio.write", p, 10), WriteFault::Clear));
        match on_write("fsio.write", p, 10) {
            WriteFault::Fail(e) => {
                let msg = e.to_string();
                assert!(msg.contains("fsio.write"), "{msg}");
                assert!(msg.contains("eio"), "{msg}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
        // count:1 — the plan is spent.
        assert!(matches!(on_write("fsio.write", p, 10), WriteFault::Clear));
        let firings = scope.firings();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].hit, 2);
        assert_eq!(firings[0].kind, FaultKind::Eio);
        drop(scope);
        assert!(matches!(on_write("fsio.write", p, 10), WriteFault::Clear));
    }

    #[test]
    fn truncating_kinds_carry_a_cut_and_explicit_cut_is_clamped() {
        let mut plan = FailPlan::once("journal.append.write", FaultKind::TornAppend);
        plan.cut = Some(1000);
        let scope = arm_thread(plan);
        match on_write("journal.append.write", Path::new("j"), 16) {
            WriteFault::Torn { cut, error } => {
                assert_eq!(cut, 16, "explicit cut clamps to the payload");
                assert!(error.to_string().contains("torn-append"));
            }
            other => panic!("expected Torn, got {other:?}"),
        }
        assert_eq!(scope.firings()[0].cut, Some(16));
        drop(scope);

        // Derived cut: strictly short of the payload, the same every time.
        let plan = FailPlan::once("fsio.write", FaultKind::ShortWrite);
        let scope = arm_thread(plan.clone());
        let first = match on_write("fsio.write", Path::new("a"), 64) {
            WriteFault::Torn { cut, .. } => cut,
            other => panic!("expected Torn, got {other:?}"),
        };
        assert!(first < 64);
        drop(scope);
        let scope = arm_thread(plan);
        let second = match on_write("fsio.write", Path::new("a"), 64) {
            WriteFault::Torn { cut, .. } => cut,
            other => panic!("expected Torn, got {other:?}"),
        };
        assert_eq!(first, second, "same plan, same derived cut");
        drop(scope);
    }

    #[test]
    fn sites_and_path_filters_select_matches() {
        let mut plan = FailPlan::once("fsio.rename", FaultKind::Eio);
        plan.count = u64::MAX;
        plan.path = Some("state-a".to_string());
        let scope = arm_thread(plan);
        assert!(on_io("fsio.rename", Path::new("/tmp/state-b/f")).is_ok());
        assert!(on_io("fsio.fsync", Path::new("/tmp/state-a/f")).is_ok());
        assert!(on_io("fsio.rename", Path::new("/tmp/state-a/f")).is_err());
        assert!(on_io("fsio.rename", Path::new("/tmp/state-a/g")).is_err());
        assert_eq!(scope.fired(), 2);
        drop(scope);
    }

    #[test]
    fn enospc_maps_to_storage_full() {
        let scope = arm_thread(FailPlan::once("fsio.create", FaultKind::Enospc));
        let err = on_io("fsio.create", Path::new("x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(scope);
    }

    #[test]
    fn thread_scopes_do_not_leak_across_threads() {
        let mut plan = FailPlan::once("fsio.write", FaultKind::Eio);
        plan.count = u64::MAX;
        let scope = arm_thread(plan);
        // Another thread sees no thread plan (and no process plan here).
        let other = std::thread::spawn(|| {
            matches!(on_write("fsio.write", Path::new("x"), 8), WriteFault::Clear)
        })
        .join()
        .expect("thread");
        assert!(other, "sibling thread must not inherit a thread scope");
        assert!(matches!(
            on_write("fsio.write", Path::new("x"), 8),
            WriteFault::Fail(_)
        ));
        drop(scope);
    }

    #[test]
    fn process_scope_reaches_other_threads() {
        let mut plan = FailPlan::once("serve.cache.write", FaultKind::Eio);
        plan.count = u64::MAX;
        let scope = arm_process(plan);
        let hit = std::thread::spawn(|| {
            on_io("serve.cache.write", Path::new("cache/entry.res")).is_err()
        })
        .join()
        .expect("thread");
        assert!(hit, "process scope must reach sibling threads");
        assert!(scope.fired() >= 1);
        drop(scope);
        assert!(on_io("serve.cache.write", Path::new("cache/entry.res")).is_ok());
    }

    #[test]
    fn every_registered_site_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for site in SITES {
            assert!(seen.insert(site), "duplicate site {site}");
        }
    }
}
