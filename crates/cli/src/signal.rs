//! Zero-dependency SIGINT/SIGTERM handling for graceful sweep drain.
//!
//! The first signal flips a process-global atomic from an async-signal-safe
//! handler; a detached watcher thread notices within ~25ms and raises the
//! sweep's [`StopHandle`], so the supervisor stops dispatching, lets
//! in-flight jobs finish (or hit their deadline) and journal their
//! verdicts, and the process exits with the resumable code 75. The handler
//! also restores the default disposition, so a *second* ^C force-kills the
//! process immediately — the classic "drain on one, die on two" contract.
//!
//! This is deliberately `libc`-free: Rust's `std` already links the C
//! runtime on Unix, so declaring `signal(2)` ourselves keeps the workspace
//! dependency-less. On non-Unix targets installation is a no-op and sweeps
//! simply run to completion.

use oasis_engine::StopHandle;

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::StopHandle;

    /// Set (only) by the signal handler; polled by the watcher thread.
    static SIGNALED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_DFL` — the default disposition (terminate) on every Unix.
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The actual handler: async-signal-safe by construction — one relaxed
    /// store plus two `signal(2)` calls (which POSIX lists as safe).
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
        // Restore the default disposition so a second signal is fatal
        // instead of being swallowed while the sweep drains.
        unsafe {
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
        }
    }

    pub(super) fn install_drain(stop: StopHandle) {
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        // The watcher does the non-signal-safe part (waking the sweep).
        // It is detached; process exit reaps it if no signal ever lands.
        std::thread::spawn(move || loop {
            if SIGNALED.load(Ordering::SeqCst) {
                stop.stop();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }
}

#[cfg(not(unix))]
mod imp {
    use super::StopHandle;

    pub(super) fn install_drain(_stop: StopHandle) {}
}

/// Installs SIGINT/SIGTERM handlers that raise `stop` on the first signal
/// and force-kill on the second. Call at most once, before the sweep runs.
pub fn install_drain(stop: StopHandle) {
    imp::install_drain(stop);
}
