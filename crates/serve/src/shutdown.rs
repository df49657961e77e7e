//! SIGTERM observation for graceful drain.
//!
//! The serving plane's drain sequence ([`crate::Server::run`]) needs
//! to *see* SIGTERM rather than die from it: stop accepting, let
//! in-flight streams finish up to `DAISY_SERVE_DRAIN_MS`, seal
//! stragglers with a typed draining end frame, then exit with the
//! documented code. `std` exposes no signal API and the workspace is
//! dependency-free, so this module carries the one audited `unsafe`
//! block in the crate: a `libc`-free `signal(2)` declaration whose
//! handler does the only async-signal-safe thing possible — set a
//! relaxed [`AtomicBool`]. While [`crate::Server::run`] is live, a
//! small lifecycle thread looks at the flag every few milliseconds and
//! begins the drain, whose wake connection returns the accept loop from
//! its blocking `accept`.
//!
//! On non-Unix targets [`install_sigterm_handler`] is a no-op and the
//! process keeps the platform's default termination behavior.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler (or [`request_drain_for_tests`]); polled
/// by the server's lifecycle thread.
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM has been observed (or a test requested a drain).
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::Relaxed)
}

/// Sets the drain flag without a signal — how tests and the in-process
/// API trigger the same drain sequence SIGTERM does.
pub fn request_drain_for_tests() {
    SIGTERM.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM handler. Idempotent; call before
/// [`crate::Server::run`]. Returns whether a handler is actually
/// installed (always `false` off Unix, where the default disposition —
/// immediate termination — remains).
pub fn install_sigterm_handler() -> bool {
    sys::install()
}

#[cfg(unix)]
mod sys {
    use std::sync::atomic::Ordering;

    /// `SIGTERM` on every Unix the workspace targets.
    const SIGTERM_NO: i32 = 15;

    #[allow(unsafe_code)]
    mod ffi {
        extern "C" {
            /// POSIX `signal(2)`. `sighandler_t` is a code pointer;
            /// `usize` matches its ABI on all supported targets and we
            /// never call the returned previous handler.
            pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }

        /// Installs `handler` for `signum`. The only unsafe operation
        /// in the crate: a direct FFI call with no memory arguments.
        pub fn install(signum: i32, handler: extern "C" fn(i32)) {
            unsafe {
                signal(signum, handler);
            }
        }
    }

    /// Async-signal-safe by construction: one relaxed atomic store.
    extern "C" fn on_sigterm(_signum: i32) {
        super::SIGTERM.store(true, Ordering::Relaxed);
    }

    pub fn install() -> bool {
        ffi::install(SIGTERM_NO, on_sigterm);
        true
    }
}

#[cfg(not(unix))]
mod sys {
    pub fn install() -> bool {
        false
    }
}
