//! SIGTERM/SIGINT → one atomic flag, with no signal-handling crate.
//!
//! The vendored dependency set has no `libc`/`signal-hook`, but std links
//! the platform C library anyway, so the Unix implementation declares
//! `signal(2)` itself and installs a handler that does the only
//! async-signal-safe thing worth doing: store `true` into a static
//! [`AtomicBool`]. Every blocking loop in this crate polls rather than
//! parks indefinitely, so no `EINTR` choreography is needed — the serve
//! loop notices the flag within one poll tick and starts its graceful
//! drain.
//!
//! On non-Unix targets installation is a no-op and the flag is never
//! raised.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::TERMINATE;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `signal(2)` from the C library std already links. The return
        // value (the previous handler) is deliberately ignored.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn mark_terminated(_signum: i32) {
        // A relaxed store is async-signal-safe; the consumers poll.
        TERMINATE.store(true, Ordering::Relaxed);
    }

    pub(super) fn install() {
        // SAFETY: `signal` is only handed a static handler that performs
        // one atomic store — async-signal-safe by construction.
        unsafe {
            signal(SIGTERM, mark_terminated);
            signal(SIGINT, mark_terminated);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

/// Installs the SIGTERM/SIGINT handler (idempotent; no-op off Unix).
pub fn install_handlers() {
    imp::install();
}

/// True once SIGTERM/SIGINT was delivered.
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::Relaxed)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[allow(unsafe_code)]
    fn raise_sigterm() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        // SAFETY: raising a signal whose handler is installed above and
        // only stores an atomic flag.
        unsafe {
            raise(15);
        }
    }

    #[test]
    fn a_real_sigterm_sets_the_flag() {
        install_handlers();
        raise_sigterm();
        assert!(termination_requested());
    }
}
