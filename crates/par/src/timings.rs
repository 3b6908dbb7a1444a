//! Per-task timing capture.
//!
//! When enabled (the `--timings` flag or `BPFREE_TIMINGS`), call sites
//! that run meaningful units of work — engine artifact queries,
//! experiment renders — wrap them in [`timed`]. Each completion appends
//! an [`Entry`]: what kind of query ran, its key and its wall-clock.
//! The CLI drains the log after `exp run`/`exp all` and emits it as
//! JSON.
//!
//! Disabled (the default), the fast path is one relaxed atomic load per
//! call site — the key closure is never evaluated and nothing locks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The query kind ("compile", "trace", "experiment", …).
    pub kind: &'static str,
    /// The query key (benchmark name, experiment name, …).
    pub key: String,
    /// Wall-clock of the task body, in microseconds.
    pub micros: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Turns capture on for the rest of the process.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether capture is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f`, recording an [`Entry`] when capture is enabled. `key` is
/// only evaluated when it is.
pub fn timed<R>(kind: &'static str, key: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let key = key();
    let start = Instant::now();
    let result = f();
    let entry = Entry {
        kind,
        key,
        micros: start.elapsed().as_micros() as u64,
    };
    LOG.lock().expect("timings log poisoned").push(entry);
    result
}

/// Takes every entry recorded so far (oldest first), leaving the log
/// empty.
pub fn drain() -> Vec<Entry> {
    std::mem::take(&mut *LOG.lock().expect("timings log poisoned"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_capture_records_nothing_and_skips_key() {
        // Runs before any enable() in this process? Not guaranteed —
        // tests share the process — so assert only on behavior that is
        // monotone: `timed` returns the closure's value either way.
        let v = timed("test", unreachable_key, || 41 + 1);
        assert_eq!(v, 42);
        fn unreachable_key() -> String {
            // Only reached when some other test enabled capture; still
            // harmless.
            "key".to_string()
        }
    }

    #[test]
    fn enabled_capture_records_kind_key_and_duration() {
        enable();
        let _ = drain();
        let v = timed("unit", || "k1".to_string(), || 7u32);
        assert_eq!(v, 7);
        let entries = drain();
        let e = entries.iter().find(|e| e.kind == "unit").expect("recorded");
        assert_eq!(e.key, "k1");
    }
}
