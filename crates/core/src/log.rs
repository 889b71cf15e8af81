//! Runtime diagnostics with a swappable sink.
//!
//! First-Aid emits a handful of operational warnings (refused patches,
//! quarantined call-sites). With one supervised process these used to
//! go straight to stderr; a fleet of workers would interleave them
//! mid-line, and tests could not observe them at all. Every diagnostic
//! now goes through [`warn`], and the process-wide sink can be swapped:
//! stderr (default) or capture into a buffer that tests drain via
//! [`capture`] / [`Capture::drain`].
//!
//! The sink lock ignores poisoning: a panicking trial thread must not
//! poison the sink and turn every later diagnostic into a second panic.

use std::sync::{Arc, Mutex};

use crate::lock;

/// Where diagnostics go.
enum Sink {
    /// Write each line to stderr (the default).
    Stderr,
    /// Append lines to a shared buffer.
    Capture(Capture),
}

/// A shared, drainable diagnostic buffer.
#[derive(Clone, Default)]
pub struct Capture {
    lines: Arc<Mutex<Vec<String>>>,
}

impl Capture {
    /// Creates an empty capture buffer.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// Takes all captured lines, leaving the buffer empty.
    pub fn drain(&self) -> Vec<String> {
        std::mem::take(&mut lock(&self.lines))
    }

    /// Returns the number of captured lines.
    pub fn len(&self) -> usize {
        lock(&self.lines).len()
    }

    /// Returns `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static SINK: Mutex<Sink> = Mutex::new(Sink::Stderr);

/// Emits one diagnostic line (no trailing newline needed).
pub fn warn(line: impl AsRef<str>) {
    let line = line.as_ref();
    match &*lock(&SINK) {
        Sink::Stderr => eprintln!("first-aid: {line}"),
        Sink::Capture(capture) => {
            lock(&capture.lines).push(line.to_owned());
        }
    }
}

/// Routes diagnostics to stderr (the default).
pub fn use_stderr() {
    *lock(&SINK) = Sink::Stderr;
}

/// Routes diagnostics into a fresh capture buffer and returns it.
///
/// The sink is process-wide; tests that capture should restore
/// [`use_stderr`] when done (see [`captured`] for a scoped helper).
pub fn capture() -> Capture {
    let cap = Capture::new();
    *lock(&SINK) = Sink::Capture(cap.clone());
    cap
}

/// Runs `f` with diagnostics captured, restoring the stderr sink after.
///
/// Returns `f`'s result alongside the captured lines. Captures run one
/// at a time: the sink is process-global, so an overlapping capture
/// would swap this one's buffer out and its lines would be lost. Lines
/// other threads emit meanwhile still land in the buffer.
pub fn captured<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = lock(&ONE_AT_A_TIME);
    let cap = capture();
    let result = f();
    let lines = cap.drain();
    use_stderr();
    (result, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_and_drains() {
        let ((), lines) = captured(|| {
            warn("one");
            warn(format!("two {}", 2));
        });
        assert_eq!(lines, vec!["one".to_string(), "two 2".to_string()]);
    }
}
