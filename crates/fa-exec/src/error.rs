//! Typed errors for the replay harness.
//!
//! Historically the core crate asserted its way through trial setup:
//! a missing checkpoint, a corrupt snapshot, or a foreign allocator
//! aborted the whole supervisor with a panic. `FaError` replaces those
//! aborts with values the runtime can act on — a trial that cannot run
//! reports as a failed run and recovery descends the degradation ladder instead
//! of taking the process down with it.

use std::fmt;

/// Why a trial — or a trial-infrastructure operation — could not produce
/// a [`crate::RunReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaError {
    /// An operation that only makes sense with a crashed process was
    /// invoked while no failure is pending. Carries the operation name.
    NoPendingFailure(&'static str),
    /// The requested checkpoint id is not retained in the ring.
    CheckpointMissing(u64),
    /// The requested checkpoint failed its checksum verification.
    CheckpointCorrupt(u64),
    /// The process does not run on the First-Aid extension allocator.
    WrongAllocator,
}

impl fmt::Display for FaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaError::NoPendingFailure(what) => {
                write!(f, "{what} requires a pending failure")
            }
            FaError::CheckpointMissing(id) => write!(f, "checkpoint {id} not retained"),
            FaError::CheckpointCorrupt(id) => {
                write!(f, "checkpoint {id} failed checksum verification")
            }
            FaError::WrongAllocator => {
                write!(f, "First-Aid requires the process to run on ExtAllocator")
            }
        }
    }
}

impl std::error::Error for FaError {}

/// Result alias used throughout the harness.
pub type FaResult<T> = Result<T, FaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_messages() {
        // The fallible APIs must report the same diagnostics the old
        // panicking paths printed, so logs stay greppable across the
        // migration.
        assert_eq!(
            FaError::CheckpointMissing(7).to_string(),
            "checkpoint 7 not retained"
        );
        assert_eq!(
            FaError::WrongAllocator.to_string(),
            "First-Aid requires the process to run on ExtAllocator"
        );
        assert_eq!(
            FaError::NoPendingFailure("recover").to_string(),
            "recover requires a pending failure"
        );
    }
}
