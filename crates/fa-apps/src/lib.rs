//! The applications of the paper's evaluation (Table 2) and the synthetic
//! benchmark profiles (SPEC INT2000 + allocation-intensive).
//!
//! Each application is a deterministic miniature of the real program with
//! **the same bug kind in the same structural place**:
//!
//! | app | version | bug | structural place |
//! |---|---|---|---|
//! | Apache | 2.0.51 | dangling pointer read | LDAP cache purge (`util_ald_cache_purge`) |
//! | Apache-uir | 2.0.51 | uninitialized read (injected) | header flags parsing |
//! | Apache-dpw | 2.0.51 | dangling pointer write (injected) | session teardown |
//! | Squid | 2.3 | buffer overflow | `ftpBuildTitleUrl` URL assembly |
//! | CVS | 1.11.4 | double free | error-path cleanup |
//! | Pine | 4.44 | buffer overflow | rfc822 address quoting |
//! | Mutt | 1.3.99i | buffer overflow | `utf8_to_utf7` conversion |
//! | M4 | 1.4.4 | dangling pointer read | macro undefine during expansion |
//! | BC | 1.06 | two buffer overflows | `more_arrays` storage growth |
//!
//! First-Aid only observes allocation call-sites, heap layout, and failure
//! symptoms, so these miniatures exercise the diagnosis machinery exactly
//! as the full programs would.

#![forbid(unsafe_code)]

pub mod apache;
pub mod bc;
pub mod cvs;
pub mod faults;
pub mod fleet;
pub mod m4;
pub mod mutt;
pub mod pine;
pub mod registry;
pub mod squid;
pub mod synth;

pub use faults::{fault_scenario, FAULT_SCENARIOS};
pub use registry::{all_specs, spec_by_key, AppSpec, WorkloadSpec};
pub use synth::{alloc_intensive_profiles, spec_profiles, SynthApp, SynthProfile};
