//! Property-based tests for the journal's replay guarantees.
//!
//! The crash-safety argument rests on two byte-level properties of the
//! on-disk log, independent of any consumer:
//!
//! * **prefix-closed** — cutting the file at ANY byte offset (a crash
//!   can tear at most the tail, but corruption could in principle land
//!   anywhere) decodes to an exact record-prefix of the full log,
//!   never to a reordered, duplicated, or fabricated record;
//! * **replay-idempotent** — parsing is a pure function of the bytes:
//!   replaying the same image twice yields the same records, and a
//!   repaired-and-reopened journal continues the sequence exactly
//!   where the valid prefix ended.

use proptest::prelude::*;

use fa_allocext::{BugType, Patch};
use fa_proc::{CallSite, SymbolTable};
use fa_wal::{parse_prefix, truncate_to_records, DenyOp, PublishOp, RevokeOp, SiteOp, Wal, WalOp};

#[derive(Clone, Debug)]
enum Op {
    Publish { program: u8, patches: u8 },
    Revoke { program: u8, site: u8 },
    Remove { program: u8, site: u8 },
    Denied { program: u8, site: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u8>(), 0u8..4).prop_map(|(program, patches)| Op::Publish { program, patches }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(program, site)| Op::Revoke { program, site }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(program, site)| Op::Remove { program, site }),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(program, site)| Op::Denied { program, site }),
    ]
}

fn program_name(id: u8) -> String {
    format!("app-{}", id % 5)
}

fn to_wal_op(op: &Op) -> WalOp {
    match *op {
        Op::Publish { program, patches } => WalOp::PatchPublish(PublishOp {
            program: program_name(program),
            patches: (0..patches)
                .map(|i| {
                    Patch::new(
                        BugType::BufferOverflow,
                        CallSite([u64::from(i) + 1, 7, 0]),
                        &SymbolTable::new(),
                    )
                })
                .collect(),
        }),
        Op::Revoke { program, site } => WalOp::PatchRevoke(RevokeOp {
            program: program_name(program),
            site: CallSite([u64::from(site) + 1, 7, 0]),
            flaps: 1,
            window: 1,
            quarantined: false,
        }),
        Op::Remove { program, site } => WalOp::PatchRemove(SiteOp {
            program: program_name(program),
            site: CallSite([u64::from(site) + 1, 7, 0]),
        }),
        Op::Denied { program, site } => WalOp::SiteDenied(DenyOp {
            program: program_name(program),
            site: CallSite([u64::from(site) + 1, 7, 0]),
            denials: 1,
        }),
    }
}

fn scratch(name: &str, tag: u64) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fa-wal-props-{name}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal.wal")
}

/// Writes `ops` through a fresh journal and returns its raw bytes plus
/// the decoded full record list.
fn journal_bytes(name: &str, tag: u64, ops: &[Op]) -> (Vec<u8>, Vec<fa_wal::WalRecord>) {
    let path = scratch(name, tag);
    let wal = Wal::open(&path).unwrap();
    for op in ops {
        wal.append(to_wal_op(op))
            .expect("clean journal accepts appends");
    }
    let bytes = std::fs::read(&path).unwrap();
    let records = wal.replay();
    (bytes, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any byte-level cut of the log decodes to an exact record-prefix:
    /// same seqs, same ops, in order — never a phantom or reordered
    /// record. This is the property that makes "crash anywhere" safe.
    #[test]
    fn any_byte_truncation_decodes_to_an_exact_record_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        cut_permille in 0u16..=1000,
    ) {
        let (bytes, full) = journal_bytes("prefix", ops.len() as u64, &ops);
        prop_assert_eq!(full.len(), ops.len());
        let cut = (bytes.len() * usize::from(cut_permille)) / 1000;
        let (records, valid_len) = parse_prefix(&bytes[..cut]);
        prop_assert!(valid_len <= cut);
        prop_assert!(records.len() <= full.len());
        for (got, want) in records.iter().zip(full.iter()) {
            prop_assert_eq!(got, want);
        }
        // Re-parsing the valid prefix is a fixpoint (idempotent).
        let (again, len_again) = parse_prefix(&bytes[..valid_len]);
        prop_assert_eq!(len_again, valid_len);
        prop_assert_eq!(again, records);
    }

    /// Opening a truncated image repairs the torn tail and resumes the
    /// sequence exactly after the surviving prefix; a second open (and
    /// a second replay) observes the identical state.
    #[test]
    fn reopen_after_any_cut_resumes_the_sequence_idempotently(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        cut_permille in 0u16..=1000,
    ) {
        let (bytes, _) = journal_bytes("reopen", ops.len() as u64, &ops);
        let cut = (bytes.len() * usize::from(cut_permille)) / 1000;
        let (prefix_records, _) = parse_prefix(&bytes[..cut]);
        let last_seq = prefix_records.last().map_or(0, |r| r.seq);

        let path = scratch("reopen-img", (ops.len() as u64) << 16 | u64::from(cut_permille));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let wal = Wal::open(&path).unwrap();
        prop_assert_eq!(wal.next_seq(), last_seq + 1);
        prop_assert_eq!(wal.replay().len(), prefix_records.len());
        // Replay twice == replay once: parsing is pure.
        prop_assert_eq!(wal.replay(), prefix_records.clone());

        // The repaired journal accepts appends that extend the prefix.
        let appended = wal.append(to_wal_op(&Op::Remove { program: 0, site: 9 }));
        prop_assert_eq!(appended, Some(last_seq + 1));
        prop_assert_eq!(wal.replay().len(), prefix_records.len() + 1);
    }

    /// Record-boundary truncation (the kill-sweep's view of "crash right
    /// after append n") and byte-level parsing agree for every n.
    #[test]
    fn record_truncation_agrees_with_byte_parsing(
        ops in proptest::collection::vec(op_strategy(), 1..16),
        n in 0usize..20,
    ) {
        let (bytes, full) = journal_bytes("records", ops.len() as u64, &ops);
        let img = truncate_to_records(&bytes, n);
        let (records, valid_len) = parse_prefix(&img);
        prop_assert_eq!(valid_len, img.len());
        prop_assert_eq!(records.len(), n.min(full.len()));
        prop_assert_eq!(records, full[..n.min(full.len())].to_vec());
    }
}
