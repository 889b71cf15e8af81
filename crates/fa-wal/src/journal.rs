//! The append-only, checksummed, torn-write-safe journal.
//!
//! One record per line: `fawal1 <checksum> <json>\n`, where the
//! checksum is a 16-hex-digit digest of the JSON bytes. Appends go to
//! the end of the file and are fsynced; compaction rewrites the whole
//! file as a single snapshot record through the atomic
//! write-temp/fsync/rename path. A crash can therefore leave at most
//! one torn record, and only at the tail — replay walks the valid
//! prefix and stops at the first line that fails the prefix test
//! (bad magic, bad checksum, undecodable JSON, or a non-monotone
//! sequence number), which is what makes recovery prefix-closed.
//!
//! Crash injection is built in: [`Wal::arm_kill`] arms a
//! [`KillPoint`] from the supervisor-kill schedule, after which the
//! journal "dies" at the scheduled append — cleanly, or mid-append
//! with a deliberately torn final record. Append I/O errors are
//! injected through [`FaultStage::WalAppendIo`]; an append is tried
//! three times before the journal degrades to memory-only operation.
//! The journal is the patch pool's one durable format, so its I/O
//! health ([`Wal::io_errors`], [`Wal::is_degraded`]) is the pool's.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fa_faults::{FaultPlan, FaultStage, KillPoint};

use crate::record::{PoolSnapshot, WalOp, WalRecord};

/// Magic prefix of every journal line (format version 1).
pub const WAL_MAGIC: &str = "fawal1";

/// Append retry attempts before the journal degrades to memory-only.
const APPEND_ATTEMPTS: u32 = 3;

/// FNV-1a over the record bytes, finished through splitmix64 so short
/// records still change every checksum bit.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fa_faults::splitmix64(h)
}

fn encode_line(record: &WalRecord) -> Result<String, serde_json::Error> {
    let json = serde_json::to_string(record)?;
    Ok(format!(
        "{WAL_MAGIC} {:016x} {json}\n",
        digest(json.as_bytes())
    ))
}

fn parse_line(line: &str) -> Option<WalRecord> {
    let rest = line.strip_prefix(WAL_MAGIC)?.strip_prefix(' ')?;
    let (sum_hex, json) = rest.split_once(' ')?;
    if sum_hex.len() != 16 {
        return None;
    }
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if digest(json.as_bytes()) != sum {
        return None;
    }
    serde_json::from_str::<WalRecord>(json).ok()
}

/// Parses the valid prefix of raw journal bytes: the decoded records
/// and the byte length of the prefix they occupy. Everything after the
/// returned length is a torn tail (or garbage) and is ignored — and
/// truncated on [`Wal::open`].
pub fn parse_prefix(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut last_seq = 0u64;
    let mut offset = 0usize;
    while offset < bytes.len() {
        // A complete record owns its trailing newline; a tail without
        // one is torn by definition.
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let line = &bytes[offset..offset + nl];
        let Some(record) = std::str::from_utf8(line).ok().and_then(parse_line) else {
            break;
        };
        if record.seq <= last_seq {
            break;
        }
        last_seq = record.seq;
        records.push(record);
        offset += nl + 1;
        valid_len = offset;
    }
    (records, valid_len)
}

#[derive(Debug)]
struct Inner {
    path: PathBuf,
    /// Sequence number the next append will carry (1-based).
    next_seq: u64,
    /// Successful appends since open (compactions included) — the
    /// coordinate system of [`KillPoint::after_appends`].
    appends: u64,
    since_compact: u64,
    compact_every: u64,
    kill: Option<KillPoint>,
    dead: bool,
    degraded: bool,
    io_errors: u64,
    faults: FaultPlan,
}

/// Locks the journal state, ignoring poison: a writer that panicked
/// while holding it must not turn every later append into a second
/// panic.
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A crash-safe patch-pool journal. Clones share state; the pool that
/// owns the journal is its one writer.
#[derive(Clone, Debug)]
pub struct Wal {
    inner: Arc<Mutex<Inner>>,
}

impl Wal {
    /// Opens (or creates) the journal at `path`, repairing a torn tail
    /// by truncating the file to its valid prefix so later appends
    /// cannot concatenate onto half a record.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Wal> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = parse_prefix(&bytes);
        if valid_len < bytes.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            let _ = f.sync_all();
        }
        let last_seq = records.last().map_or(0, |r| r.seq);
        Ok(Wal {
            inner: Arc::new(Mutex::new(Inner {
                path,
                next_seq: last_seq + 1,
                appends: 0,
                since_compact: records.len() as u64,
                compact_every: 0,
                kill: None,
                dead: false,
                degraded: false,
                io_errors: 0,
                faults: FaultPlan::none(),
            })),
        })
    }

    /// Attaches a fault plan; [`FaultStage::WalAppendIo`] decides which
    /// appends fail and must be retried.
    pub fn with_faults(self, faults: FaultPlan) -> Wal {
        lock(&self.inner).faults = faults;
        self
    }

    /// Arms a supervisor kill point: the journal dies at the scheduled
    /// append (cleanly or mid-record), after which every append is a
    /// silent no-op — exactly what a crashed supervisor would write.
    pub fn arm_kill(&self, kill: KillPoint) {
        lock(&self.inner).kill = Some(kill);
    }

    /// Enables automatic compaction: [`Wal::maybe_compact`] fires once
    /// `every` records accumulate past the last snapshot. `0` disables.
    pub fn set_compact_every(&self, every: u64) {
        lock(&self.inner).compact_every = every;
    }

    /// Encodes `record`, or counts the failure and degrades the journal
    /// exactly as exhausted append retries do. Serialization is
    /// deterministic, so retrying it could not help.
    fn encode_or_degrade(inner: &mut Inner, record: &WalRecord) -> Option<String> {
        match encode_line(record) {
            Ok(line) => Some(line),
            Err(_) => {
                inner.io_errors += 1;
                inner.degraded = true;
                None
            }
        }
    }

    fn die(inner: &mut Inner, line: Option<&str>) {
        inner.dead = true;
        if let Some(line) = line {
            // Torn mid-append: half the record reaches the disk, no
            // newline. Best-effort — the journal is dying anyway.
            let torn = &line.as_bytes()[..(line.len() / 2).max(1)];
            if let Ok(mut f) = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&inner.path)
            {
                let _ = f.write_all(torn);
                let _ = f.sync_data();
            }
        }
    }

    /// Appends one op, returning its sequence number — or `None` if the
    /// journal is dead (killed), degraded (persistent I/O errors), or
    /// dies at this very append per the armed kill point.
    pub fn append(&self, op: WalOp) -> Option<u64> {
        let mut inner = lock(&self.inner);
        if inner.dead || inner.degraded {
            return None;
        }
        let record = WalRecord {
            seq: inner.next_seq,
            op,
        };
        let line = Self::encode_or_degrade(&mut inner, &record)?;
        if let Some(kill) = inner.kill {
            if inner.appends >= kill.after_appends {
                let torn = kill.torn.then_some(line.as_str());
                Self::die(&mut inner, torn);
                return None;
            }
        }
        for _ in 0..APPEND_ATTEMPTS {
            let injected = inner.faults.should_fail(FaultStage::WalAppendIo);
            let outcome = if injected {
                Err(io::Error::other("injected journal append failure"))
            } else {
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&inner.path)
                    .and_then(|mut f| {
                        f.write_all(line.as_bytes())?;
                        f.sync_data()
                    })
            };
            match outcome {
                Ok(()) => {
                    let seq = record.seq;
                    inner.next_seq += 1;
                    inner.appends += 1;
                    inner.since_compact += 1;
                    return Some(seq);
                }
                Err(_) => inner.io_errors += 1,
            }
        }
        inner.degraded = true;
        None
    }

    /// Compacts the journal: the whole file is atomically replaced by a
    /// single snapshot record carrying `state`. Counts as one append
    /// for kill scheduling; a kill here (torn or clean) leaves the old
    /// journal intact, exactly as a crash before the rename would.
    pub fn compact(&self, state: PoolSnapshot) -> Option<u64> {
        let mut inner = lock(&self.inner);
        if inner.dead || inner.degraded {
            return None;
        }
        if let Some(kill) = inner.kill {
            if inner.appends >= kill.after_appends {
                // Compaction is atomic: tearing it means the rename
                // never happened, so torn and clean kills look the same.
                Self::die(&mut inner, None);
                return None;
            }
        }
        let record = WalRecord {
            seq: inner.next_seq,
            op: WalOp::Snapshot(state),
        };
        let line = Self::encode_or_degrade(&mut inner, &record)?;
        for _ in 0..APPEND_ATTEMPTS {
            let injected = inner.faults.should_fail(FaultStage::WalAppendIo);
            let outcome = if injected {
                Err(io::Error::other("injected journal compaction failure"))
            } else {
                crate::atomic::write_atomic(&inner.path, line.as_bytes())
            };
            match outcome {
                Ok(()) => {
                    let seq = record.seq;
                    inner.next_seq += 1;
                    inner.appends += 1;
                    inner.since_compact = 0;
                    return Some(seq);
                }
                Err(_) => inner.io_errors += 1,
            }
        }
        inner.degraded = true;
        None
    }

    /// Replays the journal from disk: the valid record prefix, in
    /// append order. A torn tail (from a mid-append crash) is ignored.
    pub fn replay(&self) -> Vec<WalRecord> {
        let path = lock(&self.inner).path.clone();
        match fs::read(&path) {
            Ok(bytes) => parse_prefix(&bytes).0,
            Err(_) => Vec::new(),
        }
    }

    /// True once compaction is due (`set_compact_every` reached).
    pub fn needs_compaction(&self) -> bool {
        let inner = lock(&self.inner);
        inner.compact_every > 0 && inner.since_compact >= inner.compact_every
    }

    /// True after an armed kill point fired.
    pub fn is_dead(&self) -> bool {
        lock(&self.inner).dead
    }

    /// True after persistent append I/O errors disabled journaling.
    pub fn is_degraded(&self) -> bool {
        lock(&self.inner).degraded
    }

    /// Append I/O errors seen (injected or real), including retried ones.
    pub fn io_errors(&self) -> u64 {
        lock(&self.inner).io_errors
    }

    /// Successful appends since open (compactions included).
    pub fn appends(&self) -> u64 {
        lock(&self.inner).appends
    }

    /// The sequence number the next append will carry.
    pub fn next_seq(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> PathBuf {
        lock(&self.inner).path.clone()
    }
}

/// Truncates journal `bytes` to its first `n` whole records and returns
/// the truncated image — the byte-level "crash right after append `n`"
/// view used by the kill-point acceptance sweep to synthesize every
/// prefix without re-running the workload per point.
pub fn truncate_to_records(bytes: &[u8], n: usize) -> Vec<u8> {
    let mut offset = 0usize;
    let mut seen = 0usize;
    while seen < n && offset < bytes.len() {
        match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(nl) => {
                offset += nl + 1;
                seen += 1;
            }
            None => break,
        }
    }
    bytes[..offset].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PublishOp, SiteOp};
    use fa_proc::CallSite;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fa-wal-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.wal")
    }

    fn publish(program: &str) -> WalOp {
        WalOp::PatchPublish(PublishOp {
            program: program.to_owned(),
            patches: Vec::new(),
        })
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.append(publish("squid")), Some(1));
        let remove = WalOp::PatchRemove(SiteOp {
            program: "squid".to_owned(),
            site: CallSite([3, 0, 0]),
        });
        assert_eq!(wal.append(remove.clone()), Some(2));
        let records = wal.replay();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[0].op.label(), "patch-publish");
        assert_eq!(records[1].op, remove);
        // A reopened journal continues the sequence.
        let reopened = Wal::open(&path).unwrap();
        assert_eq!(reopened.next_seq(), 3);
        assert_eq!(reopened.append(publish("squid")), Some(3));
    }

    #[test]
    fn torn_tail_is_ignored_and_repaired_on_open() {
        let path = tmp("torn");
        let wal = Wal::open(&path).unwrap();
        wal.append(publish("a"));
        wal.append(publish("b"));
        // Simulate a mid-append crash by hand: half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"fawal1 0123456789abcdef {\"seq\":3,").unwrap();
        drop(f);
        assert_eq!(wal.replay().len(), 2, "torn tail excluded from replay");
        let reopened = Wal::open(&path).unwrap();
        assert_eq!(reopened.next_seq(), 3, "repair resumes after the prefix");
        reopened.append(publish("c"));
        assert_eq!(reopened.replay().len(), 3, "append after repair is clean");
    }

    #[test]
    fn corrupt_middle_record_cuts_the_prefix_there() {
        let path = tmp("corrupt");
        let wal = Wal::open(&path).unwrap();
        for p in ["a", "b", "c"] {
            wal.append(publish(p));
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the second record's JSON.
        let second_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second_start + 30] ^= 0x20;
        let (records, _) = parse_prefix(&bytes);
        assert_eq!(records.len(), 1, "prefix stops at the corrupt record");
    }

    #[test]
    fn clean_kill_stops_all_journaling() {
        let path = tmp("kill-clean");
        let wal = Wal::open(&path).unwrap();
        wal.arm_kill(KillPoint::clean(1));
        assert_eq!(wal.append(publish("a")), Some(1));
        assert_eq!(wal.append(publish("b")), None, "dies at the kill point");
        assert!(wal.is_dead());
        assert_eq!(wal.append(publish("c")), None, "stays dead");
        assert_eq!(wal.replay().len(), 1);
    }

    #[test]
    fn torn_kill_leaves_half_a_record_that_replay_ignores() {
        let path = tmp("kill-torn");
        let wal = Wal::open(&path).unwrap();
        wal.arm_kill(KillPoint::torn(1));
        assert_eq!(wal.append(publish("a")), Some(1));
        assert_eq!(wal.append(publish("b")), None);
        assert!(wal.is_dead());
        let bytes = fs::read(&path).unwrap();
        let (records, valid_len) = parse_prefix(&bytes);
        assert_eq!(records.len(), 1);
        assert!(valid_len < bytes.len(), "torn bytes really hit the disk");
        let recovered = Wal::open(&path).unwrap();
        assert_eq!(recovered.next_seq(), 2);
    }

    #[test]
    fn compaction_replaces_the_log_with_one_snapshot() {
        let path = tmp("compact");
        let wal = Wal::open(&path).unwrap();
        for p in ["a", "b", "c"] {
            wal.append(publish(p));
        }
        assert_eq!(wal.compact(PoolSnapshot::default()), Some(4));
        let records = wal.replay();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 4);
        assert!(matches!(records[0].op, WalOp::Snapshot(_)));
        // Appends continue past the snapshot and replay sees both.
        assert_eq!(wal.append(publish("d")), Some(5));
        assert_eq!(wal.replay().len(), 2);
    }

    #[test]
    fn auto_compaction_trigger_tracks_appends() {
        let path = tmp("auto-compact");
        let wal = Wal::open(&path).unwrap();
        wal.set_compact_every(2);
        assert!(!wal.needs_compaction());
        wal.append(publish("a"));
        wal.append(publish("b"));
        assert!(wal.needs_compaction());
        wal.compact(PoolSnapshot::default());
        assert!(!wal.needs_compaction(), "compaction resets the counter");
    }

    #[test]
    fn injected_append_errors_retry_then_degrade() {
        use fa_faults::Injection;
        let path = tmp("inject");
        // First append: one flake, retried. Second append: all three
        // attempts fail -> degraded.
        let plan = FaultPlan::builder(5)
            .inject(FaultStage::WalAppendIo, Injection::Nth(vec![0, 2, 3, 4]))
            .build();
        let wal = Wal::open(&path).unwrap().with_faults(plan);
        assert_eq!(wal.append(publish("a")), Some(1), "one flake is retried");
        assert_eq!(
            wal.append(publish("b")),
            None,
            "persistent failure degrades"
        );
        assert!(wal.is_degraded());
        assert_eq!(wal.io_errors(), 4);
        assert_eq!(wal.replay().len(), 1, "degraded journal keeps its prefix");
    }

    #[test]
    fn truncate_to_records_slices_on_line_boundaries() {
        let path = tmp("truncate");
        let wal = Wal::open(&path).unwrap();
        for p in ["a", "b", "c"] {
            wal.append(publish(p));
        }
        let bytes = fs::read(&path).unwrap();
        for n in 0..=3 {
            let img = truncate_to_records(&bytes, n);
            let (records, len) = parse_prefix(&img);
            assert_eq!(records.len(), n);
            assert_eq!(len, img.len(), "truncated image is fully valid");
        }
        assert_eq!(
            truncate_to_records(&bytes, 9),
            bytes,
            "n past the end is identity"
        );
    }
}
