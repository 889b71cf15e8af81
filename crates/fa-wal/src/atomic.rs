//! Torn-write-safe whole-file replacement.
//!
//! The one correct way to replace a file's contents on a crashy system:
//! write a temporary in the same directory, fsync it, then atomically
//! rename over the destination. A reader can then observe either the
//! old contents or the new contents, never a torn mixture. The journal
//! uses this for compaction snapshots.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Atomically replaces `path` with `bytes` (write temp + fsync +
/// rename). The temporary lives in `path`'s directory so the rename
/// cannot cross filesystems; it is removed on failure.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp_name = format!(".{}.tmp-{}", name, std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        // Durability first: the rename must not be reorderable before
        // the data it publishes.
        f.sync_all()?;
        fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_contents_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("fa-wal-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_a_directory_path() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
