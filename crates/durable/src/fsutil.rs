//! Crash-safe file publication for the checkpoint store.

use crate::codec::DurableError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// An open handle on a store's directory, kept for the store's life so
/// publishing a file fsyncs the directory without re-opening it.
pub(crate) struct DirHandle(#[cfg(unix)] File);

impl DirHandle {
    pub(crate) fn open(dir: &Path) -> Result<DirHandle, DurableError> {
        #[cfg(unix)]
        return Ok(DirHandle(File::open(dir)?));
        // Directories cannot be opened for syncing on non-unix platforms;
        // the rename is still atomic, just not durably ordered.
        #[cfg(not(unix))]
        return Ok(DirHandle());
    }

    fn sync(&self) -> Result<(), DurableError> {
        #[cfg(unix)]
        self.0.sync_all()?;
        Ok(())
    }
}

/// Write `bytes` to `path` (a file directly inside `dir`) so that a reader
/// never observes a torn file and a completed call survives power loss:
///
/// 1. write to a `<name>.tmp` sibling,
/// 2. `fsync` the temp file (data durable before it is named),
/// 3. rename over `path` (atomic publication),
/// 4. `fsync` the directory (the rename itself durable).
///
/// Without steps 2 and 4 the rename can reach disk before the data does,
/// and an OS crash then leaves a "latest" file full of zeros — `.tmp` +
/// rename alone only protects against *process* crashes. A failed call
/// removes its `.tmp` (best effort; a full disk is when the space
/// matters) and returns the original error; a crash mid-write still
/// leaves at worst a stray `.tmp` sibling, which [`remove_temp_files`]
/// clears on the next store open.
pub(crate) fn write_atomic(dir: &DirHandle, path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let mut tmp_name = path
        .file_name()
        .expect("write_atomic: path has a file name")
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let publish = || -> Result<(), DurableError> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    };
    if let Err(e) = publish() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    dir.sync()
}

/// Delete stray `*.tmp` files left by a crash mid-[`write_atomic`].
pub(crate) fn remove_temp_files(dir: &Path) -> Result<(), DurableError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.ends_with(".tmp"))
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_publish_leaves_no_tmp_behind() {
        let dir = std::env::temp_dir().join(format!("lmerge-fsutil-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The rename target is a non-empty directory: write and fsync
        // succeed, the rename cannot.
        let target = dir.join("ck-00000000-snap.lmck");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let handle = DirHandle::open(&dir).unwrap();
        let err = write_atomic(&handle, &target, b"bytes").expect_err("rename onto a directory");
        assert!(matches!(err, DurableError::Io(_)), "{err}");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![target.file_name().unwrap().to_os_string()]);
        // The happy path still publishes and cleans up after itself.
        let fine = dir.join("ck-00000001-snap.lmck");
        write_atomic(&handle, &fine, b"bytes").unwrap();
        assert_eq!(std::fs::read(&fine).unwrap(), b"bytes");
        assert!(!dir.join("ck-00000001-snap.lmck.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
