//! Storage backends: where WAL and checkpoint bytes physically live.
//!
//! The [`Backend`] trait is the store's only window onto the medium, so
//! the same recovery code runs against a seeded in-memory fault rig
//! ([`MemBackend`]) and a real file ([`FileBackend`]). The trait models
//! the one property crash-safety hinges on: **bytes are durable only
//! after [`Backend::sync`]** — a crash throws away everything appended
//! since, which `MemBackend` simulates exactly and a kernel does for
//! real.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::faults::StorageFault;

/// An append-only byte device with an explicit durability point.
pub trait Backend: Send {
    /// Total readable length (durable + not-yet-synced bytes).
    fn len(&mut self) -> Result<u64, StoreError>;

    /// Whether the device holds no bytes at all.
    fn is_empty(&mut self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Read the entire device.
    fn read_all(&mut self) -> Result<Vec<u8>, StoreError>;

    /// Append bytes at the end. Not durable until [`Backend::sync`].
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;

    /// Make every appended byte durable (fsync).
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Cut the device to `len` bytes (recovery drops torn tails with this).
    fn truncate(&mut self, len: u64) -> Result<(), StoreError>;

    /// Simulate power loss: discard bytes appended since the last
    /// [`Backend::sync`]. For a real file the kernel does this to us, so
    /// [`FileBackend`] treats it as a no-op.
    fn crash(&mut self);

    /// Inject a storage fault into the *durable* bytes — the disk-rot half
    /// of the fault model (the crash half is [`Backend::crash`]).
    fn inject(&mut self, fault: &StorageFault) -> Result<(), StoreError> {
        let _ = fault;
        Err(StoreError::FaultUnsupported)
    }
}

/// In-memory backend with faithful fsync semantics: appends land in a
/// volatile tail that a [`MemBackend::crash`] discards wholesale.
#[derive(Debug, Default, Clone)]
pub struct MemBackend {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// A backend whose durable image is exactly `bytes` (for replaying a
    /// captured WAL prefix in crash-sweep tests).
    pub fn from_durable(bytes: Vec<u8>) -> Self {
        MemBackend {
            durable: bytes,
            volatile: Vec::new(),
        }
    }

    /// The durable image — what a post-crash recovery would see.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }
}

impl Backend for MemBackend {
    fn len(&mut self) -> Result<u64, StoreError> {
        Ok((self.durable.len() + self.volatile.len()) as u64)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        let mut all = self.durable.clone();
        all.extend_from_slice(&self.volatile);
        Ok(all)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.volatile.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.durable.append(&mut self.volatile);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        let len = len as usize;
        if len <= self.durable.len() {
            self.durable.truncate(len);
            self.volatile.clear();
        } else {
            self.volatile.truncate(len - self.durable.len());
        }
        Ok(())
    }

    fn crash(&mut self) {
        self.volatile.clear();
    }

    fn inject(&mut self, fault: &StorageFault) -> Result<(), StoreError> {
        fault.apply(&mut self.durable);
        Ok(())
    }
}

/// File-backed backend (`std::fs`): append + `sync_data` + truncate.
///
/// An optional scripted crash point — abort the whole process after N
/// appends — lets `scripts/check.sh` kill a run mid-WAL-write and then
/// prove recovery on the survivor file.
pub struct FileBackend {
    path: PathBuf,
    file: std::fs::File,
    appends_until_abort: Option<u64>,
}

impl FileBackend {
    /// Open (creating if absent) the file at `path`. Creating the file
    /// also fsyncs its parent directory, so the new directory entry is as
    /// durable as the bytes later synced into it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut options = std::fs::OpenOptions::new();
        options.read(true).write(true);
        let file = match options.clone().create_new(true).open(&path) {
            Ok(file) => {
                sync_parent_dir(&path)?;
                file
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => options.open(&path)?,
            Err(e) => return Err(e.into()),
        };
        Ok(FileBackend {
            path,
            file,
            appends_until_abort: None,
        })
    }

    /// Scripted crash: the process aborts (simulating power loss) after
    /// `appends` more appends complete.
    pub fn crash_after_appends(mut self, appends: u64) -> Self {
        self.appends_until_abort = Some(appends);
        self
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// fsync the directory holding `path` (the working directory for a bare
/// file name).
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

impl Backend for FileBackend {
    fn len(&mut self) -> Result<u64, StoreError> {
        Ok(self.file.metadata()?.len())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::End(0))?;
        if let Some(n) = &mut self.appends_until_abort {
            if *n == 0 {
                // Simulated power loss mid-`write(2)`: half the record
                // reaches the platter, then the process dies — no
                // destructors, no flush. Recovery must see a torn tail.
                self.file.write_all(&bytes[..bytes.len() / 2])?;
                let _ = self.file.sync_data();
                eprintln!("store: scripted crash point reached, aborting");
                std::process::abort();
            }
            *n -= 1;
        }
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        Ok(())
    }

    fn crash(&mut self) {
        // A real crash is process death; nothing to simulate in-process.
    }

    fn inject(&mut self, fault: &StorageFault) -> Result<(), StoreError> {
        let mut bytes = self.read_all()?;
        fault.apply(&mut bytes);
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_crash_drops_unsynced_tail() {
        let mut b = MemBackend::new();
        b.append(b"durable").unwrap();
        b.sync().unwrap();
        b.append(b" volatile").unwrap();
        b.crash();
        assert_eq!(b.read_all().unwrap(), b"durable");
        // After a crash, appends keep working from the durable prefix.
        b.append(b"!").unwrap();
        b.sync().unwrap();
        assert_eq!(b.read_all().unwrap(), b"durable!");
    }

    #[test]
    fn mem_backend_truncate_spans_durable_and_volatile() {
        let mut b = MemBackend::new();
        b.append(b"0123").unwrap();
        b.sync().unwrap();
        b.append(b"4567").unwrap();
        b.truncate(6).unwrap();
        assert_eq!(b.read_all().unwrap(), b"012345");
        b.truncate(2).unwrap();
        assert_eq!(b.read_all().unwrap(), b"01");
    }

    #[test]
    fn file_backend_roundtrips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("dams-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path).unwrap();
            assert!(b.is_empty().unwrap());
            b.append(b"hello ").unwrap();
            b.append(b"disk").unwrap();
            b.sync().unwrap();
        }
        {
            let mut b = FileBackend::open(&path).unwrap();
            assert_eq!(b.read_all().unwrap(), b"hello disk");
            b.truncate(5).unwrap();
            assert_eq!(b.read_all().unwrap(), b"hello");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parent_dir_of_a_bare_file_name_is_the_working_directory() {
        sync_parent_dir(Path::new("wal.bin")).unwrap();
        let missing = std::env::temp_dir().join("dams-store-no-such-dir").join("wal.bin");
        assert!(sync_parent_dir(&missing).is_err());
    }
}
