//! Set-up shared by the workloads: the minted economy, the durable
//! replica store, a byte-counting storage backend, and scratch space.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_blockchain::Chain;
use dams_core::{DiversityIndex, SelectionPolicy};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
use dams_node::indexing::index_of_chain;
use dams_store::{
    group_fingerprint, wal, Backend, FileBackend, Recovered, Store, StoreConfig, StoreError,
};
use dams_workload::chainload::ChainWorkload;

/// TokenMagic batch parameter λ.
pub const LAMBDA: usize = 64;
/// Per-selection deadline budget in virtual ticks.
pub const BUDGET_TICKS: u64 = 128;

/// Every workload claims (c = 1.0, ℓ = 10), as on Monero's rings of
/// about eleven members, and selects with the second practical
/// configuration's ℓ + 1 margin, which keeps every DTRS of the new ring
/// (c, ℓ)-diverse (Theorem 6.4). On a chain with committed rings this
/// margin is what keeps a wallet's answers past `validate_ring`.
pub fn policy() -> SelectionPolicy {
    SelectionPolicy::with_margin(DiversityRequirement::new(1.0, 10))
}

/// A universe of `n` tokens whose historical transactions mint 1–4
/// tokens each.
pub fn universe(n: usize, rng: &mut StdRng) -> TokenUniverse {
    let mut hts = Vec::with_capacity(n);
    let mut ht = 0u32;
    while hts.len() < n {
        let size = rng.gen_range(1..=4usize).min(n - hts.len());
        hts.extend(std::iter::repeat_n(HtId(ht), size));
        ht += 1;
    }
    TokenUniverse::new(hts)
}

/// A chain with the key of every minted token and its diversity index.
pub struct Economy {
    pub chain: Chain,
    /// `keys[id]` owns ledger token `id`.
    pub keys: Vec<KeyPair>,
    pub index: DiversityIndex,
}

/// Mint `tokens` tokens with [`ChainWorkload::materialize`] and index them.
pub fn mint(tokens: usize, seed: u64) -> Economy {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_6e74);
    let universe = universe(tokens, &mut rng);
    let w = ChainWorkload::materialize(universe, &mut rng);
    let mut keys = vec![None; tokens];
    for t in w.universe().tokens() {
        keys[w.ledger_id(t).0 as usize] = Some(*w.key_of(t));
    }
    let keys = keys
        .into_iter()
        .map(|k| k.expect("materialize mints every token"))
        .collect();
    let index = index_of_chain(&w.chain, LAMBDA).expect("a minted chain indexes");
    Economy {
        chain: w.chain,
        keys,
        index,
    }
}

/// Bytes appended and durability calls made on one storage device.
#[derive(Debug, Default)]
pub struct IoCounts {
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub truncates: AtomicU64,
}

impl IoCounts {
    fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        Self::get(&self.bytes)
    }

    /// `FileBackend::truncate` syncs too, so every truncate is an fsync.
    pub fn fsyncs(&self) -> u64 {
        Self::get(&self.syncs) + Self::get(&self.truncates)
    }
}

/// A [`FileBackend`] that counts what the store asks of it.
pub struct Counted {
    inner: FileBackend,
    counts: Arc<IoCounts>,
}

impl Backend for Counted {
    fn len(&mut self) -> Result<u64, StoreError> {
        self.inner.len()
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.counts
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
        self.counts.truncates.fetch_add(1, Ordering::Relaxed);
        self.inner.truncate(len)
    }

    fn crash(&mut self) {
        self.inner.crash()
    }
}

/// The WAL and checkpoint devices of one store directory.
pub struct StoreFiles {
    pub dir: PathBuf,
    pub wal: Arc<IoCounts>,
    pub cp: Arc<IoCounts>,
}

impl StoreFiles {
    pub fn new(dir: PathBuf) -> Self {
        std::fs::create_dir_all(&dir).expect("create store directory");
        StoreFiles {
            dir,
            wal: Arc::default(),
            cp: Arc::default(),
        }
    }

    fn device(&self, name: &str, counts: &Arc<IoCounts>) -> Box<dyn Backend> {
        let inner = FileBackend::open(self.dir.join(name)).expect("open store file");
        Box::new(Counted {
            inner,
            counts: Arc::clone(counts),
        })
    }

    /// `Store::open` on this directory with the default configuration.
    pub fn open(&self, group: &SchnorrGroup) -> Recovered {
        Store::open(
            self.device("wal.bin", &self.wal),
            self.device("cp.bin", &self.cp),
            *group,
            StoreConfig::default(),
        )
        .expect("store opens")
    }

    /// Fresh devices holding a copy of `from`'s files (byte counters start
    /// at zero).
    pub fn copy_of(from: &StoreFiles, dir: PathBuf) -> Self {
        let to = StoreFiles::new(dir);
        for name in ["wal.bin", "cp.bin"] {
            std::fs::copy(from.dir.join(name), to.dir.join(name)).expect("copy store file");
        }
        to
    }

    pub fn fsyncs(&self) -> u64 {
        self.wal.fsyncs() + self.cp.fsyncs()
    }
}

/// Install `chain` as the minted prefix a replica starts from: its blocks
/// framed into a WAL image written in one go (one file write instead of
/// an fsync per block keeps set-up time off the disk's tail), then
/// replayed by `Store::open` and checkpointed.
pub fn install_prefix(files: &StoreFiles, chain: &Chain) {
    let mut image = wal::encode_header(group_fingerprint(chain.group()));
    for block in &chain.blocks()[1..] {
        image.extend_from_slice(&wal::frame_block(block));
    }
    std::fs::write(files.dir.join("wal.bin"), image).expect("write prefix WAL");
    let Recovered { mut store, .. } = files.open(chain.group());
    store.write_checkpoint(chain).expect("prefix checkpoint");
}

/// Scratch space under the working directory, removed on drop.
pub struct Scratch {
    dir: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(workload: &str) -> Self {
        let dir = Path::new(".spendbench-tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch { dir, next: 0 }
    }

    /// A fresh, unused sub-directory path.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("s{}", self.next))
    }

    /// Remove a sub-directory made by [`Scratch::fresh`].
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves the parent in place when other runs still use it.
        let _ = std::fs::remove_dir(Path::new(".spendbench-tmp"));
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
