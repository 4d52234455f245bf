//! Content-addressed artifact catalog with retention GC.
//!
//! A [`Catalog`] is a directory the Router (or any tool) mounts:
//!
//! ```text
//! <root>/
//!   objects/<fingerprint:016x>.hdxo   one artifact per unique content
//!   index.hdxi                        versioned index, a ckpt container
//! ```
//!
//! Objects are [`hdx_tensor::ckpt`] containers (bundles, search
//! checkpoints) addressed by the FNV-1a 64 digest of their bytes — the
//! same stable hash the checkpoint container uses for its trailing
//! checksum, so a fingerprint printed anywhere in the system always
//! means the same bytes. The index maps `(task, family, seed)` to an
//! ordered generation list and is itself a checkpoint container (one
//! format, one checksum; see [`Catalog::index_bytes`]). Both the index
//! and every object are published via
//! [`hdx_tensor::ckpt::atomic_write`] (temp file, fsync, then rename),
//! so a crashed publish never leaves a visible partial object — at
//! worst an orphaned `objects/` entry that the next GC sweep removes.
//!
//! # Retention
//!
//! [`Catalog::gc`] applies a keep-last-N-per-`(task, seed)` policy
//! (knob `HDX_CATALOG_KEEP`, see [`keep_from_env`]): within each
//! `(task, seed)` group the newest N generations survive (ordered by
//! generation number, family label as the tie-break) and the rest are
//! evicted — except pinned generations ([`Catalog::pin`]) and objects
//! under an outstanding [`Lease`], which are never collected. The
//! whole sweep is driven off the BTree index and an explicit
//! generation counter — no wall-clock anywhere — so the surviving set
//! and the rewritten index bytes are identical across runs and worker
//! counts.
//!
//! # Determinism
//!
//! Every mutation rewrites the index through the same canonical
//! serializer, keys iterate in `BTreeMap` order, and counters
//! (`catalog.publishes` / `catalog.hits` / `catalog.evictions` /
//! `catalog.bytes`) count logical operations only — the registry
//! snapshot served by the v1 `metrics` verb stays jobs-invariant.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hdx_tensor::ckpt::{self, Checkpoint, CkptError};
use hdx_tensor::knobs;

static PUBLISHES: hdx_obs::Counter = hdx_obs::Counter::new("catalog.publishes");
static HITS: hdx_obs::Counter = hdx_obs::Counter::new("catalog.hits");
static EVICTIONS: hdx_obs::Counter = hdx_obs::Counter::new("catalog.evictions");
static BYTES: hdx_obs::Gauge = hdx_obs::Gauge::new("catalog.bytes");

/// Index file name under the catalog root.
pub const INDEX_FILE: &str = "index.hdxi";
/// Object directory name under the catalog root.
pub const OBJECTS_DIR: &str = "objects";
/// Object file extension.
pub const OBJECT_EXT: &str = "hdxo";

/// Index schema version, stored in the `catalog.version` section.
const INDEX_VERSION: u64 = 1;
const VERSION_SECTION: &str = "catalog.version";
const RECORDS_SECTION: &str = "catalog.records";
const FAMILIES_SECTION: &str = "catalog.families";
/// Words per index record: task, seed, gen, fingerprint, len, pinned.
const RECORD_WORDS: usize = 6;

/// The `cat:` ref prefix catalog fingerprints travel under on the wire
/// (`load_bundle path=cat:<16 hex digits>`, `catalog_pin ref=…`).
pub const REF_PREFIX: &str = "cat:";

/// Formats a fingerprint as its canonical `cat:` ref
/// (`cat:` + 16 lowercase hex digits).
pub fn format_ref(fingerprint: u64) -> String {
    format!("{REF_PREFIX}{fingerprint:016x}")
}

/// Parses a canonical `cat:` ref back to its fingerprint. Accepts
/// exactly 16 hex digits (either case) after the prefix; anything else
/// is `None` so callers can fall through to filesystem paths.
pub fn parse_ref(s: &str) -> Option<u64> {
    let hex = s.strip_prefix(REF_PREFIX)?;
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One `(task, family, seed)` index key. `task` is the bundle task
/// code (`hdx_serve::task_code` order), `family` a free-form publisher
/// label (e.g. `train`, `workload`), `seed` the dataset seed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Bundle task code.
    pub task: u8,
    /// Publisher family label (ASCII graphic, no `:`).
    pub family: String,
    /// Dataset seed.
    pub seed: u64,
}

/// One published generation of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Generation {
    /// Monotonic per-key generation number (1-based).
    pub gen: u64,
    /// Content fingerprint (FNV-1a 64 of the object bytes).
    pub fingerprint: u64,
    /// Object length in bytes.
    pub len: u64,
    /// Pinned generations are exempt from GC and explicit eviction.
    pub pinned: bool,
}

/// Receipt returned by [`Catalog::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Receipt {
    /// Content fingerprint of the published object.
    pub fingerprint: u64,
    /// The generation number recorded under the key.
    pub gen: u64,
    /// Object length in bytes.
    pub len: u64,
}

/// What one [`Catalog::gc`] sweep did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Fingerprints whose index entries were evicted, in sweep order.
    pub evicted: Vec<u64>,
    /// Object bytes freed (deleted object files).
    pub freed: u64,
}

/// Every way a catalog operation can fail, typed.
#[derive(Debug)]
pub enum CatalogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Published bytes are not a valid checkpoint container.
    Object(CkptError),
    /// The index file is not a valid checkpoint container (bad magic,
    /// truncation, checksum, missing section, unknown version, …).
    Index(CkptError),
    /// Structurally invalid index contents.
    IndexMalformed(String),
    /// Family label is empty or contains non-graphic/`:` characters.
    BadFamily(String),
    /// No index entry references this fingerprint.
    UnknownFingerprint(u64),
    /// Object file length disagrees with the index record.
    SizeMismatch {
        /// The requested fingerprint.
        fingerprint: u64,
        /// Length the index recorded.
        expected: u64,
        /// Length on disk.
        found: u64,
    },
    /// Object bytes no longer hash to their fingerprint.
    DigestMismatch {
        /// The requested fingerprint.
        fingerprint: u64,
        /// Digest of the bytes on disk.
        found: u64,
    },
    /// Eviction refused: a generation with this fingerprint is pinned.
    Pinned(u64),
    /// Eviction refused: the object is under an outstanding lease.
    Leased(u64),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog I/O error: {e}"),
            CatalogError::Object(e) => write!(f, "published bytes are not a valid artifact: {e}"),
            CatalogError::Index(e) => write!(f, "catalog index: {e}"),
            CatalogError::IndexMalformed(msg) => write!(f, "catalog index malformed: {msg}"),
            CatalogError::BadFamily(fam) => write!(
                f,
                "family label {fam:?} must be non-empty ASCII graphic without ':'"
            ),
            CatalogError::UnknownFingerprint(fp) => {
                write!(f, "no catalog entry for fingerprint {}", format_ref(*fp))
            }
            CatalogError::SizeMismatch {
                fingerprint,
                expected,
                found,
            } => write!(
                f,
                "object {} is {found} bytes on disk, index records {expected}",
                format_ref(*fingerprint)
            ),
            CatalogError::DigestMismatch { fingerprint, found } => write!(
                f,
                "object {} bytes hash to {found:#018x} — store corrupted",
                format_ref(*fingerprint)
            ),
            CatalogError::Pinned(fp) => {
                write!(
                    f,
                    "object {} is pinned; unpin before evicting",
                    format_ref(*fp)
                )
            }
            CatalogError::Leased(fp) => write!(
                f,
                "object {} is leased by a live serving process",
                format_ref(*fp)
            ),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            CatalogError::Object(e) | CatalogError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> CatalogError {
        CatalogError::Io(e)
    }
}

type Index = BTreeMap<Key, Vec<Generation>>;

struct State {
    index: Index,
    /// Outstanding lease refcounts by fingerprint.
    leases: BTreeMap<u64, u64>,
}

struct Inner {
    root: PathBuf,
    state: Mutex<State>,
}

/// A mounted catalog. Cloning shares the same store (cheap `Arc`).
#[derive(Clone)]
pub struct Catalog {
    inner: Arc<Inner>,
}

/// RAII guard over one served object: while any lease on a
/// fingerprint is alive, [`Catalog::evict`] and [`Catalog::gc`] refuse
/// to collect it.
pub struct Lease {
    inner: Arc<Inner>,
    fingerprint: u64,
}

impl Lease {
    /// The leased fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().expect("catalog lock");
        if let Some(n) = state.leases.get_mut(&self.fingerprint) {
            *n -= 1;
            if *n == 0 {
                state.leases.remove(&self.fingerprint);
            }
        }
    }
}

impl Catalog {
    /// Mounts (creating if absent) the catalog at `root`: ensures the
    /// object directory exists, removes temp files a crashed publish
    /// left behind, and loads + validates the index.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Io`] on filesystem failures plus every index
    /// validation error.
    pub fn open(root: &Path) -> Result<Catalog, CatalogError> {
        let objects = root.join(OBJECTS_DIR);
        std::fs::create_dir_all(&objects)?;
        for entry in std::fs::read_dir(&objects)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                std::fs::remove_file(&path)?;
            }
        }
        let index_path = root.join(INDEX_FILE);
        let index = if index_path.exists() {
            let bytes = std::fs::read(&index_path)?;
            index_of(&Checkpoint::from_bytes(&bytes).map_err(CatalogError::Index)?)?
        } else {
            Index::new()
        };
        BYTES.set(resident_bytes(&index));
        Ok(Catalog {
            inner: Arc::new(Inner {
                root: root.to_path_buf(),
                state: Mutex::new(State {
                    index,
                    leases: BTreeMap::new(),
                }),
            }),
        })
    }

    /// The mounted root directory.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    fn object_path(&self, fingerprint: u64) -> PathBuf {
        self.inner
            .root
            .join(OBJECTS_DIR)
            .join(format!("{fingerprint:016x}.{OBJECT_EXT}"))
    }

    fn write_index(&self, index: &Index) -> Result<(), CatalogError> {
        index_checkpoint(index)
            .save(&self.inner.root.join(INDEX_FILE))
            .map_err(io_of_ckpt)?;
        BYTES.set(resident_bytes(index));
        Ok(())
    }

    /// Publishes one artifact under `(task, family, seed)`: validates
    /// the bytes as a checkpoint container, writes the object
    /// atomically (content-addressed — identical bytes are stored
    /// once), and appends a generation to the index. Republishing
    /// bytes already recorded under the same key is idempotent and
    /// returns the existing receipt.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Object`] when `bytes` is not a valid container,
    /// [`CatalogError::BadFamily`] for an unusable family label, and
    /// [`CatalogError::Io`] on filesystem failures.
    pub fn publish(
        &self,
        task: u8,
        family: &str,
        seed: u64,
        bytes: &[u8],
    ) -> Result<Receipt, CatalogError> {
        check_family(family)?;
        Checkpoint::from_bytes(bytes).map_err(CatalogError::Object)?;
        let fingerprint = ckpt::fnv1a(bytes);
        let len = bytes.len() as u64;
        let mut state = self.inner.state.lock().expect("catalog lock");
        let key = Key {
            task,
            family: family.to_owned(),
            seed,
        };
        if let Some(existing) = state
            .index
            .get(&key)
            .and_then(|gens| gens.iter().find(|g| g.fingerprint == fingerprint))
        {
            return Ok(Receipt {
                fingerprint,
                gen: existing.gen,
                len,
            });
        }
        let object = self.object_path(fingerprint);
        if !object.exists() {
            ckpt::atomic_write(&object, bytes).map_err(io_of_ckpt)?;
        }
        let gens = state.index.entry(key).or_default();
        let gen = gens.last().map_or(1, |g| g.gen + 1);
        gens.push(Generation {
            gen,
            fingerprint,
            len,
            pinned: false,
        });
        self.write_index(&state.index)?;
        PUBLISHES.incr();
        Ok(Receipt {
            fingerprint,
            gen,
            len,
        })
    }

    /// Reads one object by fingerprint, validating length against the
    /// index record and re-hashing the bytes against the fingerprint.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownFingerprint`] for an unindexed ref,
    /// [`CatalogError::SizeMismatch`] / [`CatalogError::DigestMismatch`]
    /// for a corrupted store, [`CatalogError::Io`] on read failures.
    pub fn get(&self, fingerprint: u64) -> Result<Vec<u8>, CatalogError> {
        let expected = {
            let state = self.inner.state.lock().expect("catalog lock");
            find_len(&state.index, fingerprint)
                .ok_or(CatalogError::UnknownFingerprint(fingerprint))?
        };
        let bytes = std::fs::read(self.object_path(fingerprint))?;
        if bytes.len() as u64 != expected {
            return Err(CatalogError::SizeMismatch {
                fingerprint,
                expected,
                found: bytes.len() as u64,
            });
        }
        let found = ckpt::fnv1a(&bytes);
        if found != fingerprint {
            return Err(CatalogError::DigestMismatch { fingerprint, found });
        }
        HITS.incr();
        Ok(bytes)
    }

    /// Snapshot of the whole index in key order.
    pub fn list(&self) -> Vec<(Key, Vec<Generation>)> {
        let state = self.inner.state.lock().expect("catalog lock");
        state
            .index
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Sets or clears the pin flag on every generation carrying
    /// `fingerprint`, returning how many entries changed state.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownFingerprint`] when nothing references
    /// the fingerprint; [`CatalogError::Io`] on index-write failures.
    pub fn pin(&self, fingerprint: u64, on: bool) -> Result<u64, CatalogError> {
        let mut state = self.inner.state.lock().expect("catalog lock");
        let mut touched = 0u64;
        let mut known = false;
        for gens in state.index.values_mut() {
            for g in gens.iter_mut().filter(|g| g.fingerprint == fingerprint) {
                known = true;
                if g.pinned != on {
                    g.pinned = on;
                    touched += 1;
                }
            }
        }
        if !known {
            return Err(CatalogError::UnknownFingerprint(fingerprint));
        }
        if touched > 0 {
            self.write_index(&state.index)?;
        }
        Ok(touched)
    }

    /// Evicts every generation carrying `fingerprint` and deletes the
    /// object file, returning the bytes freed.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Pinned`] / [`CatalogError::Leased`] when the
    /// object is protected, [`CatalogError::UnknownFingerprint`] when
    /// nothing references it, [`CatalogError::Io`] on filesystem
    /// failures.
    pub fn evict(&self, fingerprint: u64) -> Result<u64, CatalogError> {
        let mut state = self.inner.state.lock().expect("catalog lock");
        let len = find_len(&state.index, fingerprint)
            .ok_or(CatalogError::UnknownFingerprint(fingerprint))?;
        let pinned = state
            .index
            .values()
            .flatten()
            .any(|g| g.fingerprint == fingerprint && g.pinned);
        if pinned {
            return Err(CatalogError::Pinned(fingerprint));
        }
        if state.leases.get(&fingerprint).copied().unwrap_or(0) > 0 {
            return Err(CatalogError::Leased(fingerprint));
        }
        for gens in state.index.values_mut() {
            gens.retain(|g| g.fingerprint != fingerprint);
        }
        state.index.retain(|_, gens| !gens.is_empty());
        remove_object_file(&self.object_path(fingerprint))?;
        self.write_index(&state.index)?;
        EVICTIONS.incr();
        Ok(len)
    }

    /// Takes a lease on `fingerprint`: until the returned guard drops,
    /// neither [`Catalog::evict`] nor [`Catalog::gc`] will collect the
    /// object.
    ///
    /// # Errors
    ///
    /// [`CatalogError::UnknownFingerprint`] when nothing references
    /// the fingerprint.
    pub fn lease(&self, fingerprint: u64) -> Result<Lease, CatalogError> {
        let mut state = self.inner.state.lock().expect("catalog lock");
        if find_len(&state.index, fingerprint).is_none() {
            return Err(CatalogError::UnknownFingerprint(fingerprint));
        }
        *state.leases.entry(fingerprint).or_insert(0) += 1;
        Ok(Lease {
            inner: Arc::clone(&self.inner),
            fingerprint,
        })
    }

    /// One retention sweep: within each `(task, seed)` group (families
    /// pooled), the newest `keep` generations survive — ordered by
    /// generation number descending with the `(family, seed)` key as
    /// the deterministic tie-break — and every older, unpinned,
    /// unleased generation is evicted. Object files no longer
    /// referenced by any index entry (including orphans from crashed
    /// publishes) are deleted.
    ///
    /// # Errors
    ///
    /// [`CatalogError::Io`] on filesystem failures.
    pub fn gc(&self, keep: usize) -> Result<GcReport, CatalogError> {
        // A GC candidate: (gen, key, pinned, fingerprint).
        type Candidate = (u64, Key, bool, u64);
        let mut state = self.inner.state.lock().expect("catalog lock");
        let mut groups: BTreeMap<(u8, u64), Vec<Candidate>> = BTreeMap::new();
        for (key, gens) in &state.index {
            for g in gens {
                groups.entry((key.task, key.seed)).or_default().push((
                    g.gen,
                    key.clone(),
                    g.pinned,
                    g.fingerprint,
                ));
            }
        }
        let mut drop_map: BTreeMap<Key, std::collections::BTreeSet<u64>> = BTreeMap::new();
        let mut report = GcReport::default();
        for candidates in groups.values_mut() {
            // Newest first; key order breaks generation-number ties.
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for (gen, key, pinned, fp) in candidates.iter().skip(keep) {
                if *pinned || state.leases.get(fp).copied().unwrap_or(0) > 0 {
                    continue;
                }
                drop_map.entry(key.clone()).or_default().insert(*gen);
                report.evicted.push(*fp);
            }
        }
        for (key, gens) in state.index.iter_mut() {
            if let Some(dropped) = drop_map.get(key) {
                gens.retain(|g| !dropped.contains(&g.gen));
            }
        }
        state.index.retain(|_, gens| !gens.is_empty());
        // Delete object files nothing references any more — including
        // orphans a crashed publish left behind. Sorted directory walk
        // keeps the deletion order deterministic.
        let referenced: std::collections::BTreeSet<u64> = state
            .index
            .values()
            .flatten()
            .map(|g| g.fingerprint)
            .collect();
        let mut on_disk: Vec<PathBuf> = std::fs::read_dir(self.inner.root.join(OBJECTS_DIR))?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        on_disk.sort();
        for path in on_disk {
            let fp = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let Some(fp) = fp else { continue };
            if !referenced.contains(&fp) && state.leases.get(&fp).copied().unwrap_or(0) == 0 {
                if let Ok(meta) = std::fs::metadata(&path) {
                    report.freed += meta.len();
                }
                remove_object_file(&path)?;
            }
        }
        self.write_index(&state.index)?;
        EVICTIONS.add(report.evicted.len() as u64);
        Ok(report)
    }

    /// [`Catalog::gc`] with the retention bound from `HDX_CATALOG_KEEP`
    /// ([`keep_from_env`]); a no-op returning an empty report when the
    /// knob is unset (unbounded retention).
    ///
    /// # Errors
    ///
    /// The errors of [`Catalog::gc`].
    pub fn gc_from_env(&self) -> Result<GcReport, CatalogError> {
        match keep_from_env() {
            Some(keep) => self.gc(keep),
            None => Ok(GcReport::default()),
        }
    }

    /// The canonical index bytes as currently held in memory — what
    /// [`Catalog::open`] would read back; tests pin these across runs
    /// and worker counts. A checkpoint container with three sections:
    /// `catalog.version` (u64 scalar), `catalog.records` (one
    /// `[records, 6]` u64 matrix of task, seed, gen, fingerprint, len,
    /// pinned, in BTree order) and `catalog.families` (the records'
    /// family labels joined by `\n`, via [`Checkpoint::put_bytes`]).
    pub fn index_bytes(&self) -> Vec<u8> {
        let state = self.inner.state.lock().expect("catalog lock");
        index_checkpoint(&state.index).to_bytes()
    }
}

/// Reads `HDX_CATALOG_KEEP` strictly: `None` when unset (unbounded
/// retention), `Some(n)` for a positive integer.
///
/// # Panics
///
/// Panics with the registry's uniform message when the knob is set but
/// not a positive integer — a mistyped retention bound must never
/// silently keep everything (or nothing).
pub fn keep_from_env() -> Option<usize> {
    let raw = knobs::raw("HDX_CATALOG_KEEP");
    match knobs::parse_positive(
        "HDX_CATALOG_KEEP",
        "generation count",
        "unset it for unbounded retention",
        raw.as_deref(),
    ) {
        Ok(v) => v,
        Err(msg) => panic!("{msg}"),
    }
}

/// `atomic_write` only fails with `CkptError::Io`; unwrap back to the
/// catalog's own I/O variant.
fn io_of_ckpt(e: CkptError) -> CatalogError {
    match e {
        CkptError::Io(io) => CatalogError::Io(io),
        other => CatalogError::Object(other),
    }
}

fn find_len(index: &Index, fingerprint: u64) -> Option<u64> {
    index
        .values()
        .flatten()
        .find(|g| g.fingerprint == fingerprint)
        .map(|g| g.len)
}

fn resident_bytes(index: &Index) -> u64 {
    let unique: BTreeMap<u64, u64> = index
        .values()
        .flatten()
        .map(|g| (g.fingerprint, g.len))
        .collect();
    unique.values().sum()
}

/// Deleting an already-gone object is fine (a previous crash between
/// the file delete and the index rewrite).
fn remove_object_file(path: &Path) -> Result<(), CatalogError> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(CatalogError::Io(e)),
    }
}

/// Family labels are non-empty ASCII graphic without `:` — which also
/// keeps the index's `\n`-joined label section unambiguous.
fn check_family(family: &str) -> Result<(), CatalogError> {
    if family.is_empty() || family.bytes().any(|b| !b.is_ascii_graphic() || b == b':') {
        return Err(CatalogError::BadFamily(family.to_owned()));
    }
    Ok(())
}

/// The index as its canonical container (layout on [`Catalog::index_bytes`]).
fn index_checkpoint(index: &Index) -> Checkpoint {
    let mut rows = Vec::new();
    let mut families = Vec::new();
    for (key, gens) in index {
        for g in gens {
            let task = u64::from(key.task);
            rows.extend([
                task,
                key.seed,
                g.gen,
                g.fingerprint,
                g.len,
                u64::from(g.pinned),
            ]);
            families.push(key.family.as_str());
        }
    }
    let mut c = Checkpoint::new();
    c.put_u64(VERSION_SECTION, &[1], &[INDEX_VERSION]);
    c.put_u64(RECORDS_SECTION, &[families.len(), RECORD_WORDS], &rows);
    c.put_bytes(FAMILIES_SECTION, families.join("\n").as_bytes());
    c
}

/// Reads and validates the index out of its container.
fn index_of(c: &Checkpoint) -> Result<Index, CatalogError> {
    let version = c
        .get_scalar_u64(VERSION_SECTION)
        .map_err(CatalogError::Index)?;
    if version != INDEX_VERSION {
        let v = u32::try_from(version).unwrap_or(u32::MAX);
        return Err(CatalogError::Index(CkptError::UnsupportedVersion(v)));
    }
    let (shape, rows) = c.get_u64(RECORDS_SECTION).map_err(CatalogError::Index)?;
    if shape.len() != 2 || shape[1] != RECORD_WORDS {
        return Err(CatalogError::Index(CkptError::ShapeMismatch {
            name: RECORDS_SECTION.to_owned(),
            expected: vec![rows.len() / RECORD_WORDS, RECORD_WORDS],
            found: shape.to_vec(),
        }));
    }
    let labels = c.get_bytes(FAMILIES_SECTION).map_err(CatalogError::Index)?;
    let labels = std::str::from_utf8(&labels)
        .map_err(|_| CatalogError::IndexMalformed("family is not UTF-8".to_owned()))?;
    let families: Vec<&str> = if labels.is_empty() {
        Vec::new()
    } else {
        labels.split('\n').collect()
    };
    if families.len() != shape[0] {
        return Err(CatalogError::IndexMalformed(format!(
            "{} family labels for {} records",
            families.len(),
            shape[0]
        )));
    }
    let mut index = Index::new();
    for (row, family) in rows.chunks_exact(RECORD_WORDS).zip(families) {
        let [task, seed, gen, fingerprint, len, pinned]: [u64; RECORD_WORDS] =
            row.try_into().expect("exact chunk");
        check_family(family)?;
        let task = u8::try_from(task)
            .map_err(|_| CatalogError::IndexMalformed(format!("task code {task} exceeds 255")))?;
        let pinned = match pinned {
            0 => false,
            1 => true,
            other => {
                return Err(CatalogError::IndexMalformed(format!(
                    "pin flag must be 0 or 1, found {other}"
                )))
            }
        };
        let key = Key {
            task,
            family: family.to_owned(),
            seed,
        };
        let gens: &mut Vec<Generation> = index.entry(key).or_default();
        if gens.last().is_some_and(|prev: &Generation| prev.gen >= gen) {
            return Err(CatalogError::IndexMalformed(
                "generations must be strictly ascending within a key".to_owned(),
            ));
        }
        gens.push(Generation {
            gen,
            fingerprint,
            len,
            pinned,
        });
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdx_catalog_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn container(payload: &[u8]) -> Vec<u8> {
        let mut c = Checkpoint::new();
        c.put_bytes("payload", payload);
        c.to_bytes()
    }

    #[test]
    fn refs_round_trip_and_reject_junk() {
        let fp = 0x0123_4567_89ab_cdefu64;
        assert_eq!(parse_ref(&format_ref(fp)), Some(fp));
        assert_eq!(parse_ref("cat:"), None);
        assert_eq!(parse_ref("cat:123"), None);
        assert_eq!(parse_ref("cat:zzzzzzzzzzzzzzzz"), None);
        assert_eq!(parse_ref("cat:0123456789abcdef0"), None);
        assert_eq!(parse_ref("/tmp/bundle.ckpt"), None);
    }

    #[test]
    fn publish_get_round_trips_and_is_idempotent() {
        let root = temp_root("publish");
        let cat = Catalog::open(&root).expect("open");
        let bytes = container(b"hello");
        let r1 = cat.publish(0, "train", 7, &bytes).expect("publish");
        let r2 = cat.publish(0, "train", 7, &bytes).expect("republish");
        assert_eq!(r1, r2, "identical bytes under one key share a generation");
        assert_eq!(cat.get(r1.fingerprint).expect("get"), bytes);
        let listed = cat.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].1.last().expect("one generation").fingerprint,
            r1.fingerprint
        );
        // A fresh mount reads the same index back.
        let again = Catalog::open(&root).expect("reopen");
        assert_eq!(again.index_bytes(), cat.index_bytes());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn publish_rejects_non_container_bytes_and_bad_families() {
        let root = temp_root("reject");
        let cat = Catalog::open(&root).expect("open");
        assert!(matches!(
            cat.publish(0, "train", 0, b"not a checkpoint"),
            Err(CatalogError::Object(_))
        ));
        let ok = container(b"x");
        assert!(matches!(
            cat.publish(0, "", 0, &ok),
            Err(CatalogError::BadFamily(_))
        ));
        assert!(matches!(
            cat.publish(0, "a:b", 0, &ok),
            Err(CatalogError::BadFamily(_))
        ));
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn corrupted_object_fails_closed() {
        let root = temp_root("corrupt");
        let cat = Catalog::open(&root).expect("open");
        let r = cat.publish(1, "train", 0, &container(b"abc")).expect("pub");
        let path = root
            .join(OBJECTS_DIR)
            .join(format!("{:016x}.{OBJECT_EXT}", r.fingerprint));
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert!(matches!(
            cat.get(r.fingerprint),
            Err(CatalogError::DigestMismatch { .. })
        ));
        std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("truncate");
        assert!(matches!(
            cat.get(r.fingerprint),
            Err(CatalogError::SizeMismatch { .. })
        ));
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn gc_keeps_last_n_and_respects_pins_and_leases() {
        let root = temp_root("gc");
        let cat = Catalog::open(&root).expect("open");
        let fps: Vec<u64> = (0..5)
            .map(|i| {
                cat.publish(0, "train", 3, &container(format!("gen{i}").as_bytes()))
                    .expect("publish")
                    .fingerprint
            })
            .collect();
        cat.pin(fps[0], true).expect("pin oldest");
        let lease = cat.lease(fps[1]).expect("lease");
        let report = cat.gc(2).expect("gc");
        // Newest two survive by policy; fps[0] by pin; fps[1] by lease.
        assert_eq!(report.evicted, vec![fps[2]]);
        let listed: Vec<u64> = cat
            .list()
            .into_iter()
            .flat_map(|(_, gens)| gens.into_iter().map(|g| g.fingerprint))
            .collect();
        assert_eq!(listed, vec![fps[0], fps[1], fps[3], fps[4]]);
        // Dropping the lease frees fps[1] for the next sweep.
        drop(lease);
        let report = cat.gc(2).expect("gc 2");
        assert_eq!(report.evicted, vec![fps[1]]);
        // Pinned objects survive even keep=0 and refuse explicit evict.
        assert!(matches!(cat.evict(fps[0]), Err(CatalogError::Pinned(_))));
        let report = cat.gc(0).expect("gc 0");
        // Sweep order walks each group newest-first.
        assert_eq!(report.evicted, vec![fps[4], fps[3]]);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn gc_sweeps_orphan_objects_and_stale_temps() {
        let root = temp_root("orphan");
        let cat = Catalog::open(&root).expect("open");
        cat.publish(0, "train", 0, &container(b"keep"))
            .expect("pub");
        // A crashed publish: object written, index never updated.
        std::fs::write(
            root.join(OBJECTS_DIR).join("00000000deadbeef.hdxo"),
            b"orphan",
        )
        .expect("orphan");
        std::fs::write(
            root.join(OBJECTS_DIR).join("0000000000000001.hdxo.tmp"),
            b"partial",
        )
        .expect("tmp");
        let report = cat.gc(usize::MAX).expect("gc");
        assert!(report.evicted.is_empty());
        assert!(!root
            .join(OBJECTS_DIR)
            .join("00000000deadbeef.hdxo")
            .exists());
        // Temps are cleaned on the next mount, not by GC.
        let _ = Catalog::open(&root).expect("reopen");
        assert!(!root
            .join(OBJECTS_DIR)
            .join("0000000000000001.hdxo.tmp")
            .exists());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn index_codec_rejects_corruption() {
        let mut index = Index::new();
        index.insert(
            Key {
                task: 2,
                family: "workload".to_owned(),
                seed: 9,
            },
            vec![Generation {
                gen: 1,
                fingerprint: 42,
                len: 10,
                pinned: true,
            }],
        );
        let load = |b: &[u8]| {
            Checkpoint::from_bytes(b)
                .map_err(CatalogError::Index)
                .and_then(|c| index_of(&c))
        };
        let bytes = index_checkpoint(&index).to_bytes();
        assert_eq!(&bytes[..4], b"HDXC", "the index is a ckpt container");
        assert_eq!(load(&bytes).expect("round trip"), index);
        assert!(matches!(
            load(&bytes[..bytes.len() - 1]),
            Err(CatalogError::Index(CkptError::Truncated))
        ));
        let mut flipped = bytes.clone();
        *flipped.last_mut().expect("crc byte") ^= 1;
        assert!(matches!(
            load(&flipped),
            Err(CatalogError::Index(CkptError::ChecksumMismatch { .. }))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            load(&bad_magic),
            Err(CatalogError::Index(CkptError::BadMagic))
        ));

        // Checksum-valid containers with invalid contents.
        let raw = |rows: &[u64], families: &str| {
            let mut c = Checkpoint::new();
            c.put_u64(VERSION_SECTION, &[1], &[INDEX_VERSION]);
            c.put_u64(
                RECORDS_SECTION,
                &[rows.len() / RECORD_WORDS, RECORD_WORDS],
                rows,
            );
            c.put_bytes(FAMILIES_SECTION, families.as_bytes());
            index_of(&c)
        };
        let row = [2, 9, 1, 42, 10, 0];
        assert!(raw(&row, "workload").is_ok());
        assert!(matches!(raw(&row, "a:b"), Err(CatalogError::BadFamily(_))));
        assert!(matches!(
            raw(&row, ""),
            Err(CatalogError::IndexMalformed(_))
        ));
        assert!(matches!(
            raw(&[2, 9, 1, 42, 10, 2], "w"),
            Err(CatalogError::IndexMalformed(_))
        ));
        assert!(matches!(
            raw(&[256, 9, 1, 42, 10, 0], "w"),
            Err(CatalogError::IndexMalformed(_))
        ));
        let twice = [row, row].concat();
        assert!(matches!(
            raw(&twice, "w\nw"),
            Err(CatalogError::IndexMalformed(_))
        ));
    }

    #[test]
    fn old_hdxi_index_fails_open_with_a_typed_error() {
        // The retired bespoke format: `HDXI`, version 1, zero records,
        // FNV-1a trailer.
        let mut old = b"HDXI\x01\0\0\0\0\0\0\0".to_vec();
        old.extend_from_slice(&ckpt::fnv1a(&old).to_le_bytes());
        let root = temp_root("hdxi");
        std::fs::create_dir_all(&root).expect("mkdir");
        std::fs::write(root.join(INDEX_FILE), &old).expect("write");
        assert!(matches!(
            Catalog::open(&root),
            Err(CatalogError::Index(CkptError::BadMagic))
        ));
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
