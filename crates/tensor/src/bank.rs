//! A persistent, process-wide cache of compiled [`Program`]s and their
//! replay [`Session`]s.
//!
//! The training hot loops — the sharded gradient step
//! ([`crate::shard`]) behind `Estimator::train` and `FinalNet::train`,
//! the engine's hardware head, and the engine's task-branch replay of
//! the supernet w-step and α-step (sampled and full mixture alike) —
//! each replay a graph whose *shape* is a pure function of a handful
//! of configuration values — MLP dimensions, shard row count, batch
//! size, method, sampled path sets. A meta-search runs those loops many
//! times (several estimators and final networks per Table-1 row), and
//! before this module each call re-lowered the same tape and
//! re-allocated the same arenas. The bank keys a compiled program by a
//! caller-computed fingerprint ([`bank_key`]) of **the graph's shape**
//! and hands out cached sessions, so the second and every later call
//! skips straight to bind-and-replay.
//!
//! # Correctness contract
//!
//! * A program is keyed by the graph's shape; every value is a bound
//!   leaf. The key covers node shapes and topology (and the literals of
//!   the recording code, which a call-site tag fixes). Every value that
//!   comes from a request, an artifact or a step — parameters,
//!   minibatches, cross-entropy targets, per-request constants — is a
//!   leaf (or target) the caller binds on every checkout, so values
//!   may differ between calls sharing a key and no key hashes one.
//! * A checked-out session may be dirty (arbitrary arena contents from
//!   a previous lease). Replay overwrites every observable value: the
//!   caller rebinds its leaves, `forward` recomputes every non-leaf,
//!   and `backward` reassigns (or pre-zeroes) every gradient slot — so
//!   a dirty session is bit-identical to a fresh one. Pinned by this
//!   module's tests and `tests/determinism.rs`.
//! * Sessions are checked out exclusively ([`SessionLease`]); parallel
//!   workers on the same key each get their own session.
//!
//! # Compiling outside the lock
//!
//! The bank mutex only guards the entry map, counters, and idle
//! session pools; [`SessionBank::checkout`] never compiles while
//! holding it. A miss inserts an entry whose program lives in a per-key
//! once-cell, releases the mutex, and compiles into that cell. A
//! concurrent checkout of the same key waits on that cell alone;
//! checkouts of every other key (hits included) proceed. Each inserted
//! key is counted as exactly one miss and compiled exactly once, as in
//! a serial run. A `compile` that panics removes its still-empty entry
//! before the panic propagates, so the bank stays usable and the next
//! checkout of that key compiles afresh.
//!
//! # Bounded capacity (LRU)
//!
//! A long-lived server would otherwise accumulate one program per
//! fingerprint forever (every final-net architecture keys its own
//! shard programs). [`SessionBank::set_capacity`] — or the
//! `HDX_BANK_CAP` environment variable for the global bank — caps the
//! number of cached programs; inserting past the cap evicts the
//! least-recently-checked-out entries. Eviction never changes any
//! result: a re-used key simply recompiles (a cache miss), and
//! outstanding leases on an evicted entry stay valid — their sessions
//! are discarded instead of re-pooled on return, exactly as with
//! [`SessionBank::clear`]. Hits, misses, and evictions are counted and
//! surfaced through [`SessionBank::stats`] for the serving layer.
//!
//! # Example
//!
//! ```
//! use hdx_tensor::{bank_key, Program, SessionBank, Tape, Tensor, Var};
//! use std::sync::Arc;
//!
//! struct Meta { x: Var, out: Var }
//!
//! let compile = || {
//!     let mut tape = Tape::new();
//!     let x = tape.leaf(Tensor::row(&[0.0, 0.0]));
//!     let out = tape.dot(x, x); // Σ x²
//!     (Program::compile(&tape, &[out], &[]), Meta { x, out })
//! };
//! let key = bank_key("example-square", &2usize);
//! for step in 0..3 {
//!     // The first checkout compiles; later ones reuse the program
//!     // and the session (same arena, zero allocations).
//!     let mut lease = SessionBank::global().checkout(key, compile);
//!     let meta = lease.meta::<Meta>();
//!     let (x, out) = (meta.x, meta.out);
//!     let sess = lease.session();
//!     sess.bind(x, &[step as f32, 1.0]);
//!     sess.forward();
//!     assert_eq!(sess.scalar(out), (step * step) as f32 + 1.0);
//! }
//! assert!(SessionBank::global().stats().programs >= 1);
//! ```

use crate::program::{Program, Session};
use hdx_obs::{Counter, Gauge};
use std::any::Any;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Obs mirrors of the bank counters (deterministic magnitudes; the
/// authoritative per-bank numbers stay in [`BankStats`]). Process-wide
/// across every bank instance, like the rest of the obs registry.
static OBS_HITS: Counter = Counter::new("bank.hit");
static OBS_MISSES: Counter = Counter::new("bank.miss");
static OBS_EVICTIONS: Counter = Counter::new("bank.evict");
static OBS_COMPILES: Counter = Counter::new("bank.compile");
static OBS_PROGRAMS: Gauge = Gauge::new("bank.programs");

/// Fingerprints a program identity for [`SessionBank::checkout`]: a
/// distinguishing tag (one per call site) plus the graph's shape,
/// hashed with a deterministic hasher.
pub fn bank_key<H: Hash + ?Sized>(tag: &str, parts: &H) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    parts.hash(&mut h);
    h.finish()
}

/// Parses the `HDX_BANK_CAP` environment value: `None` when unset
/// (unbounded), `Some(n)` for a positive entry count, and an error
/// message for anything else — a mistyped cap must not silently mean
/// "unbounded" on a long-lived server.
///
/// # Errors
///
/// See [`crate::knobs::parse_positive`], which owns the error style.
pub fn parse_bank_cap_env(value: Option<&str>) -> Result<Option<usize>, String> {
    crate::knobs::parse_positive(
        "HDX_BANK_CAP",
        "program count",
        "unset it for unbounded",
        value,
    )
}

/// A compiled program plus the caller metadata its compile returned.
struct Compiled {
    prog: Arc<Program>,
    meta: Arc<dyn Any + Send + Sync>,
}

struct Entry {
    /// Filled once, outside the bank mutex, by the checkout that
    /// inserted the entry; other checkouts of the key wait on it alone.
    compiled: Arc<OnceLock<Compiled>>,
    /// Idle sessions, returned by dropped leases.
    free: Vec<Session>,
    /// Logical timestamp of the last checkout (LRU ordering).
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    /// Keyed by [`bank_key`] fingerprint. A `BTreeMap` so eviction
    /// scans (and any future introspection) visit entries in one
    /// key-determined order on every host.
    entries: BTreeMap<u64, Entry>,
    /// Monotonic checkout counter driving `last_used`.
    tick: u64,
    /// Maximum cached programs; `None` = unbounded.
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// Evicts least-recently-used entries until at most `cap` remain.
    /// Entries are dropped whole (program + idle sessions); leases on
    /// an evicted key stay valid and discard their session on return.
    fn evict_to(&mut self, cap: usize) {
        while self.entries.len() > cap {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            self.entries.remove(&victim);
            self.evictions += 1;
            OBS_EVICTIONS.incr();
        }
    }
}

/// Cumulative cache counters plus current occupancy, as reported by
/// [`SessionBank::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankStats {
    /// Distinct compiled programs currently cached.
    pub programs: usize,
    /// Idle (checked-in) sessions across all programs.
    pub idle_sessions: usize,
    /// Checkouts that found a cached program.
    pub hits: u64,
    /// Checkouts that had to compile.
    pub misses: u64,
    /// Entries evicted by the LRU capacity cap.
    pub evictions: u64,
    /// The capacity cap in force (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl BankStats {
    /// Hit fraction over all checkouts (0 when none have happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The cache: compiled programs with caller metadata plus pooled
/// sessions, keyed by [`bank_key`] fingerprints. See the module docs
/// for the keying contract and the LRU capacity behavior.
#[derive(Default)]
pub struct SessionBank {
    inner: Mutex<Inner>,
}

impl SessionBank {
    /// An empty, unbounded bank (tests; production code uses
    /// [`SessionBank::global`]).
    pub fn new() -> SessionBank {
        SessionBank::default()
    }

    /// An empty bank with an LRU capacity cap.
    pub fn with_capacity(capacity: Option<usize>) -> SessionBank {
        let bank = SessionBank::default();
        bank.set_capacity(capacity);
        bank
    }

    /// The process-wide bank every training loop shares. Its capacity
    /// comes from `HDX_BANK_CAP` (read once, on first use; unset =
    /// unbounded).
    ///
    /// # Panics
    ///
    /// Panics on first use if `HDX_BANK_CAP` is set but not a positive
    /// integer (see [`parse_bank_cap_env`]).
    pub fn global() -> &'static SessionBank {
        static BANK: OnceLock<SessionBank> = OnceLock::new();
        BANK.get_or_init(|| {
            let env = crate::knobs::raw("HDX_BANK_CAP");
            match parse_bank_cap_env(env.as_deref()) {
                Ok(cap) => SessionBank::with_capacity(cap),
                Err(msg) => panic!("{msg}"),
            }
        })
    }

    /// Sets (or removes) the LRU capacity cap, evicting immediately if
    /// the cache is over the new cap.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        if let Some(cap) = capacity {
            inner.evict_to(cap);
        }
    }

    /// Checks out a session for `key`, compiling the program with
    /// `compile` on the first checkout. `meta` carries the caller's
    /// var handles (leaf/output [`crate::Var`]s) alongside the program;
    /// read it back with [`SessionLease::meta`]. The session owns no
    /// threads (no session does); a caller with workers drives its
    /// kernels with [`Session::forward_with`] on its search's pool.
    ///
    /// The lease returns the session to the bank on drop.
    ///
    /// `compile` runs outside the bank mutex (see the module docs): a
    /// checkout of a key that is still compiling waits for that key
    /// only, and other keys are never held up.
    pub fn checkout<M, F>(&self, key: u64, compile: F) -> SessionLease<'_>
    where
        M: Any + Send + Sync,
        F: FnOnce() -> (Program, M),
    {
        let (cell, pooled) = {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            let hit = inner.entries.contains_key(&key);
            if hit {
                inner.hits += 1;
                OBS_HITS.incr();
            } else {
                inner.misses += 1;
                OBS_MISSES.incr();
            }
            let entry = inner.entries.entry(key).or_insert_with(|| Entry {
                compiled: Arc::default(),
                free: Vec::new(),
                last_used: tick,
            });
            entry.last_used = tick;
            let picked = (Arc::clone(&entry.compiled), entry.free.pop());
            // Enforce the cap after the insert so the entry just checked
            // out is the most recent and can only be evicted by later
            // activity, never by its own insertion.
            if let Some(cap) = inner.capacity {
                inner.evict_to(cap);
            }
            OBS_PROGRAMS.set(inner.entries.len() as u64);
            picked
        };
        let compiled = self.compile_into(key, &cell, compile);
        let session = pooled.unwrap_or_else(|| Session::new(Arc::clone(&compiled.prog)));
        SessionLease {
            bank: self,
            key,
            session: Some(session),
            meta: Arc::clone(&compiled.meta),
        }
    }

    /// The program in `cell` (the once-cell of `key`'s entry): already
    /// there, compiled now by `compile`, or awaited from the checkout
    /// already compiling it. If
    /// `compile` panics, the still-empty entry is removed before the
    /// panic propagates, so the next checkout of `key` is an ordinary
    /// miss that compiles afresh.
    fn compile_into<'c, M, F>(
        &self,
        key: u64,
        cell: &'c OnceLock<Compiled>,
        compile: F,
    ) -> &'c Compiled
    where
        M: Any + Send + Sync,
        F: FnOnce() -> (Program, M),
    {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            cell.get_or_init(|| {
                // Compile time is wall-clock, so it goes only to the obs
                // trace sink (never into the deterministic registry).
                let _compile_span = hdx_obs::span("bank.compile");
                OBS_COMPILES.incr();
                let (prog, meta) = compile();
                Compiled {
                    prog: Arc::new(prog),
                    meta: Arc::new(meta),
                }
            })
        }));
        attempt.unwrap_or_else(|panic| {
            let mut inner = self.lock();
            let failed = inner
                .entries
                .get(&key)
                .is_some_and(|e| std::ptr::eq(&*e.compiled, cell) && cell.get().is_none());
            if failed {
                inner.entries.remove(&key);
                OBS_PROGRAMS.set(inner.entries.len() as u64);
            }
            drop(inner);
            resume_unwind(panic)
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("session bank poisoned")
    }

    /// Occupancy plus cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> BankStats {
        let inner = self.lock();
        BankStats {
            programs: inner.entries.len(),
            idle_sessions: inner.entries.values().map(|e| e.free.len()).sum(),
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            capacity: inner.capacity,
        }
    }

    /// Drops every cached program and idle session (counters and the
    /// capacity cap are kept). Outstanding leases stay valid; their
    /// sessions are discarded on return instead of re-pooled (the lease
    /// compares programs by identity).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    fn check_in(&self, key: u64, session: Session) {
        let mut inner = self.lock();
        if let Some(entry) = inner.entries.get_mut(&key) {
            // Only re-pool if the entry still refers to the program this
            // session was built for (clear()/eviction + recompile
            // changes it).
            let current = entry
                .compiled
                .get()
                .is_some_and(|c| Arc::ptr_eq(&c.prog, session.program()));
            if current {
                entry.free.push(session);
            }
        }
    }
}

impl std::fmt::Debug for SessionBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SessionBank")
            .field("programs", &stats.programs)
            .field("idle_sessions", &stats.idle_sessions)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .field("capacity", &stats.capacity)
            .finish()
    }
}

/// An exclusively checked-out [`Session`] plus the caller metadata of
/// its program. Returns the session to the bank when dropped.
pub struct SessionLease<'a> {
    bank: &'a SessionBank,
    key: u64,
    session: Option<Session>,
    meta: Arc<dyn Any + Send + Sync>,
}

impl SessionLease<'_> {
    /// The leased session.
    pub fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("session present until drop")
    }

    /// The metadata stored by the compiling checkout, as an `Arc` so it
    /// can be held alongside a mutable [`SessionLease::session`]
    /// borrow.
    ///
    /// # Panics
    ///
    /// Panics if `M` is not the type the compile closure returned —
    /// that means two call sites collided on one key with different
    /// metadata, which the tags in [`bank_key`] exist to prevent.
    pub fn meta<M: Any + Send + Sync>(&self) -> Arc<M> {
        Arc::clone(&self.meta)
            .downcast::<M>()
            .unwrap_or_else(|_| panic!("bank key collision: metadata type mismatch"))
    }
}

impl Drop for SessionLease<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.bank.check_in(self.key, session);
        }
    }
}

impl std::fmt::Debug for SessionLease<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionLease")
            .field("key", &self.key)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use crate::Var;

    struct Meta {
        x: Var,
        out: Var,
    }

    fn compile_square() -> (Program, Meta) {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[0.0, 0.0, 0.0]));
        let out = tape.dot(x, x); // Σ x²
        (Program::compile(&tape, &[out], &[]), Meta { x, out })
    }

    #[test]
    fn checkout_compiles_once_and_pools_sessions() {
        let bank = SessionBank::new();
        let key = bank_key("test-square", &3usize);
        {
            let mut lease = bank.checkout(key, compile_square);
            let meta = lease.meta::<Meta>();
            let sess = lease.session();
            sess.bind(meta.x, &[1.0, 2.0, 3.0]);
            sess.forward();
            assert_eq!(sess.scalar(meta.out), 14.0);
        }
        assert_eq!(bank.stats().programs, 1);
        assert_eq!(bank.stats().idle_sessions, 1);
        {
            // Reuses the pooled (dirty) session; the rebind + replay
            // must fully overwrite the previous state.
            let mut lease =
                bank.checkout(key, || -> (Program, Meta) { panic!("must not recompile") });
            let meta = lease.meta::<Meta>();
            let sess = lease.session();
            sess.bind(meta.x, &[2.0, 0.0, 0.0]);
            sess.forward();
            assert_eq!(sess.scalar(meta.out), 4.0);
        }
        assert_eq!(bank.stats().idle_sessions, 1);
        let stats = bank.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_sessions() {
        let bank = SessionBank::new();
        let key = bank_key("test-square-concurrent", &3usize);
        let mut a = bank.checkout(key, compile_square);
        let mut b = bank.checkout(key, || -> (Program, Meta) { panic!("must not recompile") });
        assert_eq!(bank.stats().idle_sessions, 0);
        let meta = a.meta::<Meta>();
        a.session().bind(meta.x, &[1.0, 0.0, 0.0]);
        b.session().bind(meta.x, &[0.0, 2.0, 0.0]);
        a.session().forward();
        b.session().forward();
        assert_eq!(a.session().scalar(meta.out), 1.0);
        assert_eq!(b.session().scalar(meta.out), 4.0);
        drop(a);
        drop(b);
        assert_eq!(bank.stats().idle_sessions, 2);
    }

    #[test]
    fn clear_discards_programs_and_outstanding_leases_stay_valid() {
        let bank = SessionBank::new();
        let key = bank_key("test-square-clear", &3usize);
        let mut lease = bank.checkout(key, compile_square);
        bank.clear();
        assert_eq!(bank.stats().programs, 0);
        let meta = lease.meta::<Meta>();
        let sess = lease.session();
        sess.bind(meta.x, &[3.0, 0.0, 0.0]);
        sess.forward();
        assert_eq!(sess.scalar(meta.out), 9.0);
        drop(lease); // stale program: discarded, not re-pooled
        assert_eq!(bank.stats().idle_sessions, 0);
    }

    #[test]
    fn distinct_keys_do_not_share_programs() {
        let bank = SessionBank::new();
        let k1 = bank_key("test-a", &1usize);
        let k2 = bank_key("test-b", &1usize);
        assert_ne!(k1, k2);
        let _a = bank.checkout(k1, compile_square);
        let _b = bank.checkout(k2, compile_square);
        assert_eq!(bank.stats().programs, 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let bank = SessionBank::with_capacity(Some(2));
        let keys: Vec<u64> = (0..3).map(|i| bank_key("lru", &i)).collect();
        drop(bank.checkout(keys[0], compile_square));
        drop(bank.checkout(keys[1], compile_square));
        // Touch key 0 so key 1 becomes the LRU victim.
        drop(bank.checkout(keys[0], || -> (Program, Meta) {
            panic!("key 0 must still be cached")
        }));
        drop(bank.checkout(keys[2], compile_square));
        assert_eq!(bank.stats().programs, 2);
        // Key 1 was evicted: this checkout must recompile; its
        // reinsert then evicts key 0 (the oldest use remaining).
        drop(bank.checkout(keys[1], compile_square));
        // Key 2 (used after key 0) must still be cached.
        drop(bank.checkout(keys[2], || -> (Program, Meta) {
            panic!("key 2 must survive the evictions")
        }));
        let stats = bank.stats();
        assert_eq!(stats.evictions, 2, "{stats:?}");
        assert_eq!(stats.capacity, Some(2));
        assert!(stats.programs <= 2);
    }

    #[test]
    fn eviction_keeps_outstanding_leases_valid() {
        let bank = SessionBank::with_capacity(Some(1));
        let k1 = bank_key("evict-a", &1usize);
        let k2 = bank_key("evict-b", &2usize);
        let mut lease = bank.checkout(k1, compile_square);
        // Inserting k2 evicts k1 while its lease is out.
        drop(bank.checkout(k2, compile_square));
        assert_eq!(bank.stats().evictions, 1);
        let meta = lease.meta::<Meta>();
        let sess = lease.session();
        sess.bind(meta.x, &[2.0, 1.0, 0.0]);
        sess.forward();
        assert_eq!(sess.scalar(meta.out), 5.0);
        let idle_before = bank.stats().idle_sessions;
        drop(lease); // evicted program: session discarded, not re-pooled
        assert_eq!(bank.stats().idle_sessions, idle_before);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let bank = SessionBank::new();
        for i in 0..4u64 {
            drop(bank.checkout(bank_key("shrink", &i), compile_square));
        }
        assert_eq!(bank.stats().programs, 4);
        bank.set_capacity(Some(1));
        assert_eq!(bank.stats().programs, 1);
        assert_eq!(bank.stats().evictions, 3);
        // The survivor is the most recently used key.
        drop(
            bank.checkout(bank_key("shrink", &3u64), || -> (Program, Meta) {
                panic!("most recent entry must survive")
            }),
        );
    }

    #[test]
    fn concurrent_cold_checkouts_compile_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const THREADS: usize = 8;
        let bank = SessionBank::new();
        let key = bank_key("test-square-cold", &3usize);
        let compiles = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (bank, compiles) = (&bank, &compiles);
                scope.spawn(move || {
                    let mut lease = bank.checkout(key, || {
                        compiles.fetch_add(1, Ordering::SeqCst);
                        // Hold the compile open until every other
                        // thread has passed the bank's locked section,
                        // so they all find the key still compiling.
                        // (Compiling under the mutex would hang here.)
                        while bank.stats().hits < THREADS as u64 - 1 {
                            std::thread::yield_now();
                        }
                        compile_square()
                    });
                    let meta = lease.meta::<Meta>();
                    let sess = lease.session();
                    sess.bind(meta.x, &[t as f32, 0.0, 0.0]);
                    sess.forward();
                    assert_eq!(sess.scalar(meta.out), (t * t) as f32);
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        let stats = bank.stats();
        assert_eq!((stats.misses, stats.hits), (1, THREADS as u64 - 1));
        assert_eq!(stats.programs, 1);
        assert!(stats.idle_sessions >= 1);
    }

    #[test]
    fn other_keys_do_not_wait_on_a_compile() {
        use std::sync::mpsc;
        let bank = SessionBank::new();
        let warm = bank_key("test-square-warm", &3usize);
        drop(bank.checkout(warm, compile_square));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let bank = &bank;
            scope.spawn(move || {
                drop(bank.checkout(bank_key("test-square-slow", &3usize), || {
                    entered_tx.send(()).expect("signal compile start");
                    release_rx.recv().expect("release compile");
                    compile_square()
                }));
            });
            entered_rx.recv().expect("compile started");
            // The slow compile is in flight: a hit and a miss on other
            // keys must both complete without it.
            drop(bank.checkout(warm, || -> (Program, Meta) { panic!("warm key must hit") }));
            drop(bank.checkout(bank_key("test-square-other", &3usize), compile_square));
            release_tx.send(()).expect("release");
        });
        assert_eq!(bank.stats().programs, 3);
    }

    #[test]
    fn panicking_compile_leaves_the_bank_usable() {
        let bank = SessionBank::new();
        let key = bank_key("test-square-panic", &3usize);
        let failed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            drop(bank.checkout(key, || -> (Program, Meta) {
                panic!("injected compile failure")
            }));
        }));
        assert!(failed.is_err());
        assert_eq!(bank.stats().programs, 0, "failed compile must not linger");
        let mut lease = bank.checkout(key, compile_square);
        let meta = lease.meta::<Meta>();
        let sess = lease.session();
        sess.bind(meta.x, &[1.0, 1.0, 1.0]);
        sess.forward();
        assert_eq!(sess.scalar(meta.out), 3.0);
        drop(lease);
        let stats = bank.stats();
        assert_eq!((stats.misses, stats.hits, stats.programs), (2, 0, 1));
    }

    #[test]
    fn bank_cap_env_parsing_rejects_bad_values() {
        assert_eq!(parse_bank_cap_env(None), Ok(None));
        assert_eq!(parse_bank_cap_env(Some("8")), Ok(Some(8)));
        assert_eq!(parse_bank_cap_env(Some(" 2 ")), Ok(Some(2)));
        assert!(parse_bank_cap_env(Some("0")).is_err());
        assert!(parse_bank_cap_env(Some("lots")).is_err());
        assert!(parse_bank_cap_env(Some("-3")).is_err());
        assert!(parse_bank_cap_env(Some("")).is_err());
    }
}
