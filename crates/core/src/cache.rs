//! The runtime's artifact cache: one compiled [`Artifact`] per (measurement,
//! mode), kept by the WaTZ TA across launches. Every artifact is built under
//! [`watz_wasm::EngineConfig::default`], so it is a pure function of the
//! bytes and the mode.
//!
//! An entry owns the executable pages its code stands for, so what is
//! resident is bounded by the trusted OS's executable-page ceiling
//! ([`optee_sim::TA_HEAP_CAP`], through [`TrustedOs::alloc_executable`]) and
//! by nothing else: there is no size to set. Every app launched from an entry
//! holds a share of those pages; an entry whose pages nobody else holds has
//! no live app and may be dropped to make room.
//!
//! An entry also keeps the exact bytes its measurement was computed from
//! (the secure copy of its first launch), so a relaunch can prove its bytes
//! are those bytes and [`ArtifactCache::recall`] their measurement instead
//! of hashing again. Those bytes are the module's length, which
//! [`ArtifactCache::reserve`] already charges against the ceiling.

use std::collections::HashMap;
use std::sync::Arc;

use optee_sim::{ExecPages, TeeError, TrustedOs};
use watz_wasm::{Artifact, ExecMode};

/// What an artifact is a pure function of. The measurement stands for the
/// bytes: the SHA-256 of the entry's bytes, computed once, on the launch
/// that first brought them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub(crate) measurement: [u8; 32],
    pub(crate) mode: ExecMode,
}

/// What a recall finds its candidates by: the length of a secure copy, and
/// the mode of its launch.
type Shape = (usize, ExecMode);

/// At most this many resident byte strings are compared per recall, so no
/// set of resident modules makes a launch cost more than its hash plus
/// this many compares.
const RECALL_CANDIDATES: usize = 2;

/// A resident artifact and the executable pages accounted to it.
pub(crate) type Resident = (Arc<Artifact>, Arc<ExecPages>);

struct Entry {
    artifact: Arc<Artifact>,
    /// The bytes the measurement is the SHA-256 of; one buffer per
    /// measurement, shared by its entries in both modes.
    bytes: Arc<[u8]>,
    /// Held by this entry and by every live app launched from it.
    pages: Arc<ExecPages>,
    /// [`ArtifactCache::launches`] when this entry was last handed out.
    last_launch: u64,
}

impl Entry {
    /// Hands the entry out for one more launch, at time `now`.
    fn launch(&mut self, now: u64) -> Resident {
        self.last_launch = now;
        (Arc::clone(&self.artifact), Arc::clone(&self.pages))
    }
}

/// See the module documentation. Not synchronised: the runtime wraps it in
/// a mutex and holds that for one method call at a time, never across a
/// compile or guest code.
#[derive(Default)]
pub(crate) struct ArtifactCache {
    entries: HashMap<Key, Entry>,
    /// Per shape, the measurements of its most recently launched entries,
    /// newest first: all that a recall compares against.
    recent: HashMap<Shape, Vec<[u8; 32]>>,
    /// Launches served so far, hits and inserts alike: the recency clock.
    launches: u64,
}

#[cfg(test)]
thread_local! {
    /// Candidates compared by this thread's recalls so far.
    static COMPARED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ArtifactCache {
    /// The measurement of `secure_copy`, if it is byte for byte the bytes of
    /// one of the [`RECALL_CANDIDATES`] most recently launched entries of
    /// its length and mode: that entry's measurement is the SHA-256 of those
    /// bytes. `None` means the launch hashes.
    pub(crate) fn recall(&self, secure_copy: &[u8], mode: ExecMode) -> Option<[u8; 32]> {
        let recent = self.recent.get(&(secure_copy.len(), mode))?;
        recent.iter().copied().find(|&measurement| {
            #[cfg(test)]
            COMPARED.with(|n| n.set(n.get() + 1));
            *self.entries[&Key { measurement, mode }].bytes == *secure_copy
        })
    }

    /// The resident artifact for `key`, if there is one.
    pub(crate) fn lookup(&mut self, key: &Key) -> Option<Resident> {
        let entry = self.entries.get_mut(key)?;
        self.launches += 1;
        remember(&mut self.recent, key, entry.bytes.len());
        Some(entry.launch(self.launches))
    }

    /// Executable pages for the `len` bytes of a module about to be
    /// compiled. While the OS refuses, entries without a live app are
    /// dropped, least recently launched first.
    ///
    /// # Errors
    ///
    /// The OS's [`TeeError::OutOfMemory`] once nothing droppable is left.
    pub(crate) fn reserve(&mut self, os: &TrustedOs, len: usize) -> Result<ExecPages, TeeError> {
        loop {
            let refused = match os.alloc_executable(len) {
                Ok(pages) => return Ok(pages),
                Err(e) => e,
            };
            let idle = self
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.pages) == 1)
                .min_by_key(|(_, e)| e.last_launch)
                .map(|(key, _)| *key);
            let Some(key) = idle else {
                return Err(refused);
            };
            let shape = (self.entries[&key].bytes.len(), key.mode);
            self.entries.remove(&key);
            if let Some(recent) = self.recent.get_mut(&shape) {
                recent.retain(|m| *m != key.measurement);
                if recent.is_empty() {
                    self.recent.remove(&shape);
                }
            }
        }
    }

    /// Makes a freshly built artifact resident under `key`, with the
    /// `bytes` it was measured and compiled from, and returns what to
    /// launch from. If a racing launch of the same key got there first,
    /// that is its entry: `artifact`, `bytes` and `pages` are dropped.
    pub(crate) fn insert(
        &mut self,
        key: Key,
        artifact: Artifact,
        bytes: Arc<[u8]>,
        pages: ExecPages,
    ) -> Resident {
        self.launches += 1;
        // An entry of this measurement in the other mode already holds
        // these bytes: keep one buffer.
        let bytes = self
            .entries
            .iter()
            .find(|(k, e)| k.measurement == key.measurement && e.bytes == bytes)
            .map_or(bytes, |(_, e)| Arc::clone(&e.bytes));
        remember(&mut self.recent, &key, bytes.len());
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            artifact: Arc::new(artifact),
            bytes,
            pages: Arc::new(pages),
            last_launch: 0,
        });
        entry.launch(self.launches)
    }
}

/// Puts `key`'s measurement first among the recent ones of its shape.
fn remember(recent: &mut HashMap<Shape, Vec<[u8; 32]>>, key: &Key, len: usize) {
    let recent = recent.entry((len, key.mode)).or_default();
    recent.retain(|m| *m != key.measurement);
    recent.insert(0, key.measurement);
    recent.truncate(RECALL_CANDIDATES);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use watz_crypto::sha256::Sha256;

    fn os() -> TrustedOs {
        crate::WatzRuntime::new_device(b"cache-unit")
            .unwrap()
            .os()
            .clone()
    }

    /// An artifact and the bytes it was compiled from.
    fn artifact(src: &str, mode: ExecMode) -> (Artifact, Arc<[u8]>) {
        let wasm = minic::compile(src).unwrap();
        let module = watz_wasm::load(&wasm).unwrap();
        let config = watz_wasm::EngineConfig::default();
        (Artifact::new(&module, mode, config).unwrap(), wasm.into())
    }

    const SRC: &str = "int f(int a) { return a * 2; }";

    #[test]
    fn each_mode_is_its_own_entry() {
        let os = os();
        let mut cache = ArtifactCache::default();
        let keys = [ExecMode::Aot, ExecMode::Interpreted].map(|mode| Key {
            measurement: [7; 32],
            mode,
        });
        let mut residents = Vec::new();
        let mut len = 0;
        for key in &keys {
            assert!(cache.lookup(key).is_none(), "{key:?} hit before its insert");
            let (art, bytes) = artifact(SRC, key.mode);
            len = bytes.len();
            let pages = cache.reserve(&os, len).unwrap();
            residents.push(cache.insert(*key, art, bytes, pages));
        }
        // Both coexist, each under its own pages, each found again as
        // itself.
        assert_eq!(os.exec_bytes_allocated(), keys.len() * len);
        for (key, (art, _)) in keys.iter().zip(&residents) {
            let (again, _) = cache.lookup(key).expect("resident");
            assert!(Arc::ptr_eq(art, &again));
        }
        assert!(!Arc::ptr_eq(&residents[0].0, &residents[1].0));
        // What is resident under a key is what that key asked for, so a
        // shared entry would have been wrong, not just wasteful: only the
        // interpreted key holds an artifact that was never compiled.
        for (key, (art, _)) in keys.iter().zip(&residents) {
            assert_eq!(art.compile_times().is_some(), key.mode == ExecMode::Aot);
        }
        drop((cache, residents));
        assert_eq!(os.exec_bytes_allocated(), 0);
    }

    #[test]
    fn a_racing_insert_adopts_the_first_and_releases_its_own_pages() {
        let os = os();
        let mut cache = ArtifactCache::default();
        let key = Key {
            measurement: [1; 32],
            mode: ExecMode::Aot,
        };
        // Both launches missed and compiled; the lock orders their inserts.
        let (first, bytes) = artifact(SRC, key.mode);
        let (second, _) = artifact(SRC, key.mode);
        let len = bytes.len();
        let first_pages = cache.reserve(&os, len).unwrap();
        let second_pages = cache.reserve(&os, len).unwrap();
        assert_eq!(os.exec_bytes_allocated(), 2 * len);
        let (won, _) = cache.insert(key, first, Arc::clone(&bytes), first_pages);
        let (adopted, _) = cache.insert(key, second, bytes, second_pages);
        assert!(Arc::ptr_eq(&won, &adopted));
        assert_eq!(os.exec_bytes_allocated(), len);
    }

    #[test]
    fn reserve_drops_idle_entries_oldest_launch_first_and_never_a_live_one() {
        let os = os();
        let mut cache = ArtifactCache::default();
        const LEN: usize = 1 << 20;
        // Room for three modules of LEN.
        let held = os
            .alloc_executable(optee_sim::TA_HEAP_CAP - 3 * LEN)
            .unwrap();
        let key = |n: u8| Key {
            measurement: [n; 32],
            mode: ExecMode::Aot,
        };
        let add = |cache: &mut ArtifactCache, n: u8| {
            let (art, bytes) = artifact(SRC, ExecMode::Aot);
            let pages = cache.reserve(&os, LEN)?;
            Ok::<Resident, TeeError>(cache.insert(key(n), art, bytes, pages))
        };
        let live = add(&mut cache, 1).unwrap(); // an app of module 1 stays up
        drop(add(&mut cache, 2).unwrap());
        drop(add(&mut cache, 3).unwrap());
        // Module 2 is launched again, so 3 is now the oldest idle entry.
        drop(cache.lookup(&key(2)).unwrap());
        drop(add(&mut cache, 4).unwrap());
        assert!(cache.lookup(&key(3)).is_none(), "oldest idle entry evicted");
        assert!(cache.lookup(&key(1)).is_some(), "live entry kept");
        assert!(cache.lookup(&key(2)).is_some(), "recently launched kept");
        assert!(cache.lookup(&key(4)).is_some());
        // A request nothing can make room for: every idle entry goes, the
        // live one stays, and the OS's refusal comes back.
        let refused = cache.reserve(&os, 3 * LEN).unwrap_err();
        assert!(matches!(refused, TeeError::OutOfMemory { requested, .. } if requested == 3 * LEN));
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none() && cache.lookup(&key(4)).is_none());
        assert_eq!(os.exec_bytes_allocated(), held.len() + LEN);
        drop((cache, live));
        assert_eq!(os.exec_bytes_allocated(), held.len());
    }

    /// Makes `bytes` resident under their SHA-256 (with an artifact of
    /// [`SRC`]: the cache never reads what it holds) on `len` pages.
    fn launch_first(cache: &mut ArtifactCache, os: &TrustedOs, bytes: Vec<u8>, len: usize) {
        let key = Key {
            measurement: Sha256::digest(&bytes),
            mode: ExecMode::Aot,
        };
        let (art, _) = artifact(SRC, key.mode);
        let pages = cache.reserve(os, len).unwrap();
        drop(cache.insert(key, art, bytes.into(), pages));
    }

    /// Whether `bytes` are recalled, checked against their SHA-256, and how
    /// many candidates that compared.
    fn recall(cache: &ArtifactCache, bytes: &[u8], mode: ExecMode) -> (bool, usize) {
        let before = COMPARED.with(Cell::get);
        let recalled = cache.recall(bytes, mode);
        if let Some(measurement) = recalled {
            assert_eq!(measurement, Sha256::digest(bytes));
        }
        (recalled.is_some(), COMPARED.with(Cell::get) - before)
    }

    #[test]
    fn a_recall_compares_at_most_two_candidates_most_recently_launched_first() {
        let os = os();
        let mut cache = ArtifactCache::default();
        // Byte strings of one length, apart only in their last byte.
        let variant = |last: u8| {
            let mut bytes = vec![0x5a; 4096];
            bytes[4095] = last;
            bytes
        };
        for last in 0..8 {
            launch_first(&mut cache, &os, variant(last), 4096);
        }
        let aot = ExecMode::Aot;
        assert_eq!(
            recall(&cache, &variant(8), aot),
            (false, 2),
            "a ninth hashes"
        );
        assert_eq!(recall(&cache, &variant(7), aot), (true, 1), "newest first");
        assert_eq!(recall(&cache, &variant(6), aot), (true, 2));
        assert_eq!(recall(&cache, &variant(0), aot), (false, 2), "no scan");
        // The launch that hashed finds its entry, which is now the newest.
        let key = Key {
            measurement: Sha256::digest(&variant(0)),
            mode: aot,
        };
        assert!(cache.lookup(&key).is_some());
        assert_eq!(recall(&cache, &variant(0), aot), (true, 1));
        assert_eq!(recall(&cache, &variant(7), aot), (true, 2));
        assert_eq!(recall(&cache, &variant(6), aot), (false, 2));
        // Another length or mode has no candidates at all.
        assert_eq!(recall(&cache, &variant(7)[1..], aot), (false, 0));
        let interpreted = ExecMode::Interpreted;
        assert_eq!(recall(&cache, &variant(7), interpreted), (false, 0));
    }

    #[test]
    fn an_evicted_entry_is_never_recalled() {
        let os = os();
        let mut cache = ArtifactCache::default();
        const LEN: usize = 1 << 20;
        let _held = os.alloc_executable(optee_sim::TA_HEAP_CAP - LEN).unwrap();
        launch_first(&mut cache, &os, vec![1; 64], LEN);
        assert_eq!(recall(&cache, &[1; 64], ExecMode::Aot), (true, 1));
        // The ceiling holds one entry: the second evicts the first.
        launch_first(&mut cache, &os, vec![2; 64], LEN);
        assert_eq!(recall(&cache, &[1; 64], ExecMode::Aot), (false, 1));
        assert_eq!(recall(&cache, &[2; 64], ExecMode::Aot), (true, 1));
        // And a third of another length leaves no candidate of the first.
        launch_first(&mut cache, &os, vec![3; 65], LEN);
        assert_eq!(recall(&cache, &[2; 64], ExecMode::Aot), (false, 0));
        assert_eq!(cache.recent.len(), 1);
    }

    #[test]
    fn eight_threads_relaunching_one_module_share_one_artifact_and_one_buffer() {
        let rt = crate::WatzRuntime::new_device(b"cache-unit").unwrap();
        let wasm = minic::compile(SRC).unwrap();
        let launch = |mode| {
            let config = crate::AppConfig {
                mode,
                ..crate::AppConfig::default()
            };
            let app = rt.load(&wasm, &config).unwrap();
            (Arc::clone(app.instance().artifact()), app.measurement())
        };
        let gate = std::sync::Barrier::new(8);
        let launched: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        (0..4).map(|_| launch(ExecMode::Aot)).collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        let measurement = Sha256::digest(&wasm);
        for (artifact, m) in &launched {
            assert!(Arc::ptr_eq(artifact, &launched[0].0));
            assert_eq!(*m, measurement);
        }
        {
            let cache = rt.cache();
            let entry = cache.entries.values().next().unwrap();
            assert_eq!(cache.entries.len(), 1);
            assert_eq!(*entry.bytes, *wasm);
            assert_eq!(Arc::strong_count(&entry.bytes), 1, "one buffer");
        }
        // The other mode is another entry on the same buffer.
        assert_eq!(launch(ExecMode::Interpreted).1, measurement);
        let cache = rt.cache();
        let buffers: Vec<_> = cache.entries.values().map(|e| &e.bytes).collect();
        assert_eq!(buffers.len(), 2);
        assert!(Arc::ptr_eq(buffers[0], buffers[1]));
    }
}
