//! The runtime's artifact cache: one compiled [`Artifact`] per (measurement,
//! mode, engine configuration), kept by the WaTZ TA across launches.
//!
//! An entry owns the executable pages its code stands for, so what is
//! resident is bounded by the trusted OS's executable-page ceiling
//! ([`optee_sim::TA_HEAP_CAP`], through [`TrustedOs::alloc_executable`]) and
//! by nothing else: there is no size to set. Every app launched from an entry
//! holds a share of those pages; an entry whose pages nobody else holds has
//! no live app and may be dropped to make room.

use std::collections::HashMap;
use std::sync::Arc;

use optee_sim::{ExecPages, TeeError, TrustedOs};
use watz_wasm::{Artifact, EngineConfig, ExecMode};

/// What an artifact is a pure function of. The measurement stands for the
/// bytes: it is recomputed from the secure copy on every launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Key {
    pub(crate) measurement: [u8; 32],
    pub(crate) mode: ExecMode,
    pub(crate) config: EngineConfig,
}

/// A resident artifact and the executable pages accounted to it.
pub(crate) type Resident = (Arc<Artifact>, Arc<ExecPages>);

struct Entry {
    artifact: Arc<Artifact>,
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
    /// Launches served so far, hits and inserts alike: the recency clock.
    launches: u64,
}

impl ArtifactCache {
    /// The resident artifact for `key`, if there is one.
    pub(crate) fn lookup(&mut self, key: &Key) -> Option<Resident> {
        let entry = self.entries.get_mut(key)?;
        self.launches += 1;
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
            match idle {
                Some(key) => self.entries.remove(&key),
                None => return Err(refused),
            };
        }
    }

    /// Makes a freshly built artifact resident under `key` and returns what
    /// to launch from. If a racing launch of the same key got there first,
    /// that is its entry: `artifact` and `pages` are dropped.
    pub(crate) fn insert(&mut self, key: Key, artifact: Artifact, pages: ExecPages) -> Resident {
        self.launches += 1;
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            artifact: Arc::new(artifact),
            pages: Arc::new(pages),
            last_launch: 0,
        });
        entry.launch(self.launches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watz_wasm::exec::{Instance, NoHost};
    use watz_wasm::ProfileMode;

    fn os() -> TrustedOs {
        crate::WatzRuntime::new_device(b"cache-unit")
            .unwrap()
            .os()
            .clone()
    }

    fn artifact(src: &str, mode: ExecMode, config: EngineConfig) -> (Artifact, usize) {
        let wasm = minic::compile(src).unwrap();
        let module = watz_wasm::load(&wasm).unwrap();
        (Artifact::new(&module, mode, config).unwrap(), wasm.len())
    }

    const SRC: &str = "int f(int a) { return a * 2; }";

    #[test]
    fn each_engine_config_and_mode_is_its_own_entry() {
        // Explicit configurations, not the process environment: `cargo test`
        // runs tests on parallel threads and the environment is shared.
        let os = os();
        let mut cache = ArtifactCache::default();
        let base = EngineConfig::default();
        let configs = [
            base,
            EngineConfig {
                fuse: false,
                ..base
            },
            EngineConfig {
                elide: false,
                ..base
            },
            EngineConfig {
                verify: true,
                ..base
            },
            EngineConfig {
                profile: ProfileMode::Count,
                ..base
            },
        ];
        let keys: Vec<Key> = configs
            .iter()
            .map(|&config| (ExecMode::Aot, config))
            .chain([(ExecMode::Interpreted, base)])
            .map(|(mode, config)| Key {
                measurement: [7; 32],
                mode,
                config,
            })
            .collect();
        let mut residents = Vec::new();
        let mut len = 0;
        for key in &keys {
            assert!(cache.lookup(key).is_none(), "{key:?} hit before its insert");
            let (art, n) = artifact(SRC, key.mode, key.config);
            len = n;
            let pages = cache.reserve(&os, n).unwrap();
            residents.push(cache.insert(*key, art, pages));
        }
        // All six coexist, each under its own pages, each found again as
        // itself.
        assert_eq!(os.exec_bytes_allocated(), keys.len() * len);
        for (key, (art, _)) in keys.iter().zip(&residents) {
            let (again, _) = cache.lookup(key).expect("resident");
            assert!(Arc::ptr_eq(art, &again));
        }
        for (i, (a, _)) in residents.iter().enumerate() {
            for (b, _) in &residents[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        // What is resident under a key is what that key asked for, so a
        // shared entry would have been wrong, not just wasteful: only the
        // `verify` key holds an artifact the verifier passed, only the
        // other mode's holds one that was never compiled.
        for (i, (art, _)) in residents.iter().enumerate() {
            let inst = Instance::from_artifact(Arc::clone(art), &mut NoHost).unwrap();
            assert_eq!(inst.verify_stats().is_some(), keys[i].config.verify);
            assert_eq!(art.compile_times().is_some(), keys[i].mode == ExecMode::Aot);
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
            config: EngineConfig::default(),
        };
        // Both launches missed and compiled; the lock orders their inserts.
        let (first, len) = artifact(SRC, key.mode, key.config);
        let (second, _) = artifact(SRC, key.mode, key.config);
        let first_pages = cache.reserve(&os, len).unwrap();
        let second_pages = cache.reserve(&os, len).unwrap();
        assert_eq!(os.exec_bytes_allocated(), 2 * len);
        let (won, _) = cache.insert(key, first, first_pages);
        let (adopted, _) = cache.insert(key, second, second_pages);
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
            config: EngineConfig::default(),
        };
        let add = |cache: &mut ArtifactCache, n: u8| {
            let (art, _) = artifact(SRC, ExecMode::Aot, EngineConfig::default());
            let pages = cache.reserve(&os, LEN)?;
            Ok::<Resident, TeeError>(cache.insert(key(n), art, pages))
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
}
