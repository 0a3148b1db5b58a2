//! Global string interner: dictionary-encodes every text value into a
//! `u32` symbol ([`Sym`]) so that equality, hashing, and group-by on text
//! are O(1) integer operations in every hot path (executor predicate
//! loops, αDB statistics scans, inverted-index postings).
//!
//! ## Sharding
//!
//! The string→id dictionary is split into 16 hash-sharded
//! `RwLock` maps: interning an already-known string takes a shared lock
//! on one shard, and interning a *new* string takes the write lock of
//! that shard only — parallel αDB ingest threads touching different
//! shards no longer serialize on a single global write lock.
//!
//! Ids stay globally dense and insertion-ordered: a process-wide atomic
//! counter allocates them, and the id→string direction is an append-only
//! *segmented* table of `OnceLock` slots (segment sizes double, so any id
//! resolves with one shift and two indexes). Resolution ([`Sym::as_str`])
//! is therefore lock-free: no shard lock, no global lock, just an atomic
//! load inside `OnceLock::get`.
//!
//! Interned strings are leaked (`Box::leak`) exactly once per distinct
//! string, which is the same memory footprint as any dictionary encoding:
//! the dictionary lives for the process lifetime.

use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::fxhash::{FxBuildHasher, FxHashMap};

/// An interned string: a dense `u32` id into the global dictionary.
///
/// Two `Sym`s are equal iff their underlying strings are equal, so `Eq` /
/// `Hash` are single integer operations. A `Sym` has no order: its id
/// follows interning order, which concurrent interning races, so callers
/// that sort compare [`Sym::as_str`] (as `Value`'s `Ord` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Number of hash shards of the string→id dictionary.
const SHARDS: usize = 16;

/// Rows in segment 0; segment `k` holds `SEG0 << k` slots, so 23
/// segments cover the whole `u32` id space.
const SEG0: usize = 1024;
const NUM_SEGS: usize = 23;

/// Next id to allocate (global, so ids are dense and insertion-ordered
/// across shards).
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// id → string: append-only segmented slot table, lock-free to read.
static SEGMENTS: [OnceLock<Box<[OnceLock<&'static str>]>>; NUM_SEGS] =
    [const { OnceLock::new() }; NUM_SEGS];

type ShardMap = RwLock<FxHashMap<&'static str, u32>>;

fn shards() -> &'static [ShardMap; SHARDS] {
    static MAPS: OnceLock<[ShardMap; SHARDS]> = OnceLock::new();
    MAPS.get_or_init(|| std::array::from_fn(|_| RwLock::new(FxHashMap::default())))
}

fn shard_of(s: &str) -> &'static ShardMap {
    let h = FxBuildHasher::default().hash_one(s);
    &shards()[(h as usize) & (SHARDS - 1)]
}

/// Map an id to its `(segment, offset)` coordinates. Segment `k` covers
/// ids `[SEG0*(2^k - 1), SEG0*(2^(k+1) - 1))`.
fn seg_of(id: u32) -> (usize, usize) {
    let t = id as usize / SEG0 + 1;
    let seg = usize::BITS as usize - 1 - t.leading_zeros() as usize;
    let base = SEG0 * ((1usize << seg) - 1);
    (seg, id as usize - base)
}

/// The slot holding id `id`'s string.
fn slot(id: u32) -> &'static OnceLock<&'static str> {
    let (seg, offset) = seg_of(id);
    let segment = SEGMENTS[seg].get_or_init(|| {
        (0..(SEG0 << seg))
            .map(|_| OnceLock::new())
            .collect::<Vec<_>>()
            .into_boxed_slice()
    });
    &segment[offset]
}

impl Sym {
    /// Intern `s`, returning its stable symbol (allocates only for strings
    /// never seen before). Locks exactly one shard.
    pub fn intern(s: &str) -> Sym {
        let shard = shard_of(s);
        if let Some(&id) = shard.read().expect("interner shard lock").get(s) {
            return Sym(id);
        }
        let mut w = shard.write().expect("interner shard lock");
        if let Some(&id) = w.get(s) {
            return Sym(id); // raced with another writer on this shard
        }
        let leaked: &'static str = Box::leak(s.into());
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        assert!(id != u32::MAX, "interner overflow");
        slot(id)
            .set(leaked)
            .expect("freshly allocated interner slot");
        w.insert(leaked, id);
        Sym(id)
    }

    /// Look up the symbol of `s` WITHOUT interning — `None` when `s` was
    /// never interned. Use this for probe-only paths (e.g. user-supplied
    /// lookup strings) so unbounded external input cannot grow the
    /// dictionary.
    pub fn get(s: &str) -> Option<Sym> {
        shard_of(s)
            .read()
            .expect("interner shard lock")
            .get(s)
            .map(|&id| Sym(id))
    }

    /// The interned string. Lock-free: one atomic load into the segmented
    /// slot table; the returned reference lives for the process.
    pub fn as_str(self) -> &'static str {
        slot(self.0)
            .get()
            .expect("symbol id not present in this process's dictionary")
    }

    /// The raw dictionary id (dense, insertion-ordered). Stable for the
    /// process lifetime; used by columnar storage and compact postings.
    pub fn id(self) -> u32 {
        self.0
    }

    /// Reconstruct from a raw id previously obtained via [`Sym::id`].
    ///
    /// The id must have come from this process's dictionary; out-of-range
    /// ids panic on [`Sym::as_str`].
    pub fn from_id(id: u32) -> Sym {
        Sym(id)
    }

    /// Number of distinct strings interned so far (diagnostics).
    pub fn dictionary_size() -> usize {
        NEXT_ID.load(Ordering::Relaxed) as usize
    }
}

impl std::fmt::Display for Sym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("hello");
        let b = Sym::intern("hello");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Sym::intern("alpha-test");
        let b = Sym::intern("beta-test");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "alpha-test");
        assert_eq!(b.as_str(), "beta-test");
    }

    #[test]
    fn probe_does_not_intern() {
        // The dictionary is process-global and sibling tests intern in
        // parallel, so assert on this test's own strings, never on its size:
        // the probe finds nothing, and a second look shows it interned nothing.
        assert_eq!(Sym::get("never-interned-probe-xyzzy"), None);
        assert_eq!(Sym::get("never-interned-probe-xyzzy"), None);
        let s = Sym::intern("now-interned-xyzzy");
        assert_eq!(Sym::get("now-interned-xyzzy"), Some(s));
    }

    #[test]
    fn roundtrips_through_raw_ids() {
        let s = Sym::intern("roundtrip");
        assert_eq!(Sym::from_id(s.id()), s);
        assert_eq!(Sym::from_id(s.id()).as_str(), "roundtrip");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let symz: Vec<Sym> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| Sym::intern("concurrent-shared")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(symz.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn parallel_ingest_of_distinct_strings_stays_consistent() {
        // 8 writers × 200 distinct strings across all shards: every
        // returned symbol must resolve to its own string, ids must be
        // unique, and re-interning must be stable afterwards.
        let all: Vec<(String, Sym)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    scope.spawn(move || {
                        (0..200)
                            .map(|i| {
                                let s = format!("shard-stress-{t}-{i}");
                                let sym = Sym::intern(&s);
                                (s, sym)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut ids: Vec<u32> = all.iter().map(|(_, sym)| sym.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "ids must be unique per string");
        for (s, sym) in &all {
            assert_eq!(sym.as_str(), s);
            assert_eq!(Sym::intern(s), *sym);
            assert_eq!(Sym::get(s), Some(*sym));
        }
    }

    #[test]
    fn segment_math_covers_boundaries() {
        // The REAL mapping used by slot(): segment boundaries land where
        // the doubling layout says, offsets stay in range, and the
        // mapping is injective across boundary-adjacent ids.
        assert_eq!(seg_of(0), (0, 0));
        assert_eq!(seg_of(1023), (0, 1023));
        assert_eq!(seg_of(1024), (1, 0));
        assert_eq!(seg_of(3071), (1, 2047));
        assert_eq!(seg_of(3072), (2, 0));
        assert_eq!(seg_of(7167), (2, 4095));
        assert_eq!(seg_of(7168), (3, 0));
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..10_000u32 {
            let (seg, offset) = seg_of(id);
            assert!(offset < (SEG0 << seg), "id {id} beyond segment {seg}");
            assert!(seen.insert((seg, offset)), "id {id} aliases a slot");
        }
        // Top of the id space stays in range of the static segment table.
        let (seg, offset) = seg_of(u32::MAX - 1);
        assert!(seg < NUM_SEGS);
        assert!(offset < (SEG0 << seg));
    }
}
