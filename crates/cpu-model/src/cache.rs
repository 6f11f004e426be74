//! Shared last-level cache: 8 MB, 8-way, 64 B lines, LRU, write-back /
//! write-allocate, with MSHR-based miss tracking (paper Table II).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for line addresses (the MSHR map is keyed by
/// `u64` lines; SipHash is overkill on this per-miss path).
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        // Fibonacci multiply-shift: spreads sequential line addresses.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// LLC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in CPU cycles (L1/L2 are not modeled separately; this
    /// is the load-to-use latency of an LLC hit).
    pub hit_latency: u64,
    /// Outstanding misses tracked (MSHRs).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Paper Table II: 8 MB shared, 8-way, 64 B lines. 64 MSHRs serve
    /// the four cores' combined load and write-allocate misses.
    pub fn paper_default() -> Self {
        CacheConfig {
            size_bytes: 8 << 20,
            ways: 8,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 64,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcAccess {
    /// Line present; data available after the hit latency.
    Hit,
    /// Miss: a memory fetch for this line must be issued by the caller.
    MissFetch,
    /// Miss on a line already being fetched; the access was merged into
    /// the existing MSHR.
    MissMerged,
    /// No MSHR available — the access must be retried later.
    Blocked,
}

#[derive(Debug, Clone)]
struct Mshr {
    waiters: Vec<u64>,
    store_pending: bool,
}

/// LLC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub merged: u64,
    pub blocked: u64,
    pub writebacks: u64,
}

/// The shared last-level cache.
#[derive(Debug, Clone)]
pub struct Llc {
    cfg: CacheConfig,
    /// All ways, one contiguous allocation: set `s` occupies
    /// `ways[s * cfg.ways .. (s + 1) * cfg.ways]` (a per-set `Vec` would
    /// cost one allocation per set — 16 K for the paper geometry — and a
    /// pointer chase per access).
    ways: Vec<Way>,
    num_sets: u64,
    mshrs: LineMap<Mshr>,
    /// Waiter lists not in use by an MSHR: a miss takes one, its fill
    /// returns it emptied, so the miss path never allocates. There are
    /// `cfg.mshrs` lists, each either in an MSHR or here, so a miss that
    /// gets an MSHR always finds one.
    spare_waiters: Vec<Vec<u64>>,
    tick: u64,
    stats: CacheStats,
}

impl Llc {
    /// Build an LLC from the configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.size_bytes / cfg.line_bytes / cfg.ways as u64;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Llc {
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0
                };
                num_sets as usize * cfg.ways
            ],
            num_sets,
            cfg,
            mshrs: LineMap::default(),
            // One list per MSHR, allocated now rather than on the first
            // misses of the run (4 is the capacity a first push picks).
            spare_waiters: (0..cfg.mshrs).map(|_| Vec::with_capacity(4)).collect(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache configuration.
    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, line: u64) -> usize {
        (line & (self.num_sets - 1)) as usize
    }

    fn tag_of(&self, line: u64) -> u64 {
        line >> self.num_sets.trailing_zeros()
    }

    /// Access `line`. For loads, `token` identifies the waiter to wake on
    /// fill; stores pass `token = u64::MAX` and are posted (write-
    /// allocate: a missing store triggers a fetch and dirties the line on
    /// fill).
    pub fn access(&mut self, line: u64, is_store: bool, token: u64) -> LlcAccess {
        self.tick += 1;
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let ways = &mut self.ways[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = self.tick;
            if is_store {
                w.dirty = true;
            }
            self.stats.hits += 1;
            return LlcAccess::Hit;
        }
        if let Some(m) = self.mshrs.get_mut(&line) {
            if is_store {
                m.store_pending = true;
            } else {
                m.waiters.push(token);
            }
            self.stats.merged += 1;
            return LlcAccess::MissMerged;
        }
        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.blocked += 1;
            return LlcAccess::Blocked;
        }
        let mut m = Mshr {
            waiters: self.spare_waiters.pop().unwrap_or_default(),
            store_pending: false,
        };
        if is_store {
            m.store_pending = true;
        } else {
            m.waiters.push(token);
        }
        self.mshrs.insert(line, m);
        self.stats.misses += 1;
        LlcAccess::MissFetch
    }

    /// Install `line` after its memory fetch completes: calls `wake` with
    /// each load token waiting on the line, in arrival order, and returns
    /// the dirty line evicted to make room, if any (the caller must write
    /// it back).
    ///
    /// # Panics
    ///
    /// Panics if no MSHR exists for `line` (fills must match fetches).
    pub fn fill(&mut self, line: u64, mut wake: impl FnMut(u64)) -> Option<u64> {
        let mut m = self.mshrs.remove(&line).expect("fill without MSHR");
        for &token in &m.waiters {
            wake(token);
        }
        let dirty = m.store_pending;
        m.waiters.clear();
        self.spare_waiters.push(m.waiters);
        self.tick += 1;
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let ways = &mut self.ways[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        // Choose victim: invalid way or LRU.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("non-empty set");
        let old = ways[victim];
        let writeback = if old.valid && old.dirty {
            self.stats.writebacks += 1;
            // Reconstruct the victim's line address.
            Some(old.tag << self.num_sets.trailing_zeros() | set as u64)
        } else {
            None
        };
        ways[victim] = Way {
            tag,
            valid: true,
            dirty,
            lru: self.tick,
        };
        writeback
    }

    /// Outstanding misses.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 4 sets x 2 ways.
        Llc::new(CacheConfig {
            size_bytes: 4 * 2 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0, false, 1), LlcAccess::MissFetch);
        let mut woken = Vec::new();
        assert_eq!(c.fill(0, |t| woken.push(t)), None);
        assert_eq!(woken, vec![1]);
        assert_eq!(c.access(0, false, 2), LlcAccess::Hit);
    }

    #[test]
    fn merged_misses_share_one_fetch() {
        let mut c = tiny();
        assert_eq!(c.access(0, false, 1), LlcAccess::MissFetch);
        assert_eq!(c.access(0, false, 2), LlcAccess::MissMerged);
        let mut woken = Vec::new();
        c.fill(0, |t| woken.push(t));
        assert_eq!(woken, vec![1, 2]);
    }

    #[test]
    fn mshr_exhaustion_blocks() {
        let mut c = tiny();
        for line in 0..4 {
            assert_eq!(c.access(line, false, line), LlcAccess::MissFetch);
        }
        assert_eq!(c.access(4, false, 9), LlcAccess::Blocked);
        assert_eq!(c.stats().blocked, 1);
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.access(0, true, u64::MAX); // store miss -> dirty on fill
        c.fill(0, |_| {});
        c.access(4, false, 1);
        c.fill(4, |_| {});
        // Set 0 full: {0 dirty, 4}. Touch 4 to make 0 the LRU.
        assert_eq!(c.access(4, false, 2), LlcAccess::Hit);
        c.access(8, false, 3);
        assert_eq!(c.fill(8, |_| {}), Some(0), "dirty LRU line 0 evicted");
        // Line 0 is gone, line 4 still present.
        assert_eq!(c.access(4, false, 4), LlcAccess::Hit);
        assert_eq!(c.access(8, false, 5), LlcAccess::Hit);
    }

    #[test]
    fn store_allocate_dirties_line() {
        let mut c = tiny();
        assert_eq!(c.access(1, true, u64::MAX), LlcAccess::MissFetch);
        let mut woken = 0;
        c.fill(1, |_| woken += 1);
        assert_eq!(woken, 0, "stores wake nobody");
        // Evicting it later must write back.
        c.access(5, false, 1);
        c.fill(5, |_| {});
        c.access(9, false, 2);
        assert_eq!(c.fill(9, |_| {}), Some(1));
    }

    #[test]
    fn waiter_lists_are_recycled_not_reallocated() {
        let mut c = tiny();
        assert_eq!(c.spare_waiters.len(), 4, "one list per MSHR up front");
        c.access(0, false, 1);
        c.access(0, false, 2);
        assert_eq!(c.spare_waiters.len(), 3);
        let list = c.mshrs[&0].waiters.as_ptr();
        c.fill(0, |_| {});
        assert_eq!(c.spare_waiters.len(), 4, "fill returns the list");
        // The next miss takes that same list back, emptied.
        c.access(1, false, 3);
        assert_eq!(c.mshrs[&1].waiters.as_ptr(), list);
        let mut woken = Vec::new();
        c.fill(1, |t| woken.push(t));
        assert_eq!(woken, vec![3]);
    }

    #[test]
    fn paper_geometry() {
        let c = Llc::new(CacheConfig::paper_default());
        assert_eq!(c.num_sets, 16384);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Llc {
        Llc::new(CacheConfig {
            size_bytes: 4 * 2 * 64,
            ways: 2,
            line_bytes: 64,
            hit_latency: 40,
            mshrs: 4,
        })
    }

    proptest! {
        /// After any access sequence (with fills applied immediately),
        /// the most recently accessed `ways` lines of a set are resident.
        #[test]
        fn recent_lines_are_resident(lines in proptest::collection::vec(0u64..32, 1..100)) {
            let mut c = tiny();
            for &l in &lines {
                match c.access(l, false, 0) {
                    LlcAccess::MissFetch => { c.fill(l, |_| {}); }
                    LlcAccess::Hit => {}
                    other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
            // The last access must now hit.
            let last = *lines.last().unwrap();
            prop_assert_eq!(c.access(last, false, 0), LlcAccess::Hit);
        }

        /// Stats identity: hits + misses + merged + blocked == accesses.
        #[test]
        fn stats_partition_accesses(ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200)) {
            let mut c = tiny();
            for &(l, st) in &ops {
                if c.access(l, st, 0) == LlcAccess::MissFetch { c.fill(l, |_| {}); }
            }
            let s = *c.stats();
            prop_assert_eq!(
                s.hits + s.misses + s.merged + s.blocked,
                ops.len() as u64
            );
        }
    }
}
