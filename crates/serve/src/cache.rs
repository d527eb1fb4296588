//! Completion cache keyed by `(model generation, time slot, day of
//! week, coverage signature)` with LRU eviction.
//!
//! Two requests against the same model generation with the same
//! context and the **same observed input** produce the same
//! completion, so the second can be served straight from the cache.
//! The input enters the key as its 64-bit [`input_signature`], not as
//! its bits: inputs with equal signatures share one entry. The
//! signature reads every bit of every entry and the shape, and a
//! change confined to one entry always changes it; two inputs that
//! differ in more than one entry collide with probability about
//! 2⁻⁶⁴. The generation component makes every entry computed by a
//! previous model unreachable after a hot-swap — stale completions
//! age out of the LRU instead of being served as hits. Entries live
//! in a preallocated slab linked into an intrusive LRU list; eviction
//! reuses the victim's matrix buffer, so a warm cache performs no
//! allocation on insert.

use gcwc_linalg::Matrix;
use std::collections::HashMap;

/// Identity of a cacheable completion request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Generation of the model snapshot the completion is valid for.
    pub generation: u64,
    /// Time-of-day interval index.
    pub time_of_day: usize,
    /// Day-of-week index.
    pub day_of_week: usize,
    /// The input's [`input_signature`]: inputs with equal signatures
    /// share one entry.
    pub signature: u64,
}

impl CacheKey {
    /// Builds the key for a request: the serving model generation,
    /// context indices, and the [`input_signature`] of the observed
    /// input matrix.
    pub fn for_input(
        generation: u64,
        time_of_day: usize,
        day_of_week: usize,
        input: &Matrix,
    ) -> Self {
        Self { generation, time_of_day, day_of_week, signature: input_signature(input) }
    }
}

/// Multiplier of the lane and combine steps (odd, so each step is a
/// bijection of its state and of the word folded in).
const LANE_PRIME: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starting state of each of the four lanes (hex digits of π). They
/// differ, so the lanes are not interchangeable.
const LANE_SEEDS: [u64; 4] =
    [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344, 0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89];

/// Folds one word into a lane: xor, multiply, rotate. The rotation
/// brings the product's well-mixed high bits down, where the next
/// multiply spreads them upward again.
fn fold(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(29)
}

/// 64-bit signature of the input matrix: its shape and the bit pattern
/// of every entry (`+0.0` and `−0.0` differ, as do the same entries
/// under another shape). Deterministic across runs and processes.
///
/// Entry `i`'s `to_bits` folds into lane `i mod 4`, so the four lanes
/// run as independent dependency chains (about n·m/4 multiplies deep
/// rather than one per entry). The lanes and then the shape fold into
/// one word in a fixed order and a final avalanche spreads every input
/// bit over the result. Each step is a bijection of what it folds in,
/// so a change confined to one entry always changes the signature;
/// inputs that differ in more than one entry collide with probability
/// about 2⁻⁶⁴.
pub fn input_signature(input: &Matrix) -> u64 {
    let data = input.as_slice();
    let mut lanes = LANE_SEEDS;
    let mut quads = data.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &v) in lanes.iter_mut().zip(quad) {
            *lane = fold(*lane, v.to_bits());
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = fold(*lane, v.to_bits());
    }
    let mut h = lanes.iter().fold(0, |h, &lane| fold(h, lane));
    h = fold(h, input.rows() as u64);
    h = fold(h, input.cols() as u64);
    // Avalanche (MurmurHash3's 64-bit finaliser, a bijection).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: Matrix,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU cache of completed weight matrices.
pub struct CompletionCache {
    map: HashMap<CacheKey, usize>,
    entries: Vec<Entry>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CompletionCache {
    /// Creates a cache holding at most `capacity` completions
    /// (`capacity == 0` disables caching entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.saturating_mul(2)),
            entries: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a completion, bumping the entry to most-recently-used.
    /// Updates the hit/miss counters.
    pub fn get(&mut self, key: &CacheKey) -> Option<&Matrix> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(&self.entries[idx].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a completion, evicting the
    /// least-recently-used entry when full. The evicted entry's matrix
    /// buffer is reused, so warm inserts do not allocate.
    pub fn insert(&mut self, key: CacheKey, value: &Matrix) {
        self.insert_rows(key, value, value.rows());
    }

    /// Like [`CompletionCache::insert`] but caches only the first
    /// `rows` rows of `value` — the sharded engine stores each shard's
    /// *owned* row block (the local prefix) without materialising a
    /// separate matrix.
    pub fn insert_rows(&mut self, key: CacheKey, value: &Matrix, rows: usize) {
        if self.capacity == 0 {
            return;
        }
        debug_assert!(rows <= value.rows(), "row prefix exceeds the value");
        if let Some(&idx) = self.map.get(&key) {
            copy_rows_into(&mut self.entries[idx].value, value, rows);
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.entries.len() < self.capacity {
            let stored = prefix_rows(value, rows);
            self.entries.push(Entry { key, value: stored, prev: NIL, next: NIL });
            self.entries.len() - 1
        } else {
            // Evict the LRU tail, reusing its slot and matrix buffer.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "non-empty cache must have a tail");
            self.unlink(victim);
            let old_key = self.entries[victim].key;
            self.map.remove(&old_key);
            self.evictions += 1;
            copy_rows_into(&mut self.entries[victim].value, value, rows);
            self.entries[victim].key = key;
            victim
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }

    /// `(hits, misses, evictions)` since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of cached completions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of completions held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A matrix holding the first `rows` rows of `src` (row-major, so the
/// prefix rows are a prefix slice).
fn prefix_rows(src: &Matrix, rows: usize) -> Matrix {
    if rows == src.rows() {
        src.clone()
    } else {
        Matrix::from_vec(rows, src.cols(), src.as_slice()[..rows * src.cols()].to_vec())
    }
}

/// Shape-aware prefix copy: reuses the destination buffer when shapes
/// agree.
fn copy_rows_into(dst: &mut Matrix, src: &Matrix, rows: usize) {
    if dst.shape() == (rows, src.cols()) {
        dst.as_mut_slice().copy_from_slice(&src.as_slice()[..rows * src.cols()]);
    } else {
        *dst = prefix_rows(src, rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(seed: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![seed, seed + 1.0, seed + 2.0, seed + 3.0])
    }

    fn key(t: usize) -> CacheKey {
        CacheKey { generation: 0, time_of_day: t, day_of_week: 0, signature: t as u64 }
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = CompletionCache::new(4);
        c.insert(key(1), &mat(1.0));
        assert_eq!(c.get(&key(1)), Some(&mat(1.0)));
        assert_eq!(c.stats(), (1, 0, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CompletionCache::new(2);
        c.insert(key(1), &mat(1.0));
        c.insert(key(2), &mat(2.0));
        assert!(c.get(&key(1)).is_some()); // 1 becomes MRU
        c.insert(key(3), &mat(3.0)); // evicts 2
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = CompletionCache::new(0);
        c.insert(key(1), &mat(1.0));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.len(), 0);
    }

    /// The CI city's request shape: 172 edges × HIST-8.
    const CI: (usize, usize) = (172, 8);

    /// A CI-shaped observed input drawn from `seed` (SplitMix64): each
    /// row is observed with probability ½ and then holds a random
    /// histogram; unobserved rows are zero, as in served traffic.
    fn ci_input(seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut m = Matrix::zeros(CI.0, CI.1);
        for r in 0..CI.0 {
            if next() & 1 == 0 {
                continue;
            }
            let row = m.row_mut(r);
            for v in row.iter_mut() {
                *v = (next() >> 11) as f64 / (1u64 << 53) as f64;
            }
            let total: f64 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= total);
        }
        m
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn signature_is_bit_sensitive(
            seed in 0u64..u64::MAX,
            entry in 0usize..CI.0 * CI.1,
            other in 0usize..CI.0 * CI.1,
            bit in 0u32..64,
        ) {
            let a = ci_input(seed);
            let sig = input_signature(&a);
            prop_assert_eq!(sig, input_signature(&a.clone()), "same input, other signature");

            // Any single bit of any entry.
            let mut b = a.clone();
            let v = &mut b.as_mut_slice()[entry];
            *v = f64::from_bits(v.to_bits() ^ (1 << bit));
            prop_assert!(input_signature(&b) != sig, "flipping bit {} of entry {}", bit, entry);

            // +0.0 and −0.0.
            let mut b = a.clone();
            b.as_mut_slice()[entry] = 0.0;
            let mut c = b.clone();
            c.as_mut_slice()[entry] = -0.0;
            prop_assert!(input_signature(&b) != input_signature(&c), "±0.0 at entry {}", entry);

            // Two unequal entries swapped.
            let (x, y) = (a.as_slice()[entry], a.as_slice()[other]);
            if x.to_bits() != y.to_bits() {
                let mut b = a.clone();
                b.as_mut_slice().swap(entry, other);
                prop_assert!(input_signature(&b) != sig, "swapping entries {} and {}", entry, other);
            }

            // Two lanes trade their whole sequences: entry i folds into
            // lane i mod 4, so with 8 columns lane p holds columns p and
            // p + 4 of every row.
            let (p, q) = (entry % 4, other % 4);
            let mut b = a.clone();
            for r in 0..CI.0 {
                b.row_mut(r).swap(p, q);
                b.row_mut(r).swap(p + 4, q + 4);
            }
            if bits(&b) != bits(&a) {
                prop_assert!(input_signature(&b) != sig, "lanes {} and {} traded", p, q);
            }

            // A zero row moved: the observed rows trade places with it.
            let (zero, seen) = (entry / CI.1, other / CI.1);
            if a.row_is_zero(zero) && !a.row_is_zero(seen) {
                let mut b = a.clone();
                b.row_mut(zero).copy_from_slice(a.row(seen));
                b.row_mut(seen).fill(0.0);
                prop_assert!(input_signature(&b) != sig, "moving zero row {} to {}", zero, seen);
            }

            // The same data under the transposed shape.
            let t = Matrix::from_vec(CI.1, CI.0, a.as_slice().to_vec());
            prop_assert!(input_signature(&t) != sig, "transposed shape");
        }
    }

    #[test]
    fn random_ci_inputs_have_distinct_signatures() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10_000u64 {
            assert!(seen.insert(input_signature(&ci_input(seed))), "collision at seed {seed}");
        }
    }

    #[test]
    fn signature_covers_a_partial_last_quad() {
        // 3 × 3 leaves one entry past the last whole quad of lanes.
        let a = Matrix::from_vec(3, 3, (0..9).map(f64::from).collect());
        let mut b = a.clone();
        b.as_mut_slice()[8] = -8.0;
        assert_ne!(input_signature(&a), input_signature(&b));
        assert_ne!(input_signature(&Matrix::zeros(0, 0)), input_signature(&Matrix::zeros(0, 1)));
    }

    #[test]
    fn generations_do_not_collide() {
        let mut c = CompletionCache::new(4);
        let old = CacheKey { generation: 1, ..key(1) };
        let new = CacheKey { generation: 2, ..key(1) };
        c.insert(old, &mat(1.0));
        assert!(c.get(&new).is_none(), "old-generation entry must not hit");
        c.insert(new, &mat(9.0));
        assert_eq!(c.get(&new), Some(&mat(9.0)));
    }

    #[test]
    fn insert_rows_stores_owned_prefix() {
        let mut c = CompletionCache::new(2);
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        c.insert_rows(key(1), &m, 2);
        let got = c.get(&key(1)).unwrap();
        assert_eq!(got.shape(), (2, 2));
        assert_eq!(got.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // Refresh through the warm (buffer-reusing) path.
        let m2 = Matrix::from_vec(3, 2, vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0]);
        c.insert_rows(key(1), &m2, 2);
        assert_eq!(c.get(&key(1)).unwrap().as_slice(), &[9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn refresh_existing_key_updates_value() {
        let mut c = CompletionCache::new(2);
        c.insert(key(1), &mat(1.0));
        c.insert(key(1), &mat(9.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)), Some(&mat(9.0)));
    }
}
