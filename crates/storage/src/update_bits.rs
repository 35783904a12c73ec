//! Atomic update-indication bitmaps.
//!
//! The paper's storage manager "maintains an update indication bit for each
//! record, which is set when the record gets updated. Access to the update
//! indication bits is synchronized using atomic operations" (§3.2). The RDE
//! engine consumes the bits during instance synchronisation and ETL.
//!
//! Setting a bit is per record (the transaction write path); every bulk
//! operation — drain, clear below a watermark, move into another bitmap,
//! count below a watermark — is one pass over the 64-bit words, so its cost
//! follows the bitmap's size in words, not the number of set bits times a
//! lock round-trip. The bitmap also keeps an exact popcount so that the
//! scheduler can ask "how much fresh data is there?" (the `Nft` input of
//! Algorithm 2) without scanning.

use std::sync::atomic::{AtomicU64, Ordering};

const BITS_PER_WORD: usize = 64;

/// A concurrently updatable bitmap that grows on demand.
#[derive(Debug, Default)]
pub struct AtomicBitmap {
    words: parking_lot::RwLock<Vec<AtomicU64>>,
    /// Number of bits currently set (maintained on 0→1 and 1→0 transitions).
    set_count: AtomicU64,
}

impl AtomicBitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmap pre-sized for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        let words = bits.div_ceil(BITS_PER_WORD);
        AtomicBitmap {
            words: parking_lot::RwLock::new((0..words).map(|_| AtomicU64::new(0)).collect()),
            set_count: AtomicU64::new(0),
        }
    }

    fn ensure_capacity(&self, bit: usize) {
        let word = bit / BITS_PER_WORD;
        {
            let words = self.words.read();
            if word < words.len() {
                return;
            }
        }
        let mut words = self.words.write();
        while words.len() <= word {
            words.push(AtomicU64::new(0));
        }
    }

    /// Set bit `bit`. Returns `true` if the bit transitioned from 0 to 1.
    pub fn set(&self, bit: usize) -> bool {
        self.ensure_capacity(bit);
        let words = self.words.read();
        let mask = 1u64 << (bit % BITS_PER_WORD);
        let prev = words[bit / BITS_PER_WORD].fetch_or(mask, Ordering::AcqRel);
        let newly_set = prev & mask == 0;
        if newly_set {
            self.set_count.fetch_add(1, Ordering::AcqRel);
        }
        newly_set
    }

    /// Number of set bits (exact, maintained incrementally).
    pub fn count(&self) -> u64 {
        self.set_count.load(Ordering::Acquire)
    }

    /// Collect the indices of all set bits, in ascending order.
    pub fn iter_set(&self) -> Vec<usize> {
        let words = self.words.read();
        // A popcount read mid-way through a concurrent set and clear can be
        // off, even wrapped below zero: never size the buffer from it alone.
        let mut out = Vec::with_capacity((self.count() as usize).min(words.len() * BITS_PER_WORD));
        for (wi, w) in words.iter().enumerate() {
            push_bits(&mut out, wi, w.load(Ordering::Acquire));
        }
        out
    }

    /// Clear every bit, one word at a time. Returns the indices that were
    /// set here but not in `exclude` (ascending), and the number of set bits
    /// that were also set in `exclude`. `exclude` is read before this
    /// bitmap's guard is taken, so the two are never locked together.
    pub fn drain_excluding(&self, exclude: &AtomicBitmap) -> (Vec<usize>, u64) {
        let exclude = exclude.load_words();
        let words = self.words.read();
        let mut kept = Vec::new();
        let mut skipped = 0u64;
        let mut drained = 0u64;
        for (wi, w) in words.iter().enumerate() {
            if w.load(Ordering::Acquire) == 0 {
                continue;
            }
            let prev = w.swap(0, Ordering::AcqRel);
            let ex = exclude.get(wi).copied().unwrap_or(0);
            drained += u64::from(prev.count_ones());
            skipped += u64::from((prev & ex).count_ones());
            push_bits(&mut kept, wi, prev & !ex);
        }
        self.set_count.fetch_sub(drained, Ordering::AcqRel);
        (kept, skipped)
    }

    /// Number of bits below `limit` set here or in `other` (a bit set in
    /// both counts once). Allocates nothing.
    pub fn count_union_below(&self, other: &AtomicBitmap, limit: usize) -> u64 {
        let mut count = 0u64;
        self.for_union_words_below(other, limit, |_, bits| {
            count += u64::from(bits.count_ones())
        });
        count
    }

    /// Indices below `limit` set here or in `other`, ascending.
    pub fn union_below(&self, other: &AtomicBitmap, limit: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_union_words_below(other, limit, |wi, bits| push_bits(&mut out, wi, bits));
        out
    }

    /// Call `f(word_index, bits)` with the union of the two bitmaps' words,
    /// masked to the bits below `limit`. Takes this bitmap's guard, then
    /// `other`'s: callers pair two bitmaps in one fixed order.
    fn for_union_words_below(
        &self,
        other: &AtomicBitmap,
        limit: usize,
        mut f: impl FnMut(usize, u64),
    ) {
        let words = self.words.read();
        let others = other.words.read();
        let n = words
            .len()
            .max(others.len())
            .min(limit.div_ceil(BITS_PER_WORD));
        let load =
            |ws: &[AtomicU64], wi: usize| ws.get(wi).map_or(0, |w| w.load(Ordering::Acquire));
        for wi in 0..n {
            let bits = (load(&words, wi) | load(&others, wi)) & below_mask(wi, limit);
            if bits != 0 {
                f(wi, bits);
            }
        }
    }

    /// Clear every bit below `limit`, one word at a time. Returns the number
    /// of bits that were set.
    pub fn clear_below(&self, limit: usize) -> u64 {
        let words = self.words.read();
        let n = words.len().min(limit.div_ceil(BITS_PER_WORD));
        let mut cleared = 0u64;
        for (wi, w) in words[..n].iter().enumerate() {
            let mask = below_mask(wi, limit);
            if w.load(Ordering::Acquire) & mask == 0 {
                continue;
            }
            let prev = w.fetch_and(!mask, Ordering::AcqRel);
            cleared += u64::from((prev & mask).count_ones());
        }
        self.set_count.fetch_sub(cleared, Ordering::AcqRel);
        cleared
    }

    /// Move every set bit into `dst` (OR, one word at a time) and clear it
    /// here. Returns the number of bits that were set here. The two bitmaps
    /// are never locked together.
    pub fn move_into(&self, dst: &AtomicBitmap) -> u64 {
        let moved = self.take_words();
        let Some(last) = moved.iter().rposition(|&w| w != 0) else {
            return 0;
        };
        dst.ensure_capacity(last * BITS_PER_WORD);
        let words = dst.words.read();
        let mut newly_set = 0u64;
        for (w, &bits) in words.iter().zip(&moved[..=last]) {
            if bits != 0 {
                let prev = w.fetch_or(bits, Ordering::AcqRel);
                newly_set += u64::from((bits & !prev).count_ones());
            }
        }
        dst.set_count.fetch_add(newly_set, Ordering::AcqRel);
        moved.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// A copy of the bit words.
    fn load_words(&self) -> Vec<u64> {
        let words = self.words.read();
        words.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// Clear every bit and return the words as they were.
    fn take_words(&self) -> Vec<u64> {
        let words = self.words.read();
        let taken: Vec<u64> = words
            .iter()
            .map(|w| match w.load(Ordering::Acquire) {
                0 => 0,
                _ => w.swap(0, Ordering::AcqRel),
            })
            .collect();
        let ones: u64 = taken.iter().map(|w| u64::from(w.count_ones())).sum();
        self.set_count.fetch_sub(ones, Ordering::AcqRel);
        taken
    }
}

/// The bits of word `wi` that lie below `limit`.
fn below_mask(wi: usize, limit: usize) -> u64 {
    let start = wi * BITS_PER_WORD;
    if limit >= start + BITS_PER_WORD {
        u64::MAX
    } else if limit <= start {
        0
    } else {
        (1u64 << (limit - start)) - 1
    }
}

/// Append the indices of the set bits of `bits` (word `wi`), ascending.
fn push_bits(out: &mut Vec<usize>, wi: usize, mut bits: u64) {
    while bits != 0 {
        out.push(wi * BITS_PER_WORD + bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_clear_roundtrip() {
        let b = AtomicBitmap::new();
        assert!(b.iter_set().is_empty());
        assert!(b.set(100));
        assert!(!b.set(100), "second set is not a transition");
        assert_eq!(b.iter_set(), vec![100]);
        assert_eq!(b.count(), 1);
        assert_eq!(b.clear_below(101), 1);
        assert_eq!(b.clear_below(101), 0);
        assert_eq!(b.count(), 0);
        assert!(b.iter_set().is_empty());
    }

    #[test]
    fn iter_set_returns_sorted_indices() {
        let b = AtomicBitmap::with_capacity(1024);
        for i in [5usize, 63, 64, 512, 7] {
            b.set(i);
        }
        assert_eq!(b.iter_set(), vec![5, 7, 63, 64, 512]);
        assert_eq!(b.count(), 5);
    }

    #[test]
    fn drain_clears_and_returns() {
        let b = AtomicBitmap::new();
        b.set(1);
        b.set(2);
        let drained = b.drain_excluding(&AtomicBitmap::new());
        assert_eq!(drained, (vec![1, 2], 0));
        assert_eq!(b.count(), 0);
        assert!(b.iter_set().is_empty());
    }

    #[test]
    fn drain_excluding_skips_bits_set_in_the_other_bitmap() {
        let b = AtomicBitmap::new();
        let other = AtomicBitmap::new();
        for i in [1usize, 2, 64, 130] {
            b.set(i);
        }
        other.set(2);
        other.set(130);
        other.set(500);
        let (kept, skipped) = b.drain_excluding(&other);
        assert_eq!(kept, vec![1, 64]);
        assert_eq!(skipped, 2);
        assert_eq!(b.count(), 0);
        assert_eq!(other.count(), 3, "the excluded bitmap is only read");
    }

    #[test]
    fn clear_all_resets_count() {
        let b = AtomicBitmap::new();
        for i in 0..1000 {
            b.set(i * 3);
        }
        assert_eq!(b.count(), 1000);
        assert_eq!(b.clear_below(usize::MAX), 1000);
        assert_eq!(b.count(), 0);
        assert!(b.iter_set().is_empty());
    }

    #[test]
    fn clear_below_stops_at_the_limit() {
        let b = AtomicBitmap::new();
        for i in 0..1000 {
            b.set(i * 3);
        }
        // Bits 0, 3, ..., 1497 lie below 1500: 500 of them.
        assert_eq!(b.clear_below(1500), 500);
        assert_eq!(b.count(), 500);
        assert_eq!(b.iter_set()[0], 1500);
    }

    #[test]
    fn clearing_out_of_range_bit_is_noop() {
        let b = AtomicBitmap::new();
        assert_eq!(b.clear_below(1_000_000), 0);
        assert_eq!(b.count_union_below(&AtomicBitmap::new(), 1_000_000), 0);
        assert!(b.iter_set().is_empty());
    }

    #[test]
    fn move_into_ors_grows_and_empties_the_source() {
        let src = AtomicBitmap::new();
        let dst = AtomicBitmap::new();
        for i in [3usize, 70, 1000] {
            src.set(i);
        }
        dst.set(3);
        dst.set(4);
        assert_eq!(src.move_into(&dst), 3);
        assert_eq!(src.count(), 0);
        assert_eq!(dst.iter_set(), vec![3, 4, 70, 1000]);
        assert_eq!(dst.count(), 4, "bit 3 was already set: counted once");
        assert_eq!(src.move_into(&dst), 0);
    }

    #[test]
    fn count_union_below_counts_shared_bits_once() {
        let a = AtomicBitmap::new();
        let b = AtomicBitmap::new();
        for i in [1usize, 64, 65, 200] {
            a.set(i);
        }
        for i in [1usize, 66, 300] {
            b.set(i);
        }
        assert_eq!(a.count_union_below(&b, 0), 0);
        assert_eq!(a.count_union_below(&b, 65), 2);
        assert_eq!(a.count_union_below(&b, 201), 5);
        assert_eq!(a.count_union_below(&b, usize::MAX), 6);
        assert_eq!(b.count_union_below(&a, usize::MAX), 6);
        assert_eq!(a.union_below(&b, 201), vec![1, 64, 65, 66, 200]);
    }

    #[test]
    fn concurrent_sets_count_exactly_once_per_bit() {
        let b = Arc::new(AtomicBitmap::with_capacity(10_000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                // Threads overlap on every other bit.
                for i in 0..5_000usize {
                    b.set(i * 2 + (t % 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.count(), 10_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    enum Op {
        /// Set a bit in bitmap `a` (`true`) or `b` (`false`).
        Set(bool, usize),
        /// Clear every bit of `a` below the limit.
        ClearBelow(usize),
        /// Drain `a`, excluding the bits set in `b`.
        DrainExcluding,
        /// Move `b` into `a`.
        MoveInto,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            8 => (prop::bool::ANY, 0usize..2048).prop_map(|(a, bit)| Op::Set(a, bit)),
            1 => (0usize..2200).prop_map(Op::ClearBelow),
            1 => Just(Op::DrainExcluding),
            1 => Just(Op::MoveInto),
        ]
    }

    proptest! {
        /// Two bitmaps behave exactly like two sets of indices under every
        /// word-wise operation, and the counts stay exact.
        #[test]
        fn model_based_against_btreeset(
            ops in prop::collection::vec(arb_op(), 0..300),
            limit in 0usize..2200,
        ) {
            let (a, b) = (AtomicBitmap::new(), AtomicBitmap::new());
            let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
            for op in ops {
                match op {
                    Op::Set(true, bit) => {
                        prop_assert_eq!(a.set(bit), ma.insert(bit));
                    }
                    Op::Set(false, bit) => {
                        prop_assert_eq!(b.set(bit), mb.insert(bit));
                    }
                    Op::ClearBelow(limit) => {
                        let below = ma.iter().filter(|&&r| r < limit).count() as u64;
                        ma.retain(|&r| r >= limit);
                        prop_assert_eq!(a.clear_below(limit), below);
                    }
                    Op::DrainExcluding => {
                        let kept: Vec<usize> = ma.difference(&mb).copied().collect();
                        let skipped = ma.intersection(&mb).count() as u64;
                        ma.clear();
                        prop_assert_eq!(a.drain_excluding(&b), (kept, skipped));
                    }
                    Op::MoveInto => {
                        let moved = mb.len() as u64;
                        ma.extend(std::mem::take(&mut mb));
                        prop_assert_eq!(b.move_into(&a), moved);
                    }
                }
                prop_assert_eq!(a.count() as usize, ma.len());
                prop_assert_eq!(b.count() as usize, mb.len());
            }
            let union_below = ma.union(&mb).filter(|&&r| r < limit).count() as u64;
            prop_assert_eq!(a.count_union_below(&b, limit), union_below);
            let union: Vec<usize> = ma.union(&mb).copied().filter(|&r| r < limit).collect();
            prop_assert_eq!(a.union_below(&b, limit), union);
            prop_assert_eq!(a.iter_set(), ma.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(b.iter_set(), mb.into_iter().collect::<Vec<_>>());
        }
    }
}
