//! An ordered set of ids without a sort: [`TwoLevelSet`], a bitmap with
//! one bit per id and a summary bitmap with one bit per non-zero 64-id
//! word, both walked ascending by `trailing_zeros`. The engine keeps its
//! active link queues in one, so transmit visits the links in ascending
//! id order with nothing to sort.

/// A subset of `0..n` that iterates ascending without a sort: one bit
/// per member in `words`, and one bit per non-zero word in `summary`.
/// Finding the next non-zero word reads one summary word per 4 096
/// ids, so a walk costs the members plus `n / 4096` word reads.
#[derive(Debug, Clone)]
pub(crate) struct TwoLevelSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl TwoLevelSet {
    /// The empty set over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        TwoLevelSet {
            words: vec![0; n.div_ceil(64)],
            summary: vec![0; n.div_ceil(64 * 64)],
        }
    }

    /// Add `i`. The summary bit of `i`'s word is set unconditionally:
    /// OR is idempotent, and a branch on "was the word empty?" would
    /// mispredict under sparse traffic.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.summary[w / 64] |= 1 << (w % 64);
        self.words[w] |= 1 << (i % 64);
    }

    /// Is `i` a member?
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The lowest non-zero word at index `from` or above.
    #[inline]
    pub(crate) fn next_word(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut bits = *self.summary.get(s)? & (!0 << (from % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_word(0), |&w| self.next_word(w + 1)).flat_map(|w| {
            let mut bits = self.words[w];
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }

    /// Visit the non-zero words ascending, replacing each word's bits
    /// with what `f(w, bits)` returns.
    #[inline]
    pub(crate) fn update_words(&mut self, mut f: impl FnMut(usize, u64) -> u64) {
        for s in 0..self.summary.len() {
            let (mut todo, mut live) = (self.summary[s], self.summary[s]);
            while todo != 0 {
                let w = s * 64 + todo.trailing_zeros() as usize;
                todo &= todo - 1;
                self.words[w] = f(w, self.words[w]);
                if self.words[w] == 0 {
                    live &= !(1 << (w % 64));
                }
            }
            self.summary[s] = live;
        }
    }

    /// Remove every member, touching only the non-zero words.
    pub(crate) fn clear(&mut self) {
        self.update_words(|_, _| 0);
    }

    /// The two levels agree: a summary bit is set exactly over a
    /// non-zero word.
    pub(crate) fn check(&self) -> Result<(), String> {
        for (w, &bits) in self.words.iter().enumerate() {
            let listed = self.summary[w / 64] >> (w % 64) & 1 == 1;
            if listed != (bits != 0) {
                return Err(format!(
                    "summary bit of word {w} is {} but the word is {bits:#x}",
                    u8::from(listed)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl TwoLevelSet {
    /// Corrupt the summary for the invariant checks' tests: clear the
    /// bit of word `w` whatever the word holds.
    pub(crate) fn clear_summary_bit(&mut self, w: usize) {
        self.summary[w / 64] &= !(1 << (w % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn check_reports_a_summary_bit_out_of_step() {
        let mut set = TwoLevelSet::new(300);
        set.insert(130);
        assert_eq!(set.check(), Ok(()));
        set.clear_summary_bit(2);
        let err = set.check().expect_err("word 2 is non-zero, unsummarised");
        assert!(err.contains("summary bit of word 2 is 0"), "{err}");
    }

    proptest! {
        /// The two-level set is an ordered set: random inserts and
        /// removes (through `update_words`, the engine's way of clearing
        /// bits) over up to 10 000 ids — more than 64 · 64, so the
        /// summary spans several words — iterate ascending exactly as a
        /// `BTreeSet` model does, after every operation's batch, across
        /// a `clear`.
        #[test]
        fn prop_two_level_set_matches_a_btree_set(
            seed: u64,
            n in 1usize..10_000,
            ops in 0usize..400,
        ) {
            let mut state = seed;
            let mut draw = |m: usize| (lnpram_math::rng::splitmix64(&mut state) as usize) % m;
            let mut set = TwoLevelSet::new(n);
            let mut model = std::collections::BTreeSet::new();
            for round in 0..2 {
                for _ in 0..ops {
                    let i = draw(n);
                    if draw(4) == 0 {
                        let (word, bit) = (i / 64, 1 << (i % 64));
                        set.update_words(|w, bits| if w == word { bits & !bit } else { bits });
                        model.remove(&i);
                    } else {
                        set.insert(i);
                        model.insert(i);
                    }
                    prop_assert_eq!(set.contains(i), model.contains(&i));
                }
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.check(), Ok(()));
                let from = draw(n.div_ceil(64) + 1);
                let expect = model.range(from * 64..).next().map(|&i| i / 64);
                prop_assert_eq!(set.next_word(from), expect, "round {}, from word {}", round, from);
                set.clear();
                model.clear();
                prop_assert_eq!(set.next_word(0), None);
            }
        }
    }
}
