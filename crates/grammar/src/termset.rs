//! Compact terminal sets used by FIRST/FOLLOW analysis and table construction.

use crate::symbol::Terminal;
use std::fmt;

/// A bitset over the terminals of one grammar.
///
/// All sets created for a grammar share the same universe size (the number of
/// terminals including EOF), so set operations are plain word-wise loops.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TermSet {
    words: Vec<u64>,
    universe: usize,
}

impl TermSet {
    /// Creates an empty set over a universe of `universe` terminals.
    pub fn empty(universe: usize) -> TermSet {
        TermSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Wraps bit words (`universe.div_ceil(64)` of them, no bits at or
    /// past `universe`) as a set.
    pub(crate) fn from_words(words: Vec<u64>, universe: usize) -> TermSet {
        debug_assert_eq!(words.len(), universe.div_ceil(64));
        TermSet { words, universe }
    }

    /// The set as little-endian bit words (terminal `i` is bit `i % 64` of
    /// word `i / 64`), for dense tables that store sets as flat words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a terminal; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if the terminal is outside this set's universe.
    pub fn insert(&mut self, t: Terminal) -> bool {
        let ix = t.index();
        assert!(
            ix < self.universe,
            "terminal {ix} outside universe {}",
            self.universe
        );
        let (w, b) = (ix / 64, ix % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes a terminal; returns `true` if it was present.
    pub fn remove(&mut self, t: Terminal) -> bool {
        let ix = t.index();
        if ix >= self.universe {
            return false;
        }
        let (w, b) = (ix / 64, ix % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Whether the terminal is in the set.
    #[inline]
    pub fn contains(&self, t: Terminal) -> bool {
        let ix = t.index();
        ix < self.universe && self.words[ix / 64] & (1 << (ix % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &TermSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Whether the two sets share any terminal.
    pub fn intersects(&self, other: &TermSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of terminals in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = Terminal> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(Terminal::from_index(wi * 64 + b))
                }
            })
        })
    }
}

impl FromIterator<Terminal> for TermSet {
    /// Collects terminals into a set whose universe is just large enough.
    ///
    /// Mostly useful in tests; analysis code should size sets from the
    /// grammar's terminal count instead.
    fn from_iter<I: IntoIterator<Item = Terminal>>(iter: I) -> TermSet {
        let items: Vec<Terminal> = iter.into_iter().collect();
        let max = items.iter().map(|t| t.index()).max().unwrap_or(0);
        let mut s = TermSet::empty(max + 1);
        for t in items {
            s.insert(t);
        }
        s
    }
}

impl Extend<Terminal> for TermSet {
    fn extend<I: IntoIterator<Item = Terminal>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl fmt::Debug for TermSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|t| t.index()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> Terminal {
        Terminal::from_index(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = TermSet::empty(130);
        assert!(s.insert(t(0)));
        assert!(s.insert(t(129)));
        assert!(!s.insert(t(129)), "re-insert reports no change");
        assert!(s.contains(t(0)));
        assert!(s.contains(t(129)));
        assert!(!s.contains(t(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(t(0)));
        assert!(!s.remove(t(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_reports_change() {
        let mut a = TermSet::empty(70);
        let mut b = TermSet::empty(70);
        b.insert(t(69));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.contains(t(69)));
    }

    #[test]
    fn iter_in_order() {
        let mut s = TermSet::empty(200);
        for i in [5usize, 64, 65, 190] {
            s.insert(t(i));
        }
        let got: Vec<usize> = s.iter().map(|x| x.index()).collect();
        assert_eq!(got, vec![5, 64, 65, 190]);
    }

    #[test]
    fn intersects_and_empty() {
        let mut a = TermSet::empty(10);
        let mut b = TermSet::empty(10);
        assert!(a.is_empty());
        a.insert(t(3));
        b.insert(t(4));
        assert!(!a.intersects(&b));
        b.insert(t(3));
        assert!(a.intersects(&b));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        TermSet::empty(4).insert(t(4));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: TermSet = [t(2), t(7)].into_iter().collect();
        assert!(s.contains(t(7)));
        assert_eq!(s.universe(), 8);
    }
}
