//! LR(0) items and item sets.

use std::borrow::Borrow;
use std::sync::Arc;
use wg_grammar::{Grammar, ProdId, Symbol};

/// An LR(0) item: a production with a dot position (`A -> α · β`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Item {
    /// The production this item tracks.
    pub prod: ProdId,
    /// Number of right-hand-side symbols already matched.
    pub dot: u32,
}

impl Item {
    /// The item `prod` with the dot at the far left.
    pub fn start(prod: ProdId) -> Item {
        Item { prod, dot: 0 }
    }

    /// The symbol immediately after the dot, if any.
    pub fn next_symbol(self, g: &Grammar) -> Option<Symbol> {
        g.production(self.prod)
            .rhs()
            .get(self.dot as usize)
            .copied()
    }

    /// Whether the dot is at the far right (a *final* item, commanding a
    /// reduction).
    pub fn is_final(self, g: &Grammar) -> bool {
        self.dot as usize == g.production(self.prod).arity()
    }

    /// The item with the dot advanced one symbol.
    pub fn advanced(self) -> Item {
        Item {
            prod: self.prod,
            dot: self.dot + 1,
        }
    }

    /// Renders as `A -> α · β` using grammar names.
    pub fn display(self, g: &Grammar) -> String {
        let p = g.production(self.prod);
        let mut s = format!("{} ->", g.nonterminal_name(p.lhs()));
        for (i, sym) in p.rhs().iter().enumerate() {
            if i == self.dot as usize {
                s.push_str(" ·");
            }
            s.push(' ');
            s.push_str(g.symbol_name(*sym));
        }
        if self.is_final(g) {
            s.push_str(" ·");
        }
        s
    }
}

/// A canonical (sorted, deduplicated) set of LR(0) items.
///
/// Immutable and reference-counted: cloning shares the items, which is
/// how an incremental table update reuses the kernels and closures of
/// states a grammar delta does not touch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ItemSet {
    items: Arc<[Item]>,
}

impl ItemSet {
    /// Builds a canonical set from arbitrary items.
    pub fn new(mut items: Vec<Item>) -> ItemSet {
        items.sort_unstable();
        items.dedup();
        ItemSet {
            items: items.into(),
        }
    }

    /// Wraps items that are already in canonical order (strictly
    /// ascending), skipping the sort.
    pub(crate) fn from_sorted(items: Vec<Item>) -> ItemSet {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items not canonical");
        ItemSet {
            items: items.into(),
        }
    }

    /// The items, in canonical order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The ε-closure of this set: repeatedly add `B -> · γ` for every
    /// nonterminal `B` just after a dot.
    pub fn closure(&self, g: &Grammar) -> ItemSet {
        let mut out = self.items.to_vec();
        let mut added = vec![false; g.num_nonterminals()];
        let mut i = 0;
        while i < out.len() {
            if let Some(Symbol::N(n)) = out[i].next_symbol(g) {
                if !added[n.index()] {
                    added[n.index()] = true;
                    out.extend(g.productions_for(n).map(Item::start));
                }
            }
            i += 1;
        }
        ItemSet::new(out)
    }
}

impl Borrow<[Item]> for ItemSet {
    /// Lets kernel indexes be probed with a borrowed item slice (hashing
    /// and equality agree: `ItemSet` hashes and compares its item list).
    fn borrow(&self) -> &[Item] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_grammar::{GrammarBuilder, NonTerminal, ProdId, Symbol, Terminal};

    fn simple() -> Grammar {
        // S -> A a ; A -> b | ε
        let mut b = GrammarBuilder::new("g");
        let a = b.terminal("a");
        let bb = b.terminal("b");
        let s = b.nonterminal("S");
        let aa = b.nonterminal("A");
        b.prod(s, vec![Symbol::N(aa), Symbol::T(a)]);
        b.prod(aa, vec![Symbol::T(bb)]);
        b.prod(aa, vec![]);
        b.start(s);
        b.build().unwrap()
    }

    #[test]
    fn item_navigation() {
        let g = simple();
        let it = Item::start(ProdId::from_index(1)); // S -> · A a
        assert_eq!(
            it.next_symbol(&g),
            Some(Symbol::N(NonTerminal::from_index(2)))
        );
        let it2 = it.advanced();
        assert_eq!(
            it2.next_symbol(&g),
            Some(Symbol::T(Terminal::from_index(1)))
        );
        assert!(it2.advanced().is_final(&g));
        assert!(it.display(&g).contains("·"));
    }

    #[test]
    fn closure_pulls_in_epsilon_and_alternatives() {
        let g = simple();
        let kernel = ItemSet::new(vec![Item::start(ProdId::AUGMENTED)]);
        let c = kernel.closure(&g);
        // S' -> · S eof, S -> · A a, A -> · b, A -> ·
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn itemset_canonical_order() {
        let i1 = Item::start(ProdId::from_index(2));
        let i2 = Item::start(ProdId::from_index(1));
        let s = ItemSet::new(vec![i1, i2, i1]);
        assert_eq!(s.len(), 2);
        assert!(s.items()[0] < s.items()[1]);
    }
}
