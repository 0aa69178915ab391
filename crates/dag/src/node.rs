//! Node identity, parse-state annotation, and node kinds.

use std::fmt;
use wg_grammar::{NonTerminal, ProdId, Terminal};

/// Handle to a node in a [`crate::DagArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Sentinel for "no node" (e.g. the root's parent).
    pub const NONE: NodeId = NodeId(u32::MAX);

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the [`NodeId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == NodeId::NONE
    }
}

/// The parse state recorded in a dag node.
///
/// Ordinary values hold the LR automaton state the (single, deterministic)
/// parser was in when the node was created — the left-context check of
/// state-matching incremental parsing. Two sentinels:
///
/// * [`ParseState::MULTI`] — the node was built while more than one parser
///   was active (or via a conflicted table entry). All non-deterministic
///   states form one equivalence class (Section 3.3); the state-match test
///   always fails on them, forcing decomposition.
/// * [`ParseState::NONE`] — no state recorded (fresh tokens, symbol nodes,
///   sentinels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParseState(pub u32);

impl ParseState {
    /// The equivalence class of all non-deterministic states.
    pub const MULTI: ParseState = ParseState(u32::MAX);
    /// No state recorded.
    pub const NONE: ParseState = ParseState(u32::MAX - 1);

    /// Whether this is an ordinary (deterministic) state.
    #[inline]
    pub fn is_deterministic(self) -> bool {
        self != ParseState::MULTI && self != ParseState::NONE
    }
}

impl fmt::Display for ParseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ParseState::MULTI {
            write!(f, "multi")
        } else if *self == ParseState::NONE {
            write!(f, "-")
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

/// What a dag node represents. The order (variant, then fields) is the
/// first key of a choice node's alternative order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeKind {
    /// A token. `term` is the grammar terminal; `lexeme` its text.
    Terminal {
        /// Grammar terminal this token maps to.
        term: Terminal,
        /// The token's text.
        lexeme: String,
    },
    /// An instance of a production; kids are the right-hand-side instances.
    /// Represents both the production and its left-hand-side symbol (the
    /// common, deterministic case of Figure 2c).
    Production {
        /// The production instantiated.
        prod: ProdId,
    },
    /// A *choice point* (Figure 2f): represents only the left-hand-side
    /// symbol; kids are the alternative interpretations of a common yield.
    Symbol {
        /// The ambiguous phylum.
        symbol: NonTerminal,
    },
    /// A complete (or prefix) instance of a declared associative sequence,
    /// physically represented as a balanced binary tree (Section 3.4).
    /// Kids are elements, separators, nested prefix [`NodeKind::Sequence`]s,
    /// and [`NodeKind::SeqRun`] chunks, in yield order.
    Sequence {
        /// The sequence nonterminal.
        symbol: NonTerminal,
    },
    /// An internal run of a sequence: a chunk of consecutive
    /// (separator, element) steps. Shifting a run leaves the parse state
    /// unchanged, which is what makes O(lg N) reuse of long sequences
    /// possible.
    SeqRun {
        /// The sequence nonterminal this run belongs to.
        symbol: NonTerminal,
    },
    /// The super-root; kids are `[bos, body, eos]`.
    Root,
    /// Beginning-of-stream sentinel.
    Bos,
    /// End-of-stream sentinel.
    Eos,
}

impl NodeKind {
    /// Whether this node is a token (including the sentinels).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            NodeKind::Terminal { .. } | NodeKind::Bos | NodeKind::Eos
        )
    }

    /// The nonterminal this node stands for, if any.
    pub fn nonterminal_of(&self, prod_lhs: impl Fn(ProdId) -> NonTerminal) -> Option<NonTerminal> {
        match self {
            NodeKind::Production { prod } => Some(prod_lhs(*prod)),
            NodeKind::Symbol { symbol }
            | NodeKind::Sequence { symbol }
            | NodeKind::SeqRun { symbol } => Some(*symbol),
            _ => None,
        }
    }
}

/// How many kid ids fit directly inside a node before the arena's shared
/// kid slab takes over.
pub(crate) const INLINE_KIDS: usize = 3;

/// Where a node's children live.
///
/// Small arities (the overwhelming majority: terminals have none, most
/// productions have ≤ 3 symbols) are stored inline in the node itself; wider
/// nodes hold an `(offset, len, capacity)` window into the arena's shared
/// kid slab (`DagArena::slab`). Either way a node costs a fixed number of
/// words and *no per-node heap allocation* — the property the zero-alloc
/// steady state is built on. Resolve through [`crate::DagArena::kids`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kids {
    /// Up to [`INLINE_KIDS`] ids stored directly in the node.
    Inline {
        /// The ids; slots at and beyond `len` are meaningless.
        buf: [NodeId; INLINE_KIDS],
        /// How many of `buf`'s slots are in use.
        len: u8,
    },
    /// A region of the arena's shared kid slab.
    Slab {
        /// Start of the region in the slab.
        off: u32,
        /// Kids currently stored.
        len: u32,
        /// Region capacity (a power of two ≥ 4); the region is recycled
        /// through a per-capacity-class free list when the node dies or
        /// outgrows it.
        cap: u32,
    },
}

impl Kids {
    /// An empty inline kid list.
    pub(crate) const EMPTY: Kids = Kids::Inline {
        buf: [NodeId::NONE; INLINE_KIDS],
        len: 0,
    };

    /// The kid ids, resolving a slab region against the arena's `slab`.
    #[inline]
    pub(crate) fn resolve<'a>(&'a self, slab: &'a [NodeId]) -> &'a [NodeId] {
        match self {
            Kids::Inline { buf, len } => &buf[..*len as usize],
            Kids::Slab { off, len, .. } => &slab[*off as usize..(*off + *len) as usize],
        }
    }

    /// [`Kids::resolve`] for writing the kids in place.
    #[inline]
    pub(crate) fn resolve_mut<'a>(&'a mut self, slab: &'a mut [NodeId]) -> &'a mut [NodeId] {
        match self {
            Kids::Inline { buf, len } => &mut buf[..*len as usize],
            Kids::Slab { off, len, .. } => &mut slab[*off as usize..(*off + *len) as usize],
        }
    }

    /// Number of kids.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Kids::Inline { len, .. } => *len as usize,
            Kids::Slab { len, .. } => *len as usize,
        }
    }
}

/// A dag node. Accessed through [`crate::DagArena`] methods; exposed for
/// read-only inspection. Children live inline or in the arena's shared kid
/// slab, so resolving them needs the arena: use [`crate::DagArena::kids`].
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) state: ParseState,
    pub(crate) parent: NodeId,
    pub(crate) kids: Kids,
    /// Number of terminals in the yield.
    pub(crate) width: u32,
    /// Leading terminal of the yield (meaningless when `width == 0`);
    /// cached so the parsers' `redLa` peek is O(1) on unchanged subtrees.
    pub(crate) leftmost: Terminal,
    /// Parse generation in which the node was created.
    pub(crate) epoch: u32,
    pub(crate) changed: bool,
    /// Whether this slot sits on the arena's free list (dead, recyclable).
    pub(crate) free: bool,
    /// Whether this slot is dead but *retired* rather than recyclable: a
    /// live snapshot still pins a version that saw the node, so its
    /// storage is kept intact on the deferred free list.
    pub(crate) deferred: bool,
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Recorded parse state.
    pub fn state(&self) -> ParseState {
        self.state
    }

    /// Number of children (for symbol nodes: alternatives). The child ids
    /// themselves live partly in the arena's kid slab; resolve them with
    /// [`crate::DagArena::kids`].
    pub fn kid_count(&self) -> usize {
        self.kids.len()
    }

    /// Parent in the current tree ([`NodeId::NONE`] if detached/root).
    pub fn parent(&self) -> NodeId {
        self.parent
    }

    /// Number of terminals in the yield.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Cached leading terminal of the yield (only meaningful when
    /// `width() > 0`).
    pub fn leftmost(&self) -> Terminal {
        self.leftmost
    }

    /// Whether the damage-marking pass flagged this node.
    pub fn has_changes(&self) -> bool {
        self.changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_state_classification() {
        assert!(ParseState(0).is_deterministic());
        assert!(ParseState(441).is_deterministic());
        assert!(!ParseState::MULTI.is_deterministic());
        assert!(!ParseState::NONE.is_deterministic());
        assert_eq!(format!("{}", ParseState(3)), "s3");
        assert_eq!(format!("{}", ParseState::MULTI), "multi");
        assert_eq!(format!("{}", ParseState::NONE), "-");
    }

    #[test]
    fn node_id_sentinel() {
        assert!(NodeId::NONE.is_none());
        assert!(!NodeId(0).is_none());
    }

    #[test]
    fn kind_predicates() {
        let t = NodeKind::Terminal {
            term: Terminal::EOF,
            lexeme: String::new(),
        };
        assert!(t.is_terminal());
        assert!(NodeKind::Bos.is_terminal());
        assert!(NodeKind::Eos.is_terminal());
        assert!(!NodeKind::Root.is_terminal());
        let s = NodeKind::Symbol {
            symbol: NonTerminal::from_index(4),
        };
        assert_eq!(
            s.nonterminal_of(|_| unreachable!()),
            Some(NonTerminal::from_index(4))
        );
        assert_eq!(t.nonterminal_of(|_| unreachable!()), None);
    }
}
