//! Damage-driven incremental semantic analysis (Sections 4.2/4.3).
//!
//! [`crate::analyze`] is the batch oracle: a throwaway document-order walk.
//! [`SemState`] keeps the same facts *persistently*, keyed to stable dag
//! node ids, and repairs them from the reparse damage instead of
//! recomputing:
//!
//! - **Scope contours** — one binding map per block (plus the global
//!   scope), surviving reparses because blocks are reused by the
//!   incremental parser. Each binding entry remembers its *site* so
//!   position-aware lookup can reproduce the batch walk's
//!   "bound-so-far" visibility at any time, not just in document order.
//! - **Damage seeding** — the update retracts facts owned by the nodes the
//!   reparse flagged as changed (the same `mark_changed` plumbing that
//!   drives reuse in `wg-dag`), then re-walks from the root, skipping any
//!   subtree whose stamp says it was last analyzed under the same scope.
//! - **Flip in place** — a retained losing alternative is promoted by
//!   rewriting the stored [`Selection`] and re-analyzing only the newly
//!   effective subtree; the parser is never involved (Section 4.2).
//! - **Cut-off** — after repair, only names whose *exported* contour
//!   entries actually differ propagate to their recorded dependents
//!   (uses and choice points of that name); an edit that rebuilds a
//!   binding identically stops dead.

use crate::analyze::{head_identifier, AltKind, Analysis, Selection, Strictness};
use crate::classify::Classifier;
use crate::scope::NameKind;
use crate::symtab::{Sym, SymTab};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use wg_core::{SemInfo, SemNameKind, SemReadView, SemUpdate, SemanticPass};
use wg_dag::{DagArena, DagRead, FxHashMap, FxHashSet, NodeId, NodeKind};
use wg_grammar::{Grammar, Symbol, Terminal};

/// How the walk dispatches on one production (compiled from the grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `typedef int NAME ;` — binds a type.
    TypedefDecl,
    /// `int NAME ( ) block` — binds a function, walks the body.
    Funcdef,
    /// `{ items }` — opens a contour.
    Block,
    /// `decl: 'int' id [= expr]` — binds a variable, walks the initializer.
    DeclInt,
    /// `decl: type_id ... decl_id ...` — type use then a variable binding.
    DeclTyped,
    /// `id_use` / `func_id` — a value-namespace use.
    IdUse,
    /// `type_id` — a type-namespace use.
    TypeId,
    /// `decl_id` — handled by its enclosing [`Shape::DeclTyped`].
    DeclId,
    /// Anything else: walk the kids.
    Generic,
}

/// Lookup discipline: the initial build walks in document order (batch
/// semantics fall out of insertion order); incremental repair must compare
/// positions because contours already hold bindings from *later* text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Build,
    Incremental,
}

/// One exported binding of a contour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BindEntry {
    /// The anchor node from which the binding is visible (the declaration
    /// production, or the `decl_id` node for bindings that take effect
    /// *after* their own type use is walked).
    site: NodeId,
    kind: NameKind,
}

/// A stable handle for one scope contour.
///
/// The incremental parser re-reduces a block's *production node* whenever
/// the damage (or its changed lookahead) reaches it, handing the block a
/// fresh [`NodeId`] while the interior `items` subtree is reused
/// wholesale. Facts and reuse stamps therefore reference scopes through
/// this indirection, which survives the churn: the new block node
/// *adopts* the contour its reused interior still names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CtrId(u32);

impl CtrId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-scope binding map with a link to its lexically enclosing scope.
#[derive(Debug, Clone)]
struct Contour {
    /// Enclosing scope ([`GLOBAL`]'s parent is itself and ends the chain).
    parent: CtrId,
    /// The block production node currently owning this contour
    /// ([`NodeId::NONE`] for the global scope).
    node: NodeId,
    entries: FxHashMap<Sym, Vec<BindEntry>>,
}

#[derive(Debug, Clone, Copy)]
struct BindFact {
    scope: CtrId,
    sym: Sym,
    kind: NameKind,
}

#[derive(Debug, Clone, Copy)]
struct UseFact {
    scope: CtrId,
    sym: Sym,
    /// `type_id` context: resolution requires the type namespace.
    is_type_ctx: bool,
    resolved: bool,
}

#[derive(Debug, Clone, Copy)]
struct ChoiceFact {
    scope: CtrId,
    head: Option<Sym>,
    sel: Option<Selection>,
    /// The paper's persistent ambiguity: head unbound under
    /// [`Strictness::RequireBinding`].
    persistent: bool,
}

/// The global contour's handle (always slot 0, never freed).
const GLOBAL: CtrId = CtrId(0);

/// Probes spent searching a reused interior for the old contour before
/// giving up and opening a fresh one (bounds the adoption scan).
const ADOPT_PROBES: usize = 64;

/// Iteration guard for the ripple loop before falling back to a rebuild.
const MAX_RIPPLE_ROUNDS: usize = 8;

/// Persistent, damage-driven semantic analysis over a session's parse dag.
///
/// Equivalent to rerunning [`crate::analyze`] after every reparse (the
/// differential property tests assert exactly that), but the work per edit
/// is proportional to the damage, not the document.
#[derive(Debug)]
pub struct SemState {
    id: Terminal,
    shapes: Vec<Shape>,
    classifier: Classifier,
    strictness: Strictness,
    symtab: SymTab,
    /// Contour slots, indexed by [`CtrId`]; slot 0 is the global scope.
    contours: Vec<Contour>,
    /// Freed contour slots available for reuse.
    ctr_free: Vec<CtrId>,
    /// Block production node → its contour (rebuilt on adoption).
    scope_of: FxHashMap<NodeId, CtrId>,
    binds: FxHashMap<NodeId, BindFact>,
    uses: FxHashMap<NodeId, UseFact>,
    choices: FxHashMap<NodeId, ChoiceFact>,
    /// Use sites per name (the def-use index behind `uses_of`).
    refs: FxHashMap<Sym, Vec<NodeId>>,
    /// Choice points per head name (ripple targets for flips).
    deps: FxHashMap<Sym, Vec<NodeId>>,
    /// Reuse stamps: node → scope it was last analyzed under. Kept at
    /// sequence-element granularity, so the map scales with lines, not
    /// nodes.
    stamps: FxHashMap<NodeId, CtrId>,
    /// Contour entries as they were before this update first touched them
    /// (the cut-off comparison baseline).
    pre: FxHashMap<(CtrId, Sym), Vec<BindEntry>>,
    /// Memoized document spans (terminal offsets), valid for one tree
    /// shape; cleared whenever the arena may have changed underneath us.
    spans: RefCell<FxHashMap<NodeId, Option<(u32, u32)>>>,
    /// The read view, built lazily on the first query or publish after an
    /// update and dropped at the start of the next one — every query and
    /// snapshot between two updates shares one frozen copy of the fact
    /// tables.
    view: RefCell<Option<Arc<dyn SemReadView>>>,
    mode: Mode,
    built: bool,
    stats: SemUpdate,
}

impl SemState {
    /// Compiles the walk tables for `g` (one of `wg_langs`' simplified-C
    /// variants).
    ///
    /// # Panics
    ///
    /// Panics if the grammar lacks the simplified-C nonterminals.
    pub fn new(g: &Grammar, strictness: Strictness) -> SemState {
        let nt = |n: &str| {
            g.nonterminal_by_name(n)
                .unwrap_or_else(|| panic!("grammar lacks nonterminal `{n}`"))
        };
        let typedef_decl = nt("typedef_decl");
        let funcdef = nt("funcdef");
        let block = nt("block");
        let decl = nt("decl");
        let type_id = nt("type_id");
        let func_id = nt("func_id");
        let decl_id = nt("decl_id");
        let id_use = nt("id_use");
        let shapes = g
            .productions()
            .map(|(_, p)| {
                let lhs = p.lhs();
                if lhs == typedef_decl {
                    Shape::TypedefDecl
                } else if lhs == funcdef {
                    Shape::Funcdef
                } else if lhs == block {
                    Shape::Block
                } else if lhs == decl {
                    match p.rhs().first() {
                        Some(Symbol::T(_)) => Shape::DeclInt,
                        Some(Symbol::N(_)) => Shape::DeclTyped,
                        None => Shape::Generic,
                    }
                } else if lhs == id_use || lhs == func_id {
                    Shape::IdUse
                } else if lhs == type_id {
                    Shape::TypeId
                } else if lhs == decl_id {
                    Shape::DeclId
                } else {
                    Shape::Generic
                }
            })
            .collect();
        SemState {
            id: g.terminal_by_name("id").expect("grammar lacks `id`"),
            shapes,
            classifier: Classifier::resolve(g),
            strictness,
            symtab: SymTab::new(),
            contours: vec![Contour {
                parent: GLOBAL,
                node: NodeId::NONE,
                entries: FxHashMap::default(),
            }],
            ctr_free: Vec::new(),
            scope_of: FxHashMap::default(),
            binds: FxHashMap::default(),
            uses: FxHashMap::default(),
            choices: FxHashMap::default(),
            refs: FxHashMap::default(),
            deps: FxHashMap::default(),
            stamps: FxHashMap::default(),
            pre: FxHashMap::default(),
            spans: RefCell::new(FxHashMap::default()),
            view: RefCell::new(None),
            mode: Mode::Build,
            built: false,
            stats: SemUpdate::default(),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The selection at a choice point, if disambiguation succeeded there.
    pub fn selection(&self, sym: NodeId) -> Option<Selection> {
        self.choices.get(&sym).and_then(|c| c.sel)
    }

    /// Number of resolved choice points.
    pub fn resolved_choices(&self) -> usize {
        self.choices.values().filter(|c| c.sel.is_some()).count()
    }

    /// Choice points left persistently ambiguous, sorted by node index.
    pub fn persistent(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .choices
            .iter()
            .filter(|(_, c)| c.persistent)
            .map(|(&n, _)| n)
            .collect();
        v.sort_by_key(|n| n.index());
        v
    }

    /// Number of live block contours (the global scope is not counted).
    pub fn contour_count(&self) -> usize {
        self.contours.len() - 1 - self.ctr_free.len()
    }

    /// A comparable summary of every fact the analysis holds about the
    /// *current* tree.
    ///
    /// Facts are keyed by stable node identity and a reparse can drop a
    /// subtree without its nodes ever appearing in the damage list (the
    /// parser re-reduces a neighbouring spine and the old one just stops
    /// being reachable). Such facts are logically retracted the moment
    /// their owner detaches — they are filtered here — and physically
    /// removed by `prune` at the next collection.
    pub fn snapshot(&self, arena: &DagArena) -> SemSnapshot {
        let att = |n: NodeId| self.attached(arena, n);
        let mut selections: Vec<(usize, usize, AltKind)> = self
            .choices
            .iter()
            .filter(|(&n, _)| att(n))
            .filter_map(|(&n, c)| c.sel.map(|s| (n.index(), s.index, s.kind)))
            .collect();
        selections.sort_unstable();
        let mut unresolved: Vec<String> = self
            .uses
            .iter()
            .filter(|(&n, u)| att(n) && !u.resolved)
            .map(|(_, u)| self.symtab.name(u.sym).to_string())
            .collect();
        unresolved.sort_unstable();
        let mut references: Vec<(String, Vec<usize>)> = self
            .refs
            .iter()
            .filter_map(|(&s, v)| {
                let mut sites: Vec<usize> =
                    v.iter().filter(|&&n| att(n)).map(|n| n.index()).collect();
                sites.sort_unstable();
                (!sites.is_empty()).then(|| (self.symtab.name(s).to_string(), sites))
            })
            .collect();
        references.sort_unstable();
        let mut persistent: Vec<usize> = self
            .choices
            .iter()
            .filter(|(&n, c)| c.persistent && att(n))
            .map(|(&n, _)| n.index())
            .collect();
        persistent.sort_unstable();
        SemSnapshot {
            typedefs: self.count_binds(arena, NameKind::Type),
            functions: self.count_binds(arena, NameKind::Function),
            variables: self.count_binds(arena, NameKind::Variable),
            uses: self.uses.keys().filter(|&&n| att(n)).count(),
            resolved_uses: self
                .uses
                .iter()
                .filter(|(&n, u)| att(n) && u.resolved)
                .count(),
            selections,
            persistent,
            unresolved,
            references,
        }
    }

    fn count_binds(&self, arena: &DagArena, kind: NameKind) -> usize {
        self.binds
            .iter()
            .filter(|(&n, b)| b.kind == kind && self.attached(arena, n))
            .count()
    }

    /// Whether `n` is attached to the current tree (its parent chain, with
    /// kid-membership verified at every level, reaches the root).
    fn attached(&self, arena: &DagArena, n: NodeId) -> bool {
        attached_in(arena, &mut self.spans.borrow_mut(), n)
    }

    // ------------------------------------------------------------------
    // Position-aware lookup
    // ------------------------------------------------------------------

    /// Innermost visible binding of `sym` at position `at` (see
    /// [`lookup_in`]).
    fn lookup(&self, arena: &DagArena, at: NodeId, sym: Sym, scope: CtrId) -> Option<NameKind> {
        lookup_in(
            arena,
            &mut self.spans.borrow_mut(),
            &self.contours,
            self.mode,
            at,
            sym,
            scope,
        )
    }

    // ------------------------------------------------------------------
    // Retraction
    // ------------------------------------------------------------------

    /// Saves the pre-update entries of `(scope, sym)` the first time the
    /// update touches them (the cut-off baseline).
    fn touch(&mut self, scope: CtrId, sym: Sym) {
        if self.mode == Mode::Build {
            return;
        }
        self.pre.entry((scope, sym)).or_insert_with(|| {
            self.contours[scope.index()]
                .entries
                .get(&sym)
                .cloned()
                .unwrap_or_default()
        });
    }

    fn remove_bind(&mut self, site: NodeId) {
        if let Some(old) = self.binds.remove(&site) {
            self.touch(old.scope, old.sym);
            if let Some(v) = self.contours[old.scope.index()].entries.get_mut(&old.sym) {
                v.retain(|e| e.site != site);
            }
        }
    }

    fn remove_use(&mut self, n: NodeId) {
        if let Some(old) = self.uses.remove(&n) {
            if let Some(v) = self.refs.get_mut(&old.sym) {
                if let Some(i) = v.iter().position(|&u| u == n) {
                    v.swap_remove(i);
                }
            }
        }
    }

    /// Removes the choice fact only; the caller decides what happens to
    /// the subtree below it.
    fn remove_choice_fact(&mut self, n: NodeId) -> Option<ChoiceFact> {
        let old = self.choices.remove(&n)?;
        if let Some(h) = old.head {
            if let Some(v) = self.deps.get_mut(&h) {
                if let Some(i) = v.iter().position(|&c| c == n) {
                    v.swap_remove(i);
                }
            }
        }
        Some(old)
    }

    /// Retracts the facts owned by one damaged node. A damaged choice
    /// point also retracts its whole subtree: its stale selection no
    /// longer says which alternative the old facts lived under.
    fn retract_node(&mut self, arena: &DagArena, n: NodeId) {
        self.remove_bind(n);
        self.remove_use(n);
        if self.choices.contains_key(&n) {
            self.retract_subtree(arena, n);
        }
    }

    /// Retracts every fact under `n` (inclusive).
    fn retract_subtree(&mut self, arena: &DagArena, n: NodeId) {
        let mut stack = vec![n];
        while let Some(cur) = stack.pop() {
            self.remove_bind(cur);
            self.remove_use(cur);
            self.remove_choice_fact(cur);
            self.stamps.remove(&cur);
            stack.extend_from_slice(arena.kids(cur));
        }
    }

    /// Drops facts about arena slots freed by the collector before their
    /// ids are recycled. Unreachable fact owners were already retracted
    /// when their region was damaged, so this mostly clears stale stamps.
    ///
    /// A contour slot is recycled only when its block node is dead *and*
    /// nothing live still names it — a dead-node contour referenced by a
    /// reused interior's stamps is exactly the adoption case and must
    /// survive the collection.
    fn prune(&mut self, arena: &DagArena) {
        let dead: Vec<NodeId> = self
            .binds
            .keys()
            .chain(self.uses.keys())
            .chain(self.choices.keys())
            .filter(|&&n| !arena.is_live(n))
            .copied()
            .collect();
        for n in dead {
            self.remove_bind(n);
            self.remove_use(n);
            self.remove_choice_fact(n);
        }
        self.stamps.retain(|&n, _| arena.is_live(n));
        self.scope_of.retain(|&n, _| arena.is_live(n));

        let mut referenced: FxHashSet<CtrId> = self.stamps.values().copied().collect();
        referenced.extend(self.binds.values().map(|f| f.scope));
        referenced.extend(self.uses.values().map(|f| f.scope));
        referenced.extend(self.choices.values().map(|f| f.scope));
        referenced.extend(self.scope_of.values().copied());
        // A referenced contour keeps its whole enclosing chain.
        let mut stack: Vec<CtrId> = referenced.iter().copied().collect();
        while let Some(c) = stack.pop() {
            let p = self.contours[c.index()].parent;
            if referenced.insert(p) {
                stack.push(p);
            }
        }
        let freed: FxHashSet<CtrId> = self.ctr_free.iter().copied().collect();
        for i in 1..self.contours.len() {
            let ctr = CtrId(i as u32);
            if freed.contains(&ctr) || referenced.contains(&ctr) {
                continue;
            }
            if arena.is_live(self.contours[i].node) {
                continue;
            }
            self.contours[i].entries.clear();
            self.contours[i].node = NodeId::NONE;
            self.contours[i].parent = GLOBAL;
            self.ctr_free.push(ctr);
        }
    }

    // ------------------------------------------------------------------
    // The walk
    // ------------------------------------------------------------------

    fn full_build(&mut self, arena: &DagArena, root: NodeId) {
        self.contours.truncate(1);
        self.contours[0].entries.clear();
        self.ctr_free.clear();
        self.scope_of.clear();
        self.binds.clear();
        self.uses.clear();
        self.choices.clear();
        self.refs.clear();
        self.deps.clear();
        self.stamps.clear();
        self.pre.clear();
        self.mode = Mode::Build;
        self.walk(arena, root, GLOBAL, true);
        self.mode = Mode::Incremental;
        self.built = true;
    }

    /// Re-analyzes `n` under `scope`. `force` disables stamp skipping
    /// below this point (used when a scope's chain changed identity).
    fn walk(&mut self, arena: &DagArena, n: NodeId, scope: CtrId, force: bool) {
        match arena.kind(n) {
            NodeKind::Terminal { .. } | NodeKind::Bos | NodeKind::Eos => {}
            NodeKind::Root | NodeKind::Sequence { .. } | NodeKind::SeqRun { .. } => {
                for i in 0..arena.kids(n).len() {
                    let k = arena.kids(n)[i];
                    if !force && self.stamps.get(&k) == Some(&scope) {
                        self.stats.contours_reused += 1;
                        continue;
                    }
                    self.walk(arena, k, scope, force);
                    self.stamps.insert(k, scope);
                }
            }
            NodeKind::Symbol { .. } => self.derive_choice(arena, n, scope, force, true),
            NodeKind::Production { prod } => {
                self.stats.reanalyzed += 1;
                let shape = self.shapes[prod.index()];
                match shape {
                    Shape::TypedefDecl => {
                        self.remove_bind(n);
                        if let Some(name) = arena
                            .kids(n)
                            .get(2)
                            .and_then(|&k| head_identifier(arena, self.id, k))
                        {
                            self.add_bind(n, scope, name, NameKind::Type);
                        }
                    }
                    Shape::Funcdef => {
                        self.remove_bind(n);
                        if let Some(name) = arena
                            .kids(n)
                            .get(1)
                            .and_then(|&k| head_identifier(arena, self.id, k))
                        {
                            self.add_bind(n, scope, name, NameKind::Function);
                        }
                        if let Some(&blk) = arena.kids(n).last() {
                            self.walk(arena, blk, scope, force);
                        }
                    }
                    Shape::Block => {
                        let (ctr, relocated) = self.enter_block(arena, n, scope);
                        let force = force || relocated;
                        for i in 0..arena.kids(n).len() {
                            let k = arena.kids(n)[i];
                            self.walk(arena, k, ctr, force);
                        }
                    }
                    Shape::DeclInt => {
                        self.remove_bind(n);
                        if let Some(name) = arena
                            .kids(n)
                            .get(1)
                            .and_then(|&k| head_identifier(arena, self.id, k))
                        {
                            self.add_bind(n, scope, name, NameKind::Variable);
                        }
                        if let Some(&init) = arena.kids(n).get(3) {
                            self.walk(arena, init, scope, force);
                        }
                    }
                    Shape::DeclTyped => {
                        // Type use first, then the binding takes effect —
                        // anchored at the `decl_id` node so the type use
                        // does not see it.
                        if let Some(&ty) = arena.kids(n).first() {
                            self.walk(arena, ty, scope, force);
                        }
                        let dn = arena.kids(n).iter().copied().find(|&k| {
                            matches!(arena.kind(k), NodeKind::Production { prod }
                                if self.shapes[prod.index()] == Shape::DeclId)
                        });
                        if let Some(dn) = dn {
                            self.remove_bind(dn);
                            if let Some(name) = head_identifier(arena, self.id, dn) {
                                self.add_bind(dn, scope, name, NameKind::Variable);
                            }
                        }
                    }
                    Shape::IdUse => self.derive_use(arena, n, scope, false),
                    Shape::TypeId => self.derive_use(arena, n, scope, true),
                    Shape::DeclId => {}
                    Shape::Generic => {
                        for i in 0..arena.kids(n).len() {
                            let k = arena.kids(n)[i];
                            self.walk(arena, k, scope, force);
                        }
                    }
                }
            }
        }
    }

    /// Resolves a block node to its contour, opening (or adopting) one on
    /// first sight. Returns the contour and whether its enclosing chain
    /// changed — in which case the interior must be re-walked, since
    /// stamps cannot see a change of surroundings.
    fn enter_block(&mut self, arena: &DagArena, n: NodeId, scope: CtrId) -> (CtrId, bool) {
        if let Some(&ctr) = self.scope_of.get(&n) {
            let c = &mut self.contours[ctr.index()];
            if c.parent != scope {
                c.parent = scope;
                return (ctr, true);
            }
            return (ctr, false);
        }
        if let Some(ctr) = self.adoptable(arena, n) {
            // A re-reduced block: the node id is fresh but the interior
            // was reused and its stamps still name the old contour. Take
            // it over so the bindings — and the stamps — stay valid.
            let old_node = self.contours[ctr.index()].node;
            self.scope_of.remove(&old_node);
            self.scope_of.insert(n, ctr);
            let c = &mut self.contours[ctr.index()];
            c.node = n;
            if c.parent != scope {
                c.parent = scope;
                return (ctr, true);
            }
            return (ctr, false);
        }
        let ctr = self.alloc_contour(n, scope);
        self.scope_of.insert(n, ctr);
        (ctr, false)
    }

    /// Searches the reused interior of a freshly re-reduced block for the
    /// contour it was last analyzed under: any stamped element inside the
    /// `items` subtree names it. Bounded to [`ADOPT_PROBES`] probes.
    fn adoptable(&self, arena: &DagArena, n: NodeId) -> Option<CtrId> {
        let seq = arena
            .kids(n)
            .iter()
            .copied()
            .find(|&k| matches!(arena.kind(k), NodeKind::Sequence { .. }))?;
        let mut stack = vec![seq];
        let mut probes = 0usize;
        while let Some(cur) = stack.pop() {
            for &k in arena.kids(cur) {
                if let Some(&ctr) = self.stamps.get(&k) {
                    let owner = self.contours[ctr.index()].node;
                    if ctr != GLOBAL && (!arena.is_live(owner) || !Self::reachable(arena, owner)) {
                        return Some(ctr);
                    }
                    // The stamp names the global scope or a contour whose
                    // block is still in the tree (the element moved here
                    // from elsewhere) — not ours to take.
                    continue;
                }
                if matches!(
                    arena.kind(k),
                    NodeKind::Sequence { .. } | NodeKind::SeqRun { .. }
                ) {
                    stack.push(k);
                }
                probes += 1;
                if probes >= ADOPT_PROBES {
                    return None;
                }
            }
        }
        None
    }

    /// Whether `cur` is still attached to the current tree: each step up
    /// must be confirmed by the parent's kid list, ending at the root.
    /// Live parent pointers are refreshed every reparse, so a true chain
    /// exists iff the node is reachable.
    fn reachable(arena: &DagArena, mut cur: NodeId) -> bool {
        loop {
            let p = arena.node(cur).parent();
            if p.is_none() {
                return matches!(arena.kind(cur), NodeKind::Root);
            }
            if !arena.is_live(p) || !arena.kids(p).contains(&cur) {
                return false;
            }
            cur = p;
        }
    }

    /// Allocates a contour slot (recycling freed ones).
    fn alloc_contour(&mut self, node: NodeId, parent: CtrId) -> CtrId {
        if let Some(ctr) = self.ctr_free.pop() {
            let c = &mut self.contours[ctr.index()];
            c.node = node;
            c.parent = parent;
            c.entries.clear();
            ctr
        } else {
            self.contours.push(Contour {
                parent,
                node,
                entries: FxHashMap::default(),
            });
            CtrId((self.contours.len() - 1) as u32)
        }
    }

    fn add_bind(&mut self, site: NodeId, scope: CtrId, name: &str, kind: NameKind) {
        let sym = self.symtab.intern(name);
        self.touch(scope, sym);
        self.contours[scope.index()]
            .entries
            .entry(sym)
            .or_default()
            .push(BindEntry { site, kind });
        self.binds.insert(site, BindFact { scope, sym, kind });
    }

    fn derive_use(&mut self, arena: &DagArena, n: NodeId, scope: CtrId, is_type_ctx: bool) {
        self.remove_use(n);
        let Some(name) = head_identifier(arena, self.id, n) else {
            return;
        };
        let sym = self.symtab.intern(name);
        let found = self.lookup(arena, n, sym, scope);
        let resolved = if is_type_ctx {
            found == Some(NameKind::Type)
        } else {
            found.is_some()
        };
        self.uses.insert(
            n,
            UseFact {
                scope,
                sym,
                is_type_ctx,
                resolved,
            },
        );
        self.refs.entry(sym).or_default().push(n);
    }

    /// Figure 8c on one choice point: classify the alternatives, look the
    /// head up, store the selection. When re-evaluation changes which
    /// child is effective, the old child's facts are retracted and the new
    /// one analyzed — the in-place flip.
    fn derive_choice(
        &mut self,
        arena: &DagArena,
        n: NodeId,
        scope: CtrId,
        force: bool,
        rewalk_subtree: bool,
    ) {
        self.stats.reanalyzed += 1;
        let kids: Vec<NodeId> = arena.kids(n).to_vec();
        let kinds: Vec<AltKind> = kids
            .iter()
            .map(|&k| self.classifier.alt_kind(arena, k))
            .collect();
        let head = head_identifier(arena, self.id, n).map(|h| self.symtab.intern(h));
        let head_kind = head.and_then(|sym| self.lookup(arena, n, sym, scope));
        let mut persistent = false;
        let want = match head_kind {
            Some(NameKind::Type) => {
                if kinds.contains(&AltKind::Decl) {
                    Some(AltKind::Decl)
                } else {
                    Some(AltKind::Cast)
                }
            }
            Some(NameKind::Function) | Some(NameKind::Variable) => Some(AltKind::Call),
            None => match self.strictness {
                Strictness::DefaultToCall => Some(AltKind::Call),
                Strictness::RequireBinding => {
                    persistent = true;
                    None
                }
            },
        };
        let sel = want.and_then(|w| {
            let index = kinds
                .iter()
                .position(|k| *k == w)
                .or_else(|| kinds.iter().position(|k| *k != AltKind::Other))?;
            Some(Selection {
                index,
                kind: kinds[index],
            })
        });

        let old = self.remove_choice_fact(n);
        let old_eff = old.and_then(|o| kids.get(o.sel.map_or(0, |s| s.index)).copied());
        let new_eff = kids[sel.map_or(0, |s| s.index)];
        self.choices.insert(
            n,
            ChoiceFact {
                scope,
                head,
                sel,
                persistent,
            },
        );
        if let Some(h) = head {
            self.deps.entry(h).or_default().push(n);
        }
        let flipped = old.is_some() && old_eff != Some(new_eff);
        if flipped {
            if let Some(oe) = old_eff {
                self.retract_subtree(arena, oe);
            }
            self.stats.flips += 1;
        }
        if rewalk_subtree || flipped || old.is_none() {
            self.walk(arena, new_eff, scope, force || flipped);
        }
    }

    // ------------------------------------------------------------------
    // Ripple (the cut-off rule)
    // ------------------------------------------------------------------

    /// Propagates net contour changes to their dependents until quiescent.
    /// Returns `false` if the iteration guard trips (caller rebuilds).
    fn ripple(&mut self, arena: &DagArena) -> bool {
        for _round in 0.. {
            let baselines: Vec<((CtrId, Sym), Vec<BindEntry>)> = self.pre.drain().collect();
            let mut changed: FxHashSet<Sym> = FxHashSet::default();
            for ((scope, sym), old) in baselines {
                let cur = self.contours[scope.index()]
                    .entries
                    .get(&sym)
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]);
                if !Self::entries_equal(&old, cur) {
                    changed.insert(sym);
                }
            }
            if changed.is_empty() {
                return true;
            }
            if _round >= MAX_RIPPLE_ROUNDS {
                return false;
            }
            for sym in changed {
                let users: Vec<NodeId> = self.refs.get(&sym).cloned().unwrap_or_default();
                for u in users {
                    self.re_resolve_use(arena, u);
                }
                let dependents: Vec<NodeId> = self.deps.get(&sym).cloned().unwrap_or_default();
                for c in dependents {
                    if let Some(fact) = self.choices.get(&c).copied() {
                        self.derive_choice(arena, c, fact.scope, false, false);
                    }
                }
            }
        }
        unreachable!("loop only exits via return")
    }

    /// Unordered comparison: retract-then-readd of an identical binding
    /// must not propagate.
    fn entries_equal(a: &[BindEntry], b: &[BindEntry]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut sa: Vec<BindEntry> = a.to_vec();
        let mut sb: Vec<BindEntry> = b.to_vec();
        sa.sort_by_key(|e| (e.site.index(), e.kind as u8));
        sb.sort_by_key(|e| (e.site.index(), e.kind as u8));
        sa == sb
    }

    fn re_resolve_use(&mut self, arena: &DagArena, n: NodeId) {
        let Some(fact) = self.uses.get(&n).copied() else {
            return;
        };
        let found = self.lookup(arena, n, fact.sym, fact.scope);
        let resolved = if fact.is_type_ctx {
            found == Some(NameKind::Type)
        } else {
            found.is_some()
        };
        if resolved != fact.resolved {
            self.stats.reanalyzed += 1;
            if let Some(f) = self.uses.get_mut(&n) {
                f.resolved = resolved;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Position-aware query kernel (shared by the live state and the view)
// ----------------------------------------------------------------------

/// Document span of `n` in terminal offsets: `(start, end)` where `start`
/// is the number of terminals yielded left of `n`'s subtree. `None` for
/// nodes detached from the tree of this dag version. Memoized in `memo` —
/// repeated visibility checks against the same binding sites are the hot
/// loop of both the ripple pass and position-filtered lookup.
fn span_in(
    dag: &dyn DagRead,
    memo: &mut FxHashMap<NodeId, Option<(u32, u32)>>,
    n: NodeId,
) -> Option<(u32, u32)> {
    if let Some(&hit) = memo.get(&n) {
        return hit;
    }
    let width = dag.width(n);
    let mut start = 0u32;
    let mut cur = n;
    let computed = loop {
        let p = dag.parent(cur);
        if p.is_none() {
            // Only the root legitimately has no parent; anything else
            // without one is a detached fragment.
            break matches!(dag.kind(cur), NodeKind::Root).then_some(());
        }
        if !dag.is_live(p) {
            break None;
        }
        let kids = dag.kids(p);
        if matches!(dag.kind(p), NodeKind::Symbol { .. }) {
            // A symbol node's kids are overlapping alternatives of the
            // same yield, not concatenated siblings.
            if !kids.contains(&cur) {
                break None;
            }
        } else {
            let mut found = false;
            for &k in kids {
                if k == cur {
                    found = true;
                    break;
                }
                start += dag.width(k);
            }
            if !found {
                break None; // stale parent pointer: detached.
            }
        }
        cur = p;
    };
    let result = computed.map(|()| (start, start + width));
    memo.insert(n, result);
    result
}

/// Whether `n` is attached to the tree of this dag version (live, and its
/// parent chain — kid-membership verified at every level — reaches the
/// root).
fn attached_in(
    dag: &dyn DagRead,
    memo: &mut FxHashMap<NodeId, Option<(u32, u32)>>,
    n: NodeId,
) -> bool {
    dag.is_live(n) && span_in(dag, memo, n).is_some()
}

/// Whether the binding anchored at `a` is visible at position `b`: `a`
/// precedes `b` in document order, or is an ancestor of `b` (a
/// declaration's own initializer sees the binding).
fn visible_in(
    dag: &dyn DagRead,
    memo: &mut FxHashMap<NodeId, Option<(u32, u32)>>,
    a: NodeId,
    b: NodeId,
) -> bool {
    if a == b {
        return true;
    }
    let (Some((a_s, a_e)), Some((b_s, b_e))) = (span_in(dag, memo, a), span_in(dag, memo, b))
    else {
        return false;
    };
    a_e <= b_s || (a_s <= b_s && a_e >= b_e)
}

/// Innermost visible binding of `sym` at position `at`, walking the
/// contour chain from `scope` outwards. In build mode the last entry
/// pushed is by construction the latest preceding one; incrementally the
/// entries are position-filtered against `at`.
fn lookup_in(
    dag: &dyn DagRead,
    memo: &mut FxHashMap<NodeId, Option<(u32, u32)>>,
    contours: &[Contour],
    mode: Mode,
    at: NodeId,
    sym: Sym,
    mut scope: CtrId,
) -> Option<NameKind> {
    loop {
        let c = &contours[scope.index()];
        if let Some(entries) = c.entries.get(&sym) {
            match mode {
                Mode::Build => {
                    if let Some(e) = entries.last() {
                        return Some(e.kind);
                    }
                }
                Mode::Incremental => {
                    // Latest visible binding = visible entry with the
                    // greatest start offset (an enclosing declaration
                    // starts no later than any earlier sibling's end).
                    let mut best: Option<(u32, NameKind)> = None;
                    for e in entries {
                        if !visible_in(dag, memo, e.site, at) {
                            continue;
                        }
                        let start = span_in(dag, memo, e.site).map_or(0, |(s, _)| s);
                        if best.is_none_or(|(b, _)| b <= start) {
                            best = Some((start, e.kind));
                        }
                    }
                    if let Some((_, kind)) = best {
                        return Some(kind);
                    }
                }
            }
        }
        if scope == GLOBAL {
            return None;
        }
        scope = c.parent;
    }
}

// ----------------------------------------------------------------------
// The read view
// ----------------------------------------------------------------------

/// A frozen copy of [`SemState`]'s queryable fact tables behind an `Arc`:
/// the only evaluator of the name queries. The session runs it over its
/// live arena, and publishes it alongside each dag snapshot so reader
/// threads answer without the session lock.
///
/// The tables are plain clones (no structural sharing with the live
/// state); the only interior mutability is the span memo, which is sound
/// to share across every dag the view serves: the view is dropped at the
/// start of each semantic update, and between updates the attached tree's
/// structure is identical in the live arena and in every published
/// version (refused reparse attempts roll their parent edits back and
/// only leave detached fresh terminals behind, which own no facts).
#[derive(Debug)]
struct SemView {
    symtab: SymTab,
    contours: Vec<Contour>,
    binds: FxHashMap<NodeId, BindFact>,
    uses: FxHashMap<NodeId, UseFact>,
    choices: FxHashMap<NodeId, ChoiceFact>,
    refs: FxHashMap<Sym, Vec<NodeId>>,
    /// Span memo, shared by all readers of this view (lock-protected; a
    /// poisoned lock is recovered, since every memoized value is a pure
    /// function of the frozen tree).
    spans: Mutex<FxHashMap<NodeId, Option<(u32, u32)>>>,
}

impl SemView {
    fn attached_refs(
        &self,
        dag: &dyn DagRead,
        memo: &mut FxHashMap<NodeId, Option<(u32, u32)>>,
        sym: Sym,
    ) -> usize {
        self.refs.get(&sym).map_or(0, |v| {
            v.iter().filter(|&&n| attached_in(dag, memo, n)).count()
        })
    }
}

impl SemReadView for SemView {
    fn info_at(&self, dag: &dyn DagRead, path: &[NodeId]) -> Option<SemInfo> {
        let mut memo = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let memo = &mut *memo;
        let ambiguous = path.iter().any(|n| self.choices.contains_key(n));
        let choice_resolved = path
            .iter()
            .rev()
            .find_map(|n| self.choices.get(n))
            .map(|c| c.sel.is_some());
        for n in path.iter().rev() {
            if let Some(u) = self.uses.get(n) {
                let found = lookup_in(
                    dag,
                    memo,
                    &self.contours,
                    Mode::Incremental,
                    *n,
                    u.sym,
                    u.scope,
                );
                return Some(SemInfo {
                    name: self.symtab.name(u.sym).to_string(),
                    kind: found.map(to_sem_kind),
                    ambiguous,
                    resolved: choice_resolved.unwrap_or(u.resolved),
                    uses: self.attached_refs(dag, memo, u.sym),
                });
            }
            if let Some(b) = self.binds.get(n) {
                return Some(SemInfo {
                    name: self.symtab.name(b.sym).to_string(),
                    kind: Some(to_sem_kind(b.kind)),
                    ambiguous,
                    resolved: choice_resolved.unwrap_or(true),
                    uses: self.attached_refs(dag, memo, b.sym),
                });
            }
        }
        // No analyzed identifier on the path; report the enclosing choice
        // point's head if there is one.
        let (n, c) = path
            .iter()
            .rev()
            .find_map(|n| self.choices.get(n).map(|c| (*n, c)))?;
        let sym = c.head?;
        let found = lookup_in(
            dag,
            memo,
            &self.contours,
            Mode::Incremental,
            n,
            sym,
            c.scope,
        );
        Some(SemInfo {
            name: self.symtab.name(sym).to_string(),
            kind: found.map(to_sem_kind),
            ambiguous,
            resolved: c.sel.is_some(),
            uses: self.attached_refs(dag, memo, sym),
        })
    }

    fn uses_of(&self, dag: &dyn DagRead, name: &str) -> Vec<NodeId> {
        let Some(sym) = self.symtab.get(name) else {
            return Vec::new();
        };
        let mut memo = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut v: Vec<NodeId> = self
            .refs
            .get(&sym)
            .map(|v| {
                v.iter()
                    .filter(|&&n| attached_in(dag, &mut memo, n))
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        v.sort_by_key(|n| n.index());
        v
    }
}

impl SemanticPass for SemState {
    fn update(
        &mut self,
        arena: &DagArena,
        root: NodeId,
        damage: &[NodeId],
        gc_ran: bool,
    ) -> SemUpdate {
        self.stats = SemUpdate::default();
        self.spans.borrow_mut().clear();
        // Facts are about to change: the next publish must freeze a fresh
        // view (readers holding the old Arc keep their version's answers).
        *self.view.get_mut() = None;
        if !self.built {
            self.full_build(arena, root);
            return self.stats;
        }
        self.mode = Mode::Incremental;
        self.pre.clear();
        if gc_ran {
            self.prune(arena);
        }
        for &d in damage {
            if !arena.is_live(d) {
                continue;
            }
            self.stamps.remove(&d);
            self.retract_node(arena, d);
        }
        self.walk(arena, root, GLOBAL, false);
        if !self.ripple(arena) {
            self.full_build(arena, root);
            self.stats.full_rebuild = true;
        }
        self.stats
    }

    fn rebuild(&mut self, arena: &DagArena, root: NodeId) -> SemUpdate {
        // Grammar hot-swap: the whole tree was re-derived under a new
        // table, so node stamps, contours, and selections are meaningless.
        // Reset instead of rippling from (nonexistent) damage.
        self.stats = SemUpdate::default();
        self.spans.borrow_mut().clear();
        *self.view.get_mut() = None;
        self.full_build(arena, root);
        self.stats.full_rebuild = true;
        self.stats
    }

    /// Builds (or reuses) the frozen view of the current fact tables.
    /// Cached between updates: every query and snapshot answered from the
    /// same analysis state shares one copy.
    fn read_view(&self) -> Arc<dyn SemReadView> {
        let mut cached = self.view.borrow_mut();
        if let Some(v) = &*cached {
            return Arc::clone(v);
        }
        let v: Arc<dyn SemReadView> = Arc::new(SemView {
            symtab: self.symtab.clone(),
            contours: self.contours.clone(),
            binds: self.binds.clone(),
            uses: self.uses.clone(),
            choices: self.choices.clone(),
            refs: self.refs.clone(),
            spans: Mutex::new(FxHashMap::default()),
        });
        *cached = Some(Arc::clone(&v));
        v
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn to_sem_kind(k: NameKind) -> SemNameKind {
    match k {
        NameKind::Type => SemNameKind::Type,
        NameKind::Function => SemNameKind::Function,
        NameKind::Variable => SemNameKind::Variable,
    }
}

/// A comparable, deterministic summary of an analysis — the currency of
/// the differential tests (incremental [`SemState`] vs batch
/// [`crate::analyze`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemSnapshot {
    /// Typedefs bound.
    pub typedefs: usize,
    /// Function definitions bound.
    pub functions: usize,
    /// Variables bound.
    pub variables: usize,
    /// Identifier uses examined.
    pub uses: usize,
    /// Uses that resolved to a binding.
    pub resolved_uses: usize,
    /// `(choice node index, selected child, kind)`, sorted.
    pub selections: Vec<(usize, usize, AltKind)>,
    /// Persistently ambiguous choice points, sorted.
    pub persistent: Vec<usize>,
    /// Lexemes of unresolved uses, sorted (a multiset).
    pub unresolved: Vec<String>,
    /// `(name, sorted use-site indexes)`, sorted by name.
    pub references: Vec<(String, Vec<usize>)>,
}

impl SemSnapshot {
    /// The batch oracle's answer in the same shape.
    pub fn of_batch(a: &Analysis) -> SemSnapshot {
        let mut selections: Vec<(usize, usize, AltKind)> = a
            .selections_iter()
            .map(|(n, s)| (n.index(), s.index, s.kind))
            .collect();
        selections.sort_unstable();
        let mut persistent: Vec<usize> = a.persistent.iter().map(|n| n.index()).collect();
        persistent.sort_unstable();
        let mut unresolved = a.unresolved_names.clone();
        unresolved.sort_unstable();
        let mut references: Vec<(String, Vec<usize>)> = a
            .references
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(name, v)| {
                let mut sites: Vec<usize> = v.iter().map(|n| n.index()).collect();
                sites.sort_unstable();
                (name.clone(), sites)
            })
            .collect();
        references.sort_unstable();
        SemSnapshot {
            typedefs: a.typedefs,
            functions: a.functions,
            variables: a.variables,
            uses: a.uses,
            resolved_uses: a.resolved_uses,
            selections,
            persistent,
            unresolved,
            references,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use wg_core::Session;
    use wg_langs::simp_c;

    fn attach(s: &mut Session, strictness: Strictness) {
        let pass = SemState::new(s.config().grammar(), strictness);
        s.attach_semantics(Box::new(pass));
    }

    fn state(s: &Session) -> &SemState {
        s.semantics()
            .expect("semantics attached")
            .as_any()
            .downcast_ref::<SemState>()
            .expect("concrete pass is SemState")
    }

    fn assert_matches_batch(s: &Session) {
        let batch = analyze(
            s.arena(),
            s.root(),
            s.config().grammar(),
            Strictness::RequireBinding,
        );
        assert_eq!(
            state(s).snapshot(s.arena()),
            SemSnapshot::of_batch(&batch),
            "incremental state diverged from the batch oracle"
        );
    }

    #[test]
    fn initial_build_matches_batch() {
        let cfg = Box::leak(Box::new(simp_c()));
        let mut s = Session::new(
            cfg,
            "typedef int t; int f() { int y; t (x); } f (y); w = 1;",
        )
        .unwrap();
        attach(&mut s, Strictness::RequireBinding);
        assert_matches_batch(&s);
        let st = state(&s);
        assert_eq!(st.resolved_choices(), 2);
        assert!(st.contour_count() >= 1, "function body opened a contour");
    }

    #[test]
    fn incremental_update_tracks_edits() {
        let cfg = Box::leak(Box::new(simp_c()));
        let mut s = Session::new(cfg, "int a; a = a + 1; int b = a;").unwrap();
        attach(&mut s, Strictness::RequireBinding);
        let pos = s.text().rfind('a').unwrap();
        s.edit(pos, 1, "zz");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert_matches_batch(&s);
        assert_eq!(
            state(&s).snapshot(s.arena()).unresolved,
            vec!["zz".to_string()]
        );
    }

    #[test]
    fn typedef_removal_flips_retained_alternative_in_place() {
        let cfg = Box::leak(Box::new(simp_c()));
        let mut s = Session::new(cfg, "typedef int t; int t2; t (x);").unwrap();
        attach(&mut s, Strictness::DefaultToCall);
        let sym = s.ambiguities()[0];
        assert_eq!(state(&s).selection(sym).unwrap().kind, AltKind::Decl);

        s.edit(0, "typedef int t;".len(), "int t;");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert!(
            out.report.sem_flips >= 1,
            "the selection must flip in place: {:?}",
            out.report
        );
        assert!(!out.report.sem_full_rebuild);
        assert_eq!(state(&s).selection(sym).unwrap().kind, AltKind::Call);
        let batch = analyze(
            s.arena(),
            s.root(),
            cfg.grammar(),
            Strictness::DefaultToCall,
        );
        assert_eq!(state(&s).snapshot(s.arena()), SemSnapshot::of_batch(&batch));
    }

    #[test]
    fn unrelated_edit_reuses_contours_and_cuts_off() {
        let cfg = Box::leak(Box::new(simp_c()));
        let src = "typedef int t; int f() { int u1; } t (x); int q = 7; int r = 8;";
        let mut s = Session::new(cfg, src).unwrap();
        attach(&mut s, Strictness::RequireBinding);
        let pos = s.text().find('7').unwrap();
        s.edit(pos, 1, "9");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        assert!(
            out.report.sem_contours_reused > 0,
            "untouched items must be skipped: {:?}",
            out.report
        );
        assert_eq!(out.report.sem_flips, 0, "no binding changed, no ripple");
        assert_matches_batch(&s);
    }

    #[test]
    fn read_view_is_isolated_from_later_edits() {
        let cfg = Box::leak(Box::new(simp_c()));
        let mut s = Session::new(cfg, "int v; v = v + 1;").unwrap();
        attach(&mut s, Strictness::RequireBinding);
        let snap = s.publish();
        let off = s.text().rfind('v').unwrap();
        let before = snap.info_at(off).expect("an identifier there");
        assert_eq!(before.name, "v");
        assert_eq!(before.uses, 2);

        // Rename the declaration; the live session re-resolves, the pinned
        // snapshot keeps answering with its version's facts.
        s.edit(4, 1, "w");
        let out = s.reparse().unwrap();
        assert!(out.incorporated);
        let live = s.semantic_info_at(s.text().rfind('v').unwrap()).unwrap();
        assert_eq!(live.kind, None, "live: `v` is now unbound");
        let frozen = snap.info_at(off).expect("still an identifier there");
        assert_eq!(frozen.name, "v");
        assert_eq!(
            frozen.kind,
            Some(wg_core::SemNameKind::Variable),
            "frozen: the old binding is still visible"
        );
        assert_eq!(frozen.uses, 2);
        assert_eq!(snap.uses_of("v").len(), 2);

        // A fresh publish reflects the new facts.
        let snap2 = s.publish();
        assert!(snap2.version() > snap.version());
        assert_eq!(snap2.info_at(off).unwrap().kind, None);
    }

    #[test]
    fn queries_resolve_names_at_offsets() {
        let cfg = Box::leak(Box::new(simp_c()));
        let mut s = Session::new(cfg, "typedef int t; t (x); int v; v = v + 1;").unwrap();
        attach(&mut s, Strictness::RequireBinding);
        let off = s.text().rfind('v').unwrap();
        let info = s.semantic_info_at(off).expect("an identifier there");
        assert_eq!(info.name, "v");
        assert_eq!(info.kind, Some(wg_core::SemNameKind::Variable));
        assert!(!info.ambiguous);
        assert_eq!(info.uses, 2);
        assert_eq!(s.semantic_uses_of("v").len(), 2);
        // The ambiguous head:
        let toff = s.text().find("t (x)").unwrap();
        let tinfo = s.semantic_info_at(toff).expect("head identifier");
        assert_eq!(tinfo.name, "t");
        assert!(tinfo.ambiguous);
        assert!(tinfo.resolved);
    }
}
