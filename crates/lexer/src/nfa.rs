//! Thompson construction: regex AST → NFA with ε-transitions.

use crate::regex::{ByteClass, Regex};

/// Index of an NFA state.
pub(crate) type NfaState = usize;

/// One NFA state: ε-successors plus class-labelled successors.
#[derive(Debug, Clone, Default)]
pub(crate) struct NfaNode {
    pub eps: Vec<NfaState>,
    pub on: Vec<(ByteClass, NfaState)>,
    /// If this state accepts, the rule index it accepts for.
    pub accept: Option<u32>,
}

/// An NFA for a whole lexer definition: one shared start state with
/// ε-transitions into each rule's fragment.
#[derive(Debug, Clone)]
pub(crate) struct Nfa {
    pub nodes: Vec<NfaNode>,
    pub start: NfaState,
}

impl Nfa {
    /// Builds the combined NFA for `rules` (patterns in priority order).
    pub fn build(rules: &[Regex]) -> Nfa {
        let mut nfa = Nfa {
            nodes: vec![NfaNode::default()],
            start: 0,
        };
        for (i, r) in rules.iter().enumerate() {
            let (s, a) = nfa.fragment(r);
            nfa.nodes[a].accept = Some(i as u32);
            let start = nfa.start;
            nfa.nodes[start].eps.push(s);
        }
        nfa
    }

    fn node(&mut self) -> NfaState {
        self.nodes.push(NfaNode::default());
        self.nodes.len() - 1
    }

    /// Builds a fragment, returning (entry, exit).
    fn fragment(&mut self, r: &Regex) -> (NfaState, NfaState) {
        match r {
            Regex::Empty => {
                let s = self.node();
                let e = self.node();
                self.nodes[s].eps.push(e);
                (s, e)
            }
            Regex::Class(c) => {
                let s = self.node();
                let e = self.node();
                self.nodes[s].on.push((*c, e));
                (s, e)
            }
            Regex::Concat(parts) => {
                let mut entry = None;
                let mut prev_exit: Option<NfaState> = None;
                for p in parts {
                    let (s, e) = self.fragment(p);
                    if let Some(pe) = prev_exit {
                        self.nodes[pe].eps.push(s);
                    } else {
                        entry = Some(s);
                    }
                    prev_exit = Some(e);
                }
                match (entry, prev_exit) {
                    (Some(s), Some(e)) => (s, e),
                    _ => self.fragment(&Regex::Empty),
                }
            }
            Regex::Alt(parts) => {
                let s = self.node();
                let e = self.node();
                for p in parts {
                    let (ps, pe) = self.fragment(p);
                    self.nodes[s].eps.push(ps);
                    self.nodes[pe].eps.push(e);
                }
                (s, e)
            }
            Regex::Star(inner) => {
                let s = self.node();
                let e = self.node();
                let (is, ie) = self.fragment(inner);
                self.nodes[s].eps.push(is);
                self.nodes[s].eps.push(e);
                self.nodes[ie].eps.push(is);
                self.nodes[ie].eps.push(e);
                (s, e)
            }
            Regex::Plus(inner) => {
                let (is, ie) = self.fragment(inner);
                let e = self.node();
                self.nodes[ie].eps.push(is);
                self.nodes[ie].eps.push(e);
                (is, e)
            }
            Regex::Opt(inner) => {
                let s = self.node();
                let e = self.node();
                let (is, ie) = self.fragment(inner);
                self.nodes[s].eps.push(is);
                self.nodes[s].eps.push(e);
                self.nodes[ie].eps.push(e);
                (s, e)
            }
        }
    }

    /// ε-closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, states: &[NfaState]) -> Vec<NfaState> {
        // A worklist over the output itself, so the cost follows the
        // closure rather than the NFA's size: determinization calls this
        // once per DFA state and byte, and closures are small.
        let mut out: Vec<NfaState> = states.to_vec();
        let mut i = 0;
        while i < out.len() {
            for &t in &self.nodes[out[i]].eps {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            i += 1;
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    /// Simulates the NFA directly (for cross-checking the DFA).
    fn nfa_matches(nfa: &Nfa, input: &[u8]) -> Option<u32> {
        let mut cur = nfa.eps_closure(&[nfa.start]);
        for &b in input {
            let mut next = Vec::new();
            for &s in &cur {
                for (c, t) in &nfa.nodes[s].on {
                    if c.contains(b) {
                        next.push(*t);
                    }
                }
            }
            if next.is_empty() {
                return None;
            }
            cur = nfa.eps_closure(&next);
        }
        cur.iter().filter_map(|&s| nfa.nodes[s].accept).min()
    }

    #[test]
    fn simple_patterns_match() {
        let rules = vec![
            Regex::parse("ab+").unwrap(),
            Regex::parse("[0-9]+").unwrap(),
        ];
        let nfa = Nfa::build(&rules);
        assert_eq!(nfa_matches(&nfa, b"abb"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"a"), None);
        assert_eq!(nfa_matches(&nfa, b"42"), Some(1));
        assert_eq!(nfa_matches(&nfa, b""), None);
    }

    #[test]
    fn priority_goes_to_earlier_rule() {
        // "if" matches both the keyword (rule 0) and ident (rule 1).
        let rules = vec![Regex::literal("if"), Regex::parse("[a-z]+").unwrap()];
        let nfa = Nfa::build(&rules);
        assert_eq!(nfa_matches(&nfa, b"if"), Some(0));
        assert_eq!(nfa_matches(&nfa, b"iff"), Some(1));
    }

    #[test]
    fn star_accepts_empty() {
        let rules = vec![Regex::parse("a*").unwrap()];
        let nfa = Nfa::build(&rules);
        assert_eq!(nfa_matches(&nfa, b""), Some(0));
        assert_eq!(nfa_matches(&nfa, b"aaa"), Some(0));
    }

    #[test]
    fn opt_and_alt() {
        let rules = vec![Regex::parse("colou?r|gray|grey").unwrap()];
        let nfa = Nfa::build(&rules);
        for ok in [&b"color"[..], b"colour", b"gray", b"grey"] {
            assert_eq!(nfa_matches(&nfa, ok), Some(0), "{ok:?}");
        }
        assert_eq!(nfa_matches(&nfa, b"graey"), None);
    }

    #[test]
    fn eps_closure_is_sorted_and_complete() {
        let rules = vec![Regex::parse("a|b|c").unwrap()];
        let nfa = Nfa::build(&rules);
        let c = nfa.eps_closure(&[nfa.start]);
        assert!(c.windows(2).all(|w| w[0] < w[1]));
        assert!(c.contains(&nfa.start));
        assert!(c.len() > 3, "closure must reach each alternative's entry");
    }
}
