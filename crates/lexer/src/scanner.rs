//! The scanner: longest-match tokenization with per-token lookahead
//! tracking, and the damage-bounded incremental `relex`.

use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::regex::{Regex, RegexError};
use crate::source::TextSource;
use std::fmt;
use wg_document::Edit;

/// Identifier of a token rule, in declaration (priority) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct RuleDef {
    name: String,
    regex: Regex,
    skip: bool,
    /// Whether the rule came from `literal` (true) or a pattern (false);
    /// disambiguates `source` for fingerprinting.
    is_literal: bool,
    /// The pattern or literal text as written, for fingerprinting.
    source: String,
}

/// A token-rule set under construction.
///
/// Rules declared earlier win ties (so declare keywords before identifiers).
#[derive(Debug, Clone, Default)]
pub struct LexerDef {
    rules: Vec<RuleDef>,
}

impl LexerDef {
    /// An empty definition.
    pub fn new() -> LexerDef {
        LexerDef::default()
    }

    /// Adds a token rule from a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] if the pattern is malformed.
    pub fn rule(&mut self, name: &str, pattern: &str) -> Result<RuleId, RegexError> {
        let regex = Regex::parse(pattern)?;
        self.rules.push(RuleDef {
            name: name.to_string(),
            regex,
            skip: false,
            is_literal: false,
            source: pattern.to_string(),
        });
        Ok(RuleId(self.rules.len() as u32 - 1))
    }

    /// Adds a token rule matching `text` literally (keywords, punctuation).
    pub fn literal(&mut self, name: &str, text: &str) -> RuleId {
        self.rules.push(RuleDef {
            name: name.to_string(),
            regex: Regex::literal(text),
            skip: false,
            is_literal: true,
            source: text.to_string(),
        });
        RuleId(self.rules.len() as u32 - 1)
    }

    /// Adds a rule whose matches are discarded (whitespace, comments).
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] if the pattern is malformed.
    pub fn skip(&mut self, name: &str, pattern: &str) -> Result<RuleId, RegexError> {
        let id = self.rule(name, pattern)?;
        self.rules[id.index()].skip = true;
        Ok(id)
    }

    /// A stable 64-bit fingerprint of the rule set: names, pattern sources,
    /// declaration order, skip flags, and literal-vs-pattern origin. Two
    /// definitions with equal fingerprints compile to interchangeable
    /// scanners, so language registries can cache compiled lexers on it.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a with length-prefixed strings so fields cannot alias.
        fn byte(h: &mut u64, b: u8) {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fn word(h: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                byte(h, b);
            }
        }
        fn string(h: &mut u64, s: &str) {
            word(h, s.len() as u64);
            for b in s.bytes() {
                byte(h, b);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        word(&mut h, self.rules.len() as u64);
        for r in &self.rules {
            string(&mut h, &r.name);
            string(&mut h, &r.source);
            word(&mut h, u64::from(r.skip));
            word(&mut h, u64::from(r.is_literal));
        }
        h
    }

    /// Compiles the rules into a scanner.
    pub fn compile(self) -> Lexer {
        let patterns: Vec<Regex> = self.rules.iter().map(|r| r.regex.clone()).collect();
        let dfa = Dfa::build(&Nfa::build(&patterns));
        Lexer {
            dfa,
            names: self.rules.iter().map(|r| r.name.clone()).collect(),
            skip: self.rules.iter().map(|r| r.skip).collect(),
        }
    }
}

/// A token instance positioned in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenAt {
    /// The rule that produced the token.
    pub rule: RuleId,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Length in bytes.
    pub len: usize,
    /// Bytes beyond the token's end the scanner examined while deciding the
    /// longest match. An edit inside `[start, start + len + lookahead)`
    /// invalidates this token (Appendix A: "Add to T any terminal having
    /// lexical lookahead in some t ∈ T"). `usize::MAX` means the scan was
    /// cut short by end-of-input, so any append can affect the token.
    pub lookahead: usize,
}

impl TokenAt {
    /// One past the last byte of the token.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// One past the last byte the scanner examined for this token
    /// (saturating for EOF-clamped scans).
    pub fn scan_end(&self) -> usize {
        self.end().saturating_add(self.lookahead)
    }

    /// The lexeme within `text`.
    pub fn lexeme<'t>(&self, text: &'t str) -> &'t str {
        &text[self.start..self.end()]
    }

    /// The lexeme read through a chunked [`TextSource`]. When one chunk
    /// holds the whole token this borrows straight from the source; a
    /// seam-straddling token is assembled into `scratch` (a pooled buffer —
    /// callers reuse one `String` across extractions, so nothing is
    /// allocated per token in steady state).
    pub fn lexeme_from<'a, S: TextSource + ?Sized>(
        &self,
        src: &'a S,
        scratch: &'a mut String,
    ) -> &'a str {
        let range = self.start..self.end();
        match src.slice(range.clone()) {
            Some(s) => s,
            None => {
                scratch.clear();
                src.extract_into(range, scratch);
                scratch
            }
        }
    }
}

/// The result of a full lex.
#[derive(Debug, Clone, Default)]
pub struct LexOutput {
    /// Non-skip tokens, in order.
    pub tokens: Vec<TokenAt>,
    /// Byte offsets the scanner could not match (each consumed one byte).
    pub errors: Vec<usize>,
}

/// The result of an incremental relex (Section 3.2's incremental lexer).
#[derive(Debug, Clone, Default)]
pub struct RelexResult {
    /// Number of leading old tokens untouched by the edit.
    pub kept_prefix: usize,
    /// Freshly scanned tokens covering the damaged region, positioned in the
    /// *new* text.
    pub new_tokens: Vec<TokenAt>,
    /// Number of trailing old tokens reused (their offsets shift by the
    /// edit's delta).
    pub kept_suffix: usize,
    /// Unmatched byte offsets inside the rescanned region (new text).
    pub errors: Vec<usize>,
}

impl RelexResult {
    /// Resets the result for reuse, keeping the vector allocations (the
    /// session's reparse loop pools one `RelexResult` across edits).
    pub fn clear(&mut self) {
        self.kept_prefix = 0;
        self.new_tokens.clear();
        self.kept_suffix = 0;
        self.errors.clear();
    }
}

/// Read access to the previous version's token stream, as required by
/// [`Lexer::relex_into`].
///
/// The slice implementation answers both queries by linear/binary scans; a
/// positional token store (e.g. a chunked token tape) can answer them
/// from per-chunk summaries so that incremental relexing never walks the
/// whole stream.
pub trait TokenSource {
    /// Number of tokens.
    fn len(&self) -> usize;

    /// Whether there are no tokens.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `ix`-th token, in pre-edit coordinates.
    fn token(&self, ix: usize) -> TokenAt;

    /// Number of leading tokens whose examined range ([`TokenAt::scan_end`])
    /// stays at or before `edit_start` — the longest reusable prefix for an
    /// edit at that offset.
    fn kept_prefix(&self, edit_start: usize) -> usize;

    /// Index of the token starting exactly at `start`, if any. Token starts
    /// are strictly increasing, so the answer is unique.
    fn find_start(&self, start: usize) -> Option<usize>;
}

impl TokenSource for [TokenAt] {
    fn len(&self) -> usize {
        <[TokenAt]>::len(self)
    }

    fn token(&self, ix: usize) -> TokenAt {
        self[ix]
    }

    fn kept_prefix(&self, edit_start: usize) -> usize {
        self.iter()
            .take_while(|t| t.scan_end() <= edit_start)
            .count()
    }

    fn find_start(&self, start: usize) -> Option<usize> {
        self.binary_search_by_key(&start, |t| t.start).ok()
    }
}

/// A compiled scanner.
#[derive(Debug, Clone)]
pub struct Lexer {
    dfa: Dfa,
    names: Vec<String>,
    skip: Vec<bool>,
}

impl Lexer {
    /// Name of a rule.
    pub fn rule_name(&self, r: RuleId) -> &str {
        &self.names[r.index()]
    }

    /// Looks a rule up by name.
    pub fn rule_by_name(&self, name: &str) -> Option<RuleId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| RuleId(i as u32))
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.names.len()
    }

    /// Scans one token starting at `pos`. Returns `(token, matched)` where
    /// `matched` is false on a lexical error (the token then covers one byte
    /// and has no meaningful rule).
    ///
    /// Reads through a chunked [`TextSource`]: the current chunk is cached
    /// and refetched only when the probe crosses its end, so a plain `&str`
    /// source costs exactly what the old contiguous scan did, and a rope
    /// source costs one O(log chunks) seek per chunk crossed.
    fn scan_one<S: TextSource + ?Sized>(&self, src: &S, pos: usize) -> (TokenAt, bool) {
        let len = src.len();
        let mut state = self.dfa.start;
        let mut best: Option<(usize, u32)> = self.dfa.accepting(state).map(|r| (pos, r));
        let mut probe = pos;
        let mut chunk = src.chunk_at(pos);
        let mut chunk_start = pos;
        // An EOF-terminated scan has effectively unbounded lookahead: any
        // appended byte could have extended the match.
        let mut clamped = true;
        while probe < len {
            if probe - chunk_start >= chunk.len() {
                chunk = src.chunk_at(probe);
                chunk_start = probe;
            }
            match self.dfa.step(state, chunk[probe - chunk_start]) {
                Some(next) => {
                    state = next;
                    probe += 1;
                    if let Some(r) = self.dfa.accepting(state) {
                        best = Some((probe, r));
                    }
                }
                None => {
                    probe += 1; // the failing byte was examined
                    clamped = false;
                    break;
                }
            }
        }
        let la = |end: usize| if clamped { usize::MAX } else { probe - end };
        match best {
            // Zero-length matches would not make progress; treat as error.
            Some((end, rule)) if end > pos => (
                TokenAt {
                    rule: RuleId(rule),
                    start: pos,
                    len: end - pos,
                    lookahead: la(end),
                },
                true,
            ),
            _ => (
                TokenAt {
                    rule: RuleId(u32::MAX),
                    start: pos,
                    len: 1,
                    lookahead: la(pos + 1),
                },
                false,
            ),
        }
    }

    /// Tokenizes `text` from scratch.
    pub fn lex(&self, text: &str) -> LexOutput {
        self.lex_source(text)
    }

    /// Tokenizes a chunked [`TextSource`] from scratch without materializing
    /// it (e.g. a `wg_document::Rope` straight off the editor buffer).
    pub fn lex_source<S: TextSource + ?Sized>(&self, src: &S) -> LexOutput {
        let len = src.len();
        let mut out = LexOutput::default();
        let mut pos = 0;
        while pos < len {
            let (tok, ok) = self.scan_one(src, pos);
            pos = tok.end();
            if !ok {
                out.errors.push(tok.start);
            } else if !self.skip[tok.rule.index()] {
                out.tokens.push(tok);
            }
        }
        out
    }

    /// Relexes after `edit` transformed the old text (where `old` was lexed)
    /// into `new_text`.
    ///
    /// Only the damaged region is rescanned: the prefix of `old` whose bytes
    /// *and recorded lookahead* precede the edit is kept verbatim, and
    /// scanning stops as soon as a token boundary realigns with an old token
    /// start beyond the edit (the suffix is then reused with offsets shifted
    /// by [`Edit::delta`]).
    pub fn relex(&self, new_text: &str, old: &[TokenAt], edit: Edit) -> RelexResult {
        let mut out = RelexResult::default();
        self.relex_into(new_text, old, edit, &mut out);
        out
    }

    /// Like [`Lexer::relex`], but reads the new text through a chunked
    /// [`TextSource`] and the old stream through a [`TokenSource`], writing
    /// into a pooled [`RelexResult`] — so a long-lived session neither
    /// materializes the document nor allocates per edit. Only bytes inside
    /// the damaged region (plus realignment lookahead) are examined.
    ///
    /// The damaged region is bounded on the left by the source's
    /// [`TokenSource::kept_prefix`] and on the right by the first scanned
    /// token boundary that realigns ([`TokenSource::find_start`]) with an
    /// old token start beyond the edit.
    pub fn relex_into<S: TextSource + ?Sized>(
        &self,
        new_text: &S,
        old: &(impl TokenSource + ?Sized),
        edit: Edit,
        out: &mut RelexResult,
    ) {
        out.clear();
        let len = new_text.len();
        let delta = edit.delta();
        let edit_old_end = edit.old_end();

        // Prefix: old tokens whose examined range ends at or before the edit.
        let kept_prefix = old.kept_prefix(edit.start);
        let scan_start = if kept_prefix == 0 {
            0
        } else {
            old.token(kept_prefix - 1).end()
        };

        let mut pos = scan_start;
        let kept_suffix;
        loop {
            // Synchronization test at a token boundary. Any old token
            // starting at or beyond the edit's removed range necessarily
            // lies past the kept prefix (prefix tokens end before the edit
            // begins), so a start match is a valid realignment point.
            let old_pos = pos as isize - delta;
            if old_pos >= edit_old_end as isize {
                if let Some(ix) = old.find_start(old_pos as usize) {
                    debug_assert!(ix >= kept_prefix);
                    kept_suffix = old.len() - ix;
                    break;
                }
            }
            if pos >= len {
                kept_suffix = 0;
                break;
            }
            let (tok, ok) = self.scan_one(new_text, pos);
            pos = tok.end();
            if !ok {
                out.errors.push(tok.start);
            } else if !self.skip[tok.rule.index()] {
                out.new_tokens.push(tok);
            }
        }

        out.kept_prefix = kept_prefix;
        out.kept_suffix = kept_suffix;
    }

    /// Applies a [`RelexResult`] to an old token vector, producing the full
    /// new token vector (offsets of the reused suffix are shifted).
    pub fn apply_relex(&self, old: &[TokenAt], r: &RelexResult, delta: isize) -> Vec<TokenAt> {
        let mut out = Vec::with_capacity(r.kept_prefix + r.new_tokens.len() + r.kept_suffix);
        out.extend_from_slice(&old[..r.kept_prefix]);
        out.extend_from_slice(&r.new_tokens);
        for t in &old[old.len() - r.kept_suffix..] {
            out.push(TokenAt {
                start: (t.start as isize + delta) as usize,
                ..*t
            });
        }
        out
    }
}

impl fmt::Display for Lexer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lexer({} rules)", self.names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c_like() -> Lexer {
        let mut def = LexerDef::new();
        def.literal("typedef", "typedef");
        def.literal("int", "int");
        def.rule("ident", "[a-zA-Z_][a-zA-Z0-9_]*").unwrap();
        def.rule("num", "[0-9]+").unwrap();
        def.literal("lparen", "(");
        def.literal("rparen", ")");
        def.literal("semi", ";");
        def.literal("eq", "=");
        def.skip("ws", "[ \\t\\n]+").unwrap();
        def.compile()
    }

    fn kinds(lx: &Lexer, text: &str) -> Vec<String> {
        lx.lex(text)
            .tokens
            .iter()
            .map(|t| lx.rule_name(t.rule).to_string())
            .collect()
    }

    #[test]
    fn basic_tokenization() {
        let lx = c_like();
        assert_eq!(
            kinds(&lx, "int x = 42;"),
            vec!["int", "ident", "eq", "num", "semi"]
        );
    }

    #[test]
    fn keywords_require_boundaries() {
        let lx = c_like();
        assert_eq!(kinds(&lx, "integer"), vec!["ident"], "longest match");
        assert_eq!(kinds(&lx, "int eger"), vec!["int", "ident"]);
    }

    #[test]
    fn lookahead_is_recorded() {
        let lx = c_like();
        let out = lx.lex("int x");
        // "int" was decided after examining the following space.
        assert_eq!(out.tokens[0].lookahead, 1);
        // "x" ends at EOF: its scan is clamped, so lookahead is unbounded
        // (an appended byte could extend the identifier).
        assert_eq!(out.tokens[1].lookahead, usize::MAX);
        assert_eq!(out.tokens[1].lexeme("int x"), "x");
        assert_eq!(out.tokens[0].scan_end(), 4);
    }

    #[test]
    fn lexical_errors_consume_one_byte() {
        let lx = c_like();
        let out = lx.lex("a # b");
        assert_eq!(out.errors, vec![2]);
        assert_eq!(out.tokens.len(), 2);
    }

    #[test]
    fn relex_touches_only_damaged_region() {
        let lx = c_like();
        let old_text = "int alpha = 1; int beta = 2; int gamma = 3;";
        let old = lx.lex(old_text).tokens;
        // Replace "beta" with "betas": one token rescanned.
        let new_text = "int alpha = 1; int betas = 2; int gamma = 3;";
        let edit = Edit::insertion(23, 1);
        let r = lx.relex(new_text, &old, edit);
        assert!(r.errors.is_empty());
        assert_eq!(r.new_tokens.len(), 1);
        assert_eq!(r.new_tokens[0].lexeme(new_text), "betas");
        assert_eq!(r.kept_prefix + 1 + r.kept_suffix, old.len());
        let merged = lx.apply_relex(&old, &r, edit.delta());
        let relexed_fresh = lx.lex(new_text).tokens;
        assert_eq!(merged, relexed_fresh, "incremental == from-scratch");
    }

    #[test]
    fn relex_equivalence_on_various_edits() {
        let lx = c_like();
        let old_text = "typedef int t; t x; x (y); int z = 12345;";
        let old = lx.lex(old_text).tokens;
        let cases: Vec<(usize, usize, &str)> = vec![
            (0, 7, "int"),  // replace leading keyword
            (8, 3, "long"), // replace in the middle
            (40, 0, "99"),  // insert inside the number
            (15, 5, ""),    // delete "t x; "
            (0, 0, "x"),    // prepend joins with `typedef`? no: ws at 7
            (41, 0, " "),   // append near the end
        ];
        for (start, removed, insert) in cases {
            let mut new_text = old_text.to_string();
            new_text.replace_range(start..start + removed, insert);
            let edit = Edit {
                start,
                removed,
                inserted: insert.len(),
            };
            let r = lx.relex(&new_text, &old, edit);
            let merged = lx.apply_relex(&old, &r, edit.delta());
            assert_eq!(
                merged,
                lx.lex(&new_text).tokens,
                "case @{start} -{removed} +{insert:?}"
            );
        }
    }

    #[test]
    fn relex_token_joining_across_edit() {
        // Deleting the space in "int x" joins the tokens into "intx".
        let lx = c_like();
        let old_text = "int x;";
        let old = lx.lex(old_text).tokens;
        let edit = Edit::deletion(3, 1);
        let new_text = "intx;";
        let r = lx.relex(new_text, &old, edit);
        let merged = lx.apply_relex(&old, &r, edit.delta());
        assert_eq!(merged, lx.lex(new_text).tokens);
        assert_eq!(merged[0].lexeme(new_text), "intx");
        assert_eq!(lx.rule_name(merged[0].rule), "ident");
    }

    #[test]
    fn relex_edit_in_lookahead_rescans_preceding_token() {
        // "intx" -> deleting "x" exposes the keyword. The edit is *after*
        // "int" but within its original scan range.
        let lx = c_like();
        let old_text = "intx;";
        let old = lx.lex(old_text).tokens;
        let edit = Edit::deletion(3, 1);
        let new_text = "int;";
        let r = lx.relex(new_text, &old, edit);
        assert_eq!(r.kept_prefix, 0, "the identifier must be rescanned");
        let merged = lx.apply_relex(&old, &r, edit.delta());
        assert_eq!(merged, lx.lex(new_text).tokens);
        assert_eq!(lx.rule_name(merged[0].rule), "int");
    }

    #[test]
    fn relex_whole_file_replacement() {
        let lx = c_like();
        let old = lx.lex("a b").tokens;
        let new_text = "1 2 3";
        let edit = Edit {
            start: 0,
            removed: 3,
            inserted: 5,
        };
        let r = lx.relex(new_text, &old, edit);
        assert_eq!(r.kept_prefix, 0);
        assert_eq!(r.kept_suffix, 0);
        assert_eq!(r.new_tokens.len(), 3);
    }

    #[test]
    fn relex_on_empty_old() {
        let lx = c_like();
        let r = lx.relex("int x;", &[], Edit::insertion(0, 6));
        assert_eq!(r.new_tokens.len(), 3);
        assert_eq!(r.kept_prefix, 0);
        assert_eq!(r.kept_suffix, 0);
    }

    #[test]
    fn lex_source_rope_equals_str() {
        let lx = c_like();
        // Big enough for many rope chunks; includes an error byte (#).
        let text: String = (0..3000).map(|i| format!("int v{i} = {i}; # ")).collect();
        let rope = wg_document::Rope::from_str(&text);
        assert!(rope.chunk_count() > 4);
        let from_str = lx.lex(&text);
        let from_rope = lx.lex_source(&rope);
        assert_eq!(from_str.tokens, from_rope.tokens);
        assert_eq!(from_str.errors, from_rope.errors);
    }

    #[test]
    fn lexeme_from_spans_chunk_seams() {
        let lx = c_like();
        // One identifier longer than a chunk: slice() fails, scratch path
        // assembles it.
        let text = "x".repeat(3000);
        let rope = wg_document::Rope::from_str(&text);
        let out = lx.lex_source(&rope);
        assert_eq!(out.tokens.len(), 1);
        let mut scratch = String::new();
        assert_eq!(out.tokens[0].lexeme_from(&rope, &mut scratch), text);
        // A token inside one chunk borrows without copying into scratch.
        let rope2 = wg_document::Rope::from_str("int x;");
        let out2 = lx.lex_source(&rope2);
        let mut scratch2 = String::from("sentinel");
        assert_eq!(out2.tokens[0].lexeme_from(&rope2, &mut scratch2), "int");
        assert_eq!(scratch2, "sentinel", "fast path leaves scratch alone");
    }

    /// A [`TextSource`] wrapper recording the byte window actually examined.
    struct Spy<'r> {
        inner: &'r wg_document::Rope,
        lo: std::cell::Cell<usize>,
        hi: std::cell::Cell<usize>,
    }

    impl<'r> Spy<'r> {
        fn new(inner: &'r wg_document::Rope) -> Spy<'r> {
            Spy {
                inner,
                lo: std::cell::Cell::new(usize::MAX),
                hi: std::cell::Cell::new(0),
            }
        }

        fn touch(&self, a: usize, b: usize) {
            self.lo.set(self.lo.get().min(a));
            self.hi.set(self.hi.get().max(b));
        }
    }

    impl TextSource for Spy<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn chunk_at(&self, pos: usize) -> &[u8] {
            self.touch(pos, pos);
            self.inner.chunk_bytes_from(pos)
        }

        fn slice(&self, range: std::ops::Range<usize>) -> Option<&str> {
            self.touch(range.start, range.end);
            self.inner.slice(range)
        }

        fn extract_into(&self, range: std::ops::Range<usize>, out: &mut String) {
            self.touch(range.start, range.end);
            self.inner.read_range(range, out);
        }
    }

    #[test]
    fn relex_through_rope_reads_bounded_region() {
        let lx = c_like();
        let old_text: String = (0..4000).map(|i| format!("int v{i} = {i};\n")).collect();
        let old = lx.lex(&old_text).tokens;
        // Grow one identifier near the middle of the ~60 KiB document.
        let mid_tok = old[old.len() / 2];
        let edit = Edit::insertion(mid_tok.end(), 1);
        let mut new_text = old_text.clone();
        new_text.insert(mid_tok.end(), 'q');
        let mut rope = wg_document::Rope::from_str(&old_text);
        rope.replace(edit.start, 0, "q");

        let spy = Spy::new(&rope);
        let mut out = RelexResult::default();
        lx.relex_into(&spy, &old[..], edit, &mut out);

        // Same answer as the contiguous relex…
        let reference = lx.relex(&new_text, &old, edit);
        assert_eq!(out.new_tokens, reference.new_tokens);
        assert_eq!(out.kept_prefix, reference.kept_prefix);
        assert_eq!(out.kept_suffix, reference.kept_suffix);
        // …and only a window around the edit was examined — the document
        // was never materialized or swept.
        let window = spy.hi.get().saturating_sub(spy.lo.get());
        assert!(
            window < 256,
            "relex examined a {window}-byte window on a {}-byte document",
            rope.len()
        );
    }

    #[test]
    fn rule_lookup_and_display() {
        let lx = c_like();
        assert_eq!(lx.rule_name(RuleId(0)), "typedef");
        assert_eq!(lx.rule_by_name("num"), Some(RuleId(3)));
        assert_eq!(lx.rule_by_name("nope"), None);
        assert!(lx.num_rules() >= 9);
        assert!(format!("{lx}").contains("rules"));
    }
}
