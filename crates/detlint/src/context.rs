//! Line/token context tracking: which tokens sit inside a
//! `Component::handle` body, and which identifiers in a file name
//! hash-based containers.
//!
//! Both are brace-depth approximations over the token stream (detlint
//! has no type information), tuned to the workspace's idioms:
//!
//! * A *Component impl* is any `impl … Component … for … { … }` block —
//!   the `Component` and `for` identifiers must both appear in the impl
//!   header (before its opening brace). Inside one, the body of
//!   `fn handle(…) { … }` is recorded as a token range.
//! * A *hash container name* is any identifier bound to a
//!   `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` by type ascription
//!   (`field: FxHashMap<…>`) or by construction assignment
//!   (`x = FxHashMap::default()`), with arbitrary path prefixes.
//!   `Fx` maps are included deliberately: their iteration order is
//!   deterministic per run but *insertion-order dependent*, so it still
//!   must not leak into the event stream (insertion order may differ
//!   across Seq/Sharded engines).

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};

/// Identifiers that name a hash-based container type.
pub const HASH_CONTAINER_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.kind.ident())
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

/// Index of the `}` matching the `{` at `open` (or the last token if
/// unbalanced — truncated input should not panic a linter).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Token index ranges (open-brace..close-brace, exclusive of both) of
/// every `handle` body inside a `Component` impl.
pub fn handle_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("impl") {
            i += 1;
            continue;
        }
        // The impl header runs to the first `{` (no braces occur in
        // trait/type grammar before the body).
        let Some(open_rel) = tokens[i..]
            .iter()
            .position(|t| t.kind == TokenKind::Punct('{'))
        else {
            break;
        };
        let open = i + open_rel;
        let header = &tokens[i + 1..open];
        let has = |name: &str| header.iter().any(|t| t.kind.ident() == Some(name));
        if !(has("Component") && has("for")) {
            i = open + 1;
            continue;
        }
        let close = matching_brace(tokens, open);
        let mut j = open + 1;
        while j < close {
            if ident_at(tokens, j) == Some("fn") && ident_at(tokens, j + 1) == Some("handle") {
                if let Some(rel) = tokens[j..close]
                    .iter()
                    .position(|t| t.kind == TokenKind::Punct('{'))
                {
                    let fn_open = j + rel;
                    let fn_close = matching_brace(tokens, fn_open);
                    out.push((fn_open + 1, fn_close));
                    j = fn_close + 1;
                    continue;
                }
            }
            j += 1;
        }
        i = close + 1;
    }
    out
}

/// Skip a `path::to::Type` starting at `i`; returns `(last_segment_ident,
/// index_after_path)` or `None` if `i` is not an identifier.
fn path_head(tokens: &[Token], mut i: usize) -> Option<(String, usize)> {
    let mut last = ident_at(tokens, i)?.to_string();
    i += 1;
    while punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':') {
        match ident_at(tokens, i + 2) {
            Some(seg) => {
                last = seg.to_string();
                i += 3;
            }
            None => break,
        }
    }
    Some((last, i))
}

/// Every identifier in the file bound to a hash-container type, by
/// ascription or construction (see module docs). File-scoped on
/// purpose: field declarations and handler bodies usually share a file,
/// and a false positive only costs an explicit `detlint::allow`.
pub fn hash_container_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        // `name : Path::To::Type` (single colon — `::` is two tokens).
        if punct_at(tokens, i + 1, ':') && !punct_at(tokens, i + 2, ':') {
            if let Some((head, _)) = path_head(tokens, i + 2) {
                if HASH_CONTAINER_TYPES.contains(&head.as_str()) {
                    names.insert(name.to_string());
                }
            }
        }
        // `name = Path::To::Type::ctor(…)` — any path segment naming a
        // container type counts (the last segment is the constructor).
        if punct_at(tokens, i + 1, '=')
            && !punct_at(tokens, i + 2, '=')
            && !punct_at(tokens, i + 2, '>')
        {
            let mut j = i + 2;
            while let Some(seg) = ident_at(tokens, j) {
                if HASH_CONTAINER_TYPES.contains(&seg) {
                    names.insert(name.to_string());
                }
                if punct_at(tokens, j + 1, ':') && punct_at(tokens, j + 2, ':') {
                    j += 3;
                } else {
                    break;
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_handle_bodies_only_in_component_impls() {
        let src = r#"
            impl Helper {
                fn handle(&mut self) { self.x += 1; }
            }
            impl Component<Msg> for Node {
                fn poke(&mut self) {}
                fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
                    inner();
                }
            }
            impl Component<Tick> for Node {
                fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, tick: Tick) {
                    drain();
                }
            }
        "#;
        let tokens = lex(src);
        let bodies = handle_bodies(&tokens);
        assert_eq!(bodies.len(), 2, "inherent-impl handle must not count");
        let texts: Vec<String> = bodies
            .iter()
            .map(|&(a, b)| {
                tokens[a..b]
                    .iter()
                    .filter_map(|t| t.kind.ident())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert!(texts[0].contains("inner"));
        assert!(texts[1].contains("drain"));
    }

    #[test]
    fn nested_braces_inside_handle_are_one_body() {
        let src = r#"
            impl Component<M> for X {
                fn handle(&mut self, ctx: &mut Ctx<'_, M>, m: M) {
                    if cond { a(); } else { b(); }
                    m.map(|v| { v + 1 });
                }
            }
            fn after() {}
        "#;
        let tokens = lex(src);
        let bodies = handle_bodies(&tokens);
        assert_eq!(bodies.len(), 1);
        let (a, b) = bodies[0];
        let text: Vec<&str> = tokens[a..b].iter().filter_map(|t| t.kind.ident()).collect();
        assert!(text.contains(&"cond") && text.contains(&"map"));
        assert!(!text.contains(&"after"));
    }

    #[test]
    fn container_names_by_ascription_and_construction() {
        let src = r#"
            struct S {
                pending: bluedbm_sim::fxhash::FxHashMap<u64, u32>,
                order: Vec<u64>,
            }
            fn f() {
                let mut seen: std::collections::HashSet<u8> = Default::default();
                let built = FxHashSet::default();
                let plain = Vec::new();
            }
        "#;
        let names = hash_container_names(&lex(src));
        assert!(names.contains("pending"));
        assert!(names.contains("seen"));
        assert!(names.contains("built"));
        assert!(!names.contains("order"));
        assert!(!names.contains("plain"));
    }

    #[test]
    fn equality_comparison_is_not_a_binding() {
        let names = hash_container_names(&lex("if a == FxHashMap::default() {}"));
        assert!(!names.contains("a"));
    }
}
