//! The determinism + hot-path rule set.
//!
//! Every rule is a pure function from a file's code tokens (comments
//! already stripped) to raw findings; suppression (`detlint::allow`)
//! and stale-allow detection happen in the engine ([`crate::lint_source`]),
//! so rules here report *every* site they match.
//!
//! | id | what it rejects |
//! |----|-----------------|
//! | `no-std-hasher` | `std::collections::{HashMap,HashSet}` imports and constructions — use `bluedbm_sim::fxhash` |
//! | `no-wallclock` | `Instant::now` / `SystemTime` / `thread_rng` / `available_parallelism` (allowlisted: the `ExecMode::Auto` probe in `crates/sim/src/shard.rs`) |
//! | `map-iteration-order-leak` | iterating a hash container inside a `Component::handle` body that also sends |
//! | `float-sim-time` | constructing a `SimTime` from `f32`/`f64` arithmetic |
//! | `stale-allow` | a `detlint::allow` that suppresses nothing (emitted by the engine, not here) |

use crate::context::{handle_bodies, hash_container_names};
use crate::lexer::{is_float_literal, Token, TokenKind};

/// A rule's identity and one-line summary (for `--list-rules` and docs).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable kebab-case id — the name `detlint::allow(…)` must use.
    pub id: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
}

/// The rule registry, in report order.
pub const RULES: [RuleInfo; 5] = [
    RuleInfo {
        id: "no-std-hasher",
        summary: "std::collections::{HashMap,HashSet} (RandomState: nondeterministic \
                  iteration order) — use bluedbm_sim::fxhash",
    },
    RuleInfo {
        id: "no-wallclock",
        summary: "wall-clock / host-entropy source (Instant::now, SystemTime, thread_rng, \
                  available_parallelism) outside the allowlisted ExecMode::Auto probe",
    },
    RuleInfo {
        id: "map-iteration-order-leak",
        summary: "hash-container iteration inside a Component handle body that also sends \
                  — iteration order would leak into the event stream",
    },
    RuleInfo {
        id: "float-sim-time",
        summary: "SimTime constructed from f32/f64 arithmetic — float rounding must not \
                  feed simulated time",
    },
    RuleInfo {
        id: "stale-allow",
        summary: "a detlint::allow(…) whose rule no longer fires on its target line",
    },
];

/// `true` if `id` names a registered rule.
pub fn is_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One raw (pre-suppression) finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human message (no file/line prefix — the printer adds it).
    pub message: String,
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.kind.ident())
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
}

fn path_sep(tokens: &[Token], i: usize) -> bool {
    punct_at(tokens, i, ':') && punct_at(tokens, i + 1, ':')
}

/// Run every non-engine rule over one file's code tokens.
/// `path_label` is the workspace-relative path with `/` separators
/// (used by the `no-wallclock` allowlist).
pub fn run_rules(path_label: &str, tokens: &[Token]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    no_std_hasher(tokens, &mut out);
    no_wallclock(path_label, tokens, &mut out);
    map_iteration_order_leak(tokens, &mut out);
    float_sim_time(tokens, &mut out);
    // One finding per (rule, line): a qualified-path construction would
    // otherwise report twice, and suppression is line-scoped anyway.
    out.sort();
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// R1: `std::collections::{HashMap,HashSet}` imports/paths, and bare
/// `HashMap::new()`-style constructions (which can only be the std
/// types — `FxHashMap` is constructed via `default()` and is a
/// distinct identifier).
fn no_std_hasher(tokens: &[Token], out: &mut Vec<RawFinding>) {
    let flagged = ["HashMap", "HashSet"];
    for i in 0..tokens.len() {
        // `std :: collections ::` then either the type or a `{…}` group.
        if ident_at(tokens, i) == Some("std")
            && path_sep(tokens, i + 1)
            && ident_at(tokens, i + 3) == Some("collections")
            && path_sep(tokens, i + 4)
        {
            let after = i + 6;
            if let Some(name) = ident_at(tokens, after) {
                if flagged.contains(&name) {
                    out.push(std_hasher_finding(tokens[after].line, name));
                }
            } else if punct_at(tokens, after, '{') {
                let mut j = after + 1;
                while j < tokens.len() && !punct_at(tokens, j, '}') {
                    if let Some(name) = ident_at(tokens, j) {
                        if flagged.contains(&name) {
                            out.push(std_hasher_finding(tokens[j].line, name));
                        }
                    }
                    j += 1;
                }
            }
        }
        // Bare `HashMap::new` / `HashSet::with_capacity` / `::from`,
        // including a turbofish (`HashMap::<K, V>::new`).
        if let Some(name) = ident_at(tokens, i) {
            if flagged.contains(&name) && path_sep(tokens, i + 1) {
                let mut j = i + 3;
                if punct_at(tokens, j, '<') {
                    let mut depth = 0i32;
                    while j < tokens.len() {
                        match tokens[j].kind {
                            TokenKind::Punct('<') => depth += 1,
                            TokenKind::Punct('>') => {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if !path_sep(tokens, j) {
                        continue;
                    }
                    j += 2;
                }
                if matches!(ident_at(tokens, j), Some("new" | "with_capacity" | "from")) {
                    out.push(std_hasher_finding(tokens[i].line, name));
                }
            }
        }
    }
}

fn std_hasher_finding(line: u32, name: &str) -> RawFinding {
    RawFinding {
        line,
        rule: "no-std-hasher",
        message: format!(
            "std::collections::{name} uses RandomState (per-process seed, \
             nondeterministic iteration order); use bluedbm_sim::fxhash::Fx{name}"
        ),
    }
}

/// Sites where `no-wallclock` idents are part of the engine's own
/// contract and deliberately permitted without a per-site allow:
/// the `ExecMode::Auto` oversubscription probe and the worker-core
/// pinning module's core-count probe. Each entry is
/// (path suffix, identifier).
const WALLCLOCK_ALLOWLIST: [(&str, &str); 2] = [
    ("crates/sim/src/shard.rs", "available_parallelism"),
    ("crates/sim/src/affinity.rs", "available_parallelism"),
];

/// R2: wall-clock and host-entropy reads.
fn no_wallclock(path_label: &str, tokens: &[Token], out: &mut Vec<RawFinding>) {
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        let hit = match name {
            "Instant" => {
                path_sep(tokens, i + 1) && ident_at(tokens, i + 3) == Some("now")
            }
            "SystemTime" | "thread_rng" | "available_parallelism" => true,
            _ => false,
        };
        if !hit {
            continue;
        }
        if WALLCLOCK_ALLOWLIST
            .iter()
            .any(|(suffix, ident)| *ident == name && path_label.ends_with(suffix))
        {
            continue;
        }
        out.push(RawFinding {
            line: tokens[i].line,
            rule: "no-wallclock",
            message: format!(
                "`{name}` reads host state (wall clock / entropy / core count); \
                 simulated behavior must derive only from seeds and SimTime"
            ),
        });
    }
}

/// Methods whose call order follows the container's iteration order.
const ITERATING_METHODS: [&str; 8] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "retain", "into_iter",
];

/// R3: hash-container iteration inside a `Component::handle` body
/// that also sends. The iteration order of a hash container — even the
/// deterministic `Fx` ones, whose order is insertion-dependent — must
/// never decide the order of `send`s, or engines that insert in a
/// different order silently diverge.
fn map_iteration_order_leak(tokens: &[Token], out: &mut Vec<RawFinding>) {
    let containers = hash_container_names(tokens);
    if containers.is_empty() {
        return;
    }
    for (start, end) in handle_bodies(tokens) {
        let body = &tokens[start..end];
        let sends = (0..body.len()).any(|i| {
            matches!(ident_at(body, i), Some("send" | "send_at" | "send_self"))
                && punct_at(body, i + 1, '(')
        });
        if !sends {
            continue;
        }
        for i in 0..body.len() {
            let Some(name) = ident_at(body, i) else {
                continue;
            };
            if !containers.contains(name) {
                continue;
            }
            // `container.iter()` / `.keys()` / …
            if punct_at(body, i + 1, '.') {
                if let Some(method) = ident_at(body, i + 2) {
                    if ITERATING_METHODS.contains(&method) && punct_at(body, i + 3, '(') {
                        out.push(iteration_finding(body[i].line, name, method));
                        continue;
                    }
                }
            }
            // `for x in &container {` / `for x in container {`
            if punct_at(body, i + 1, '{') && preceded_by_for_in(body, i) {
                out.push(iteration_finding(body[i].line, name, "for-in"));
            }
        }
    }
}

/// `true` if the tokens immediately before `body[i]` are a `for … in`
/// iterating over it (allowing `&`, `mut`, `self`, `.` between).
fn preceded_by_for_in(body: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &body[j].kind {
            TokenKind::Punct('&' | '.') => continue,
            TokenKind::Ident(s) if s == "mut" || s == "self" => continue,
            TokenKind::Ident(s) if s == "in" => return true,
            _ => return false,
        }
    }
    false
}

fn iteration_finding(line: u32, name: &str, how: &str) -> RawFinding {
    RawFinding {
        line,
        rule: "map-iteration-order-leak",
        message: format!(
            "hash-container `{name}` iterated ({how}) inside a Component handle body \
             that also sends; iteration order would leak into the event stream — \
             iterate a sorted/indexed view instead"
        ),
    }
}

/// R4: `SimTime::<ctor>(…)` whose argument expression contains `f32`/
/// `f64` casts or float literals. The reporting direction (SimTime →
/// f64 for stats) stays legal; only float-derived *construction* of
/// simulated time is rejected.
fn float_sim_time(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for i in 0..tokens.len() {
        if ident_at(tokens, i) != Some("SimTime") || !path_sep(tokens, i + 1) {
            continue;
        }
        let Some(_ctor) = ident_at(tokens, i + 3) else {
            continue;
        };
        if !punct_at(tokens, i + 4, '(') {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 4;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) if s == "f32" || s == "f64" => {
                    out.push(RawFinding {
                        line: tokens[i].line,
                        rule: "float-sim-time",
                        message: "SimTime constructed from f32/f64 arithmetic; derive \
                                  simulated time from integer math (float rounding is a \
                                  portability hazard on the determinism contract)"
                            .to_string(),
                    });
                    break;
                }
                TokenKind::Num(text) if is_float_literal(text) => {
                    out.push(RawFinding {
                        line: tokens[i].line,
                        rule: "float-sim-time",
                        message: "SimTime constructed from a float literal; derive \
                                  simulated time from integer math"
                            .to_string(),
                    });
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn code_tokens(src: &str) -> Vec<Token> {
        lex(src).into_iter().filter(|t| !t.kind.is_comment()).collect()
    }

    fn hits(src: &str) -> Vec<(&'static str, u32)> {
        run_rules("test.rs", &code_tokens(src))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn std_hasher_import_group_and_construction() {
        let src = "use std::collections::{HashMap, VecDeque};\n\
                   use std::collections::HashSet;\n\
                   fn f() { let m = HashMap::<u32, u32>::new(); let s = HashSet::with_capacity(4); }";
        // The two constructions on line 3 collapse to one finding:
        // reporting is one-per-(rule, line), matching allow scoping.
        assert_eq!(
            hits(src),
            vec![
                ("no-std-hasher", 1),
                ("no-std-hasher", 2),
                ("no-std-hasher", 3),
            ]
        );
    }

    #[test]
    fn fx_types_and_strings_are_clean() {
        let src = "use bluedbm_sim::fxhash::{FxHashMap, FxHashSet};\n\
                   fn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); }\n\
                   const DOC: &str = \"std::collections::HashMap::new()\";";
        assert!(hits(src).is_empty(), "{:?}", hits(src));
    }

    #[test]
    fn qualified_construction_reports_once_per_line() {
        let src = "fn f() { let m = std::collections::HashMap::new(); }";
        assert_eq!(hits(src), vec![("no-std-hasher", 1)]);
    }

    #[test]
    fn wallclock_idents() {
        let src = "fn f() -> bool {\n\
                   let t = std::time::Instant::now();\n\
                   let s = SystemTime::now();\n\
                   let r = thread_rng();\n\
                   std::thread::available_parallelism().is_ok()\n\
                   }";
        assert_eq!(
            hits(src),
            vec![
                ("no-wallclock", 2),
                ("no-wallclock", 3),
                ("no-wallclock", 4),
                ("no-wallclock", 5),
            ]
        );
    }

    #[test]
    fn wallclock_allowlist_is_path_scoped() {
        let src = "fn f() { let _ = std::thread::available_parallelism(); }";
        let toks = code_tokens(src);
        assert!(run_rules("crates/sim/src/shard.rs", &toks).is_empty());
        assert_eq!(run_rules("crates/net/src/router.rs", &toks).len(), 1);
    }

    #[test]
    fn iteration_leak_needs_send_and_iteration() {
        let with_send = "struct S { peers: FxHashMap<u32, u64> }\n\
             impl Component<M> for S {\n\
             fn handle(&mut self, ctx: &mut Ctx<'_, M>, m: M) {\n\
             for (p, c) in self.peers.iter() {\n\
             ctx.send(p, DELAY, M::C(c));\n\
             } } }";
        assert_eq!(hits(with_send), vec![("map-iteration-order-leak", 4)]);

        let no_send = with_send.replace("ctx.send(p, DELAY, M::C(c));", "let _ = (p, c);");
        assert!(hits(&no_send).is_empty(), "iteration without send is fine");

        let vec_iter = "struct S { order: Vec<u32> }\n\
             impl Component<M> for S {\n\
             fn handle(&mut self, ctx: &mut Ctx<'_, M>, m: M) {\n\
             for p in self.order.iter() { ctx.send(*p, DELAY, m); } } }";
        assert!(hits(vec_iter).is_empty(), "Vec iteration is ordered");
    }

    #[test]
    fn for_in_reference_iteration_detected() {
        let src = "struct S { peers: FxHashSet<u32> }\n\
             impl Component<M> for S {\n\
             fn handle(&mut self, ctx: &mut Ctx<'_, M>, m: M) {\n\
             for p in &self.peers { ctx.send_at(*p, NOW, M::Tick); } } }";
        assert_eq!(hits(src), vec![("map-iteration-order-leak", 4)]);
    }

    #[test]
    fn float_sim_time_ctor_flagged_reporting_clean() {
        let src = "fn a(bytes: u64, bw: f64) -> SimTime { SimTime::ps((bytes as f64 / bw) as u64) }\n\
                   fn b() -> SimTime { SimTime::us(2) }\n\
                   fn c(t: SimTime) -> f64 { t.as_ns() as f64 / 1e3 }\n\
                   fn d() -> SimTime { SimTime::ns((X * 15) / 10) }";
        assert_eq!(hits(src), vec![("float-sim-time", 1)]);
    }

    #[test]
    fn float_literal_in_ctor_flagged() {
        let src = "fn f() -> SimTime { SimTime::ns((x * 1.5) as u64) }";
        assert_eq!(hits(src), vec![("float-sim-time", 1)]);
    }
}
