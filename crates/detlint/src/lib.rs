//! `bluedbm_detlint` — the workspace determinism-and-hot-path lint
//! pass.
//!
//! # Why this exists
//!
//! The whole value of this BlueDBM reproduction rests on one contract:
//! the sequential and sharded engines produce **bit-identical**
//! observable digests, which is what lets a sharded run's numbers
//! stand for the sequential engine's. That contract is enforced
//! dynamically by the conformance suites (`tests/kv_conformance.rs`,
//! `tests/sharded.rs`) — but a dynamic suite only catches a
//! nondeterminism source once it changes an observable on the inputs
//! the suite happens to drive. detlint rejects the *sources*
//! mechanically, before they reach the event stream:
//!
//! * `std::collections::HashMap`/`HashSet` seed `RandomState`
//!   per-process, so their iteration order varies across runs;
//! * wall-clock reads and host-entropy probes make behavior depend on
//!   the machine, not the seed;
//! * iterating any hash container while emitting events turns
//!   insertion order into event order — a silent cross-engine
//!   divergence under the sharded engine;
//! * float-derived `SimTime` construction makes simulated time depend
//!   on rounding.
//!
//! Because the workspace is offline (vendored `shims/` only — no `syn`
//! or dylint), the pass is self-contained: a small Rust lexer
//! ([`lexer`]), a brace-depth context tracker ([`context`]), and a
//! token-pattern rule set ([`rules`]).
//!
//! # Suppression
//!
//! A finding is suppressed by a line comment naming the rule it
//! silences, with a justification after it:
//!
//! ```text
//! // detlint::allow(no-std-hasher): independent std oracle on purpose
//! use std::collections::HashMap;
//!
//! let m = HashMap::new(); // detlint::allow(no-std-hasher): ditto
//! ```
//!
//! A standalone allow covers the next line with code; a trailing allow
//! covers its own line. Either form covers every finding of that rule
//! on the covered line. An allow that suppresses nothing is itself a
//! finding (`stale-allow`) — suppressions must not rot. To deliberately
//! keep one (e.g. in a fixture), stack `detlint::allow(stale-allow)`
//! on the line above it: that is the one rule whose allow targets the
//! next non-blank line even when that line is a comment.
//!
//! # What gets scanned
//!
//! Every `.rs` file under the workspace root except `target/`
//! (build output), `shims/` (vendored stand-ins for external crates —
//! not our code), `.git/`, and detlint's own `tests/fixtures/`
//! (deliberate violations driving the integration tests).
//!
//! # Adding a rule
//!
//! 1. Add a `RuleInfo` entry to [`rules::RULES`] — the id is the name
//!    `detlint::allow(…)` must use, so pick it once and keep it.
//! 2. Write the pass in [`rules`] as a `fn(tokens, &mut Vec<RawFinding>)`
//!    over the comment-stripped token stream, and call it from
//!    [`rules::run_rules`]. Use [`context`] if the rule is scoped to
//!    handler bodies; keep the match conservative — a missed site costs
//!    a review comment, a false positive costs an `allow` in clean code.
//! 3. Add one positive and one suppressed fixture under
//!    `tests/fixtures/` and extend the exact-finding-set assertions in
//!    `tests/fixtures.rs`. The stale-allow engine picks the new rule up
//!    automatically (any allow naming it that stops matching will be
//!    reported).
//! 4. If the tree has pre-existing findings, fix or justify them in the
//!    same change — `tests/lint_clean.rs` pins the tree clean.

pub mod context;
pub mod lexer;
pub mod rules;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Token, TokenKind};
use rules::{run_rules, RawFinding};

/// One reported (post-suppression) finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Human message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// The result of linting a tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// One parsed `detlint::allow(rule)` directive.
#[derive(Clone, Debug)]
struct Allow {
    /// Line the comment sits on.
    line: u32,
    /// The rule name inside the parentheses (may be unknown).
    rule: String,
    /// The line whose findings this allow suppresses (0 = nothing —
    /// e.g. an allow on the last line of the file).
    target: u32,
}

/// Extract `detlint::allow(…)` directives from a line comment's text.
fn parse_allow(text: &str) -> Option<String> {
    let at = text.find("detlint::allow(")?;
    let rest = &text[at + "detlint::allow(".len()..];
    let end = rest.find(')')?;
    Some(rest[..end].trim().to_string())
}

/// Lint one file's source text. `path_label` should be the
/// workspace-relative path with `/` separators (it is matched by the
/// `no-wallclock` allowlist and echoed into findings).
pub fn lint_source(path_label: &str, src: &str) -> Vec<Finding> {
    let tokens = lexer::lex(src);
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| !t.kind.is_comment())
        .cloned()
        .collect();

    // Lines that hold at least one code token (for allow targeting).
    let code_lines: BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    // Non-blank source lines (targets for allow(stale-allow)).
    let nonblank: BTreeSet<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, _)| i as u32 + 1)
        .collect();

    let mut allows: Vec<Allow> = tokens
        .iter()
        .filter_map(|t| match &t.kind {
            // Doc comments (`///` → text starts with `/`, `//!` → `!`)
            // are prose: mentioning the allow syntax in one must not
            // create a directive.
            TokenKind::LineComment(text)
                if !text.starts_with('/') && !text.starts_with('!') =>
            {
                parse_allow(text).map(|rule| Allow { line: t.line, rule, target: 0 })
            }
            _ => None,
        })
        .collect();
    for allow in &mut allows {
        let trailing = code_lines.contains(&allow.line);
        allow.target = if trailing {
            allow.line
        } else if allow.rule == "stale-allow" {
            // stale-allow findings sit on comment lines, so its allow
            // must be able to target one.
            nonblank.range(allow.line + 1..).next().copied().unwrap_or(0)
        } else {
            code_lines.range(allow.line + 1..).next().copied().unwrap_or(0)
        };
    }

    let raw: Vec<RawFinding> = run_rules(path_label, &code);

    // Apply suppressions; remember which allows earned their keep.
    let mut used = vec![false; allows.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for f in &raw {
        let mut suppressed = false;
        for (ai, allow) in allows.iter().enumerate() {
            if allow.rule == f.rule && allow.target == f.line && allow.target != 0 {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            findings.push(Finding {
                file: path_label.to_string(),
                line: f.line,
                rule: f.rule,
                message: f.message.clone(),
            });
        }
    }

    // Stale allows: directives that matched nothing. Unknown rule names
    // are stale by definition (they can never match).
    let mut stale: Vec<Finding> = Vec::new();
    for (ai, allow) in allows.iter().enumerate() {
        if used[ai] || allow.rule == "stale-allow" {
            continue;
        }
        let message = if rules::is_rule(&allow.rule) {
            format!(
                "detlint::allow({}) suppresses nothing — the rule no longer fires on \
                 line {}; delete the allow",
                allow.rule, allow.target
            )
        } else {
            format!(
                "detlint::allow({}) names an unknown rule (see --list-rules); \
                 delete or fix the allow",
                allow.rule
            )
        };
        stale.push(Finding {
            file: path_label.to_string(),
            line: allow.line,
            rule: "stale-allow",
            message,
        });
    }
    // allow(stale-allow) suppresses stale findings; one that suppresses
    // nothing is itself stale (one level — no recursion).
    for (ai, allow) in allows.iter().enumerate() {
        if allow.rule != "stale-allow" {
            continue;
        }
        let before = stale.len();
        stale.retain(|f| f.line != allow.target || allow.target == 0);
        used[ai] = stale.len() != before;
        if !used[ai] {
            stale.push(Finding {
                file: path_label.to_string(),
                line: allow.line,
                rule: "stale-allow",
                message: "detlint::allow(stale-allow) suppresses nothing; delete the allow"
                    .to_string(),
            });
        }
    }
    findings.extend(stale);
    findings.sort();
    findings
}

/// Directories never scanned, by name, anywhere in the tree.
const SKIP_DIRS: [&str; 3] = ["target", "shims", ".git"];

fn should_skip_dir(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return true;
    };
    if SKIP_DIRS.contains(&name) {
        return true;
    }
    // detlint's own fixtures are deliberate violations.
    name == "fixtures" && path.to_string_lossy().contains("detlint")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !should_skip_dir(&path) {
                collect_rs_files(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `root` (see module docs for exclusions).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut report = Report { findings: Vec::new(), files_scanned: files.len() };
    for path in files {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        report.findings.extend(lint_source(&label, &src));
    }
    report.findings.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = "use std::collections::HashMap; // detlint::allow(no-std-hasher): oracle\n";
        assert!(lint_source("t.rs", src).is_empty());
    }

    #[test]
    fn standalone_allow_suppresses_next_code_line() {
        let src = "// detlint::allow(no-std-hasher): oracle\n\
                   // (more prose in between is fine)\n\
                   use std::collections::HashMap;\n";
        assert!(lint_source("t.rs", src).is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "// detlint::allow(no-wallclock): wrong rule\n\
                   use std::collections::HashMap;\n";
        let found = lint_source("t.rs", src);
        let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
        // The stale allow (line 1) sorts before the surviving real
        // finding (line 2) — both must be reported.
        assert_eq!(rules, vec!["stale-allow", "no-std-hasher"]);
    }

    #[test]
    fn stale_allow_reported_and_suppressible() {
        let stale = "// detlint::allow(no-std-hasher): nothing here uses one\n\
                     fn clean() {}\n";
        let found = lint_source("t.rs", stale);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "stale-allow");
        assert_eq!(found[0].line, 1);

        let kept = "// detlint::allow(stale-allow): fixture keeps the stale allow below\n\
                    // detlint::allow(no-std-hasher): deliberately stale\n\
                    fn clean() {}\n";
        assert!(lint_source("t.rs", kept).is_empty(), "{:?}", lint_source("t.rs", kept));
    }

    #[test]
    fn unknown_rule_name_is_stale() {
        let src = "// detlint::allow(no-such-rule)\nfn f() {}\n";
        let found = lint_source("t.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "stale-allow");
        assert!(found[0].message.contains("unknown rule"));
    }

    #[test]
    fn one_allow_covers_all_findings_of_its_rule_on_the_line() {
        let src = "// detlint::allow(no-std-hasher): both types, one line, one allow\n\
                   use std::collections::{HashMap, HashSet};\n";
        assert!(lint_source("t.rs", src).is_empty());
    }

    #[test]
    fn doc_comment_mentioning_allow_is_inert() {
        let src = "/// Suppress with `// detlint::allow(no-std-hasher)` like so.\n\
                   //! Or `detlint::allow(no-wallclock)` in module docs.\n\
                   fn f() {}\n";
        assert!(lint_source("t.rs", src).is_empty(), "{:?}", lint_source("t.rs", src));
    }

    #[test]
    fn allow_inside_string_is_inert() {
        let src = "const S: &str = \"// detlint::allow(no-std-hasher)\";\n\
                   use std::collections::HashMap;\n";
        let found = lint_source("t.rs", src);
        assert_eq!(found.len(), 1, "allow text inside a string is not a directive");
        assert_eq!(found[0].rule, "no-std-hasher");
    }

    #[test]
    fn findings_display_format() {
        let src = "use std::collections::HashMap;\n";
        let found = lint_source("crates/x/src/lib.rs", src);
        let line = found[0].to_string();
        assert!(
            line.starts_with("crates/x/src/lib.rs:1: no-std-hasher: "),
            "{line}"
        );
    }
}
