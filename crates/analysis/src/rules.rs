//! The rule set and the per-file analysis pass.
//!
//! Every rule matches on the lexed token stream (see [`crate::lexer`]),
//! never on raw text. Shared machinery:
//!
//! * **test regions** — `#[cfg(test)]` / `#[test]` items are located by
//!   brace matching over the token stream; rules that exempt test code
//!   skip diagnostics inside them;
//! * **bin/test paths** — `src/bin/`, `tests/`, `benches/`,
//!   `examples/`, `build.rs` and `main.rs` are exempt from the
//!   panic-surface rules by path;
//! * **suppressions** — `// lnpram-lint: allow(<rule>, reason = "…")`
//!   drops a diagnostic on its line (trailing comment) or on the next
//!   token line (standalone comment). A suppression without a
//!   non-empty reason is itself a diagnostic and suppresses nothing.

use crate::config::{Config, RuleCfg, Severity};
use crate::lexer::{lex, Lexed, TokKind, Token};
use std::fmt;

/// One finding, pointing at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }
}

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_CLOCK: &str = "no-ambient-clock";
pub const RULE_RNG: &str = "no-ambient-rng";
pub const RULE_UNSAFE: &str = "unsafe-budget";
pub const RULE_PANIC: &str = "panic-surface";
pub const RULE_INDEX: &str = "slice-index";
pub const RULE_BAD_SUPPRESSION: &str = "bad-suppression";
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// All suppressible rule names (what `allow(...)` may name).
pub const SUPPRESSIBLE: &[&str] = &[
    RULE_DETERMINISM,
    RULE_CLOCK,
    RULE_RNG,
    RULE_UNSAFE,
    RULE_PANIC,
    RULE_INDEX,
];

/// A parsed `lnpram-lint: allow(...)` directive.
#[derive(Debug)]
struct Suppression {
    /// Line of the comment itself.
    comment_line: u32,
    /// Line whose diagnostics it suppresses.
    target_line: Option<u32>,
    rule: String,
    reason: Option<String>,
    used: bool,
}

/// Is `path` (workspace-relative, `/`-separated) a binary, test,
/// bench or example source — exempt from the panic-surface rules?
fn is_bin_or_test_path(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "bin"))
    {
        return true;
    }
    matches!(parts.last().copied(), Some("main.rs") | Some("build.rs"))
}

/// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
fn test_regions(lx: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lx.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind != TokKind::Punct('#') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut j = i + 1;
        if matches!(toks.get(j).map(|t| &t.kind), Some(TokKind::Punct('!'))) {
            // Inner attribute `#![...]` — never a test marker.
            i = j + 1;
            continue;
        }
        if !matches!(toks.get(j).map(|t| &t.kind), Some(TokKind::Punct('['))) {
            i = j;
            continue;
        }
        // Collect the attribute body up to the matching ']'.
        let mut depth = 1usize;
        j += 1;
        let body_start = j;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let body = &toks[body_start..j.saturating_sub(1)];
        if is_test_attr(body) {
            if let Some(end) = item_end(toks, j) {
                regions.push((attr_line, toks[end].line));
                // Do not skip past the region: nested `#[test]` fns
                // inside a `#[cfg(test)] mod` are harmless duplicates.
            }
        }
        i = j;
    }
    regions
}

/// Does an attribute body mark test code? `test`, `cfg(test)`,
/// `cfg(all(test, ...))` — but not `cfg(not(test))`.
fn is_test_attr(body: &[Token]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter_map(|t| match &t.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// Token index of the end of the item starting at `start` (after its
/// attributes): the matching `}` of its first brace block, or the `;`
/// ending a block-less item. Skips over any further attributes.
fn item_end(toks: &[Token], mut start: usize) -> Option<usize> {
    // Skip stacked attributes `#[...]`.
    while matches!(toks.get(start).map(|t| &t.kind), Some(TokKind::Punct('#'))) {
        let mut j = start + 1;
        if !matches!(toks.get(j).map(|t| &t.kind), Some(TokKind::Punct('['))) {
            break;
        }
        let mut depth = 1usize;
        j += 1;
        while j < toks.len() && depth > 0 {
            match toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        start = j;
    }
    let mut i = start;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct(';') => return Some(i),
            TokKind::Punct('{') => {
                let mut depth = 1usize;
                let mut j = i + 1;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(j);
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some(toks.len() - 1);
            }
            _ => i += 1,
        }
    }
    None
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Parse every `lnpram-lint:` directive out of the comments.
fn parse_suppressions(lx: &Lexed, file: &str, diags: &mut Vec<Diagnostic>) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &lx.comments {
        // Doc comments (`///`, `//!`, `/**`, `/*!`) document the
        // directive syntax; they are never directive sites themselves.
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let Some(pos) = c.text.find("lnpram-lint:") else {
            continue;
        };
        let rest = c.text[pos + "lnpram-lint:".len()..].trim();
        let bad = |message: String, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                rule: RULE_BAD_SUPPRESSION,
                severity: Severity::Error,
                file: file.to_string(),
                line: c.line,
                message,
            });
        };
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        else {
            bad(
                format!("malformed directive '{rest}': expected lnpram-lint: allow(<rule>, reason = \"...\")"),
                diags,
            );
            continue;
        };
        let (rule, reason_part) = match args.split_once(',') {
            Some((r, rest)) => (r.trim(), Some(rest.trim())),
            None => (args.trim(), None),
        };
        if !SUPPRESSIBLE.contains(&rule) {
            bad(format!("allow() names unknown rule '{rule}'"), diags);
            continue;
        }
        let reason = match reason_part {
            None => None,
            Some(r) => {
                let Some(q) = r
                    .strip_prefix("reason")
                    .map(|r| r.trim_start())
                    .and_then(|r| r.strip_prefix('='))
                    .map(|r| r.trim())
                else {
                    bad(
                        format!("expected 'reason = \"...\"' after '{rule},'"),
                        diags,
                    );
                    continue;
                };
                let unquoted = q.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
                match unquoted {
                    Some(text) => Some(text.to_string()),
                    None => {
                        bad("reason must be a quoted string".to_string(), diags);
                        continue;
                    }
                }
            }
        };
        let target_line = if c.trailing {
            Some(c.line)
        } else {
            lx.next_token_line(c.line)
        };
        out.push(Suppression {
            comment_line: c.line,
            target_line,
            rule: rule.to_string(),
            reason,
            used: false,
        });
    }
    out
}

/// Analyze one file. `path` is workspace-relative with `/` separators
/// (rule scoping keys on it); `src` is the file contents.
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lx = lex(src);
    let regions = test_regions(&lx);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut suppressions = parse_suppressions(&lx, path, &mut diags);
    let mut findings: Vec<Diagnostic> = Vec::new();

    let toks = &lx.tokens;
    let ident = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);
    let nonempty_str = |i: usize| {
        matches!(
            toks.get(i).map(|t| &t.kind),
            Some(TokKind::Str { empty: false })
        )
    };

    let push = |findings: &mut Vec<Diagnostic>,
                rule: &'static str,
                r: &RuleCfg,
                line: u32,
                message: String| {
        findings.push(Diagnostic {
            rule,
            severity: r.severity,
            file: path.to_string(),
            line,
            message,
        });
    };

    // --- determinism: no iteration-order-nondeterministic containers ---
    let det = &cfg.determinism;
    if det.applies(path) {
        for (i, t) in toks.iter().enumerate() {
            if let TokKind::Ident(name) = &t.kind {
                if (name == "HashMap" || name == "HashSet") && !in_regions(&regions, t.line) {
                    let alt = if name == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    let _ = i;
                    push(
                        &mut findings,
                        RULE_DETERMINISM,
                        det,
                        t.line,
                        format!(
                            "{name} has nondeterministic iteration order — engine code must use \
                             {alt} or Vec (the serial/sharded bit-identity contracts depend on it)"
                        ),
                    );
                }
            }
        }
    }

    // --- no-ambient-clock: wall clocks only in the profiler sink ---
    let clock = &cfg.no_ambient_clock;
    if clock.applies(path) {
        for t in toks {
            if let TokKind::Ident(name) = &t.kind {
                if name == "Instant" || name == "SystemTime" {
                    push(
                        &mut findings,
                        RULE_CLOCK,
                        clock,
                        t.line,
                        format!(
                            "{name} is an ambient wall clock — engine results must be a pure \
                             function of inputs; clocks belong to the trace-sink profiler or the \
                             bench crate"
                        ),
                    );
                }
            }
        }
    }

    // --- no-ambient-rng: all randomness flows from seeded generators ---
    let rng = &cfg.no_ambient_rng;
    if rng.applies(path) {
        for t in toks {
            if let TokKind::Ident(name) = &t.kind {
                if matches!(
                    name.as_str(),
                    "thread_rng" | "from_entropy" | "OsRng" | "getrandom"
                ) {
                    push(
                        &mut findings,
                        RULE_RNG,
                        rng,
                        t.line,
                        format!(
                            "{name} draws ambient OS randomness — all randomness must flow from a \
                             seeded SplitMix64/SeedSeq so every run is replayable"
                        ),
                    );
                }
            }
        }
    }

    // --- unsafe-budget: `unsafe` only in the budget file, count pinned ---
    let ub = &cfg.unsafe_budget;
    if ub.applies(path) {
        let sites: Vec<u32> = toks
            .iter()
            .filter(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unsafe"))
            .map(|t| t.line)
            .collect();
        if path == cfg.budget_file {
            if sites.len() != cfg.budget_count {
                push(
                    &mut findings,
                    RULE_UNSAFE,
                    ub,
                    sites.last().copied().unwrap_or(1),
                    format!(
                        "unsafe budget drift: {} has {} `unsafe` token(s), lint.toml pins {} — \
                         changing the unsafe surface must be a conscious config diff",
                        path,
                        sites.len(),
                        cfg.budget_count
                    ),
                );
            }
        } else {
            for line in sites {
                push(
                    &mut findings,
                    RULE_UNSAFE,
                    ub,
                    line,
                    format!(
                        "`unsafe` outside the budget file ({}) — the workspace's entire unsafe \
                         surface is the WorkerPool's scoped-job lifetime erasure",
                        cfg.budget_file
                    ),
                );
            }
        }
    }

    // --- panic-surface + slice-index (library, non-test, non-bin code) ---
    let ps = &cfg.panic_surface;
    let si = &cfg.slice_index;
    let surface_applies = !is_bin_or_test_path(path);
    if surface_applies && (ps.applies(path) || si.applies(path)) {
        let mut i = 0usize;
        while i < toks.len() {
            let line = toks[i].line;
            let tested = in_regions(&regions, line);
            if !tested && ps.applies(path) {
                // .unwrap( …
                if punct(i, '.') && ident(i + 1) == Some("unwrap") && punct(i + 2, '(') {
                    push(
                        &mut findings,
                        RULE_PANIC,
                        ps,
                        toks[i + 1].line,
                        "bare .unwrap() in library code — return a typed error, use \
                         .expect(\"why this cannot fail\"), or suppress with a reason"
                            .to_string(),
                    );
                    i += 3;
                    continue;
                }
                // .expect(<non-empty string>) carries its reason inline;
                // anything else (empty or computed message) does not.
                if punct(i, '.') && ident(i + 1) == Some("expect") && punct(i + 2, '(') {
                    if !nonempty_str(i + 3) {
                        push(
                            &mut findings,
                            RULE_PANIC,
                            ps,
                            toks[i + 1].line,
                            ".expect() without a literal non-empty message — the message is the \
                             panic's documented reason"
                                .to_string(),
                        );
                    }
                    i += 3;
                    continue;
                }
                // panic!/unreachable! need a message; todo!/unimplemented!
                // are stubs and always flagged.
                if let Some(name) = ident(i) {
                    if punct(i + 1, '!') {
                        match name {
                            "todo" | "unimplemented" => {
                                push(
                                    &mut findings,
                                    RULE_PANIC,
                                    ps,
                                    line,
                                    format!("{name}! is a stub — library code must not ship one"),
                                );
                                i += 2;
                                continue;
                            }
                            "panic" | "unreachable" => {
                                let open = matches!(
                                    toks.get(i + 2).map(|t| &t.kind),
                                    Some(TokKind::Punct('('))
                                        | Some(TokKind::Punct('['))
                                        | Some(TokKind::Punct('{'))
                                );
                                if !open || !nonempty_str(i + 3) {
                                    push(
                                        &mut findings,
                                        RULE_PANIC,
                                        ps,
                                        line,
                                        format!(
                                            "{name}! without a literal message — state the \
                                             violated invariant so the abort is self-explaining"
                                        ),
                                    );
                                }
                                i += 2;
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
            }
            if !tested && si.applies(path) && punct(i, '[') && i > 0 {
                let indexish = match &toks[i - 1].kind {
                    TokKind::Ident(_) => true,
                    TokKind::Punct(p) => matches!(p, ')' | ']'),
                    _ => false,
                };
                if indexish {
                    push(
                        &mut findings,
                        RULE_INDEX,
                        si,
                        line,
                        "slice indexing can panic — prefer .get()/.get_mut() with a typed error \
                         in library code"
                            .to_string(),
                    );
                }
            }
            i += 1;
        }
    }

    // --- apply suppressions ---
    findings.retain(|d| {
        for s in suppressions.iter_mut() {
            if s.rule == d.rule
                && s.target_line == Some(d.line)
                && s.reason.as_deref().is_some_and(|r| !r.trim().is_empty())
            {
                s.used = true;
                return false;
            }
        }
        true
    });
    for s in &suppressions {
        let has_reason = s.reason.as_deref().is_some_and(|r| !r.trim().is_empty());
        if !has_reason {
            diags.push(Diagnostic {
                rule: RULE_BAD_SUPPRESSION,
                severity: Severity::Error,
                file: path.to_string(),
                line: s.comment_line,
                message: format!(
                    "allow({}) without a reason — suppressions must say why: \
                     lnpram-lint: allow({}, reason = \"...\")",
                    s.rule, s.rule
                ),
            });
        } else if !s.used && cfg.warn_unused_suppressions {
            diags.push(Diagnostic {
                rule: RULE_UNUSED_SUPPRESSION,
                severity: Severity::Warn,
                file: path.to_string(),
                line: s.comment_line,
                message: format!("allow({}) suppresses nothing on its target line", s.rule),
            });
        }
    }

    diags.extend(findings);
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &cfg())
    }

    #[test]
    fn test_region_detection_spans_mod_and_fn() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n#[test]\nfn t() {}\n";
        let lx = lex(src);
        let regions = test_regions(&lx);
        assert!(in_regions(&regions, 4), "inside mod tests");
        assert!(in_regions(&regions, 7), "inside #[test] fn");
        assert!(!in_regions(&regions, 1), "fn a is live code");
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_PANIC), "{d:?}");
    }

    #[test]
    fn suppression_trailing_and_standalone() {
        let src = "\
fn f(v: Vec<u32>) {
    v.first().unwrap(); // lnpram-lint: allow(panic-surface, reason = \"checked by caller\")
    // lnpram-lint: allow(panic-surface, reason = \"fixture\")
    v.last().unwrap();
}\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.iter().all(|d| d.rule != RULE_PANIC), "{d:?}");
    }

    #[test]
    fn suppression_without_reason_is_error_and_inert() {
        let src = "fn f(v: Vec<u32>) {\n    v.first().unwrap(); // lnpram-lint: allow(panic-surface)\n}\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_BAD_SUPPRESSION));
        assert!(d.iter().any(|d| d.rule == RULE_PANIC), "must not suppress");
    }

    #[test]
    fn doc_comments_are_not_directive_sites() {
        let src = "\
//! Inline `lnpram-lint: allow(<rule>, reason = \"...\")` syntax docs.
/// Mentions lnpram-lint: allow(bogus) in passing.
fn f() {}\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_error() {
        let src = "fn f() {} // lnpram-lint: allow(no-such-rule, reason = \"x\")\n";
        let d = lint("crates/core/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_BAD_SUPPRESSION));
    }

    #[test]
    fn unused_suppression_warns() {
        let src = "// lnpram-lint: allow(determinism, reason = \"nothing here\")\nfn f() {}\n";
        let d = lint("crates/simnet/src/x.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_UNUSED_SUPPRESSION));
    }

    #[test]
    fn expect_message_is_the_reason() {
        let good = "fn f(v: Vec<u32>) { v.first().expect(\"v is non-empty by construction\"); }";
        assert!(lint("crates/core/src/x.rs", good).is_empty());
        let empty = "fn f(v: Vec<u32>) { v.first().expect(\"\"); }";
        assert!(lint("crates/core/src/x.rs", empty)
            .iter()
            .any(|d| d.rule == RULE_PANIC));
        let computed = "fn f(v: Vec<u32>, m: String) { v.first().expect(&m); }";
        assert!(lint("crates/core/src/x.rs", computed)
            .iter()
            .any(|d| d.rule == RULE_PANIC));
    }

    #[test]
    fn bins_tests_benches_are_exempt_from_panic_surface() {
        let src = "fn main() { std::env::args().next().unwrap(); }";
        assert!(lint("src/bin/lnpram.rs", src).is_empty());
        assert!(lint("crates/routing/tests/t.rs", src).is_empty());
        assert!(lint("crates/bench/benches/b.rs", src).is_empty());
        assert!(lint("examples/e.rs", src).is_empty());
    }

    #[test]
    fn unsafe_outside_budget_file_flagged() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let d = lint("crates/shard/src/engine.rs", src);
        assert!(d.iter().any(|d| d.rule == RULE_UNSAFE), "{d:?}");
    }

    #[test]
    fn unsafe_budget_drift_both_directions() {
        let mut c = cfg();
        c.budget_file = "crates/simnet/src/worker.rs".into();
        c.budget_count = 2;
        let two = "unsafe impl Send for X {}\nfn f() { unsafe { g() } }";
        assert!(lint_source("crates/simnet/src/worker.rs", two, &c).is_empty());
        let one = "fn f() { unsafe { g() } }";
        assert!(lint_source("crates/simnet/src/worker.rs", one, &c)
            .iter()
            .any(|d| d.rule == RULE_UNSAFE));
        let three =
            "unsafe impl Send for X {}\nunsafe impl Sync for X {}\nfn f() { unsafe { g() } }";
        assert!(lint_source("crates/simnet/src/worker.rs", three, &c)
            .iter()
            .any(|d| d.rule == RULE_UNSAFE));
    }

    #[test]
    fn unsafe_code_lint_name_is_not_the_keyword() {
        // `#![allow(unsafe_code)]` must not count against the budget.
        let src = "#![allow(unsafe_code)]\nfn f() {}\n";
        let mut c = cfg();
        c.budget_count = 0;
        assert!(lint_source("crates/simnet/src/worker.rs", src, &c).is_empty());
    }

    #[test]
    fn slice_index_rule_when_enabled() {
        let mut c = cfg();
        c.slice_index.severity = Severity::Error;
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        let d = lint_source("crates/core/src/x.rs", src, &c);
        assert!(d.iter().any(|d| d.rule == RULE_INDEX), "{d:?}");
        // Attributes, array types and vec! are not indexing.
        let ok = "#[derive(Clone)]\nstruct S { a: [u32; 4] }\nfn g() { let v = vec![0u32; 4]; drop(v); }";
        let d = lint_source("crates/core/src/x.rs", ok, &c);
        assert!(d.iter().all(|d| d.rule != RULE_INDEX), "{d:?}");
    }

    #[test]
    fn determinism_exempts_test_regions() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        assert!(lint("crates/topology/src/star.rs", src).is_empty());
        let live = "use std::collections::HashMap;\n";
        assert!(!lint("crates/topology/src/star.rs", live).is_empty());
        // Out of the configured crates: no finding.
        assert!(lint("crates/pram/src/machine.rs", live).is_empty());
    }

    #[test]
    fn clock_rule_exempts_trace_and_examples_only() {
        let src = "use std::time::Instant;\n";
        assert!(lint("crates/simnet/src/trace.rs", src).is_empty());
        assert!(lint("examples/routing_sessions.rs", src).is_empty());
        assert!(!lint("crates/routing/src/serve.rs", src).is_empty());
        assert!(!lint("crates/bench/src/bin/reproduce.rs", src).is_empty());
    }
}
