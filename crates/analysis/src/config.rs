//! Config-driven rule set: severities, path scopes, and the unsafe
//! budget, loaded from `lint.toml` at the workspace root.
//!
//! The container has no crates.io access, so this is a hand-rolled
//! parser for the small TOML subset the config needs: `[section]`
//! headers, `key = "string" | integer | true/false | ["array", "of",
//! "strings"]`, and `#` comments. Unknown sections or keys are hard
//! errors — a typo in a rule name must not silently disable it.

use std::fmt;
use std::path::Path;

/// How a rule's findings are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Rule disabled.
    Off,
    /// Reported, but does not fail the run.
    Warn,
    /// Reported and fails the run (nonzero exit).
    Error,
}

impl Severity {
    fn parse(s: &str) -> Option<Severity> {
        match s {
            "off" => Some(Severity::Off),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Off => write!(f, "off"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Scope + severity of one rule.
#[derive(Debug, Clone)]
pub struct RuleCfg {
    pub severity: Severity,
    /// Workspace-relative path prefixes the rule applies to. Empty =
    /// everywhere the walker visits.
    pub paths: Vec<String>,
    /// Workspace-relative path prefixes exempt from the rule (stronger
    /// than `paths`).
    pub exempt: Vec<String>,
}

impl RuleCfg {
    fn new(severity: Severity) -> Self {
        RuleCfg {
            severity,
            paths: Vec::new(),
            exempt: Vec::new(),
        }
    }

    /// Does the rule apply to `path` (workspace-relative, `/`-separated)?
    pub fn applies(&self, path: &str) -> bool {
        if self.severity == Severity::Off {
            return false;
        }
        if self.exempt.iter().any(|p| path_has_prefix(path, p)) {
            return false;
        }
        self.paths.is_empty() || self.paths.iter().any(|p| path_has_prefix(path, p))
    }
}

/// Prefix match on path components: `crates/simnet` matches
/// `crates/simnet/src/engine.rs` but not `crates/simnet2/...`.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// The whole lint configuration. `Config::default()` is the workspace
/// policy compiled in; `lint.toml` overrides it field by field.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (workspace-relative) the file walker descends into.
    pub include: Vec<String>,
    /// Path prefixes the walker skips entirely (third-party/vendored
    /// code and build output).
    pub exclude: Vec<String>,
    pub determinism: RuleCfg,
    pub no_ambient_clock: RuleCfg,
    pub no_ambient_rng: RuleCfg,
    pub unsafe_budget: RuleCfg,
    /// The one file allowed to contain `unsafe` tokens.
    pub budget_file: String,
    /// Exactly how many `unsafe` tokens that file may contain. Any
    /// drift — up *or* down — is a diagnostic, so changing the unsafe
    /// surface is always a conscious `lint.toml` diff.
    pub budget_count: usize,
    pub panic_surface: RuleCfg,
    pub slice_index: RuleCfg,
    /// Warn about suppression comments that match no diagnostic.
    pub warn_unused_suppressions: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            include: vec![
                "src".into(),
                "crates".into(),
                "tests".into(),
                "examples".into(),
            ],
            exclude: vec!["vendor".into(), "target".into()],
            determinism: RuleCfg {
                severity: Severity::Error,
                paths: vec![
                    "crates/simnet/src".into(),
                    "crates/shard/src".into(),
                    "crates/routing/src".into(),
                    "crates/topology/src".into(),
                ],
                exempt: Vec::new(),
            },
            no_ambient_clock: RuleCfg {
                severity: Severity::Error,
                paths: Vec::new(),
                exempt: vec![
                    "crates/simnet/src/trace.rs".into(),
                    // Examples are demo harnesses that report wall
                    // time — they never feed engine state. `crates/bench`
                    // is *not* exempt: every number `reproduce` prints
                    // is a function of the seeds.
                    "examples".into(),
                ],
            },
            no_ambient_rng: RuleCfg::new(Severity::Error),
            unsafe_budget: RuleCfg::new(Severity::Error),
            budget_file: "crates/simnet/src/worker.rs".into(),
            budget_count: 3,
            panic_surface: RuleCfg {
                severity: Severity::Error,
                paths: vec!["crates".into(), "src".into()],
                exempt: vec!["crates/bench".into()],
            },
            slice_index: RuleCfg {
                severity: Severity::Off,
                paths: vec!["crates".into(), "src".into()],
                exempt: vec!["crates/bench".into()],
            },
            warn_unused_suppressions: true,
        }
    }
}

/// A config-file problem: `file:line: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// One parsed value.
enum Value {
    Str(String),
    Int(usize),
    Bool(bool),
    List(Vec<String>),
}

impl Config {
    /// Load `lint.toml` from `root` if present, else the built-in
    /// defaults.
    pub fn load(root: &Path) -> Result<Config, ConfigError> {
        let path = root.join("lint.toml");
        match std::fs::read_to_string(&path) {
            Ok(text) => Config::parse(&text),
            Err(_) => Ok(Config::default()),
        }
    }

    /// Parse a `lint.toml` document over the built-in defaults.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("malformed section header '{raw}'"),
                })?;
                section = name.trim().to_string();
                cfg.check_section(&section, lineno)?;
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected 'key = value', got '{raw}'"),
            })?;
            let key = key.trim();
            let value = parse_value(value.trim(), lineno)?;
            cfg.apply(&section, key, value, lineno)?;
        }
        Ok(cfg)
    }

    fn check_section(&self, section: &str, line: u32) -> Result<(), ConfigError> {
        match section {
            "files" | "determinism" | "no-ambient-clock" | "no-ambient-rng" | "unsafe-budget"
            | "panic-surface" | "slice-index" | "suppressions" => Ok(()),
            other => Err(ConfigError {
                line,
                message: format!("unknown section [{other}]"),
            }),
        }
    }

    fn rule_mut(&mut self, section: &str) -> Option<&mut RuleCfg> {
        match section {
            "determinism" => Some(&mut self.determinism),
            "no-ambient-clock" => Some(&mut self.no_ambient_clock),
            "no-ambient-rng" => Some(&mut self.no_ambient_rng),
            "unsafe-budget" => Some(&mut self.unsafe_budget),
            "panic-surface" => Some(&mut self.panic_surface),
            "slice-index" => Some(&mut self.slice_index),
            _ => None,
        }
    }

    fn apply(
        &mut self,
        section: &str,
        key: &str,
        value: Value,
        line: u32,
    ) -> Result<(), ConfigError> {
        let err = |message: String| Err(ConfigError { line, message });
        match (section, key) {
            ("files", "include") => match value {
                Value::List(v) => {
                    self.include = v;
                    Ok(())
                }
                _ => err("files.include must be a string array".into()),
            },
            ("files", "exclude") => match value {
                Value::List(v) => {
                    self.exclude = v;
                    Ok(())
                }
                _ => err("files.exclude must be a string array".into()),
            },
            ("suppressions", "warn-unused") => match value {
                Value::Bool(b) => {
                    self.warn_unused_suppressions = b;
                    Ok(())
                }
                _ => err("suppressions.warn-unused must be a bool".into()),
            },
            ("unsafe-budget", "file") => match value {
                Value::Str(s) => {
                    self.budget_file = s;
                    Ok(())
                }
                _ => err("unsafe-budget.file must be a string".into()),
            },
            ("unsafe-budget", "count") => match value {
                Value::Int(n) => {
                    self.budget_count = n;
                    Ok(())
                }
                _ => err("unsafe-budget.count must be an integer".into()),
            },
            (rule, "severity") => {
                let Value::Str(s) = value else {
                    return err("severity must be a string".into());
                };
                let sev = Severity::parse(&s).ok_or_else(|| ConfigError {
                    line,
                    message: format!("severity must be off/warn/error, got '{s}'"),
                })?;
                match self.rule_mut(rule) {
                    Some(r) => {
                        r.severity = sev;
                        Ok(())
                    }
                    None => err(format!("severity not valid in section [{rule}]")),
                }
            }
            (rule, "paths") | (rule, "exempt") => {
                let Value::List(v) = value else {
                    return err(format!("{key} must be a string array"));
                };
                match self.rule_mut(rule) {
                    Some(r) => {
                        if key == "paths" {
                            r.paths = v;
                        } else {
                            r.exempt = v;
                        }
                        Ok(())
                    }
                    None => err(format!("{key} not valid in section [{rule}]")),
                }
            }
            (section, key) => err(format!("unknown key '{key}' in section [{section}]")),
        }
    }
}

/// Strip a `#` comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str, line: u32) -> Result<Value, ConfigError> {
    let err = |message: String| Err(ConfigError { line, message });
    if let Some(body) = s.strip_prefix('[') {
        let body = match body.strip_suffix(']') {
            Some(b) => b,
            None => return err(format!("unterminated array '{s}' (arrays are single-line)")),
        };
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part, line)? {
                Value::Str(v) => items.push(v),
                _ => return err("arrays may contain only strings".into()),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = match body.strip_suffix('"') {
            Some(b) => b,
            None => return err(format!("unterminated string {s}")),
        };
        return Ok(Value::Str(body.to_string()));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    match s.parse::<usize>() {
        Ok(n) => Ok(Value::Int(n)),
        Err(_) => err(format!("cannot parse value '{s}'")),
    }
}

/// Split on commas outside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scope_engine_crates() {
        let cfg = Config::default();
        assert!(cfg.determinism.applies("crates/simnet/src/engine.rs"));
        assert!(cfg.determinism.applies("crates/routing/src/ranade.rs"));
        assert!(!cfg.determinism.applies("crates/pram/src/machine.rs"));
        assert!(!cfg.no_ambient_clock.applies("crates/simnet/src/trace.rs"));
        assert!(cfg.no_ambient_clock.applies("crates/simnet/src/engine.rs"));
        assert!(cfg.no_ambient_clock.applies("crates/bench/src/lib.rs"));
        assert!(!cfg.no_ambient_clock.applies("examples/trace_serve.rs"));
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        assert!(path_has_prefix("crates/simnet/src/a.rs", "crates/simnet"));
        assert!(!path_has_prefix("crates/simnet2/src/a.rs", "crates/simnet"));
        assert!(path_has_prefix("crates/simnet", "crates/simnet"));
    }

    #[test]
    fn parse_overrides_defaults() {
        let cfg = Config::parse(
            r#"
# workspace lint policy
[determinism]
severity = "warn"
paths = ["crates/simnet/src"]   # tighter scope

[unsafe-budget]
file = "crates/other/src/x.rs"
count = 7

[slice-index]
severity = "error"

[suppressions]
warn-unused = false
"#,
        )
        .expect("parses");
        assert_eq!(cfg.determinism.severity, Severity::Warn);
        assert_eq!(cfg.determinism.paths, vec!["crates/simnet/src".to_string()]);
        assert_eq!(cfg.budget_file, "crates/other/src/x.rs");
        assert_eq!(cfg.budget_count, 7);
        assert_eq!(cfg.slice_index.severity, Severity::Error);
        assert!(!cfg.warn_unused_suppressions);
        // Untouched rules keep their defaults.
        assert_eq!(cfg.no_ambient_rng.severity, Severity::Error);
    }

    #[test]
    fn unknown_section_and_key_are_errors() {
        assert!(Config::parse("[determinsim]\nseverity = \"off\"").is_err());
        assert!(Config::parse("[determinism]\nseverty = \"off\"").is_err());
        assert!(Config::parse("[determinism]\nseverity = \"loud\"").is_err());
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = Config::parse("[unsafe-budget]\nfile = \"a#b.rs\"").expect("parses");
        assert_eq!(cfg.budget_file, "a#b.rs");
    }
}
