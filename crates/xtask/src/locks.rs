//! `cargo xtask locks` — the static half of the lock-hierarchy
//! enforcement layer (DESIGN.md §17).
//!
//! Three checks over the same stripped-source view `lint.rs` uses:
//!
//! 1. `locks-raw-type` — product crates (the shimmed set) may not name
//!    raw `Mutex`/`RwLock`/`Condvar` (or their guard types) in non-test
//!    code: every lock goes through the `parj_sync` ordered wrappers,
//!    which carry a declared [`LockLevel`] the runtime witness
//!    enforces. Identifier-boundary matching keeps `OrderedMutex` and
//!    friends clean.
//! 2. `locks-level-declared` — every `Ordered{Mutex,RwLock,Condvar}::new`
//!    call site must pass a `LockLevel::` within a few lines, and the
//!    variant it names must exist in the hierarchy.
//! 3. `locks-hierarchy` — the `LockLevel` enum in
//!    `crates/sync/src/ordered.rs` must declare pairwise-distinct
//!    numeric values (a duplicate collapses two levels into an
//!    unordered — cyclic — pair) and must match the lock table in
//!    DESIGN.md §17 exactly, so the documented hierarchy can never
//!    drift from the enforced one.
//!
//! [`LockLevel`]: https://docs.rs/parj-sync

use std::path::{Path, PathBuf};

use crate::lint::{strip, Stripped, Violation, SHIMMED};

/// Raw synchronization type names banned from product-crate code; the
/// ordered wrappers (and `parj_sync::Ordered*` guards) replace them.
const RAW_LOCK_TYPES: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Wrapper constructors that must carry a `LockLevel`.
const ORDERED_CTORS: [&str; 3] = [
    "OrderedMutex::new(",
    "OrderedRwLock::new(",
    "OrderedCondvar::new(",
];

/// Lines after a ctor in which its `LockLevel::` argument must appear
/// (multi-line formatting puts the level on the next line or two).
const LEVEL_LOOKAHEAD: usize = 3;

/// True when `line[idx..idx+len]` is a standalone identifier (not a
/// tail or head of a longer one, e.g. `Mutex` inside `OrderedMutex`).
fn ident_boundary(line: &str, idx: usize, len: usize) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let before_ok = idx == 0 || !is_ident(bytes[idx - 1]);
    let after_ok = idx + len >= bytes.len() || !is_ident(bytes[idx + len]);
    before_ok && after_ok
}

/// Every standalone occurrence of `needle` in `line`.
fn ident_occurrences(line: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let idx = from + pos;
        if ident_boundary(line, idx, needle.len()) {
            out.push(idx);
        }
        from = idx + needle.len();
    }
    out
}

/// Check 1: no raw lock types in product-crate non-test code.
pub fn check_raw_lock_types(rel: &Path, s: &Stripped, out: &mut Vec<Violation>) {
    if !SHIMMED.iter().any(|c| rel.starts_with(c)) {
        return;
    }
    // Like lint Rule 2: only shipped code under src/ — integration
    // tests, benches and examples may lock however they like.
    if !rel.components().any(|c| c.as_os_str() == "src") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] {
            continue;
        }
        for raw in RAW_LOCK_TYPES {
            if !ident_occurrences(line, raw).is_empty() {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    rule: "locks-raw-type",
                    msg: format!(
                        "raw `{raw}` in a product crate; use \
                         `parj_sync::Ordered{base}` with a declared `LockLevel` so the \
                         lock-order witness covers it",
                        base = raw
                            .strip_suffix("Guard")
                            .map(|g| g.strip_suffix("Read").or(g.strip_suffix("Write")).unwrap_or(g))
                            .unwrap_or(raw),
                    ),
                });
            }
        }
    }
}

/// Check 2: ordered-wrapper construction declares a known level nearby.
pub fn check_level_declared(
    rel: &Path,
    s: &Stripped,
    known_levels: &[(String, u8)],
    out: &mut Vec<Violation>,
) {
    if !SHIMMED.iter().any(|c| rel.starts_with(c)) || rel.starts_with("crates/sync") {
        return;
    }
    for (ln, line) in s.code.iter().enumerate() {
        if s.in_test[ln] || !ORDERED_CTORS.iter().any(|c| line.contains(c)) {
            continue;
        }
        let hi = (ln + LEVEL_LOOKAHEAD).min(s.code.len() - 1);
        let window: Vec<&String> = s.code[ln..=hi].iter().collect();
        let named: Vec<String> = window
            .iter()
            .flat_map(|l| level_refs(l))
            .collect();
        if named.is_empty() {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: ln + 1,
                rule: "locks-level-declared",
                msg: "ordered lock constructed without a `LockLevel::` argument within \
                      reach; declare its place in the hierarchy"
                    .into(),
            });
            continue;
        }
        for name in named {
            if !known_levels.iter().any(|(n, _)| *n == name) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: ln + 1,
                    rule: "locks-level-declared",
                    msg: format!(
                        "`LockLevel::{name}` is not declared in the hierarchy \
                         (crates/sync/src/ordered.rs)"
                    ),
                });
            }
        }
    }
}

/// `LockLevel::X` variant references on one code line.
fn level_refs(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for idx in ident_occurrences(line, "LockLevel") {
        let rest = &line[idx + "LockLevel".len()..];
        if let Some(var) = rest.strip_prefix("::") {
            let name: String = var
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            // Associated items (`ALL`, `as_str`...) are not variants.
            if !name.is_empty() && name.chars().next().is_some_and(char::is_uppercase) && name != "ALL"
            {
                out.push(name);
            }
        }
    }
    out
}

/// Parses the `LockLevel` enum declaration out of
/// `crates/sync/src/ordered.rs`: `(variant, value)` in declaration
/// order.
pub fn parse_hierarchy(ordered_src: &str) -> Vec<(String, u8)> {
    let s = strip(ordered_src);
    let mut in_enum = false;
    let mut levels = Vec::new();
    for line in &s.code {
        if line.contains("pub enum LockLevel") {
            in_enum = true;
            continue;
        }
        if in_enum {
            let t = line.trim();
            if t.starts_with('}') {
                break;
            }
            // Variant shape: `Name = 42,`
            if let Some((name, rest)) = t.split_once('=') {
                let name = name.trim();
                let value = rest.trim().trim_end_matches(',').trim();
                if name.chars().all(|c| c.is_ascii_alphanumeric()) && !name.is_empty() {
                    if let Ok(v) = value.parse::<u8>() {
                        levels.push((name.to_string(), v));
                    }
                }
            }
        }
    }
    levels
}

/// Check 3a: the declared hierarchy is a strict total order — every
/// level value pairwise distinct. Two locks sharing a value could each
/// be "outer" to the other depending on call site: an unordered, i.e.
/// cyclic, declaration.
pub fn check_hierarchy_acyclic(levels: &[(String, u8)], out: &mut Vec<Violation>) {
    for (i, (name_a, v_a)) in levels.iter().enumerate() {
        for (name_b, v_b) in &levels[i + 1..] {
            if v_a == v_b {
                out.push(Violation {
                    file: PathBuf::from("crates/sync/src/ordered.rs"),
                    line: 0,
                    rule: "locks-hierarchy",
                    msg: format!(
                        "cyclic level declaration: `{name_a}` and `{name_b}` share value \
                         {v_a}; same-value locks have no acquisition order"
                    ),
                });
            }
            if name_a == name_b {
                out.push(Violation {
                    file: PathBuf::from("crates/sync/src/ordered.rs"),
                    line: 0,
                    rule: "locks-hierarchy",
                    msg: format!("duplicate level name `{name_a}`"),
                });
            }
        }
    }
    if levels.is_empty() {
        out.push(Violation {
            file: PathBuf::from("crates/sync/src/ordered.rs"),
            line: 0,
            rule: "locks-hierarchy",
            msg: "no LockLevel hierarchy found".into(),
        });
    }
}

/// Parses the DESIGN.md §17 lock table: rows are
/// `| <value> | \`Variant\` | ... |`. Returns `(variant, value)` pairs.
pub fn parse_design_table(design_md: &str) -> Vec<(String, u8)> {
    let mut in_section = false;
    let mut levels = Vec::new();
    for line in design_md.lines() {
        if line.starts_with("## ") {
            in_section = line.starts_with("## 17.") || line.contains("§17");
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let Ok(value) = cells[0].trim().parse::<u8>() else {
            continue; // header / separator rows
        };
        let name = cells[1].trim().trim_matches('`');
        if !name.is_empty() {
            levels.push((name.to_string(), value));
        }
    }
    levels
}

/// Check 3b: the enum and the DESIGN.md table agree exactly.
pub fn check_design_matches(
    enum_levels: &[(String, u8)],
    design_levels: &[(String, u8)],
    out: &mut Vec<Violation>,
) {
    for (name, v) in enum_levels {
        match design_levels.iter().find(|(n, _)| n == name) {
            None => out.push(Violation {
                file: PathBuf::from("DESIGN.md"),
                line: 0,
                rule: "locks-hierarchy",
                msg: format!("level `{name}` ({v}) missing from the DESIGN.md §17 lock table"),
            }),
            Some((_, dv)) if dv != v => out.push(Violation {
                file: PathBuf::from("DESIGN.md"),
                line: 0,
                rule: "locks-hierarchy",
                msg: format!(
                    "level `{name}` is {v} in code but {dv} in the DESIGN.md §17 table"
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, _) in design_levels {
        if !enum_levels.iter().any(|(n, _)| n == name) {
            out.push(Violation {
                file: PathBuf::from("DESIGN.md"),
                line: 0,
                rule: "locks-hierarchy",
                msg: format!(
                    "table row `{name}` has no matching LockLevel variant in \
                     crates/sync/src/ordered.rs"
                ),
            });
        }
    }
}

/// Runs checks 1–2 over one file's source.
pub fn check_file(rel: &Path, src: &str, known_levels: &[(String, u8)]) -> Vec<Violation> {
    let s = strip(src);
    let mut out = Vec::new();
    check_raw_lock_types(rel, &s, &mut out);
    check_level_declared(rel, &s, known_levels, &mut out);
    out
}

/// Runs the whole pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    let ordered_path = root.join("crates/sync/src/ordered.rs");
    let levels = match std::fs::read_to_string(&ordered_path) {
        Ok(src) => parse_hierarchy(&src),
        Err(_) => Vec::new(),
    };
    check_hierarchy_acyclic(&levels, &mut out);
    match std::fs::read_to_string(root.join("DESIGN.md")) {
        Ok(md) => check_design_matches(&levels, &parse_design_table(&md), &mut out),
        Err(_) => out.push(Violation {
            file: PathBuf::from("DESIGN.md"),
            line: 0,
            rule: "locks-hierarchy",
            msg: "DESIGN.md not found; the §17 lock table is required".into(),
        }),
    }
    for path in crate::lint::rust_files(root) {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        out.extend(check_file(rel, &src, &levels));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVELS: &[(&str, u8)] = &[("Server", 90), ("Engine", 70), ("Metrics", 10)];

    fn levels() -> Vec<(String, u8)> {
        LEVELS.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn raw_mutex_in_product_crate_is_flagged() {
        let bad = check_file(
            Path::new("crates/server/src/admission.rs"),
            "struct S { m: Mutex<u32> }",
            &levels(),
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "locks-raw-type");
        // The message points at the ordered replacement.
        assert!(bad[0].msg.contains("OrderedMutex"), "{}", bad[0].msg);
    }

    #[test]
    fn ordered_wrappers_do_not_trip_the_raw_rule() {
        let good = check_file(
            Path::new("crates/core/src/shared.rs"),
            "struct S { m: OrderedMutex<u32>, r: OrderedRwLock<u8>, c: OrderedCondvar }\n\
             fn f(g: OrderedMutexGuard<'_, u32>, h: OrderedRwLockReadGuard<'_, u8>) {}\n\
             fn ctor() -> OrderedMutex<u32> { OrderedMutex::new(LockLevel::Engine, \"x\", 0) }",
            &levels(),
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn guard_types_and_condvar_are_also_banned_raw() {
        let bad = check_file(
            Path::new("crates/join/src/pool.rs"),
            "fn f(g: MutexGuard<'_, u32>) {}\nstruct C { c: Condvar }",
            &levels(),
        );
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "locks-raw-type"));
    }

    #[test]
    fn non_product_crates_and_tests_are_exempt() {
        let cli = check_file(
            Path::new("crates/cli/src/main.rs"),
            "use std::sync::Mutex;\nstatic M: Mutex<u32> = Mutex::new(0);",
            &levels(),
        );
        assert!(cli.is_empty(), "{cli:?}");
        let test_code = check_file(
            Path::new("crates/core/src/engine.rs"),
            "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    static M: Mutex<u32> = Mutex::new(0);\n}",
            &levels(),
        );
        assert!(test_code.is_empty(), "{test_code:?}");
        let integration = check_file(
            Path::new("crates/core/tests/parallel_load.rs"),
            "static M: std::sync::Mutex<u32> = std::sync::Mutex::new(0);",
            &levels(),
        );
        assert!(integration.is_empty(), "{integration:?}");
    }

    #[test]
    fn ctor_without_level_is_flagged() {
        let bad = check_file(
            Path::new("crates/cache/src/lib.rs"),
            "fn f() -> OrderedMutex<u32> { OrderedMutex::new(level_of(), \"x\", 0) }",
            &levels(),
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "locks-level-declared");
    }

    #[test]
    fn ctor_with_level_on_a_following_line_passes() {
        let good = check_file(
            Path::new("crates/cache/src/lib.rs"),
            "fn f() -> OrderedMutex<u32> {\n    OrderedMutex::new(\n        LockLevel::Engine,\n        \"x\",\n        0,\n    )\n}",
            &levels(),
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn unknown_level_variant_is_flagged() {
        let bad = check_file(
            Path::new("crates/cache/src/lib.rs"),
            "fn f() -> OrderedMutex<u32> { OrderedMutex::new(LockLevel::Imaginary, \"x\", 0) }",
            &levels(),
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].msg.contains("Imaginary"), "{}", bad[0].msg);
    }

    #[test]
    fn hierarchy_parses_from_enum_source() {
        let src = "pub enum LockLevel {\n    /// doc\n    Server = 90,\n    Engine = 70,\n}\n";
        let levels = parse_hierarchy(src);
        assert_eq!(
            levels,
            vec![("Server".to_string(), 90), ("Engine".to_string(), 70)]
        );
    }

    #[test]
    fn duplicate_level_values_are_a_cycle() {
        let mut out = Vec::new();
        check_hierarchy_acyclic(
            &[("A".to_string(), 10), ("B".to_string(), 10)],
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "locks-hierarchy");
        assert!(out[0].msg.contains("cyclic"), "{}", out[0].msg);
    }

    #[test]
    fn design_table_roundtrip_and_mismatch() {
        let md = "## §17 Lock hierarchy\n\n\
                  | Level | Name | Lock | Crate |\n\
                  |---|---|---|---|\n\
                  | 90 | `Server` | `server.live_tokens` | parj-server |\n\
                  | 70 | `Engine` | `engine.shared` | parj-core |\n\n\
                  ## §18 Other\n| 1 | `Bogus` |\n";
        let parsed = parse_design_table(md);
        assert_eq!(
            parsed,
            vec![("Server".to_string(), 90), ("Engine".to_string(), 70)]
        );

        let mut out = Vec::new();
        check_design_matches(
            &[("Server".to_string(), 90), ("Engine".to_string(), 70)],
            &parsed,
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");

        // Value drift is caught both ways.
        let mut out = Vec::new();
        check_design_matches(
            &[("Server".to_string(), 91), ("Cache".to_string(), 60)],
            &parsed,
            &mut out,
        );
        assert_eq!(out.len(), 3, "{out:?}"); // drifted, missing, extra
    }

    #[test]
    fn workspace_passes_the_locks_gate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = run(&root);
        assert!(
            violations.is_empty(),
            "workspace locks violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
