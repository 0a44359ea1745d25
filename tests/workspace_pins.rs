//! Regression pins against real workspace source and configuration.
//!
//! Memory-ordering bugs cannot be distinguished behaviorally on x86 (its
//! hardware model is stronger than Relaxed), so `pulse-sim`'s worker-abort
//! flag is pinned structurally: clippy.toml disallows `AtomicBool` outside
//! its `AbortFlag` wrapper, and the wrapper's two accesses must carry the
//! Acquire/Release pair the failure-context handoff relies on.
//!
//! The lint configuration is pinned the same way: the checks clippy and
//! rustc make for the workspace only reach a crate whose manifest carries
//! `[lints] workspace = true`, and the determinism guards only hold while
//! `clippy.toml` lists them.
//!
//! Two determinism rules no lint expresses are text scans over the library
//! part of every first-party source file (`crates/*/src` and the root
//! `src`): comments and string and char literals are blanked and each
//! `#[cfg(test)]` module is skipped up to its closing brace.
//! - **float-cmp** (pulse-core and pulse-sim): no `==`/`!=` against a
//!   float literal. clippy's `float_cmp` skips comparisons with zero, and
//!   the exact `p = 0` branch of the inter-arrival model and threshold
//!   scheme T2 is the case this rule is for. The one sanctioned site is
//!   [`FLOAT_CMP_ALLOWED`].
//! - **unseeded-rng** (every crate): no `seed_from_u64(`/`from_seed(` call
//!   whose arguments hold no identifier. A literal seed cannot vary per
//!   run, so the seeded model assignments of a campaign would stop varying
//!   with it. Tests may seed with literals.

// The source-loading helpers sit outside `#[test]` fns, where the
// allow-unwrap-in-tests exemption does not reach.
#![allow(clippy::unwrap_used)]

use std::path::{Path, PathBuf};

/// `(file, line text)` of the float comparisons the float-cmp scan accepts:
/// `Probability::is_zero`, whose exact zero is assigned, never computed.
const FLOAT_CMP_ALLOWED: &[(&str, &str)] =
    &[("crates/pulse-core/src/probability.rs", "self.0 == 0.0")];

#[test]
fn sim_runner_abort_flag_uses_acquire_release_pair() {
    let text =
        std::fs::read_to_string(workspace_root().join("crates/pulse-sim/src/runner.rs")).unwrap();
    // The flag is raised with Release so the failing worker's writes (the
    // failure context) are published, and polled with Acquire so siblings
    // observe them. Both halves must survive refactors.
    assert!(
        text.contains("struct AbortFlag("),
        "the abort flag lost its AbortFlag wrapper"
    );
    assert!(
        text.contains("self.0.store(true, Ordering::Release)"),
        "AbortFlag::raise no longer uses Ordering::Release"
    );
    assert!(
        text.contains("self.0.load(Ordering::Acquire)"),
        "AbortFlag::is_raised no longer uses Ordering::Acquire"
    );
    assert!(
        !text.contains("self.0.load(Ordering::Relaxed)")
            && !text.contains("self.0.store(true, Ordering::Relaxed)"),
        "abort flag regressed to Ordering::Relaxed"
    );
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of the TOML table headed `[header]`.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The `path = "..."` values of the top-level TOML array `key = [ ... ]`.
fn toml_array_paths(text: &str, key: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .skip_while(|l| !l.starts_with(&format!("{key} = [")))
        .skip(1)
        .take_while(|l| !l.starts_with(']'))
        .filter_map(|l| {
            let (_, rest) = l.split_once("path = \"")?;
            rest.split_once('"').map(|(path, _)| path.to_owned())
        })
        .collect()
}

#[test]
fn every_crate_opts_into_the_workspace_lint_table() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found the workspace crates");
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap();
        assert!(
            toml_table(&text, "[lints]").contains(&"workspace = true".to_owned()),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }

    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let clippy = toml_table(&root_manifest, "[workspace.lints.clippy]");
    let rustc = toml_table(&root_manifest, "[workspace.lints.rust]");
    for (table, lint) in [
        (&clippy, "unwrap_used"),
        (&clippy, "expect_used"),
        (&clippy, "panic"),
        (&clippy, "float_cmp"),
        (&clippy, "cast_possible_truncation"),
        (&rustc, "missing_docs"),
    ] {
        assert!(
            table
                .iter()
                .any(|l| *l == format!("{lint} = \"warn\"") || *l == format!("{lint} = \"deny\"")),
            "workspace lint table lacks `{lint}`: {table:?}"
        );
    }

    // The determinism guards (DESIGN.md §8): wall clock, hash-container
    // iteration order, raw atomic flags.
    let clippy_toml = std::fs::read_to_string(root.join("clippy.toml")).unwrap();
    for (table, path) in [
        ("disallowed-methods", "std::time::Instant::now"),
        ("disallowed-methods", "std::time::SystemTime::now"),
        ("disallowed-methods", "std::time::SystemTime::elapsed"),
        ("disallowed-types", "std::time::SystemTime"),
        ("disallowed-types", "std::collections::HashMap"),
        ("disallowed-types", "std::collections::HashSet"),
        ("disallowed-types", "std::sync::atomic::AtomicBool"),
    ] {
        assert!(
            toml_array_paths(&clippy_toml, table).contains(&path.to_owned()),
            "clippy.toml `{table}` lacks `{path}`"
        );
    }

    let core_lib = std::fs::read_to_string(root.join("crates/pulse-core/src/lib.rs")).unwrap();
    assert!(
        core_lib.contains("#![warn(clippy::as_conversions, unreachable_pub)]"),
        "pulse-core no longer warns on raw `as` casts and unreachable `pub` items"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` with comments and string and char literals blanked to spaces
/// (line breaks kept), so the scans see code only: a `//` inside a string
/// neither ends the line nor hides what follows it.
fn mask(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let ident = |i: usize| c[i].is_alphanumeric() || c[i] == '_';
    let find = |from: usize, pat: &[char]| {
        (from..c.len())
            .find(|&j| c[j..].starts_with(pat))
            .map_or(c.len(), |j| j + pat.len())
    };
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < c.len() {
        let rest = &c[i..];
        let hashes = rest[1..].iter().take_while(|&&h| h == '#').count();
        let raw_start = rest[0] == 'r'
            && rest.get(1 + hashes) == Some(&'"')
            && (i == 0 || !ident(i - 1) || (c[i - 1] == 'b' && (i == 1 || !ident(i - 2))));
        let end = if rest.starts_with(&['/', '/']) {
            (i..c.len()).find(|&j| c[j] == '\n').unwrap_or(c.len())
        } else if rest.starts_with(&['/', '*']) {
            // Taken as non-nesting: a nested comment's tail stays visible
            // as code, which can only add findings.
            find(i + 2, &['*', '/'])
        } else if rest[0] == '"' {
            let mut j = i + 1;
            while j < c.len() && c[j] != '"' {
                j += if c[j] == '\\' { 2 } else { 1 };
            }
            j + 1
        } else if raw_start {
            let close: Vec<char> = format!("\"{}", "#".repeat(hashes)).chars().collect();
            find(i + 2 + hashes, &close)
        } else if rest[0] == '\'' && rest.get(1) == Some(&'\\') {
            find(i + 3, &['\''])
        } else if rest[0] == '\'' && rest.get(2) == Some(&'\'') {
            i + 3
        } else {
            // Code, including a lifetime's `'`.
            out.push(rest[0]);
            i += 1;
            continue;
        };
        let end = end.min(c.len());
        out.extend(
            c[i..end]
                .iter()
                .map(|&ch| if ch == '\n' { '\n' } else { ' ' }),
        );
        i = end;
    }
    out
}

/// The library part of `text` as `(1-based line, code)`, [`mask`]ed, with
/// every `#[cfg(test)]` module left out from its attribute to its closing
/// brace. Errs when a `#[cfg(test)]` heads anything but a closed inline
/// module: the code it covers would otherwise escape the scans or, for an
/// out-of-line `mod x;`, be scanned as library code.
fn library_lines(text: &str) -> Result<Vec<(usize, String)>, String> {
    let masked = mask(text);
    let lines: Vec<&str> = masked.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim() != "#[cfg(test)]" {
            out.push((i + 1, lines[i].to_owned()));
            i += 1;
            continue;
        }
        // The first line after the attribute that is neither blank nor
        // part of a (possibly multi-line) attribute.
        let mut attr_depth = 0usize;
        let item = (i + 1..lines.len()).find(|&j| {
            let l = lines[j].trim();
            let in_attr = attr_depth > 0 || l.starts_with("#[");
            attr_depth =
                (attr_depth + l.matches('[').count()).saturating_sub(l.matches(']').count());
            !in_attr && !l.is_empty()
        });
        let inline_mod =
            |l: &str| (l.starts_with("mod ") || l.starts_with("pub mod ")) && l.contains('{');
        // The line holding the brace that closes the inline module.
        let mut depth = 0usize;
        let close = item
            .filter(|&j| inline_mod(lines[j].trim()))
            .and_then(|item| {
                (item..lines.len()).find(|&j| {
                    depth = (depth + lines[j].matches('{').count())
                        .saturating_sub(lines[j].matches('}').count());
                    depth == 0
                })
            });
        let Some(close) = close else {
            return Err(format!(
                "{}: `#[cfg(test)]` heads no closed inline module; keep test code in `mod tests {{ … }}`",
                i + 1
            ));
        };
        i = close + 1;
    }
    Ok(out)
}

/// `path:line: rule` for every float-cmp (in pulse-core and pulse-sim) and
/// unseeded-rng finding in the library part of `text`, with the sites in
/// [`FLOAT_CMP_ALLOWED`] left out.
fn findings(path: &str, text: &str) -> Vec<String> {
    let float_scope =
        path.starts_with("crates/pulse-core/src/") || path.starts_with("crates/pulse-sim/src/");
    let lines = match library_lines(text) {
        Ok(lines) => lines,
        Err(e) => return vec![format!("{path}:{e}")],
    };
    let mut out = Vec::new();
    for (line, code) in lines {
        let allowed = FLOAT_CMP_ALLOWED
            .iter()
            .any(|&(file, site)| file == path && code.trim() == site);
        if float_scope && !allowed && compares_float_literal(&code) {
            out.push(format!("{path}:{line}: float-cmp `{}`", code.trim()));
        }
        if seeds_with_literal(&code) {
            out.push(format!("{path}:{line}: unseeded-rng `{}`", code.trim()));
        }
    }
    out
}

/// A standalone `==`/`!=` (not part of `<=`, `>=`, `!==`, …) with a float
/// literal on either side.
fn compares_float_literal(code: &str) -> bool {
    const GLUE: &[char] = &['=', '!', '<', '>', '+', '-', '*', '/', '%', '&', '|', '^'];
    ["==", "!="].iter().any(|op| {
        code.match_indices(op).any(|(pos, _)| {
            let (lhs, rhs) = (&code[..pos], &code[pos + op.len()..]);
            let standalone = !lhs.ends_with(|c| GLUE.contains(&c)) && !rhs.starts_with('=');
            standalone && (is_float_literal(last_token(lhs)) || is_float_literal(first_token(rhs)))
        })
    })
}

fn is_token_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.')
}

fn last_token(s: &str) -> &str {
    let s = s.trim_end();
    &s[s.trim_end_matches(is_token_char).len()..]
}

/// The first token of `s`, keeping a leading minus sign.
fn first_token(s: &str) -> &str {
    let s = s.trim_start();
    let sign = usize::from(s.starts_with('-'));
    let body = &s[sign..];
    &s[..sign + body.len() - body.trim_start_matches(is_token_char).len()]
}

/// `0.0`, `-1.5`, `2.0f64`, `1.0e-3`: digits with a decimal point, an
/// optional sign, suffix or exponent.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.strip_prefix('-').unwrap_or(tok);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    t.starts_with(|c: char| c.is_ascii_digit())
        && t.contains('.')
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E'))
}

/// A `seed_from_u64(`/`from_seed(` call (not a longer name ending in one)
/// whose arguments, closed on this line, are all numeric literals.
fn seeds_with_literal(code: &str) -> bool {
    ["seed_from_u64(", "from_seed("].iter().any(|ctor| {
        code.match_indices(ctor).any(|(pos, _)| {
            let longer_name =
                code[..pos].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            !longer_name && call_args(&code[pos + ctor.len()..]).is_some_and(is_literal_seed)
        })
    })
}

/// The argument text up to the parenthesis closing the call, if it closes
/// on this line.
fn call_args(rest: &str) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' if depth > 0 => depth -= 1,
            ')' => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

/// Non-empty arguments in which every word is a numeric literal (`42`,
/// `0xDEAD_BEEF`, `7u64`, `[0u8; 32]`): no identifier carries a seed in.
fn is_literal_seed(args: &str) -> bool {
    let mut words = args
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .peekable();
    words.peek().is_some() && words.all(|w| w.starts_with(|c: char| c.is_ascii_digit()))
}

#[test]
fn library_code_has_no_float_literal_compares_or_literal_seeds() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found the workspace sources");

    let mut found = Vec::new();
    for file in &files {
        let path = file.strip_prefix(&root).unwrap().to_str().unwrap();
        found.extend(findings(path, &std::fs::read_to_string(file).unwrap()));
    }
    assert!(found.is_empty(), "{}", found.join("\n"));

    // A moved or renamed allowed site must take its entry along.
    for &(path, site) in FLOAT_CMP_ALLOWED {
        let text = std::fs::read_to_string(root.join(path)).unwrap();
        assert!(
            library_lines(&text)
                .unwrap()
                .iter()
                .any(|(_, code)| code.trim() == site),
            "allowed float comparison `{site}` is no longer in {path}"
        );
    }
}

/// The path the fixtures claim for themselves, inside float-cmp's scope.
const CORE: &str = "crates/pulse-core/src/fixture.rs";

#[test]
fn scans_flag_float_literal_compares_literal_seeds_and_stray_cfg_test() {
    let flagged = [
        (CORE, "fn f(p: f64) -> bool { p == 0.0 }"),
        (CORE, "fn f(q: f64) -> bool { 1.0 != q }"),
        (CORE, "fn f(m: f64) -> bool { m == 2.0f64 }"),
        (CORE, "fn f(d: f64) -> bool { d == -1.0 }"),
        ("crates/pulse-sim/src/fixture.rs", "let z = p == 0.5;"),
        (CORE, "fn rng() -> SmallRng { SmallRng::seed_from_u64(42) }"),
        (CORE, "let r = SmallRng::seed_from_u64(0xDEAD_BEEFu64 ^ 7);"),
        (
            "crates/pulse-trace/src/x.rs",
            "let r = SmallRng::from_seed([0u8; 32]);",
        ),
        // A `//` inside a string hides nothing after it.
        (CORE, "let u = \"a//b\"; let z = p == 0.0;"),
        // Library code after a test module is scanned.
        (
            CORE,
            "fn a() {}\n#[cfg(test)]\nmod t {}\nfn f(p: f64) -> bool { p == 0.0 }",
        ),
        (
            CORE,
            "#[cfg(test)]\nmod t {\n    const C: char = '}';\n}\nlet z = p == 0.0;",
        ),
        // A `#[cfg(test)]` heading anything but a closed inline module.
        (CORE, "#[cfg(test)]\nfn helper() {}\n"),
        (CORE, "#[cfg(test)]\nmod helpers;\n"),
        (
            CORE,
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n",
        ),
    ];
    for (path, text) in flagged {
        assert_eq!(findings(path, text).len(), 1, "{path}: {text}");
    }
}

#[test]
fn scans_skip_comments_tests_seed_expressions_and_other_crates() {
    let clean = [
        (CORE, "let ok = p <= 0.0 || p >= 1.0 || n == 0 || a != b;"),
        (CORE, "let f = |x| match x { _ => 0.0 };"),
        (
            CORE,
            "// p == 0.0 and SmallRng::seed_from_u64(42) in a comment",
        ),
        (CORE, "let s = \"p == 0.0\"; /* p != 1.0 */ let c = '\\'';"),
        (CORE, "let s = r#\"SmallRng::seed_from_u64(42)\"#;"),
        (
            CORE,
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(p: f64) -> bool { p == 0.0 }\n    \
             fn r() -> SmallRng { SmallRng::seed_from_u64(1234) }\n}\n",
        ),
        (CORE, "let r = SmallRng::seed_from_u64(cfg.seed + 1);"),
        (CORE, "let r = SmallRng::seed_from_u64(mix(seed, 3));"),
        (CORE, "let r = reseed_from_u64(42);"),
        // float-cmp's scope is pulse-core and pulse-sim: a `== 0.0`
        // division guard elsewhere is legitimate.
        (
            "crates/pulse-models/src/x.rs",
            "if total == 0.0 { return 0.0; }",
        ),
        (
            "crates/pulse-core/src/probability.rs",
            "pub fn is_zero(self) -> bool {\n        self.0 == 0.0\n    }",
        ),
    ];
    for (path, text) in clean {
        assert_eq!(findings(path, text), Vec::<String>::new(), "{path}: {text}");
    }
}
