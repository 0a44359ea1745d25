//! Source-file model shared by all rules.
//!
//! Rules never see raw text: they see a [`SourceFile`] whose lines have been
//! *masked* — string and character literal contents and comments replaced by
//! spaces, with line numbers preserved — plus per-line metadata: whether the
//! line sits inside a `#[cfg(test)]` region, and any `// audit:allow(...)`
//! waiver attached to the line. This keeps every rule a simple, precise
//! text scan that cannot be fooled by patterns inside strings or comments.

use std::path::PathBuf;

/// A parsed waiver comment: `// audit:allow(<rule>): <justification>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Justification text after the colon (may be empty — the framework
    /// reports empty justifications as violations themselves).
    pub justification: String,
    /// 1-based line the waiver comment appears on.
    pub line: usize,
}

/// One workspace source file, pre-processed for rule scanning.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path as reported in diagnostics (workspace-relative when walked).
    pub path: PathBuf,
    /// Name of the crate the file belongs to (e.g. `pulse-core`).
    pub krate: String,
    /// Lines with string/char contents and comments blanked out.
    pub masked_lines: Vec<String>,
    /// Comment text per line (tail `//` comments and block-comment spans).
    pub comment_lines: Vec<String>,
    /// `in_test[i]` is true when line `i+1` is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Waivers, indexed by the 0-based line they apply to (a waiver covers
    /// its own line and, when it is a comment-only line, the next line).
    waivers: Vec<Vec<Waiver>>,
}

impl SourceFile {
    /// Parse `text` as the contents of `path` inside crate `krate`.
    pub fn parse(path: PathBuf, krate: &str, text: &str) -> Self {
        let (masked_lines, comment_lines) = mask(text, text.lines().count());
        let in_test = test_regions(&masked_lines);
        let waivers = collect_waivers(&comment_lines, &masked_lines);
        Self {
            path,
            krate: krate.to_owned(),
            masked_lines,
            comment_lines,
            in_test,
            waivers,
        }
    }

    /// True when 1-based `line` carries a waiver for `rule`.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waivers
            .get(line - 1)
            .is_some_and(|ws| ws.iter().any(|w| w.rule == rule))
    }

    /// All waivers in the file (for justification checking).
    pub fn all_waivers(&self) -> Vec<&Waiver> {
        let mut seen: Vec<&Waiver> = Vec::new();
        for ws in &self.waivers {
            for w in ws {
                if !seen.iter().any(|s| s.line == w.line && s.rule == w.rule) {
                    seen.push(w);
                }
            }
        }
        seen
    }
}

/// Blank out comments and string/char literal contents, preserving line
/// structure. Returns `(masked_lines, comment_lines)`.
fn mask(text: &str, n_lines: usize) -> (Vec<String>, Vec<String>) {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }

    let mut masked = vec![String::new(); n_lines.max(1)];
    let mut comments = vec![String::new(); n_lines.max(1)];
    let mut line = 0usize;
    let mut state = State::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;

    // Push `c` to the masked view, or a space placeholder.
    macro_rules! emit {
        (code $c:expr) => {
            masked[line].push($c)
        };
        (blank) => {
            masked[line].push(' ')
        };
        (comment $c:expr) => {{
            masked[line].push(' ');
            comments[line].push($c);
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            line += 1;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    emit!(comment '/');
                    emit!(comment '/');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    emit!(comment '/');
                    emit!(comment '*');
                    i += 2;
                    continue;
                }
                if c == 'r' && matches!(next, Some('"') | Some('#')) {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            emit!(blank);
                        }
                        i = j + 1;
                        state = State::RawStr(hashes);
                        continue;
                    }
                }
                if c == '"' {
                    emit!(blank);
                    state = State::Str;
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal vs lifetime: a literal closes with `'`
                    // after one (possibly escaped) character.
                    let is_escape = chars.get(i + 1) == Some(&'\\');
                    let closes = if is_escape {
                        // '\x41' / '\n' / '\u{...}' — find the closing quote
                        // within a small window.
                        (i + 2..(i + 12).min(chars.len())).any(|k| chars[k] == '\'')
                    } else {
                        chars.get(i + 2) == Some(&'\'')
                    };
                    if closes {
                        emit!(blank);
                        state = State::Char;
                        i += 1;
                        continue;
                    }
                    // Lifetime: keep as code.
                    emit!(code c);
                    i += 1;
                    continue;
                }
                emit!(code c);
                i += 1;
            }
            State::LineComment => {
                emit!(comment c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    emit!(comment '*');
                    emit!(comment '/');
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    continue;
                }
                if c == '/' && next == Some('*') {
                    emit!(comment '/');
                    emit!(comment '*');
                    i += 2;
                    state = State::BlockComment(depth + 1);
                    continue;
                }
                emit!(comment c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    emit!(blank);
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        emit!(blank);
                        i += 2;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                if c == '"' {
                    emit!(blank);
                    state = State::Code;
                } else {
                    emit!(blank);
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes as usize {
                            emit!(blank);
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                        continue;
                    }
                }
                emit!(blank);
                i += 1;
            }
            State::Char => {
                emit!(blank);
                if c == '\'' {
                    state = State::Code;
                } else if c == '\\' && chars.get(i + 1).is_some() {
                    emit!(blank);
                    i += 2;
                    continue;
                }
                i += 1;
            }
        }
    }
    (masked, comments)
}

/// Mark the line span of every `#[cfg(test)]` item (attribute line through
/// the matching close brace, or the terminating `;` for brace-less items).
fn test_regions(masked: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked.len()];
    let mut line = 0usize;
    while line < masked.len() {
        let l = compact(&masked[line]);
        if !l.contains("#[cfg(test)]") {
            line += 1;
            continue;
        }
        // Scan forward from the end of the attribute for the item's span.
        let mut depth = 0i64;
        let mut seen_brace = false;
        let mut end = masked.len() - 1;
        'scan: for (j, scan_line) in masked.iter().enumerate().skip(line) {
            let text: &str = if j == line {
                // Skip past the attribute itself on its own line.
                let idx = scan_line.find("]").map_or(0, |p| p + 1);
                &scan_line[idx.min(scan_line.len())..]
            } else {
                scan_line
            };
            for ch in text.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        seen_brace = true;
                    }
                    '}' => {
                        depth -= 1;
                        if seen_brace && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !seen_brace && depth == 0 => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
        }
        for flag in in_test.iter_mut().take(end + 1).skip(line) {
            *flag = true;
        }
        line = end + 1;
    }
    in_test
}

fn compact(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Parse `audit:allow(<rule>): <justification>` waivers out of comment text
/// and attach each to its own line plus — when the line holds no code — the
/// next line. The rule must be a kebab-case slug, so prose *about* the
/// waiver syntax (placeholders like `<rule>` or `...`) never parses as one.
fn collect_waivers(comments: &[String], masked: &[String]) -> Vec<Vec<Waiver>> {
    let mut out: Vec<Vec<Waiver>> = vec![Vec::new(); comments.len()];
    for (i, comment) in comments.iter().enumerate() {
        let Some(pos) = comment.find("audit:allow(") else {
            continue;
        };
        let rest = &comment[pos + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = after
            .strip_prefix(':')
            .map(|j| j.trim().to_owned())
            .unwrap_or_default();
        let w = Waiver {
            rule,
            justification,
            line: i + 1,
        };
        let line_has_code = !masked[i].trim().is_empty();
        out[i].push(w.clone());
        if !line_has_code && i + 1 < out.len() {
            out[i + 1].push(w);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("lib.rs"), "demo", text)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = parse("let x = \"unwrap()\"; // .unwrap() here\nlet y = 1;\n");
        assert!(!f.masked_lines[0].contains("unwrap"));
        assert!(f.comment_lines[0].contains(".unwrap() here"));
        assert!(f.masked_lines[1].contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = parse("let s = r#\"panic!(\"x\")\"#;\nlet t = 2;\n");
        assert!(!f.masked_lines[0].contains("panic"));
        assert!(f.masked_lines[1].contains("let t"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = parse("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        // Lifetime survives, char literal contents blanked.
        assert!(f.masked_lines[0].contains("<'a>"));
        assert!(!f.masked_lines[0].contains("'x'"));
    }

    #[test]
    fn block_comments_nest() {
        let f = parse("/* outer /* inner */ still comment */ let x = 1;\n");
        assert!(f.masked_lines[0].contains("let x = 1;"));
        assert!(!f.masked_lines[0].contains("outer"));
    }

    #[test]
    fn cfg_test_region_spans_module() {
        let text = "\
fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}

fn more_lib() {}
";
        let f = parse(text);
        assert!(!f.in_test[0]);
        assert!(f.in_test[2]); // attribute line
        assert!(f.in_test[3]);
        assert!(f.in_test[5]);
        assert!(!f.in_test[8]);
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let f = parse("#[cfg(test)]\nuse foo::bar;\nfn real() {}\n");
        assert!(f.in_test[0]);
        assert!(f.in_test[1]);
        assert!(!f.in_test[2]);
    }

    #[test]
    fn waiver_parses_rule_and_justification() {
        let f = parse("// audit:allow(cast): lossless, minutes < 2^53\nlet x = t as f64;\n");
        assert!(f.is_waived("cast", 1));
        assert!(f.is_waived("cast", 2)); // comment-only line covers the next
        assert!(!f.is_waived("unwrap", 2));
        let ws = f.all_waivers();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].justification, "lossless, minutes < 2^53");
    }

    #[test]
    fn trailing_waiver_covers_only_its_line() {
        let f =
            parse("let x = t as f64; // audit:allow(cast): bounded by window\nlet y = u as f64;\n");
        assert!(f.is_waived("cast", 1));
        assert!(!f.is_waived("cast", 2));
    }

    #[test]
    fn placeholder_rule_names_are_not_waivers() {
        // Docs about the waiver syntax must not themselves parse as waivers.
        let f = parse(
            "// audit:allow(<rule>): placeholder\n// audit:allow(...): dots\n// audit:allow(): empty\n",
        );
        assert!(f.all_waivers().is_empty());
    }

    #[test]
    fn waiver_without_justification_is_recorded_empty() {
        let f = parse("// audit:allow(unwrap)\nfoo.unwrap();\n");
        let ws = f.all_waivers();
        assert_eq!(ws.len(), 1);
        assert!(ws[0].justification.is_empty());
    }
}
