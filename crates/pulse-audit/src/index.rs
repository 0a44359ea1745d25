//! Brace-matched item index over the token stream.
//!
//! One [`FileIndex`] per source file records the facts the semantic rules
//! reason about:
//!
//! - **functions** — name, parameter names, body token span, and whether the
//!   return type is an unordered hash container;
//! - **bindings** — `let`/`static` bindings and struct fields classified by
//!   type ([`BindKind`]): unordered hash containers, `AtomicBool` control
//!   flags, synchronized wrappers, or plain data;
//! - **spawn sites** — `crossbeam::thread::scope` / `std::thread::scope`
//!   regions and the `.spawn(...)` closures inside them.
//!
//! A [`CrossFacts`] summary aggregates the *cross-file* facts (currently:
//! the names of functions returning hash containers) over the whole
//! workspace, so a rule checking file B can know that a function defined in
//! file A hands it unordered data.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lex::{matching_close, tokenize, Token, TokenKind};
use crate::source::SourceFile;

/// Classification of a binding's type, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindKind {
    /// `HashMap` / `HashSet`: iteration order is unspecified.
    HashContainer {
        /// The declared value type mentions `f64`/`f32` (order-sensitive
        /// float reductions over it are flagged).
        float_values: bool,
    },
    /// `AtomicBool`: a cross-thread control flag.
    AtomicBool,
    /// Synchronized or order-insensitive shared state (`Mutex`, `RwLock`,
    /// numeric atomics used as counters).
    Sync,
    /// Anything else.
    Other,
}

/// A named binding: `let` (optionally `mut`), `static`, or struct field.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound identifier (for fields, the field name).
    pub name: String,
    /// Type classification.
    pub kind: BindKind,
    /// Declared with `mut` (fields count as mutable).
    pub mutable: bool,
    /// 1-based declaration line.
    pub line: usize,
    /// Token index of the name token.
    pub token: usize,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter identifier names (patterns more complex than
    /// `[mut] name: Type` contribute no names).
    pub params: Vec<String>,
    /// The declared return type mentions `HashMap`/`HashSet`.
    pub returns_hash: bool,
    /// Token span `[start, end]` of the body braces; `None` for bodyless
    /// trait-method signatures.
    pub body: Option<(usize, usize)>,
}

/// A `.spawn(...)` closure inside a thread-scope region.
#[derive(Debug, Clone)]
pub struct SpawnSite {
    /// Token index of the `scope` call this spawn belongs to.
    pub scope_token: usize,
    /// 1-based line of the `.spawn` call.
    pub line: usize,
    /// Token span `[start, end]` of the spawn closure body braces.
    pub body: (usize, usize),
}

/// Everything the semantic rules know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Token stream (see [`crate::lex`]).
    pub tokens: Vec<Token>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// All classified bindings (lets, statics, struct fields).
    pub bindings: Vec<Binding>,
    /// All spawn closures inside thread-scope regions.
    pub spawns: Vec<SpawnSite>,
}

impl FileIndex {
    /// Build the index for one file.
    pub fn build(file: &SourceFile) -> Self {
        let tokens = tokenize(file);
        let fns = index_fns(&tokens);
        let bindings = index_bindings(&tokens);
        let spawns = index_spawns(&tokens);
        Self {
            tokens,
            fns,
            bindings,
            spawns,
        }
    }

    /// The innermost function whose body contains token `at`.
    pub fn enclosing_fn(&self, at: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= at && at <= e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
    }

    /// Binding visible at a use of identifier `name` (last declaration at or
    /// before token `at`; falls back to any declaration, so struct fields
    /// used via `self.name` resolve too).
    pub fn binding(&self, name: &str, at: usize) -> Option<&Binding> {
        self.bindings
            .iter()
            .rfind(|b| b.name == name && b.token <= at)
            .or_else(|| self.bindings.iter().find(|b| b.name == name))
    }
}

/// Workspace-wide facts shared by every file's rule run.
#[derive(Debug, Clone, Default)]
pub struct CrossFacts {
    /// Names of functions (any file) whose return type is a hash container.
    pub hash_returning_fns: std::collections::BTreeSet<String>,
}

impl CrossFacts {
    /// Aggregate the facts every indexed file contributes.
    pub fn of<'a>(indexes: impl IntoIterator<Item = &'a FileIndex>) -> Self {
        let hash_returning_fns = indexes
            .into_iter()
            .flat_map(|ix| &ix.fns)
            .filter(|f| f.returns_hash)
            .map(|f| f.name.clone())
            .collect();
        Self { hash_returning_fns }
    }
}

/// Index plus cross-facts handed to every rule invocation.
#[derive(Debug, Default)]
pub struct Context {
    /// Workspace-wide facts.
    pub cross: CrossFacts,
    indexes: BTreeMap<PathBuf, FileIndex>,
}

impl Context {
    /// Build a full context for an in-memory file set (tests and
    /// [`crate::audit_files`]).
    pub fn of(files: &[SourceFile]) -> Self {
        let indexes: BTreeMap<PathBuf, FileIndex> = files
            .iter()
            .map(|f| (f.path.clone(), FileIndex::build(f)))
            .collect();
        Self {
            cross: CrossFacts::of(indexes.values()),
            indexes,
        }
    }

    /// The index of `path`, when it was built this run.
    pub fn index_of(&self, path: &Path) -> Option<&FileIndex> {
        self.indexes.get(path)
    }
}

/// Method names that iterate a container in storage order.
pub const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens
        .get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// Classify a type/initializer token range.
fn classify(tokens: &[Token]) -> BindKind {
    let has = |name: &str| tokens.iter().any(|t| t.is_ident(name));
    if has("HashMap") || has("HashSet") {
        return BindKind::HashContainer {
            float_values: has("f64") || has("f32"),
        };
    }
    if has("AtomicBool") {
        return BindKind::AtomicBool;
    }
    const SYNC: &[&str] = &[
        "Mutex",
        "RwLock",
        "AtomicUsize",
        "AtomicIsize",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "Condvar",
        "Barrier",
        "Sender",
        "Receiver",
    ];
    if SYNC.iter().any(|s| has(s)) {
        return BindKind::Sync;
    }
    BindKind::Other
}

/// Scan for `fn` items and parse name, params, return type and body span.
fn index_fns(tokens: &[Token]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            i += 1;
            continue;
        };
        let name = name.to_owned();
        let line = tokens[i].line;
        // Parameter list: first `(` after the name (skips generics, which
        // contain no parens).
        let Some(open) = (i + 2..tokens.len()).find(|&j| tokens[j].is_punct("(")) else {
            i += 1;
            continue;
        };
        let Some(close) = matching_close(tokens, open) else {
            break;
        };
        let mut params = Vec::new();
        let mut depth = 0i64;
        for j in open + 1..close {
            match tokens[j].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                _ => {}
            }
            // `name :` at top level of the param list (skip `mut` markers).
            if depth == 0
                && tokens[j].kind == TokenKind::Ident
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
                && !tokens[j].is_ident("mut")
            {
                params.push(tokens[j].text.clone());
            }
            if depth == 0 && tokens[j].is_ident("self") {
                params.push("self".to_owned());
            }
        }
        // Return type: tokens between `->` and the body `{` / `;` / `where`.
        let mut returns_hash = false;
        let mut j = close + 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("-"))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(">"))
        {
            j += 2;
            let ret_start = j;
            let mut depth = 0i64;
            while j < tokens.len() {
                let t = &tokens[j];
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" | ";" if depth == 0 => break,
                    "where" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            returns_hash = matches!(
                classify(&tokens[ret_start..j]),
                BindKind::HashContainer { .. }
            );
        }
        // Body: next `{` or `;` at top level from the params on.
        let mut body = None;
        let mut k = close + 1;
        let mut depth = 0i64;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => break,
                "{" if depth == 0 => {
                    if let Some(end) = matching_close(tokens, k) {
                        body = Some((k, end));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnItem {
            name,
            line,
            params,
            returns_hash,
            body,
        });
        // Continue scanning *inside* the body too (nested fns, closures).
        i += 2;
    }
    out
}

/// Scan for `let` / `static` bindings and struct fields.
fn index_bindings(tokens: &[Token]) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("let") || t.is_ident("static") {
            let mut j = i + 1;
            let mut mutable = false;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                mutable = true;
                j += 1;
            }
            let Some(name) = ident_at(tokens, j) else {
                i += 1;
                continue;
            };
            // Statement tail (`: Type = init ;`): classify over everything
            // up to the terminating `;` at this nesting level.
            let mut end = j + 1;
            let mut depth = 0i64;
            while end < tokens.len() {
                match tokens[end].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            out.push(Binding {
                name: name.to_owned(),
                kind: classify(&tokens[j + 1..end]),
                mutable,
                line: tokens[j].line,
                token: j,
            });
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") {
            // Parameters are bindings visible throughout the body:
            // `name: Type` at the top level of the parameter list. The body
            // itself is still scanned normally for `let` bindings.
            if let Some(open) = (i + 1..tokens.len().min(i + 24)).find(|&j| tokens[j].is_punct("("))
            {
                if let Some(close) = matching_close(tokens, open) {
                    index_params(tokens, open, close, &mut out);
                    i = close + 1;
                    continue;
                }
            }
        }
        if t.is_ident("struct") {
            if let Some(open) = (i + 1..tokens.len().min(i + 24)).find(|&j| {
                tokens[j].is_punct("{")
                    && tokens[..j]
                        .iter()
                        .skip(i)
                        .all(|t| !t.is_punct(";") && !t.is_punct("("))
            }) {
                if let Some(close) = matching_close(tokens, open) {
                    index_fields(tokens, open, close, &mut out);
                    i = open + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Record `name: Type` parameters of a fn signature as bindings. A `&mut`
/// (or `mut name`) parameter is mutable; everything else is read-only.
fn index_params(tokens: &[Token], open: usize, close: usize, out: &mut Vec<Binding>) {
    let mut j = open + 1;
    let mut depth = 0i64;
    while j < close {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            _ => {}
        }
        if depth == 0
            && tokens[j].kind == TokenKind::Ident
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
            && !tokens[j].is_ident("mut")
            && !tokens[j].is_ident("self")
        {
            // Type runs to the `,` at this level or the close paren.
            let mut end = j + 2;
            let mut d = 0i64;
            while end < close {
                match tokens[end].text.as_str() {
                    "(" | "[" | "{" | "<" => d += 1,
                    ")" | "]" | "}" | ">" => d -= 1,
                    "," if d == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            let ty = &tokens[j + 2..end];
            let pattern_mut = j > open + 1 && tokens[j - 1].is_ident("mut");
            out.push(Binding {
                name: tokens[j].text.clone(),
                kind: classify(ty),
                mutable: pattern_mut || ty.iter().any(|t| t.is_ident("mut")),
                line: tokens[j].line,
                token: j,
            });
            j = end;
            continue;
        }
        j += 1;
    }
}

/// Record `name: Type` fields of a struct body as mutable bindings.
fn index_fields(tokens: &[Token], open: usize, close: usize, out: &mut Vec<Binding>) {
    let mut j = open + 1;
    let mut depth = 0i64;
    while j < close {
        match tokens[j].text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            _ => {}
        }
        if depth == 0
            && tokens[j].kind == TokenKind::Ident
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
            && !tokens[j].is_ident("pub")
        {
            // Field type runs to the `,` at this level or the close brace.
            let mut end = j + 2;
            let mut d = 0i64;
            while end < close {
                match tokens[end].text.as_str() {
                    "(" | "[" | "{" | "<" => d += 1,
                    ")" | "]" | "}" | ">" => d -= 1,
                    "," if d == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            out.push(Binding {
                name: tokens[j].text.clone(),
                kind: classify(&tokens[j + 2..end]),
                mutable: true,
                line: tokens[j].line,
                token: j,
            });
            j = end;
            continue;
        }
        j += 1;
    }
}

/// Find `crossbeam::thread::scope(...)` / `thread::scope(...)` calls and the
/// `.spawn(...)` closures inside their closure bodies.
fn index_spawns(tokens: &[Token]) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("scope") {
            continue;
        }
        // Qualified `thread::scope` (crossbeam or std) only.
        let qualified = i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("thread");
        if !qualified || !tokens.get(i + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let Some(call_end) = matching_close(tokens, i + 1) else {
            continue;
        };
        // Closure body: first `{` inside the call.
        let Some(body_open) = (i + 2..call_end).find(|&j| tokens[j].is_punct("{")) else {
            continue;
        };
        let Some(body_close) = matching_close(tokens, body_open) else {
            continue;
        };
        // `.spawn(` inside the scope body.
        let mut j = body_open;
        while j + 2 < body_close {
            if tokens[j].is_punct(".")
                && tokens[j + 1].is_ident("spawn")
                && tokens.get(j + 2).is_some_and(|t| t.is_punct("("))
            {
                if let Some(spawn_end) = matching_close(tokens, j + 2) {
                    if let Some(sb_open) = (j + 3..spawn_end).find(|&k| tokens[k].is_punct("{")) {
                        if let Some(sb_close) = matching_close(tokens, sb_open) {
                            out.push(SpawnSite {
                                scope_token: i,
                                line: tokens[j + 1].line,
                                body: (sb_open, sb_close),
                            });
                        }
                    }
                    j = spawn_end;
                    continue;
                }
            }
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn index(text: &str) -> FileIndex {
        FileIndex::build(&SourceFile::parse(PathBuf::from("x.rs"), "demo", text))
    }

    #[test]
    fn fn_name_params_and_body_span() {
        let ix = index("pub fn add(a: u64, mut b: u64) -> u64 {\n    a + b\n}\n");
        assert_eq!(ix.fns.len(), 1);
        let f = &ix.fns[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params, ["a", "b"]);
        assert!(!f.returns_hash);
        let (s, e) = f.body.expect("has body");
        assert!(ix.tokens[s].is_punct("{") && ix.tokens[e].is_punct("}"));
    }

    #[test]
    fn hash_returning_fn_is_recorded_as_cross_fact() {
        let ix = index(
            "use std::collections::HashMap;\n\
             pub fn by_app() -> HashMap<String, f64> { HashMap::new() }\n",
        );
        assert!(ix.fns[0].returns_hash);
        let cross = CrossFacts::of([&ix]);
        assert!(cross.hash_returning_fns.contains("by_app"));
    }

    #[test]
    fn let_bindings_are_classified() {
        let ix = index(
            "fn f() {\n\
             let m = std::collections::HashMap::<String, f64>::new();\n\
             let s: HashSet<u32> = HashSet::new();\n\
             let flag = AtomicBool::new(false);\n\
             let n = AtomicUsize::new(0);\n\
             let mut v = Vec::new();\n\
             }\n",
        );
        let kind = |name: &str| ix.bindings.iter().find(|b| b.name == name).map(|b| b.kind);
        assert_eq!(
            kind("m"),
            Some(BindKind::HashContainer { float_values: true })
        );
        assert_eq!(
            kind("s"),
            Some(BindKind::HashContainer {
                float_values: false
            })
        );
        assert_eq!(kind("flag"), Some(BindKind::AtomicBool));
        assert_eq!(kind("n"), Some(BindKind::Sync));
        assert_eq!(kind("v"), Some(BindKind::Other));
        assert!(
            ix.bindings
                .iter()
                .find(|b| b.name == "v")
                .expect("v")
                .mutable
        );
    }

    #[test]
    fn struct_fields_are_indexed() {
        let ix = index(
            "pub struct S {\n\
             pub costs: std::collections::HashMap<String, f64>,\n\
             abort: AtomicBool,\n\
             total: f64,\n\
             }\n",
        );
        let kind = |name: &str| ix.bindings.iter().find(|b| b.name == name).map(|b| b.kind);
        assert_eq!(
            kind("costs"),
            Some(BindKind::HashContainer { float_values: true })
        );
        assert_eq!(kind("abort"), Some(BindKind::AtomicBool));
        assert_eq!(kind("total"), Some(BindKind::Other));
    }

    #[test]
    fn tuple_structs_and_unit_structs_do_not_confuse_fields() {
        let ix = index("pub struct A(pub u64);\npub struct B;\nfn f() {}\n");
        assert!(ix.bindings.is_empty());
        assert_eq!(ix.fns.len(), 1);
    }

    #[test]
    fn spawn_sites_inside_thread_scope() {
        let ix = index(
            "fn run() {\n\
             crossbeam::thread::scope(|s| {\n\
             s.spawn(|_| { work(1); });\n\
             s.spawn(|_| { work(2); });\n\
             });\n\
             }\n",
        );
        assert_eq!(ix.spawns.len(), 2);
        assert_eq!(ix.spawns[0].line, 3);
        assert_eq!(ix.spawns[1].line, 4);
        let (s, e) = ix.spawns[0].body;
        assert!(ix.tokens[s].is_punct("{") && ix.tokens[e].is_punct("}"));
    }

    #[test]
    fn unqualified_scope_calls_are_ignored() {
        let ix = index("fn f() { let scope = 1; g(scope); my::scope(|s| {}); }\n");
        assert!(ix.spawns.is_empty());
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let ix = index("fn outer() {\n fn inner() { let x = 1; }\n let y = 2;\n}\n");
        let x_tok = ix
            .tokens
            .iter()
            .position(|t| t.is_ident("x"))
            .expect("x token");
        assert_eq!(ix.enclosing_fn(x_tok).expect("inner").name, "inner");
        let y_tok = ix
            .tokens
            .iter()
            .position(|t| t.is_ident("y"))
            .expect("y token");
        assert_eq!(ix.enclosing_fn(y_tok).expect("outer").name, "outer");
    }
}
