//! Item-level parser: function/impl/mod boundaries, struct fields, and
//! string constants, on top of the [`lexer`](super::lexer).
//!
//! This is not a full Rust AST. It recovers exactly the structure the
//! interprocedural passes need:
//!
//! * every `fn` item, with its module path, enclosing `impl` type, body
//!   token range, visibility, and whether its return type carries a lock
//!   guard;
//! * `#[cfg(test)]` / `#[test]` gating, marked per token so test-only
//!   code is exempt from the production-path rules;
//! * struct fields of atomic type (for the atomic-ordering pass);
//! * `const`/`static` string and string-array values (so lock-class
//!   names routed through constants — e.g. the `laqy_sync::classes`
//!   registry — resolve statically).
//!
//! Bodies are kept as token ranges; the call-graph layer walks them with
//! its own block/statement tracking.

use super::lexer::{lex, TokKind, Token};

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (last path segment).
    pub impl_type: Option<String>,
    /// Module path within the file (inline `mod` nesting only).
    pub module: Vec<String>,
    /// Declared `pub` in any form, or an item of a trait or trait impl
    /// (visible wherever the trait is). Anything else is private to its
    /// module.
    pub is_pub: bool,
    /// Body as a half-open range of *code* token indices, excluding the
    /// outer braces. `None` for bodiless declarations.
    pub body: Option<(usize, usize)>,
    /// The return type mentions a guard type (`…Guard…`): acquisitions
    /// made inside escape to the caller instead of ending at `}`.
    pub ret_guard: bool,
    /// Inside `#[cfg(test)]` / `#[test]` gating.
    pub is_test: bool,
    /// `(line, col)` of the name token.
    pub span: (usize, usize),
}

/// A `const`/`static` with a statically-known string shape.
#[derive(Debug, Clone)]
pub enum ConstVal {
    /// `const N: &str = "…";`
    Str(String),
    /// `const N: [&str; K] = ["…", …];`
    StrArray(Vec<String>),
    /// `const N: … = path::to::OTHER;` — resolved against the other
    /// const tables (including the `laqy_sync::classes` registry).
    Alias(String),
}

/// One parsed source file.
pub struct ParsedFile {
    /// Path relative to the analysis root, `/`-separated.
    pub rel: String,
    /// Raw source text.
    pub src: String,
    /// Full token stream (including comments).
    pub toks: Vec<Token>,
    /// Indices into `toks` of non-trivia tokens, in order.
    pub code: Vec<usize>,
    /// Parsed function items.
    pub fns: Vec<FnItem>,
    /// String-valued constants, by name.
    pub consts: Vec<(String, ConstVal)>,
    /// Names of struct fields / statics with an atomic type.
    pub atomic_fields: Vec<String>,
    /// Per-`code`-index flag: token is inside test-gated code.
    pub in_test: Vec<bool>,
}

impl ParsedFile {
    /// The token behind code index `ci`.
    pub fn tok(&self, ci: usize) -> &Token {
        &self.toks[self.code[ci]]
    }

    /// Text of the token behind code index `ci`.
    pub fn text(&self, ci: usize) -> &str {
        self.toks[self.code[ci]].text(&self.src)
    }

    /// `(line, col)` of code token `ci`.
    pub fn span(&self, ci: usize) -> (usize, usize) {
        let t = self.tok(ci);
        (t.line, t.col)
    }
}

/// Atomic type names whose fields/statics feed the atomic-ordering pass.
const ATOMIC_TYPES: [&str; 10] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// Parse one file.
pub fn parse_file(rel: &str, src: String) -> ParsedFile {
    let toks = lex(&src);
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_trivia()).collect();
    let mut pf = ParsedFile {
        rel: rel.to_string(),
        in_test: vec![false; code.len()],
        src,
        toks,
        code,
        fns: Vec::new(),
        consts: Vec::new(),
        atomic_fields: Vec::new(),
    };
    let mut ctx = Ctx {
        module: Vec::new(),
        impl_type: None,
        trait_items: false,
        in_test: false,
    };
    let end = pf.code.len();
    parse_items(&mut pf, 0, end, &mut ctx);
    pf
}

struct Ctx {
    module: Vec<String>,
    impl_type: Option<String>,
    /// Inside a `trait` or an `impl Trait for Type` block.
    trait_items: bool,
    in_test: bool,
}

/// Find the code index of the delimiter matching the one at `open`
/// (which must be `(`, `[`, or `{`). Returns `hi - 1`'s successor bound
/// if unbalanced (tolerant: the range end).
fn match_delim(pf: &ParsedFile, open: usize, hi: usize) -> usize {
    let (o, c) = match pf.text(open) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        let t = pf.text(i);
        if t == o {
            depth += 1;
        } else if t == c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    hi.saturating_sub(1)
}

/// Skip a balanced generic parameter list starting at `<`. Returns the
/// index just past the closing `>`. Tolerates `>>` (lexed as one token).
fn skip_generics(pf: &ParsedFile, mut i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    while i < hi {
        match pf.text(i) {
            "<" | "<<" => depth += if pf.text(i) == "<<" { 2 } else { 1 },
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// Does the attribute token range `[lo, hi)` (inside `#[ … ]`) gate the
/// item out of production builds as test code?
fn attr_is_test(pf: &ParsedFile, lo: usize, hi: usize) -> bool {
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]` etc.: the token
    // `test` anywhere inside a `test`/`cfg` attribute is close enough —
    // false positives only exempt more code from lint rules, matching the
    // previous substring-based behaviour.
    let mut saw_cfg_or_test = false;
    let mut saw_test = false;
    for i in lo..hi {
        match pf.text(i) {
            "cfg" => saw_cfg_or_test = true,
            "test" => {
                saw_test = true;
                if i == lo {
                    saw_cfg_or_test = true;
                }
            }
            _ => {}
        }
    }
    saw_cfg_or_test && saw_test
}

fn mark_test(pf: &mut ParsedFile, lo: usize, hi: usize) {
    for flag in &mut pf.in_test[lo..hi.min(pf.code.len())] {
        *flag = true;
    }
}

/// Parse items in the code-index range `[lo, hi)`.
fn parse_items(pf: &mut ParsedFile, lo: usize, hi: usize, ctx: &mut Ctx) {
    let mut i = lo;
    while i < hi {
        // Collect attributes.
        let mut item_test = ctx.in_test;
        let item_start = i;
        while i < hi && pf.text(i) == "#" {
            let mut j = i + 1;
            if j < hi && pf.text(j) == "!" {
                j += 1;
            }
            if j < hi && pf.text(j) == "[" {
                let close = match_delim(pf, j, hi);
                if attr_is_test(pf, j + 1, close) {
                    item_test = true;
                }
                i = close + 1;
            } else {
                i += 1;
            }
        }
        if i >= hi {
            break;
        }
        // Skip visibility and misc qualifiers.
        let mut is_pub = ctx.trait_items;
        while i < hi && matches!(pf.text(i), "pub" | "async" | "unsafe" | "default") {
            is_pub |= pf.text(i) == "pub";
            if pf.text(i) == "pub" && i + 1 < hi && pf.text(i + 1) == "(" {
                let close = match_delim(pf, i + 1, hi);
                i = close + 1;
            } else {
                i += 1;
            }
        }
        if i >= hi {
            break;
        }
        let kw = pf.text(i).to_string();
        match kw.as_str() {
            "fn" => i = parse_fn(pf, i, hi, ctx, item_test, is_pub),
            "mod" => {
                // `mod name { … }` or `mod name;`
                let name = if i + 1 < hi {
                    pf.text(i + 1).to_string()
                } else {
                    String::new()
                };
                let mut j = i + 2;
                if j < hi && pf.text(j) == "{" {
                    let close = match_delim(pf, j, hi);
                    if item_test {
                        mark_test(pf, j, close + 1);
                    }
                    ctx.module.push(name);
                    let saved = ctx.in_test;
                    ctx.in_test = item_test;
                    parse_items(pf, j + 1, close, ctx);
                    ctx.in_test = saved;
                    ctx.module.pop();
                    i = close + 1;
                } else {
                    while j < hi && pf.text(j) != ";" {
                        j += 1;
                    }
                    i = j + 1;
                }
            }
            "impl" | "trait" => {
                let mut j = i + 1;
                if kw == "trait" {
                    // trait Name<…> { … } — the name is right here.
                    j += 1;
                }
                if j < hi && pf.text(j) == "<" {
                    j = skip_generics(pf, j, hi);
                }
                // Collect header tokens until `{` or `;`, tracking `for`.
                let mut seg_start = j;
                let mut body_open = None;
                let mut trait_items = kw == "trait";
                while j < hi {
                    match pf.text(j) {
                        "{" => {
                            body_open = Some(j);
                            break;
                        }
                        ";" => break,
                        "for" => {
                            seg_start = j + 1;
                            trait_items = true;
                        }
                        "where" => break,
                        "<" => j = skip_generics(pf, j, hi).saturating_sub(1),
                        _ => {}
                    }
                    j += 1;
                }
                // Find `{` if a where clause intervened.
                while body_open.is_none() && j < hi {
                    if pf.text(j) == "{" {
                        body_open = Some(j);
                    } else if pf.text(j) == ";" {
                        break;
                    }
                    j += 1;
                }
                let ty = if kw == "trait" {
                    Some(pf.text(i + 1).to_string())
                } else {
                    impl_type_name(pf, seg_start, body_open.unwrap_or(hi))
                };
                if let Some(open) = body_open {
                    let close = match_delim(pf, open, hi);
                    if item_test {
                        mark_test(pf, open, close + 1);
                    }
                    let saved_ty = ctx.impl_type.take();
                    let saved_test = ctx.in_test;
                    let saved_trait = ctx.trait_items;
                    ctx.impl_type = ty;
                    ctx.in_test = item_test;
                    ctx.trait_items = trait_items;
                    parse_items(pf, open + 1, close, ctx);
                    ctx.trait_items = saved_trait;
                    ctx.in_test = saved_test;
                    ctx.impl_type = saved_ty;
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "struct" | "enum" | "union" => {
                let mut j = i + 2; // past kw + name
                if j < hi && pf.text(j) == "<" {
                    j = skip_generics(pf, j, hi);
                }
                while j < hi && !matches!(pf.text(j), "{" | "(" | ";") {
                    j += 1;
                }
                if j < hi && pf.text(j) == "{" {
                    let close = match_delim(pf, j, hi);
                    if kw == "struct" {
                        collect_atomic_fields(pf, j + 1, close);
                    }
                    if item_test {
                        mark_test(pf, item_start, close + 1);
                    }
                    i = close + 1;
                } else if j < hi && pf.text(j) == "(" {
                    let close = match_delim(pf, j, hi);
                    i = close + 1;
                    while i < hi && pf.text(i) != ";" {
                        i += 1;
                    }
                    i += 1;
                } else {
                    i = j + 1;
                }
            }
            "const" | "static" => {
                // const NAME: TYPE = VALUE ;  (also `static mut`).
                let mut j = i + 1;
                if j < hi && pf.text(j) == "mut" {
                    j += 1;
                }
                let name_ci = j;
                // Find `=` then the value; find terminating `;` at depth 0.
                let mut eq = None;
                let mut k = j;
                let mut depth = 0i32;
                while k < hi {
                    match pf.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=" if depth == 0 && eq.is_none() => eq = Some(k),
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(eq) = eq {
                    let name = pf.text(name_ci).to_string();
                    if let Some(val) = parse_const_value(pf, eq + 1, k) {
                        pf.consts.push((name.clone(), val));
                    }
                    // `static NAME: AtomicU64 = …` counts as an atomic
                    // "field" for receiver matching.
                    if (name_ci + 1) < k
                        && (name_ci + 1..eq).any(|c| ATOMIC_TYPES.contains(&pf.text(c)))
                    {
                        pf.atomic_fields.push(name);
                    }
                }
                i = k + 1;
            }
            "macro_rules" => {
                let mut j = i + 1;
                while j < hi && pf.text(j) != "{" {
                    j += 1;
                }
                if j < hi {
                    i = match_delim(pf, j, hi) + 1;
                } else {
                    i = hi;
                }
            }
            "use" | "type" | "extern" => {
                while i < hi && pf.text(i) != ";" {
                    if pf.text(i) == "{" {
                        i = match_delim(pf, i, hi);
                    }
                    i += 1;
                }
                i += 1;
            }
            _ => {
                // Unknown token at item level (macro invocation, stray
                // punctuation): advance past it, skipping balanced groups.
                if matches!(pf.text(i), "{" | "(" | "[") {
                    i = match_delim(pf, i, hi) + 1;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// The last-segment type name of an impl header range (`path::To<T>` →
/// `To`; `&mut Foo` → `Foo`).
fn impl_type_name(pf: &ParsedFile, lo: usize, hi: usize) -> Option<String> {
    let mut last = None;
    let mut i = lo;
    while i < hi {
        let t = pf.text(i);
        if t == "<" {
            break;
        }
        if pf.tok(i).kind == TokKind::Ident && !matches!(t, "dyn" | "mut" | "crate" | "super") {
            last = Some(t.to_string());
        }
        i += 1;
    }
    last
}

/// Record struct fields with an atomic type from the body range of a
/// `struct { … }`.
fn collect_atomic_fields(pf: &mut ParsedFile, lo: usize, hi: usize) {
    let mut i = lo;
    while i < hi {
        // Field shape: [attrs] [pub[(..)]] name : type , — scan one field.
        while i < hi && pf.text(i) == "#" {
            if i + 1 < hi && pf.text(i + 1) == "[" {
                i = match_delim(pf, i + 1, hi) + 1;
            } else {
                i += 1;
            }
        }
        if i < hi && pf.text(i) == "pub" {
            i += 1;
            if i < hi && pf.text(i) == "(" {
                i = match_delim(pf, i, hi) + 1;
            }
        }
        if i + 1 >= hi || pf.tok(i).kind != TokKind::Ident || pf.text(i + 1) != ":" {
            // Not a named field; skip to next comma at depth 0.
            i = skip_past_comma(pf, i, hi);
            continue;
        }
        let name = pf.text(i).to_string();
        let ty_start = i + 2;
        let ty_end = {
            let mut j = ty_start;
            let mut depth = 0i32;
            while j < hi {
                match pf.text(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "," if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            j
        };
        if (ty_start..ty_end).any(|c| ATOMIC_TYPES.contains(&pf.text(c))) {
            pf.atomic_fields.push(name);
        }
        i = ty_end + 1;
    }
}

fn skip_past_comma(pf: &ParsedFile, mut i: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    while i < hi {
        match pf.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    hi
}

/// Parse a const initializer as a string or array-of-strings value.
fn parse_const_value(pf: &ParsedFile, lo: usize, hi: usize) -> Option<ConstVal> {
    if lo >= hi {
        return None;
    }
    if pf.tok(lo).kind == TokKind::Str {
        return Some(ConstVal::Str(unquote(pf.text(lo))));
    }
    if pf.text(lo) == "[" {
        let close = match_delim(pf, lo, hi);
        let mut items = Vec::new();
        for i in lo + 1..close {
            match pf.tok(i).kind {
                TokKind::Str => items.push(unquote(pf.text(i))),
                _ if pf.text(i) == "," => {}
                _ => return None,
            }
        }
        if !items.is_empty() {
            return Some(ConstVal::StrArray(items));
        }
    }
    // Alias to another const: `const A: &str = path::to::B;`
    if (lo..hi).all(|i| pf.tok(i).kind == TokKind::Ident || pf.text(i) == "::") {
        if let Some(last) = (lo..hi).rev().find(|&i| pf.tok(i).kind == TokKind::Ident) {
            return Some(ConstVal::Alias(pf.text(last).to_string()));
        }
    }
    None
}

/// Strip the quotes (and any raw-string hashes/prefixes) off a lexed
/// string literal.
pub fn unquote(lit: &str) -> String {
    let inner = lit.trim_start_matches(['b', 'r', 'c']).trim_matches('#');
    inner.trim_matches('"').to_string()
}

/// Parse a `fn` item starting at the `fn` keyword (code index `i`).
/// Returns the index just past the item.
fn parse_fn(
    pf: &mut ParsedFile,
    i: usize,
    hi: usize,
    ctx: &Ctx,
    item_test: bool,
    is_pub: bool,
) -> usize {
    let name_ci = i + 1;
    if name_ci >= hi {
        return hi;
    }
    let name = pf.text(name_ci).to_string();
    let mut j = name_ci + 1;
    if j < hi && pf.text(j) == "<" {
        j = skip_generics(pf, j, hi);
    }
    // Parameter list.
    if j < hi && pf.text(j) == "(" {
        j = match_delim(pf, j, hi) + 1;
    }
    // Return type + where clause: everything until `{` or `;` at depth 0.
    let ret_start = j;
    let mut depth = 0i32;
    let mut body_open = None;
    while j < hi {
        match pf.text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "{" if depth <= 0 => {
                body_open = Some(j);
                break;
            }
            ";" if depth <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let ret_guard = (ret_start..body_open.unwrap_or(j)).any(|c| pf.text(c).contains("Guard"));
    let span = pf.span(name_ci);
    match body_open {
        Some(open) => {
            let close = match_delim(pf, open, hi);
            if item_test {
                mark_test(pf, i, close + 1);
            }
            pf.fns.push(FnItem {
                name,
                impl_type: ctx.impl_type.clone(),
                module: ctx.module.clone(),
                is_pub,
                body: Some((open + 1, close)),
                ret_guard,
                is_test: item_test,
                span,
            });
            close + 1
        }
        None => {
            pf.fns.push(FnItem {
                name,
                impl_type: ctx.impl_type.clone(),
                module: ctx.module.clone(),
                is_pub,
                body: None,
                ret_guard,
                is_test: item_test,
                span,
            });
            j + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file("t.rs", src.to_string())
    }

    #[test]
    fn fns_with_impl_and_module_context() {
        let pf = parse(
            "impl Foo { fn a(&self) -> u32 { 1 } }\n\
             mod inner { fn b() {} }\n\
             fn c<T: Clone>(x: T) -> RwLockReadGuard<'_, T> { loop {} }",
        );
        let names: Vec<(String, Option<String>, Vec<String>)> = pf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.module.clone()))
            .collect();
        assert_eq!(names[0], ("a".into(), Some("Foo".into()), vec![]));
        assert_eq!(names[1], ("b".into(), None, vec!["inner".into()]));
        assert_eq!(names[2].0, "c");
        assert!(pf.fns[2].ret_guard, "guard return detected");
        assert!(!pf.fns[0].ret_guard);
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let pf = parse("impl std::ops::Drop for Wal<'_> { fn drop(&mut self) {} }");
        assert_eq!(pf.fns[0].impl_type.as_deref(), Some("Wal"));
    }

    #[test]
    fn visibility_is_pub_or_a_trait_item() {
        let pf = parse(
            "fn a() {}\n\
             pub(crate) fn b() {}\n\
             impl S { fn c(&self) {} pub fn d(&self) {} }\n\
             impl Hasher for S { fn finish(&self) -> u64 { 0 } }\n\
             trait T { fn e(&self); }\n\
             mod inner { fn f() {} }",
        );
        let vis: Vec<(&str, bool)> = (pf.fns.iter())
            .map(|f| (f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            vis,
            vec![
                ("a", false),
                ("b", true),
                ("c", false),
                ("d", true),
                ("finish", true),
                ("e", true),
                ("f", false),
            ]
        );
    }

    #[test]
    fn cfg_test_marks_tokens_and_fns() {
        let pf =
            parse("fn hot() {}\n#[cfg(test)]\nmod tests { fn t() { hot() } }\n#[test]\nfn t2() {}");
        assert!(!pf.fns[0].is_test);
        assert!(pf.fns[1].is_test);
        assert!(pf.fns[2].is_test);
        // A token inside the test mod is marked.
        let inside = pf
            .code
            .iter()
            .enumerate()
            .find(|(_, &ti)| pf.toks[ti].text(&pf.src) == "t")
            .map(|(ci, _)| ci)
            .unwrap();
        assert!(pf.in_test[inside]);
    }

    #[test]
    fn atomic_fields_and_string_consts() {
        let pf = parse(
            "struct C { n: AtomicU64, v: Vec<AtomicUsize>, s: String }\n\
             const NAME: &str = \"laqy.wal\";\n\
             const ARR: [&str; 2] = [\"fix.pool0\", \"fix.pool1\"];\n\
             static NEXT: AtomicU64 = AtomicU64::new(1);",
        );
        assert_eq!(pf.atomic_fields, vec!["n", "v", "NEXT"]);
        assert!(matches!(
            &pf.consts[0],
            (n, ConstVal::Str(v)) if n == "NAME" && v == "laqy.wal"
        ));
        assert!(matches!(
            &pf.consts[1],
            (n, ConstVal::StrArray(v)) if n == "ARR" && v.len() == 2
        ));
    }

    #[test]
    fn bodiless_and_generic_fns_do_not_derail() {
        let pf = parse(
            "trait T { fn decl(&self); fn dflt(&self) { } }\n\
             fn generic<F: FnOnce() -> bool>(f: F) where F: Send { f(); }",
        );
        let names: Vec<&str> = pf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["decl", "dflt", "generic"]);
        assert_eq!(pf.fns[0].body, None);
        assert!(pf.fns[1].body.is_some());
        assert_eq!(pf.fns[0].impl_type.as_deref(), Some("T"));
    }
}
