//! The five determinism lints, as token-stream scans.
//!
//! Each scan walks the lexed token stream of one file (comments and
//! string literals already separated out by the lexer, so neither can
//! false-positive), skips test regions (`#[cfg(test)]` / `#[test]`
//! items — the rules govern *protocol* code), and emits findings at
//! exact `line:col` positions.

use crate::diag::{Finding, LintId};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// Tokens with comments stripped, each remembering its index's source
/// position. All grammar-level scans run on this view.
fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| !t.is_comment()).collect()
}

/// Line ranges (inclusive) covered by test-only items: any item whose
/// attributes include `#[test]` or a `cfg(...)` mentioning `test`
/// (without `not`, so `#[cfg(not(test))]` stays in scope). Handles
/// both whole `#[cfg(test)] mod tests { ... }` blocks and single
/// `#[cfg(test)] fn helper() { ... }` items.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let toks = code_tokens(tokens);
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Collect the attribute group `#[ ... ]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if toks[j].kind == TokenKind::Ident {
                idents.push(&toks[j].text);
            }
            j += 1;
        }
        let is_test_attr =
            (idents.contains(&"cfg") && idents.contains(&"test") && !idents.contains(&"not"))
                || idents == ["test"];
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j;
        while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
            let mut d = 0usize;
            k += 1;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // The item extends to its matching close brace, or to a `;`
        // reached before any brace opens (e.g. `#[cfg(test)] mod t;`).
        let mut brace = 0usize;
        let mut end_line = toks[attr_start].line;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                brace += 1;
            } else if toks[k].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    end_line = toks[k].line;
                    break;
                }
            } else if toks[k].is_punct(';') && brace == 0 {
                end_line = toks[k].line;
                break;
            }
            k += 1;
        }
        regions.push((toks[attr_start].line, end_line));
        i = k.max(j);
        i += 1;
    }
    regions
}

fn in_test_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions
        .iter()
        .any(|&(start, end)| start <= line && line <= end)
}

fn finding(lint: LintId, file: &str, token: &Token, message: String) -> Finding {
    Finding {
        lint,
        file: file.to_string(),
        line: token.line,
        col: token.col,
        message,
    }
}

/// MLPT-W001 — wall-clock APIs. Protocol code must read the virtual
/// clock; `Instant::now()` and anything `SystemTime` reads the host's.
pub fn w001_wall_clock(file: &str, tokens: &[Token], regions: &[(u32, u32)]) -> Vec<Finding> {
    let toks = code_tokens(tokens);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test_region(regions, t.line) {
            continue;
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            out.push(finding(
                LintId::W001,
                file,
                t,
                "`Instant::now()` reads the wall clock — protocol code must take timestamps \
                 from the owning lane's virtual clock (determinism rules 1 and 4)"
                    .to_string(),
            ));
        }
        if t.is_ident("SystemTime") {
            out.push(finding(
                LintId::W001,
                file,
                t,
                "`SystemTime` reads the wall clock — protocol code must take timestamps \
                 from the owning lane's virtual clock (determinism rules 1 and 4)"
                    .to_string(),
            ));
        }
    }
    out
}

/// MLPT-W002 — ambient randomness. Every random draw must come from a
/// seeded ChaCha8 stream so any run replays from its seed.
pub fn w002_ambient_randomness(
    file: &str,
    tokens: &[Token],
    regions: &[(u32, u32)],
) -> Vec<Finding> {
    const AMBIENT: [&str; 5] = [
        "thread_rng",
        "from_entropy",
        "from_os_rng",
        "OsRng",
        "getrandom",
    ];
    let toks = code_tokens(tokens);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test_region(regions, t.line) {
            continue;
        }
        if t.kind == TokenKind::Ident && AMBIENT.contains(&t.text.as_str()) {
            out.push(finding(
                LintId::W002,
                file,
                t,
                format!(
                    "`{}` draws ambient (OS) randomness — all randomness must be seeded \
                     ChaCha8 so runs replay bit-identically from the seed (determinism rule 2)",
                    t.text
                ),
            ));
        }
        // `rand::random()` — the two-token path form, so a local
        // variable merely *named* `random` stays clean.
        if t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("random"))
        {
            out.push(finding(
                LintId::W002,
                file,
                t,
                "`rand::random()` draws from the ambient thread RNG — all randomness must \
                 be seeded ChaCha8 (determinism rule 2)"
                    .to_string(),
            ));
        }
    }
    out
}

/// Methods whose call on a hash collection visits entries in hash
/// order.
const ITER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "retain_mut",
];

/// Collects identifiers declared with a `HashMap`/`HashSet` type in
/// this file (fields, `let` bindings, parameters) outside test
/// regions. Two shapes:
///
/// * `name: [&][mut] [std::collections::] HashMap<...>` — the first
///   concrete type ident after the `:` must be the hash type itself,
///   so `x: Option<HashMap<...>>` or `x: Vec<(K, HashSet<V>)>` do
///   *not* register `x` (iterating those is ordered by the wrapper).
/// * `name = [std::collections::] HashMap::new()` (also
///   `with_capacity`, `from`, `default`) — `let` bindings and
///   assignments without a type annotation.
fn hash_typed_names(toks: &[&Token], regions: &[(u32, u32)]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test_region(regions, t.line) {
            continue;
        }
        if !(t.text == "HashMap" || t.text == "HashSet") {
            continue;
        }
        // Walk backwards over tokens that may sit between the declared
        // name and the hash type: `:`/`=`, `&`, `mut`, lifetimes, and
        // the `std::collections::` path prefix.
        let mut j = i;
        let mut saw_separator = None;
        while j > 0 {
            j -= 1;
            let prev = toks[j];
            match prev.kind {
                TokenKind::Punct if prev.is_punct(':') || prev.is_punct('=') => {
                    // `::` path separator keeps scanning; a single `:`
                    // or `=` is the declaration separator.
                    if prev.is_punct(':') && j > 0 && toks[j - 1].is_punct(':') {
                        j -= 1;
                        continue;
                    }
                    saw_separator = Some(prev.text.clone());
                    break;
                }
                TokenKind::Punct if prev.is_punct('&') => continue,
                TokenKind::Lifetime => continue,
                TokenKind::Ident
                    if prev.text == "mut" || prev.text == "std" || prev.text == "collections" =>
                {
                    continue
                }
                _ => break,
            }
        }
        if saw_separator.is_none() {
            continue;
        }
        // The ident immediately before the separator is the name.
        while j > 0 {
            j -= 1;
            let prev = toks[j];
            if prev.kind == TokenKind::Ident {
                if prev.text != "mut" {
                    names.insert(prev.text.clone());
                }
                if prev.text == "mut" {
                    continue;
                }
                break;
            }
            break;
        }
    }
    names
}

/// MLPT-W003 — iteration over unordered hash collections in protocol
/// paths. Lookups are fine (`get`, `contains_key`, `insert`, `remove`
/// are order-free); *visiting entries* leaks hash order into whatever
/// consumes the visit — in protocol code, ultimately probe order.
pub fn w003_hash_iteration(file: &str, tokens: &[Token], regions: &[(u32, u32)]) -> Vec<Finding> {
    let toks = code_tokens(tokens);
    let names = hash_typed_names(&toks, regions);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test_region(regions, t.line) {
            continue;
        }
        // `name.iter()` / `name.retain(...)` / ... method-call form.
        if t.kind == TokenKind::Ident
            && names.contains(&t.text)
            && toks.get(i + 1).is_some_and(|a| a.is_punct('.'))
            && toks.get(i + 2).is_some_and(|a| {
                a.kind == TokenKind::Ident && ITER_METHODS.contains(&a.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|a| a.is_punct('('))
        {
            let method = &toks[i + 2].text;
            out.push(finding(
                LintId::W003,
                file,
                t,
                format!(
                    "`.{method}()` visits unordered `{}` entries in hash order — in protocol \
                     paths this leaks into probe order (determinism rules 3 and 5); use a \
                     `BTreeMap`/`BTreeSet`, or collect-and-sort before iterating",
                    t.text
                ),
            ));
        }
        // `for x in [&][mut] name { ... }` — direct for-loop form over
        // a plain place expression (method-call forms are caught
        // above).
        if t.is_ident("for") {
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                let tk = toks[j];
                if tk.is_punct('(') || tk.is_punct('[') {
                    depth += 1;
                } else if tk.is_punct(')') || tk.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && tk.is_ident("in") {
                    break;
                }
                j += 1;
            }
            let expr_start = j + 1;
            let mut expr_end = expr_start;
            while expr_end < toks.len() && !toks[expr_end].is_punct('{') {
                expr_end += 1;
            }
            let expr = &toks[expr_start..expr_end.min(toks.len())];
            let plain = expr.iter().all(|tk| {
                tk.is_punct('&')
                    || tk.is_punct('.')
                    || tk.kind == TokenKind::Ident
                    || tk.kind == TokenKind::Number
            });
            if plain {
                if let Some(last) = expr.last() {
                    if last.kind == TokenKind::Ident && names.contains(&last.text) {
                        out.push(finding(
                            LintId::W003,
                            file,
                            last,
                            format!(
                                "`for` loop visits unordered `{}` entries in hash order — in \
                                 protocol paths this leaks into probe order (determinism rules \
                                 3 and 5); use a `BTreeMap`/`BTreeSet`, or collect-and-sort \
                                 before iterating",
                                last.text
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// MLPT-W004 — panic-class calls in engine non-test code. The engine
/// has typed surfaces (`TraceOutcome::Partial`, `WireError`) for
/// everything genuinely fallible; a panic in a sweep takes down every
/// other destination's session with it.
pub fn w004_panic_class(file: &str, tokens: &[Token], regions: &[(u32, u32)]) -> Vec<Finding> {
    let toks = code_tokens(tokens);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test_region(regions, t.line) {
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
        };
        let macro_call =
            |name: &str| t.text == name && toks.get(i + 1).is_some_and(|a| a.is_punct('!'));
        if method_call("unwrap") || method_call("expect") {
            out.push(finding(
                LintId::W004,
                file,
                t,
                format!(
                    "`.{}()` can panic mid-sweep — convert genuinely fallible paths to the \
                     typed `TraceOutcome`/`WireError` surfaces, or pragma provably \
                     infallible ones with the invariant as the reason",
                    t.text
                ),
            ));
        } else if macro_call("panic") || macro_call("unreachable") {
            out.push(finding(
                LintId::W004,
                file,
                t,
                format!(
                    "`{}!` aborts the whole sweep — convert genuinely fallible paths to the \
                     typed `TraceOutcome`/`WireError` surfaces, or pragma provably \
                     infallible ones with the invariant as the reason",
                    t.text
                ),
            ));
        }
    }
    out
}

/// A struct definition relevant to the merge-exhaustiveness lint.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub file: String,
    pub line: u32,
    /// `(field name, line, col)` in declaration order.
    pub fields: Vec<(String, u32, u32)>,
}

/// A `fn merge`-style method body found in an inherent `impl NAME`
/// block.
#[derive(Debug, Clone)]
pub struct MergeFn {
    pub type_name: String,
    pub method: String,
    pub file: String,
    /// Every identifier mentioned anywhere in the method body.
    pub idents: BTreeSet<String>,
}

/// Extracts configured struct definitions and matching merge-method
/// bodies from one file (test regions excluded — a test double named
/// like the real struct must not satisfy the check).
pub fn w005_extract(
    file: &str,
    tokens: &[Token],
    regions: &[(u32, u32)],
    checks: &[(String, String)],
) -> (Vec<StructDef>, Vec<MergeFn>) {
    let toks = code_tokens(tokens);
    let mut structs = Vec::new();
    let mut merges = Vec::new();
    let struct_names: BTreeSet<&str> = checks.iter().map(|(s, _)| s.as_str()).collect();

    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if in_test_region(regions, t.line) {
            i += 1;
            continue;
        }
        if t.is_ident("struct")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && struct_names.contains(n.text.as_str())
            })
        {
            let name_tok = toks[i + 1];
            // Skip to the opening brace (tolerating generics) or a `;`
            // (unit struct — no fields to check).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j >= toks.len() || toks[j].is_punct(';') {
                i = j;
                continue;
            }
            let mut fields = Vec::new();
            let mut depth = 1usize;
            let mut expecting = true;
            j += 1;
            while j < toks.len() && depth > 0 {
                let tk = toks[j];
                if tk.is_punct('{') {
                    depth += 1;
                } else if tk.is_punct('}') {
                    depth -= 1;
                } else if depth == 1 {
                    if tk.is_punct('#') && toks.get(j + 1).is_some_and(|a| a.is_punct('[')) {
                        // Skip attribute group, still expecting a field.
                        let mut d = 0usize;
                        j += 1;
                        while j < toks.len() {
                            if toks[j].is_punct('[') {
                                d += 1;
                            } else if toks[j].is_punct(']') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                    } else if tk.is_punct(',') {
                        expecting = true;
                    } else if expecting && tk.is_ident("pub") {
                        // `pub` / `pub(crate)` — skip the visibility.
                        if toks.get(j + 1).is_some_and(|a| a.is_punct('(')) {
                            while j < toks.len() && !toks[j].is_punct(')') {
                                j += 1;
                            }
                        }
                    } else if expecting
                        && tk.kind == TokenKind::Ident
                        && toks.get(j + 1).is_some_and(|a| a.is_punct(':'))
                        && !toks.get(j + 2).is_some_and(|a| a.is_punct(':'))
                    {
                        fields.push((tk.text.clone(), tk.line, tk.col));
                        expecting = false;
                    } else {
                        expecting = false;
                    }
                }
                j += 1;
            }
            structs.push(StructDef {
                name: name_tok.text.clone(),
                file: file.to_string(),
                line: name_tok.line,
                fields,
            });
            i = j;
            continue;
        }
        // Inherent impl block: `impl NAME {` (the workspace's merge
        // methods live in inherent impls; trait impls are out of
        // scope for this lint).
        if t.is_ident("impl")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident && struct_names.contains(n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|a| a.is_punct('{'))
        {
            let type_name = toks[i + 1].text.clone();
            let methods: BTreeSet<&str> = checks
                .iter()
                .filter(|(s, _)| *s == type_name)
                .map(|(_, m)| m.as_str())
                .collect();
            let mut depth = 1usize;
            let mut j = i + 3;
            while j < toks.len() && depth > 0 {
                let tk = toks[j];
                if tk.is_punct('{') {
                    depth += 1;
                } else if tk.is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && tk.is_ident("fn")
                    && toks.get(j + 1).is_some_and(|n| {
                        n.kind == TokenKind::Ident && methods.contains(n.text.as_str())
                    })
                {
                    let method = toks[j + 1].text.clone();
                    // Skip the signature to the body's opening brace,
                    // then collect every ident until it closes.
                    let mut k = j + 2;
                    while k < toks.len() && !toks[k].is_punct('{') {
                        k += 1;
                    }
                    let mut body_depth = 0usize;
                    let mut idents = BTreeSet::new();
                    while k < toks.len() {
                        let b = toks[k];
                        if b.is_punct('{') {
                            body_depth += 1;
                        } else if b.is_punct('}') {
                            body_depth -= 1;
                            if body_depth == 0 {
                                break;
                            }
                        } else if b.kind == TokenKind::Ident {
                            idents.insert(b.text.clone());
                        }
                        k += 1;
                    }
                    merges.push(MergeFn {
                        type_name: type_name.clone(),
                        method,
                        file: file.to_string(),
                        idents,
                    });
                    j = k;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    (structs, merges)
}

/// MLPT-W005 — merge exhaustiveness, checked across the whole scan:
/// every field of a configured struct must be mentioned in a matching
/// merge method. Same-file pairs are checked in isolation (so fixture
/// copies cannot satisfy each other); a struct with no same-file merge
/// falls back to merges found in other files — the cross-file
/// backstop.
pub fn w005_check(
    structs: &[StructDef],
    merges: &[MergeFn],
    checks: &[(String, String)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for def in structs {
        let Some((_, method)) = checks.iter().find(|(s, _)| *s == def.name) else {
            continue;
        };
        let same_file: Vec<&MergeFn> = merges
            .iter()
            .filter(|m| m.type_name == def.name && m.method == *method && m.file == def.file)
            .collect();
        let candidates: Vec<&MergeFn> = if same_file.is_empty() {
            merges
                .iter()
                .filter(|m| m.type_name == def.name && m.method == *method)
                .collect()
        } else {
            same_file
        };
        if candidates.is_empty() {
            out.push(Finding {
                lint: LintId::W005,
                file: def.file.clone(),
                line: def.line,
                col: 1,
                message: format!(
                    "`{}` has no `{}()` — every stats struct that shards must merge \
                     exhaustively (the PR 9 `final_in_flight_budget` bug class)",
                    def.name, method
                ),
            });
            continue;
        }
        for (field, line, col) in &def.fields {
            let mentioned = candidates.iter().any(|m| m.idents.contains(field));
            if !mentioned {
                out.push(Finding {
                    lint: LintId::W005,
                    file: def.file.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "field `{field}` of `{}` is never mentioned in `{}()` — an \
                         unmerged counter silently drops a shard's total (the PR 9 \
                         `final_in_flight_budget` bug class); merge it, and prefer \
                         exhaustive destructuring with no `..` so the compiler catches \
                         the next one",
                        def.name, method
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run<F>(src: &str, lint: F) -> Vec<Finding>
    where
        F: Fn(&str, &[Token], &[(u32, u32)]) -> Vec<Finding>,
    {
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        lint("t.rs", &tokens, &regions)
    }

    #[test]
    fn w001_flags_instant_now_and_system_time() {
        let src =
            "fn f() {\n    let t = Instant::now();\n    let s = std::time::SystemTime::now();\n}";
        let found = run(src, w001_wall_clock);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[1].line, 3);
    }

    #[test]
    fn w001_ignores_strings_comments_and_tests() {
        let src = "fn f() {\n    // Instant::now() in a comment\n    let s = \"Instant::now()\";\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let x = Instant::now(); }\n}";
        assert!(run(src, w001_wall_clock).is_empty());
    }

    #[test]
    fn w002_flags_ambient_sources() {
        let src = "fn f() {\n    let mut rng = thread_rng();\n    let a = ChaCha8Rng::from_entropy();\n    let b = rand::random::<u8>();\n}";
        let found = run(src, w002_ambient_randomness);
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn w002_leaves_seeded_chacha_alone() {
        let src = "fn f(seed: u64) { let rng = ChaCha8Rng::seed_from_u64(seed); let random = 3; }";
        assert!(run(src, w002_ambient_randomness).is_empty());
    }

    #[test]
    fn w003_flags_typed_names_only() {
        let src = "struct S { map: HashMap<u32, u32>, ordered: BTreeMap<u32, u32> }\n\
                   fn f(s: &S, v: Vec<u32>) {\n\
                       for x in &s.map {}\n\
                       for x in &s.ordered {}\n\
                       for x in &v {}\n\
                       s.map.values();\n\
                       v.iter();\n\
                   }";
        let found = run(src, w003_hash_iteration);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert_eq!(found[1].line, 6);
    }

    #[test]
    fn w003_lookups_are_not_iteration() {
        let src = "fn f(m: &mut HashMap<u32, u32>) {\n    m.insert(1, 2);\n    m.get(&1);\n    m.remove(&1);\n    m.contains_key(&1);\n}";
        assert!(run(src, w003_hash_iteration).is_empty());
    }

    #[test]
    fn w003_let_binding_and_retain() {
        let src = "fn f() {\n    let mut seen = HashSet::new();\n    seen.retain(|_| true);\n    let also: HashMap<u32, u32> = HashMap::new();\n    also.drain();\n}";
        let found = run(src, w003_hash_iteration);
        assert_eq!(found.len(), 2, "{found:?}");
    }

    #[test]
    fn w003_wrapped_hash_types_do_not_register_the_wrapper() {
        let src =
            "fn f(groups: Vec<(Vec<usize>, HashSet<u32>)>, o: Option<HashMap<u32, u32>>) {\n    groups.iter();\n    o.iter();\n}";
        assert!(run(src, w003_hash_iteration).is_empty());
    }

    #[test]
    fn w004_flags_panic_class_outside_tests() {
        let src = "fn f(x: Option<u32>) {\n    x.unwrap();\n    x.expect(\"m\");\n    panic!(\"boom\");\n    unreachable!();\n}\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); }\n}";
        let found = run(src, w004_panic_class);
        assert_eq!(found.len(), 4);
        assert!(found.iter().all(|f| f.line <= 5));
    }

    #[test]
    fn w004_ignores_unwrap_or_variants() {
        let src = "fn f(x: Option<u32>) { x.unwrap_or(0); x.unwrap_or_default(); x.unwrap_or_else(|| 1); }";
        assert!(run(src, w004_panic_class).is_empty());
    }

    #[test]
    fn w004_cfg_not_test_stays_in_scope() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) { x.unwrap(); }";
        assert_eq!(run(src, w004_panic_class).len(), 1);
    }

    #[test]
    fn w005_missing_field_flagged_at_its_line() {
        let src = "pub struct SweepStats {\n    pub a: u64,\n    pub b: u64,\n    pub missing: u64,\n}\n\
                   impl SweepStats {\n    pub fn merge(&mut self, other: &SweepStats) {\n        self.a += other.a;\n        self.b += other.b;\n    }\n}";
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let checks = vec![("SweepStats".to_string(), "merge".to_string())];
        let (structs, merges) = w005_extract("t.rs", &tokens, &regions, &checks);
        assert_eq!(structs.len(), 1);
        assert_eq!(structs[0].fields.len(), 3);
        assert_eq!(merges.len(), 1);
        let found = w005_check(&structs, &merges, &checks);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 4);
        assert!(found[0].message.contains("missing"));
    }

    #[test]
    fn w005_exhaustive_destructuring_counts_as_mentioned() {
        let src = "pub struct SweepStats { pub a: u64, pub b: u64 }\n\
                   impl SweepStats {\n    pub fn merge(&mut self, other: &SweepStats) {\n        let SweepStats { a, b } = *other;\n        self.a += a;\n        self.b += b;\n    }\n}";
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let checks = vec![("SweepStats".to_string(), "merge".to_string())];
        let (structs, merges) = w005_extract("t.rs", &tokens, &regions, &checks);
        assert!(w005_check(&structs, &merges, &checks).is_empty());
    }

    #[test]
    fn w005_struct_with_attrs_and_docs() {
        let src = "/// Docs.\npub struct SweepStats {\n    /// Per-field docs.\n    #[serde(default)]\n    pub a: u64,\n    pub b: u64,\n}\nimpl SweepStats {\n    pub fn merge(&mut self, other: &SweepStats) { self.a += other.a; }\n}";
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let checks = vec![("SweepStats".to_string(), "merge".to_string())];
        let (structs, merges) = w005_extract("t.rs", &tokens, &regions, &checks);
        assert_eq!(structs[0].fields.len(), 2, "{:?}", structs[0].fields);
        let found = w005_check(&structs, &merges, &checks);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains('b'));
    }

    #[test]
    fn w005_missing_merge_entirely() {
        let src = "pub struct SweepStats { pub a: u64 }";
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        let checks = vec![("SweepStats".to_string(), "merge".to_string())];
        let (structs, merges) = w005_extract("t.rs", &tokens, &regions, &checks);
        let found = w005_check(&structs, &merges, &checks);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("no `merge()`"));
    }

    #[test]
    fn test_regions_cover_single_items_and_mods() {
        let src = "fn real() {}\n#[cfg(test)]\nfn helper() {\n    body();\n}\nfn also_real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}";
        let tokens = lex(src);
        let regions = test_regions(&tokens);
        assert_eq!(regions.len(), 2);
        assert!(in_test_region(&regions, 4));
        assert!(!in_test_region(&regions, 6));
        assert!(in_test_region(&regions, 8));
    }
}
