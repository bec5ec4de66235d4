//! The determinism & concurrency lint pack.
//!
//! ROCK's headline guarantee is *byte-identical* partitions, counters,
//! and traces for any thread count (DESIGN.md §13). These lints
//! machine-check the coding rules that guarantee rests on, using the
//! structural tables of [`crate::itemtree`]:
//!
//! | lint | what it catches |
//! |------|-----------------|
//! | `nondet-iter` | iterating a `HashMap`/`HashSet` (order varies run to run) without a `BTreeMap`/`BTreeSet`, an explicit sort, or a justified allow |
//! | `atomic-ordering` | an atomic op whose `Ordering` does not match its documented class (tallies/flags: `Relaxed`; publication: `Acquire`/`Release`/`AcqRel`); bare `SeqCst` anywhere |
//! | `spawn-merge-order` | merging per-worker results by channel-arrival order (`recv`) instead of an indexed loop over the join handles in spawn order |
//! | `panic-path` | `panic!`/`unwrap`/`expect`/indexing in `crates/serve` — the server must fail closed, never crash |
//! | `guard-loop` | an unbounded `while`/`loop` without its cancellation poll: core phase code must poll the `Guard` (`checkpoint`/`merge_tick`), serve registry/admin loops must poll the shutdown flag (`stop`/`stopping`) |
//!
//! Each lint is best-effort and conservative in the direction of *more*
//! findings: an order-insensitive `HashMap` reduction, for instance, is
//! legitimate — but the author must say so with a justified
//! `// rock-analyze: allow(nondet-iter)` so the audit is in the tree.

use crate::itemtree::{ItemKind, ItemTree, LoopKind};
use crate::lexer::{Tok, TokKind};
use crate::lints::Finding;

/// Everything a pack lint needs to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// The token stream.
    pub toks: &'a [Tok],
    /// Per-token test mask (see [`crate::lexer::test_mask`]).
    pub mask: &'a [bool],
    /// The parsed item tree.
    pub tree: &'a ItemTree,
    /// Lints applicable to this file.
    pub lints: &'a [&'static str],
}

impl FileCtx<'_> {
    fn on(&self, lint: &str) -> bool {
        self.lints.contains(&lint)
    }

    fn emit(&self, out: &mut Vec<Finding>, line: u32, lint: &'static str, message: String) {
        out.push(Finding {
            path: self.path.to_string(),
            line,
            lint,
            message,
        });
    }
}

/// Runs every applicable pack lint over one file.
pub fn run(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    if ctx.on("nondet-iter") {
        nondet_iter(ctx, &mut out);
    }
    if ctx.on("atomic-ordering") {
        atomic_ordering(ctx, &mut out);
    }
    if ctx.on("spawn-merge-order") {
        spawn_merge_order(ctx, &mut out);
    }
    if ctx.on("panic-path") {
        panic_path(ctx, &mut out);
    }
    if ctx.on("guard-loop") {
        guard_loop(ctx, &mut out);
    }
    out
}

// ---------------------------------------------------------------- nondet-iter

/// Methods that yield elements of a hash collection in bucket order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Type idents whose presence *between* the binding and the hash type
/// means the binding is a container *of* hash maps (`Vec<HashMap<…>>`):
/// iterating the binding itself is then deterministic, only an indexed
/// element (`rows[i]`) is a hash iteration.
fn is_container_ident(name: &str) -> bool {
    matches!(
        name,
        "Vec" | "VecDeque" | "Box" | "Arc" | "Rc" | "Option" | "Slab"
    )
}

/// Idents skipped when walking a type path backwards.
fn is_path_filler(name: &str) -> bool {
    matches!(name, "std" | "collections" | "mut" | "dyn")
}

/// One name known to be (or to contain) a hash collection.
struct HashBinding {
    name: String,
    /// `false` when the binding is a container of hash collections —
    /// then only indexed access is a hash receiver.
    direct: bool,
}

/// Scans a token range for names bound to `HashMap`/`HashSet`: type
/// annotations (`x: &mut HashMap<…>`, fn params, struct fields) and
/// constructor bindings (`let x = HashMap::new()`).
fn collect_hash_bindings(toks: &[Tok], range: std::ops::Range<usize>, out: &mut Vec<HashBinding>) {
    for i in range.clone() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk backwards (bounded) looking for the annotation colon or a
        // `let` on the same statement, classifying what we cross.
        let mut j = i;
        let mut container = false;
        let mut steps = 0;
        while j > range.start && steps < 24 {
            j -= 1;
            steps += 1;
            let b = &toks[j];
            match b.kind {
                TokKind::Punct(':') => {
                    if j > range.start && toks[j - 1].is_punct(':') {
                        // `::` path separator — skip the pair.
                        j -= 1;
                        continue;
                    }
                    // The annotation colon: the ident before it is the name.
                    if j > range.start && toks[j - 1].kind == TokKind::Ident {
                        out.push(HashBinding {
                            name: toks[j - 1].text.clone(),
                            direct: !container,
                        });
                    }
                    break;
                }
                TokKind::Punct('=') => {
                    // Constructor form: scan back for `let [mut] name`.
                    let mut k = j;
                    while k > range.start {
                        k -= 1;
                        let lb = &toks[k];
                        if lb.is_punct(';') || lb.is_punct('{') || lb.is_punct('}') {
                            break;
                        }
                        if lb.is_ident("let") {
                            let name_at = if toks.get(k + 1).is_some_and(|t| t.is_ident("mut")) {
                                k + 2
                            } else {
                                k + 1
                            };
                            if let Some(nt) = toks.get(name_at) {
                                if nt.kind == TokKind::Ident {
                                    out.push(HashBinding {
                                        name: nt.text.clone(),
                                        direct: !container,
                                    });
                                }
                            }
                            break;
                        }
                    }
                    break;
                }
                TokKind::Punct(';')
                | TokKind::Punct('{')
                | TokKind::Punct('}')
                | TokKind::Punct(',')
                | TokKind::Punct('(') => break,
                TokKind::Ident if is_container_ident(&b.text) => container = true,
                TokKind::Ident if is_path_filler(&b.text) => {}
                TokKind::Ident => break,
                _ => {}
            }
        }
    }
}

/// Does the token window `[from, …]` up to the end of the *next*
/// statement contain an explicit reorder (a `sort*` call or a collect
/// into an ordered `BTree*` structure)? That is the lint's sanctioned
/// in-code remedy besides switching the container itself.
fn sorted_downstream(toks: &[Tok], from: usize, end: usize) -> bool {
    let mut semis = 0;
    for t in &toks[from..end] {
        if t.is_punct(';') {
            semis += 1;
            if semis > 2 {
                return false;
            }
        }
        if t.kind == TokKind::Ident
            && (t.text.starts_with("sort")
                || t.text == "BTreeMap"
                || t.text == "BTreeSet"
                || t.text == "BinaryHeap")
        {
            return true;
        }
    }
    false
}

fn nondet_iter_message(recv: &str) -> String {
    format!(
        "iterating hash collection `{recv}` yields a nondeterministic order; use a \
         `BTreeMap`/`BTreeSet`, sort the result in the same or next statement, or \
         justify order-insensitivity with `// rock-analyze: allow(nondet-iter)`"
    )
}

fn nondet_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    // File-level: hash-typed struct fields (receiver `self.field` or
    // `x.field` anywhere in the file).
    let mut fields: Vec<HashBinding> = Vec::new();
    for it in &ctx.tree.items {
        if matches!(it.kind, ItemKind::Struct | ItemKind::Enum) {
            if let Some(body) = it.body.clone() {
                collect_hash_bindings(toks, body, &mut fields);
            }
        }
    }

    for (fi, f) in ctx.tree.fns() {
        if f.body.is_none() {
            continue;
        }
        let mut bindings: Vec<HashBinding> = Vec::new();
        // Params + locals: one scan over the whole item span (the
        // signature sits between `span.start` and `body.start`).
        collect_hash_bindings(toks, f.span.clone(), &mut bindings);

        let direct = |name: &str, dotted: bool| -> bool {
            bindings.iter().any(|b| b.direct && b.name == name)
                || (dotted && fields.iter().any(|b| b.direct && b.name == name))
        };
        let any = |name: &str, dotted: bool| -> bool {
            bindings.iter().any(|b| b.name == name)
                || (dotted && fields.iter().any(|b| b.name == name))
        };

        let flag = |site: usize, line: u32, recv: &str, out: &mut Vec<Finding>| {
            if !sorted_downstream(toks, site, f.span.end) {
                ctx.emit(out, line, "nondet-iter", nondet_iter_message(recv));
            }
        };

        // `.iter()`-family method calls on a hash receiver.
        for c in &ctx.tree.calls {
            if c.enclosing_fn != Some(fi)
                || !c.is_method
                || !ITER_METHODS.contains(&c.callee.as_str())
            {
                continue;
            }
            // Receiver is the token before the `.`: `name.iter()`,
            // `name[i].iter()`, `self.field.iter()`.
            let dot = c.token.wrapping_sub(1);
            let Some(prev) = dot.checked_sub(1).and_then(|p| toks.get(p)) else {
                continue;
            };
            match prev.kind {
                TokKind::Ident => {
                    let dotted = dot >= 2 && toks[dot - 2].is_punct('.');
                    if direct(&prev.text, dotted) {
                        flag(c.token, c.line, &prev.text, out);
                    }
                }
                TokKind::Punct(']') => {
                    // Indexed element: `rows[i].iter()` — hash whenever
                    // `rows` is a hash binding, direct or container.
                    let mut open = dot - 1;
                    let mut depth = 0usize;
                    loop {
                        match toks[open].kind {
                            TokKind::Punct(']') => depth += 1,
                            TokKind::Punct('[') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if open == 0 {
                            break;
                        }
                        open -= 1;
                    }
                    if open > 0 && toks[open - 1].kind == TokKind::Ident {
                        let name = &toks[open - 1].text;
                        let dotted = open >= 2 && toks[open - 2].is_punct('.');
                        if any(name, dotted) {
                            flag(c.token, c.line, name, out);
                        }
                    }
                }
                _ => {}
            }
        }

        // `for x in [&[mut]] name { … }` — iterating the collection
        // directly, without a method call.
        for l in &ctx.tree.loops {
            if l.enclosing_fn != Some(fi) || l.kind != LoopKind::For {
                continue;
            }
            // Header tail after `in`: `&name`, `&mut name`, `name`,
            // `&name[i]`, `self.field`.
            let Some(in_pos) = (l.header.start..l.header.end).find(|&i| toks[i].is_ident("in"))
            else {
                continue;
            };
            let mut rest: Vec<usize> = (in_pos + 1..l.header.end)
                .filter(|&i| !(toks[i].is_punct('&') || toks[i].is_ident("mut")))
                .collect();
            // `name [ idx ]` → treat as indexed access to `name`.
            let indexed = rest.len() >= 3
                && toks[rest[1]].is_punct('[')
                && toks[*rest.last().expect("nonempty")].is_punct(']');
            if indexed {
                rest.truncate(1);
            }
            match rest.as_slice() {
                [one] if toks[*one].kind == TokKind::Ident => {
                    let name = &toks[*one].text;
                    let hit = if indexed {
                        any(name, false)
                    } else {
                        direct(name, false)
                    };
                    if hit {
                        flag(*one, l.line, name, out);
                    }
                }
                [a, b, c]
                    if toks[*a].is_ident("self")
                        && toks[*b].is_punct('.')
                        && toks[*c].kind == TokKind::Ident =>
                {
                    let name = &toks[*c].text;
                    if fields.iter().any(|bd| bd.direct && bd.name == *name) {
                        flag(*c, l.line, name, out);
                    }
                }
                _ => {}
            }
        }
    }
}

// ------------------------------------------------------------ atomic-ordering

/// The memory-ordering names of `std::sync::atomic::Ordering`.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Orderings each atomic-op class may use (the documented counter-class
/// table, DESIGN.md §10): tallies and flags are `Relaxed` (merged
/// deterministically elsewhere, or advisory), loads may additionally
/// `Acquire` a publication, stores may `Release` one, and RMW swaps may
/// use any non-`SeqCst` ordering.
fn allowed_orderings(method: &str) -> Option<&'static [&'static str]> {
    match method {
        "fetch_add" | "fetch_sub" | "fetch_max" | "fetch_min" | "fetch_and" | "fetch_or"
        | "fetch_xor" => Some(&["Relaxed"]),
        "load" => Some(&["Relaxed", "Acquire"]),
        "store" => Some(&["Relaxed", "Release"]),
        "swap" | "compare_exchange" | "compare_exchange_weak" | "fetch_update" => {
            Some(&["Relaxed", "Acquire", "Release", "AcqRel"])
        }
        _ => None,
    }
}

fn atomic_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for c in &ctx.tree.calls {
        let Some(allowed) = allowed_orderings(c.callee.as_str()) else {
            continue;
        };
        // Orderings named in the argument list; a call without one is not
        // an atomic op (`HashMap::get`-style `load`s have no `Ordering`).
        let named: Vec<&str> = c
            .args
            .clone()
            .filter_map(|i| {
                let t = toks.get(i)?;
                (t.kind == TokKind::Ident && ORDERINGS.contains(&t.text.as_str()))
                    .then_some(t.text.as_str())
            })
            .collect();
        if named.is_empty() {
            continue;
        }
        for o in named {
            if o == "SeqCst" {
                ctx.emit(
                    out,
                    c.line,
                    "atomic-ordering",
                    format!(
                        "`{}` with `Ordering::SeqCst`: no counter class in this workspace \
                         needs sequential consistency — use the documented class ordering \
                         (tallies/flags: Relaxed; publication: Acquire/Release)",
                        c.callee
                    ),
                );
            } else if !allowed.contains(&o) {
                ctx.emit(
                    out,
                    c.line,
                    "atomic-ordering",
                    format!(
                        "`{}` with `Ordering::{}` does not match its class \
                         (allowed here: {})",
                        c.callee,
                        o,
                        allowed.join("/")
                    ),
                );
            }
        }
    }
}

// --------------------------------------------------------- spawn-merge-order

fn spawn_merge_order(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (fi, _f) in ctx.tree.fns() {
        let spawns = ctx
            .tree
            .calls
            .iter()
            .any(|c| c.enclosing_fn == Some(fi) && c.callee == "spawn");
        if !spawns {
            continue;
        }
        for c in &ctx.tree.calls {
            if c.enclosing_fn != Some(fi) {
                continue;
            }
            let arrival = matches!(
                c.callee.as_str(),
                "recv" | "try_recv" | "recv_timeout" | "recv_deadline"
            ) || (!c.is_method
                && matches!(c.callee.as_str(), "channel" | "sync_channel"));
            if arrival {
                ctx.emit(
                    out,
                    c.line,
                    "spawn-merge-order",
                    format!(
                        "`{}` in a spawning function merges worker results in arrival \
                         order, which varies run to run; join and merge by indexed loop \
                         over the handles in spawn order (see shard::fan_out)",
                        c.callee
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------- panic-path

/// Macros that abort the request thread.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords after which a `[` opens an array literal or pattern, not an
/// index expression.
fn is_expr_keyword(name: &str) -> bool {
    matches!(
        name,
        "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "let"
            | "const"
            | "static"
            | "where"
    )
}

fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    // Macro + unwrap/expect sites, via the call table.
    for c in &ctx.tree.calls {
        if ctx.mask.get(c.token).copied().unwrap_or(false) {
            continue;
        }
        let hit = if c.is_macro {
            PANIC_MACROS.contains(&c.callee.as_str())
        } else {
            c.is_method && matches!(c.callee.as_str(), "unwrap" | "expect")
        };
        if hit {
            ctx.emit(
                out,
                c.line,
                "panic-path",
                format!(
                    "`{}{}` in rock-serve: the server must fail closed, never crash — \
                     map the failure to an error `Response` (or justify with \
                     `// rock-analyze: allow(panic-path)`)",
                    c.callee,
                    if c.is_macro { "!" } else { "()" }
                ),
            );
        }
    }
    // Index expressions: `expr[…]` can panic out of bounds. A `[` is an
    // index when it directly follows an identifier, `)`, or `]`.
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('[') || i == 0 || ctx.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let prev = &toks[i - 1];
        let indexes = match prev.kind {
            TokKind::Ident => !is_expr_keyword(&prev.text),
            TokKind::Punct(')') | TokKind::Punct(']') => true,
            _ => false,
        };
        if indexes {
            ctx.emit(
                out,
                t.line,
                "panic-path",
                "indexing (`…[…]`) in rock-serve can panic out of bounds; use `.get(…)` \
                 / pattern matching and map `None` to an error response"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- guard-loop

/// Core phase files whose unbounded loops must poll the `Guard`. The
/// out-of-core files (`stream.rs`, `retry.rs`) are in scope because
/// their retry and resume loops run unattended for hours at 1M+ rows —
/// a loop that cannot be tripped there is a hang, not a slowdown.
const GUARD_FILES: [&str; 10] = [
    "crates/core/src/sampling.rs",
    "crates/core/src/neighbors.rs",
    "crates/core/src/neighbors/index.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/outliers.rs",
    "crates/core/src/links.rs",
    "crates/core/src/agglomerate.rs",
    "crates/core/src/labeling.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/retry.rs",
];

/// Serve registry/admin files whose unbounded loops must poll the
/// shutdown flag instead of the `Guard`: the accept loop, the worker
/// pool and the registry swap path all run for the lifetime of the
/// server — a loop there that cannot observe `stop`/`stopping` turns
/// graceful shutdown into a hang with connections still pinned to a
/// retired model.
const SERVE_GUARD_FILES: [&str; 2] = ["crates/serve/src/server.rs", "crates/serve/src/registry.rs"];

/// Returns `true` when `path` is core phase or serve registry/admin
/// code in scope for `guard-loop`.
pub fn is_guard_scope(path: &str) -> bool {
    GUARD_FILES.contains(&path) || SERVE_GUARD_FILES.contains(&path)
}

/// The idents that count as "this loop polls its cancellation signal"
/// for `path`, plus the remedy named in the finding. Core phase code
/// polls the budget `Guard`; serve loops poll the shutdown flag.
fn guard_poll_rule(path: &str) -> (&'static [&'static str], &'static str) {
    if SERVE_GUARD_FILES.contains(&path) {
        (
            &["stop", "stopping"],
            "unbounded loop in serve registry/admin code without a shutdown poll; \
             check the `stop`/`stopping` flag in the body so graceful shutdown \
             drains instead of hanging (or justify a bounded loop with an allow)",
        )
    } else {
        (
            &["checkpoint", "merge_tick"],
            "unbounded loop in core phase code without a Guard poll; call \
             `guard.checkpoint(..)`/`merge_tick(..)` in the body so budget trips \
             degrade instead of hanging (or justify a bounded loop with an allow)",
        )
    }
}

fn guard_loop(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    let (polls, message) = guard_poll_rule(ctx.path);
    for l in &ctx.tree.loops {
        if l.kind == LoopKind::For {
            continue; // bounded by its iterator
        }
        let kw = l.header.start.saturating_sub(1);
        if ctx.mask.get(kw).copied().unwrap_or(false) {
            continue;
        }
        // A `while` condition is re-evaluated every iteration, so a
        // poll in the header counts the same as one in the body.
        let polled = toks[l.header.clone()]
            .iter()
            .chain(&toks[l.body.clone()])
            .any(|t| t.kind == TokKind::Ident && polls.contains(&t.text.as_str()));
        if !polled {
            ctx.emit(out, l.line, "guard-loop", message.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemtree::ItemTree;
    use crate::lexer::{lex, test_mask};

    fn run_with(path: &str, lints: &[&'static str], src: &str) -> Vec<(u32, String)> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let tree = ItemTree::build(&lexed.tokens);
        let ctx = FileCtx {
            path,
            toks: &lexed.tokens,
            mask: &mask,
            tree: &tree,
            lints,
        };
        let mut out: Vec<_> = run(&ctx)
            .into_iter()
            .map(|f| (f.line, f.lint.to_string()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn nondet_iter_fires_on_map_iteration() {
        let src = "fn f() {\n  let mut m: HashMap<u32, u32> = HashMap::new();\n  for (k, v) in &m { use_it(k, v); }\n}";
        let hits = run_with("crates/core/src/x.rs", &["nondet-iter"], src);
        assert_eq!(hits, vec![(3, "nondet-iter".to_string())]);
    }

    #[test]
    fn nondet_iter_respects_sort_escape() {
        let src = "fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n  let mut v: Vec<u32> = m.keys().copied().collect();\n  v.sort();\n  v\n}";
        assert!(run_with("crates/core/src/x.rs", &["nondet-iter"], src).is_empty());
    }

    #[test]
    fn nondet_iter_vec_of_maps() {
        let src = "fn f() {\n  let mut rows: Vec<HashMap<u32, u64>> = vec![];\n  for r in &rows { touch(r); }\n  for (k, v) in &rows[0] { touch2(k, v); }\n}";
        let hits = run_with("crates/core/src/x.rs", &["nondet-iter"], src);
        // Iterating the Vec is fine (line 3); the indexed element is a map.
        assert_eq!(hits, vec![(4, "nondet-iter".to_string())]);
    }

    #[test]
    fn nondet_iter_struct_field() {
        let src = "struct S { pos: HashMap<u32, usize> }\nimpl S {\n  fn f(&self) { for k in self.pos.keys() { touch(k); } }\n}";
        let hits = run_with("crates/core/src/x.rs", &["nondet-iter"], src);
        assert_eq!(hits, vec![(3, "nondet-iter".to_string())]);
    }

    #[test]
    fn nondet_iter_ignores_vec_receivers() {
        let src = "fn f(v: &Vec<u32>, s: &[u32]) -> u32 { v.iter().sum::<u32>() + s.iter().sum::<u32>() }";
        assert!(run_with("crates/core/src/x.rs", &["nondet-iter"], src).is_empty());
    }

    #[test]
    fn atomic_ordering_flags_seqcst_and_mismatch() {
        let src = "fn f(a: &AtomicU64) {\n  a.store(1, Ordering::SeqCst);\n  a.fetch_add(1, Ordering::Acquire);\n  a.load(Ordering::Relaxed);\n}";
        let hits = run_with("crates/core/src/x.rs", &["atomic-ordering"], src);
        assert_eq!(
            hits,
            vec![
                (2, "atomic-ordering".to_string()),
                (3, "atomic-ordering".to_string())
            ]
        );
    }

    #[test]
    fn atomic_ordering_ignores_non_atomic_load() {
        let src = "fn f(s: &Store) { s.load(path); s.store(path, value); }";
        assert!(run_with("crates/core/src/x.rs", &["atomic-ordering"], src).is_empty());
    }

    #[test]
    fn spawn_merge_order_flags_recv() {
        let src = "fn f() {\n  let (tx, rx) = channel();\n  scope.spawn(move || tx.send(1));\n  let got = rx.recv();\n}";
        let hits = run_with("crates/core/src/x.rs", &["spawn-merge-order"], src);
        assert_eq!(hits.len(), 2, "{hits:?}"); // channel() + recv()
    }

    #[test]
    fn spawn_merge_order_silent_without_spawn() {
        let src = "fn f(rx: &Receiver<u32>) { let _ = rx.recv(); }";
        assert!(run_with("crates/core/src/x.rs", &["spawn-merge-order"], src).is_empty());
    }

    #[test]
    fn panic_path_flags_macros_calls_and_indexing() {
        let src = "fn f(v: &[u8]) -> u8 {\n  let a = v[0];\n  let b = v.first().unwrap();\n  panic!(\"boom\");\n}";
        let hits = run_with("crates/serve/src/x.rs", &["panic-path"], src);
        assert_eq!(
            hits,
            vec![
                (2, "panic-path".to_string()),
                (3, "panic-path".to_string()),
                (4, "panic-path".to_string())
            ]
        );
    }

    #[test]
    fn panic_path_ignores_types_literals_and_tests() {
        let src = "fn f(v: &[u8; 4]) -> [u8; 2] { let _x: &[u8] = v; [v.len() as u8, 0] }\n#[cfg(test)]\nmod tests {\n  fn t(v: &[u8]) { let _ = v[0]; assert_eq!(v.len(), 1); }\n}";
        assert!(run_with("crates/serve/src/x.rs", &["panic-path"], src).is_empty());
    }

    #[test]
    fn guard_loop_needs_a_poll() {
        let src = "fn f(g: &Guard) {\n  while work() { step(); }\n  while work() { g.checkpoint(Phase::Links); }\n  for x in v { touch(x); }\n}";
        let hits = run_with("crates/core/src/links.rs", &["guard-loop"], src);
        assert_eq!(hits, vec![(2, "guard-loop".to_string())]);
    }

    #[test]
    fn guard_loop_serve_scope_wants_shutdown_flag() {
        // In serve registry/admin files the sanctioned poll is the
        // shutdown flag, not the Guard — a checkpoint call does not
        // satisfy it there, and vice versa.
        let src = "fn f(s: &Shared) {\n  loop { step(); }\n  loop { if s.stop.load(Ordering::Relaxed) { return; } step(); }\n  loop { g.checkpoint(Phase::Links); }\n  while !queue.stopping { drain(); }\n}";
        let hits = run_with("crates/serve/src/server.rs", &["guard-loop"], src);
        assert_eq!(
            hits,
            vec![(2, "guard-loop".to_string()), (4, "guard-loop".to_string())]
        );
    }

    #[test]
    fn guard_loop_counts_header_polls() {
        // `while !stop { … }` re-checks the flag every iteration; the
        // poll living in the header must count.
        let src = "fn f(s: &Shared) {\n  while !s.stop.load(Ordering::Acquire) { wait(); }\n}";
        assert!(run_with("crates/serve/src/server.rs", &["guard-loop"], src).is_empty());
    }

    #[test]
    fn guard_scope_covers_core_and_serve() {
        assert!(is_guard_scope("crates/core/src/links.rs"));
        assert!(is_guard_scope("crates/core/src/neighbors/index.rs"));
        assert!(is_guard_scope("crates/core/src/shard.rs"));
        assert!(is_guard_scope("crates/serve/src/registry.rs"));
        assert!(is_guard_scope("crates/serve/src/server.rs"));
        assert!(!is_guard_scope("crates/serve/src/http.rs"));
        assert!(!is_guard_scope("crates/core/src/data.rs"));
    }
}
