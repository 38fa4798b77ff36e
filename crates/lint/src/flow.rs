//! The interprocedural taint pass: source → call chain → sink.
//!
//! The token rules flag *sites*; this pass flags *flows*. Two taint kinds
//! are tracked over the workspace call graph:
//!
//! * [`Taint::Nondet`] — a value the host environment decides: wall-clock
//!   reads (`Instant`/`SystemTime`), `std::env` reads, thread ids,
//!   pointer-address formatting (`{:p}`), and RNG that is not derived
//!   from a job seed.
//! * [`Taint::HashOrder`] — a value whose *order* derives from
//!   `HashMap`/`HashSet` iteration.
//!
//! **Sources** generate taint in the function containing them. Taint
//! propagates *up* return edges (a caller of a tainted function is
//! tainted) and *down* argument edges (a callee of a tainted function may
//! receive tainted arguments) — both context-insensitive and
//! conservative, the static analogue of the trace race checker's
//! transitive happens-before closure. **Sinks** are scheduling-relevant
//! consumers: `*_ns` virtual-time accumulators, `JobProfile`/signature
//! inputs, durations handed to the event-loop scheduler, and bytes
//! written to job output or traces. A flow from a source to a sink is a
//! finding on one of the two flow rules.
//!
//! **Sanitizers** stop taint at function granularity: a measured-op
//! `Stopwatch` use (the blessed wall-clock boundary), sorting or
//! collecting into a BTree collection before emission, and reasoned
//! pragmas — a pragma for the matching rule anywhere inside a function
//! suppresses every flow through that function, not just a line.
//!
//! The pass runs to a fixpoint, so recursive call cycles terminate: taint
//! sets only grow and are bounded by the function count.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::TokKind;
use crate::model::{FileModel, Stmt};
use crate::rules::Rule;
use crate::Diagnostic;

/// The two taint kinds the pass tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Host-environment nondeterminism (clock, env, thread id, RNG).
    Nondet,
    /// `HashMap`/`HashSet` iteration order.
    HashOrder,
}

impl Taint {
    /// The flow rule findings of this taint kind are reported under.
    pub fn rule(self) -> Rule {
        match self {
            Taint::Nondet => Rule::WallClockFlow,
            Taint::HashOrder => Rule::HashOrderFlow,
        }
    }

    /// The token rule whose reasoned pragmas also sanitize this kind (a
    /// site already annotated for the line rule is an audited boundary).
    fn token_rule(self) -> Rule {
        match self {
            Taint::Nondet => Rule::WallClock,
            Taint::HashOrder => Rule::UnorderedIteration,
        }
    }
}

/// A source or sink site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What the site is (e.g. `Instant::now()`, `total_ns +=`).
    pub what: String,
}

/// One confirmed source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowFinding {
    /// The flow rule that fired.
    pub rule: Rule,
    /// Where the tainted value is born.
    pub source: Site,
    /// Where it is consumed.
    pub sink: Site,
    /// Function names along the call chain, source fn first, sink fn
    /// last (one element when source and sink share a function).
    pub chain: Vec<String>,
    /// `(file, line)` of each chain function, parallel to `chain`.
    pub chain_sites: Vec<(String, u32)>,
}

impl FlowFinding {
    /// Render as a standard [`Diagnostic`], anchored at the sink line and
    /// carrying the full chain in the message:
    /// `source (...) @ a.rs:10 → fn f → fn g → sink (...) @ b.rs:42`.
    pub fn diagnostic(&self) -> Diagnostic {
        let hops: Vec<String> = self.chain.iter().map(|f| format!("fn {f}")).collect();
        Diagnostic {
            file: self.sink.file.clone(),
            line: self.sink.line,
            rule: self.rule.name(),
            message: format!(
                "source ({}) @ {}:{} → {} → sink ({}) @ {}:{}",
                self.source.what,
                self.source.file,
                self.source.line,
                hops.join(" → "),
                self.sink.what,
                self.sink.file,
                self.sink.line
            ),
        }
    }

    /// Stable baseline key: `file:line:rule` of the sink.
    pub fn baseline_key(&self) -> String {
        format!("{}:{}:{}", self.sink.file, self.sink.line, self.rule.name())
    }
}

/// Per-function facts harvested from its statements.
#[derive(Debug, Default)]
struct FnFacts {
    /// Taint this function generates, with the witness site.
    gen: Vec<(Taint, Site)>,
    /// Sink statements in this function, by taint kind they consume.
    sinks: Vec<(Taint, Site)>,
    /// Taint kinds this function sanitizes (Stopwatch, sort, pragma).
    sanitizes: BTreeSet<Taint>,
}

/// Identifier sets the harvesters key on.
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FnvHashMap", "FnvHashSet"];
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];
const RNG_HINTS: [&str; 4] = ["thread_rng", "random", "entropy", "from_os_rng"];
const SCHED_SINKS: [&str; 5] = [
    "place_attempts",
    "commit_backup",
    "begin_round",
    "begin_reduce_phase",
    "run_reduce_phase",
];
const OUTPUT_SINKS: [&str; 6] = [
    "write_all",
    "write_fmt",
    "writeln",
    "emit",
    "push_entry",
    "push_str",
];
const SORT_SANITIZERS: [&str; 5] = ["sort", "sort_by", "sort_by_key", "BTreeMap", "BTreeSet"];

fn has_ident(stmt: &Stmt, names: &[&str]) -> Option<(String, u32)> {
    stmt.toks
        .iter()
        .find(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
        .map(|t| (t.text.clone(), t.line))
}

/// Names bound to hash collections inside `f`: parameters whose declared
/// type (read from the signature token run) mentions a hash type, and
/// `let` bindings whose statement constructs or annotates one.
fn hash_bindings(f: &crate::model::FnItem) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    let sig = &f.sig.toks;
    let mut k = 0usize;
    while k < sig.len() {
        let t = &sig[k];
        let is_param = t.kind == TokKind::Ident
            && f.params.iter().any(|p| p == &t.text)
            && sig.get(k + 1).map(|n| n.text.as_str()) == Some(":")
            && sig.get(k + 2).map(|n| n.text.as_str()) != Some(":");
        if !is_param {
            k += 1;
            continue;
        }
        // Scan the type region to the next depth-0 comma (or the closing
        // paren of the parameter list).
        let mut depth = 0i32;
        let mut m = k + 2;
        while m < sig.len() {
            let u = &sig[m];
            match u.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," if depth == 0 => break,
                _ => {}
            }
            if u.kind == TokKind::Ident && HASH_TYPES.contains(&u.text.as_str()) {
                names.insert(t.text.clone());
            }
            m += 1;
        }
        k = m.max(k + 1);
    }
    for stmt in &f.body {
        if stmt.toks.first().map(|t| t.text.as_str()) == Some("let")
            && stmt
                .toks
                .iter()
                .any(|t| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()))
        {
            if let Some(n) = stmt
                .toks
                .iter()
                .skip(1)
                .find(|t| t.kind == TokKind::Ident && t.text != "mut")
            {
                names.insert(n.text.clone());
            }
        }
    }
    names
}

/// The first token where a hash-bound name (or a hash type itself) is
/// actually *iterated* in `stmt`: `name.iter()`-style method chains and
/// `for pat in [&[mut ]]name` loops.
fn hash_iteration_site(stmt: &Stmt, hash_names: &BTreeSet<String>) -> Option<(String, u32)> {
    let toks = &stmt.toks;
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if !hash_names.contains(&t.text) && !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // `name . iter ( )` — an ordered-traversal method on the binding.
        if toks.get(k + 1).map(|x| x.text.as_str()) == Some(".")
            && toks
                .get(k + 2)
                .is_some_and(|x| ITER_METHODS.contains(&x.text.as_str()))
        {
            return Some((format!("{} iteration", t.text), t.line));
        }
        // `for pat in name` / `for pat in &mut name`.
        let mut p = k;
        while p > 0 && matches!(toks[p - 1].text.as_str(), "&" | "mut") {
            p -= 1;
        }
        if p > 0 && toks[p - 1].text == "in" && toks.iter().take(p).any(|x| x.text == "for") {
            return Some((format!("{} iteration", t.text), t.line));
        }
    }
    None
}

/// Harvest one function's facts from its statement runs.
fn harvest(file: &str, f: &crate::model::FnItem, pragmas: &[(String, u32)]) -> FnFacts {
    let mut facts = FnFacts::default();
    let site = |what: String, line: u32| Site {
        file: file.to_string(),
        line,
        what,
    };
    let hash_names = &hash_bindings(f);

    for stmt in &f.body {
        // ---- Nondet sources ------------------------------------------------
        if let Some((what, line)) = has_ident(stmt, &CLOCK_TYPES) {
            facts.gen.push((Taint::Nondet, site(what, line)));
        }
        // `std::env::var`/`vars`: `env` followed (path-wise) by var/vars.
        let idents: Vec<&str> = stmt
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if idents
            .windows(2)
            .any(|w| w[0] == "env" && w[1].starts_with("var"))
            || idents
                .windows(2)
                .any(|w| w[0] == "thread" && w[1] == "current")
            || idents.contains(&"ThreadId")
        {
            let line = stmt.line;
            facts
                .gen
                .push((Taint::Nondet, site("env/thread-id read".into(), line)));
        }
        // Pointer-address formatting: a `{:p}` inside a format literal.
        // Requiring a formatting macro on the statement keeps string
        // literals that merely *mention* the specifier (this detector,
        // docs, match patterns) from registering as sources.
        let formats = idents.iter().any(|i| {
            matches!(
                *i,
                "format" | "print" | "println" | "eprint" | "eprintln" | "write" | "writeln"
            )
        });
        if formats {
            if let Some(t) = stmt
                .toks
                .iter()
                .find(|t| t.kind == TokKind::Literal && t.text.contains("{:p}"))
            {
                facts
                    .gen
                    .push((Taint::Nondet, site("pointer-address format".into(), t.line)));
            }
        }
        // RNG not derived from a job seed: rng constructors with no
        // seed-ish identifier on the same statement.
        if let Some((what, line)) = has_ident(stmt, &RNG_HINTS) {
            let seeded = idents.iter().any(|i| i.contains("seed"));
            if !seeded {
                facts.gen.push((Taint::Nondet, site(what, line)));
            }
        }
        // ---- HashOrder sources ---------------------------------------------
        if let Some((what, line)) = hash_iteration_site(stmt, hash_names) {
            facts.gen.push((Taint::HashOrder, site(what, line)));
        }
        // ---- Sinks ---------------------------------------------------------
        // `*_ns` accumulator updates: `x_ns =`, `x_ns +=`, `x_ns -=`.
        for w in stmt.toks.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.kind == TokKind::Ident
                && a.text.ends_with("_ns")
                && a.text.len() > 3
                && b.kind == TokKind::Punct
                && matches!(b.text.as_str(), "=" | "+=" | "-=" | "*=")
            {
                facts.sinks.push((
                    Taint::Nondet,
                    site(format!("{} {}", a.text, b.text), a.line),
                ));
                break;
            }
        }
        // Scheduler durations and profile/signature inputs.
        if let Some((what, line)) = has_ident(stmt, &SCHED_SINKS) {
            facts
                .sinks
                .push((Taint::Nondet, site(format!("{what}()"), line)));
        }
        if let Some((what, line)) = has_ident(stmt, &["JobProfile", "signature"]) {
            facts.sinks.push((Taint::Nondet, site(what, line)));
        }
        // Bytes written to output, spills, or traces.
        if let Some((what, line)) = has_ident(stmt, &OUTPUT_SINKS) {
            facts
                .sinks
                .push((Taint::HashOrder, site(format!("{what}()"), line)));
        }
        // ---- Sanitizers ----------------------------------------------------
        if has_ident(stmt, &SORT_SANITIZERS).is_some() {
            facts.sanitizes.insert(Taint::HashOrder);
        }
        if has_ident(stmt, &["Stopwatch"]).is_some() {
            facts.sanitizes.insert(Taint::Nondet);
        }
    }

    // Reasoned pragmas inside the function sanitize whole flows through
    // it: both the flow rule's own pragma and the matching token rule's
    // (an annotated site is an audited boundary).
    for (name, line) in pragmas {
        if !f.contains_line(*line) {
            continue;
        }
        for taint in [Taint::Nondet, Taint::HashOrder] {
            if name == taint.rule().name() || name == taint.token_rule().name() {
                facts.sanitizes.insert(taint);
            }
        }
    }
    facts
}

/// Run the taint pass over the whole workspace model. Returns findings in
/// deterministic (file, line, rule) order, deduplicated by (source, sink).
pub fn analyze(models: &[FileModel]) -> Vec<FlowFinding> {
    let graph = CallGraph::build(models);
    analyze_graph(&graph, models)
}

/// The pass proper, over a prebuilt graph (exposed for tests).
pub fn analyze_graph(graph: &CallGraph, models: &[FileModel]) -> Vec<FlowFinding> {
    // File → pragma list, so harvesting can attribute pragmas to items.
    let pragmas: BTreeMap<&str, &[(String, u32)]> = models
        .iter()
        .map(|m| (m.file.as_str(), m.pragmas.as_slice()))
        .collect();

    let facts: Vec<FnFacts> = graph
        .fns
        .iter()
        .map(|f| {
            harvest(
                &f.file,
                f,
                pragmas.get(f.file.as_str()).copied().unwrap_or(&[]),
            )
        })
        .collect();

    // For each taint kind: the set of functions holding that taint, with
    // the originating (source fn, site) witness kept per holder. A
    // sanitizer function neither keeps nor forwards taint.
    let mut findings: BTreeSet<FlowFinding> = BTreeSet::new();
    for taint in [Taint::Nondet, Taint::HashOrder] {
        // holder → witness (source fn, site). First (deterministic) writer
        // wins; monotone growth guarantees the fixpoint terminates even
        // through recursive call cycles.
        let mut holds: BTreeMap<FnId, (FnId, Site)> = BTreeMap::new();
        let mut work: Vec<FnId> = Vec::new();
        for (id, f) in facts.iter().enumerate() {
            if f.sanitizes.contains(&taint) {
                continue;
            }
            if let Some((_, site)) = f.gen.iter().find(|(t, _)| *t == taint) {
                holds.insert(id, (id, site.clone()));
                work.push(id);
            }
        }
        while let Some(cur) = work.pop() {
            let witness = holds.get(&cur).expect("worklist holds are set").clone();
            // Up: a caller receives the tainted return value.
            // Down: a callee receives tainted arguments.
            let neighbours: Vec<FnId> = graph.callers[cur]
                .iter()
                .chain(graph.callees[cur].iter())
                .copied()
                .collect();
            for n in neighbours {
                if facts[n].sanitizes.contains(&taint) || holds.contains_key(&n) {
                    continue;
                }
                holds.insert(n, witness.clone());
                work.push(n);
            }
        }
        // Findings: a holder with a sink of this kind.
        for (&holder, (src_fn, src_site)) in &holds {
            for (t, sink_site) in &facts[holder].sinks {
                if *t != taint {
                    continue;
                }
                let chain_ids = chain_between(graph, *src_fn, holder);
                let chain: Vec<String> = chain_ids
                    .iter()
                    .map(|&i| graph.fns[i].name.clone())
                    .collect();
                let chain_sites: Vec<(String, u32)> = chain_ids
                    .iter()
                    .map(|&i| (graph.fns[i].file.clone(), graph.fns[i].line))
                    .collect();
                findings.insert(FlowFinding {
                    rule: taint.rule(),
                    source: src_site.clone(),
                    sink: sink_site.clone(),
                    chain,
                    chain_sites,
                });
            }
        }
    }
    let mut out: Vec<FlowFinding> = findings.into_iter().collect();
    out.sort_by(|a, b| {
        (&a.sink.file, a.sink.line, a.rule)
            .cmp(&(&b.sink.file, b.sink.line, b.rule))
            .then_with(|| a.source.cmp(&b.source))
    });
    out
}

/// A witness call chain from `src` to `dst`, trying callee edges first
/// (return-value flows read most naturally), then caller edges (argument
/// flows), then the undirected closure for mixed chains.
fn chain_between(graph: &CallGraph, src: FnId, dst: FnId) -> Vec<FnId> {
    if let Some(c) = graph.chain(src, dst) {
        return c;
    }
    if let Some(mut c) = graph.chain(dst, src) {
        c.reverse();
        return c;
    }
    // Mixed up/down chain: BFS over the undirected graph.
    let mut prev: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut seen: BTreeSet<FnId> = BTreeSet::from([src]);
    let mut queue = std::collections::VecDeque::from([src]);
    while let Some(cur) = queue.pop_front() {
        if cur == dst {
            let mut path = vec![dst];
            let mut at = dst;
            while let Some(&p) = prev.get(&at) {
                path.push(p);
                at = p;
            }
            path.reverse();
            return path;
        }
        for &n in graph.callees[cur].iter().chain(graph.callers[cur].iter()) {
            if seen.insert(n) {
                prev.insert(n, cur);
                queue.push_back(n);
            }
        }
    }
    vec![src, dst] // disconnected (same fn handled by graph.chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::model_file;

    fn flows(files: &[(&str, &str)]) -> Vec<FlowFinding> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(name, src)| model_file(name, src))
            .collect();
        analyze(&models)
    }

    #[test]
    fn same_function_source_to_sink() {
        let f = flows(&[(
            "a.rs",
            "fn f(total_ns: &mut u64) { let t = Instant::now(); *total_ns = t.elapsed().as_nanos() as u64; }\n",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClockFlow);
        assert_eq!(f[0].chain, ["f"]);
    }

    #[test]
    fn cross_function_flow_has_exact_chain() {
        let f = flows(&[(
            "a.rs",
            "\
fn read_clock() -> u64 { Instant::now().elapsed().as_nanos() as u64 }
fn relay() -> u64 { read_clock() }
fn consume(p: &mut P) { p.total_ns = relay(); }
",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].chain, ["read_clock", "relay", "consume"]);
        assert_eq!(f[0].source.line, 1);
        assert_eq!(f[0].sink.line, 3);
    }

    #[test]
    fn sort_before_emit_sanitizes_hash_order() {
        let clean = flows(&[(
            "a.rs",
            "\
fn collect_counts(m: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = m.iter().map(|(k, c)| (*k, *c)).collect();
    v.sort_by_key(|e| e.0);
    v
}
fn dump(w: &mut W, v: &[(u64, u64)]) { w.write_all(b\"x\"); }
",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn unsorted_hash_iteration_reaching_output_is_flagged() {
        let f = flows(&[(
            "a.rs",
            "\
fn collect_counts(m: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    m.iter().map(|(k, c)| (*k, *c)).collect()
}
fn dump(w: &mut W, m: &HashMap<u64, u64>) {
    for e in collect_counts(m) { w.write_all(&e.0.to_le_bytes()); }
}
",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HashOrderFlow);
        assert_eq!(f[0].chain, ["collect_counts", "dump"]);
    }

    #[test]
    fn pragma_sanitizes_whole_flow_through_the_function() {
        let f = flows(&[(
            "a.rs",
            "\
fn read_clock() -> u64 {
    // textmr-lint: allow(wall-clock-flows-to-schedule, reason = \"measured op\")
    Instant::now().elapsed().as_nanos() as u64
}
fn consume(p: &mut P) { p.total_ns = read_clock(); }
",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stopwatch_is_a_nondet_sanitizer() {
        let f = flows(&[(
            "a.rs",
            "\
fn measured() -> u64 { let sw = Stopwatch::start(); sw.stop_ns() }
fn consume(p: &mut P) { p.total_ns = measured(); }
",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn recursive_cycle_terminates() {
        let f = flows(&[(
            "a.rs",
            "\
fn ping(d: u32) -> u64 { if d == 0 { Instant::now().elapsed().as_nanos() as u64 } else { pong(d - 1) } }
fn pong(d: u32) -> u64 { ping(d) }
fn consume(p: &mut P) { p.total_ns = ping(3); }
",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::WallClockFlow);
        assert!(f[0].chain.starts_with(&["ping".to_string()]));
    }

    /// Every mutating public `Scheduler` method moves virtual time, so each
    /// must be a sink: sinks match by exact name, and a method the list
    /// misses is a flow the lint silently stops seeing.
    #[test]
    fn every_mutating_scheduler_method_is_a_sink() {
        let src = include_str!("../../engine/src/event.rs");
        let start = src.find("\nimpl Scheduler {").expect("impl Scheduler");
        let body = &src[start..];
        let body = &body[..body.find("\n}\n").expect("end of impl Scheduler")];
        let mut mutating = 0;
        for item in body.split("pub fn ").skip(1) {
            let (name, params) = item.split_once('(').expect("fn signature");
            if params.trim_start().starts_with("&mut self") {
                mutating += 1;
                assert!(
                    SCHED_SINKS.contains(&name),
                    "Scheduler::{name} is not in SCHED_SINKS"
                );
            }
        }
        assert!(mutating > 0, "no mutating Scheduler method found");
    }

    #[test]
    fn seeded_rng_is_not_a_source() {
        let clean = flows(&[(
            "a.rs",
            "\
fn gen(seed: u64) -> u64 { let mut rng = random(seed); rng }
fn consume(p: &mut P) { p.total_ns = gen(7); }
",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
        let dirty = flows(&[(
            "a.rs",
            "\
fn gen() -> u64 { let mut rng = thread_rng(); 4 }
fn consume(p: &mut P) { p.total_ns = gen(); }
",
        )]);
        assert_eq!(dirty.len(), 1);
    }

    #[test]
    fn hash_type_without_iteration_is_not_a_source() {
        let clean = flows(&[(
            "a.rs",
            "\
fn lookup(m: &HashMap<u64, u64>, k: u64) -> u64 { m.get(&k).copied().unwrap_or(0) }
fn dump(w: &mut W, m: &HashMap<u64, u64>) { w.write_all(&lookup(m, 1).to_le_bytes()); }
",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn argument_taint_flows_down_into_sink_helpers() {
        // The source fn passes tainted data to a helper that writes it.
        let f = flows(&[(
            "a.rs",
            "\
fn emit_counts(w: &mut W, m: &HashMap<u64, u64>) {
    for (k, c) in m.iter() { write_pair(w, k, c); }
}
fn write_pair(w: &mut W, k: &u64, c: &u64) { w.write_all(&k.to_le_bytes()); }
",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].chain, ["emit_counts", "write_pair"]);
    }
}
