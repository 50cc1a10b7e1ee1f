//! The architecture rules, checked on the source tree.
//!
//! Each rule is a function from source files to what breaks it, so every
//! rule runs twice: once on the repository, where it must find nothing,
//! and once on a known-bad snippet, where it must fire. This file is left
//! out of the tree it checks, since its snippets break every rule.

mod common;

use common::{is_ident_char, root, rust_files};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::sync::OnceLock;

/// One source file: its path from the repository root, and its text.
struct File {
    path: String,
    text: String,
}

/// Every `.rs` file the rules read: the crates, the root package's
/// sources, tests and examples, and the benchmark's sources (as callers
/// only).
fn tree() -> &'static [File] {
    static TREE: OnceLock<Vec<File>> = OnceLock::new();
    TREE.get_or_init(|| {
        let mut paths = Vec::new();
        for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
            rust_files(&root().join(dir), &mut paths);
        }
        let mut files: Vec<File> = paths
            .into_iter()
            .map(|p| File {
                path: p.strip_prefix(root()).unwrap().display().to_string(),
                text: fs::read_to_string(&p).unwrap(),
            })
            .filter(|f| f.path != "tests/architecture.rs")
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    })
}

/// Builds a one-file-per-pair tree for a self-test.
fn snippet(files: &[(&str, &str)]) -> Vec<File> {
    files
        .iter()
        .map(|(path, text)| File {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect()
}

/// The crate whose sources hold `path`: `crates/<name>/src/...`.
fn src_crate(path: &str) -> Option<&str> {
    let (name, rest) = path.strip_prefix("crates/")?.split_once('/')?;
    rest.starts_with("src/").then_some(name)
}

/// `crates/*/src`.
fn in_crate_src(path: &str) -> bool {
    src_crate(path).is_some()
}

/// `crates`, `src`, `tests` and `examples`: everything but the benchmark.
fn in_workspace(path: &str) -> bool {
    !path.starts_with("benchmark/")
}

/// `path:line: text` for every line of an in-scope file that `bad` flags.
fn lines_where(
    files: &[File],
    in_scope: impl Fn(&str) -> bool,
    bad: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut hits = Vec::new();
    for file in files.iter().filter(|f| in_scope(&f.path)) {
        for (n, line) in file.text.lines().enumerate() {
            if bad(line) {
                hits.push(format!("{}:{}: {}", file.path, n + 1, line.trim()));
            }
        }
    }
    hits
}

/// The byte offset just past the first whole-identifier `word` in `text`.
fn word_at(text: &str, word: &str) -> Option<usize> {
    text.match_indices(word).find_map(|(at, _)| {
        let end = at + word.len();
        let before = text[..at].chars().next_back().is_some_and(is_ident_char);
        let after = text[end..].chars().next().is_some_and(is_ident_char);
        (!before && !after).then_some(end)
    })
}

fn assert_none(what: &str, hits: Vec<String>) {
    assert!(hits.is_empty(), "{what}:\n  {}", hits.join("\n  "));
}

// ---- Id-keyed tables ------------------------------------------------------

/// Every table under `crates/*/src` is keyed by program-minted ids and
/// hashes through `sim::ids::IdHasher` (README "Id-keyed tables"). The
/// alias itself names `hash_map::HashMap`, so this finds only a SipHash
/// table creeping back in.
fn std_hash_tables(files: &[File]) -> Vec<String> {
    lines_where(files, in_crate_src, |line| {
        line.split_once("std::collections::")
            .is_some_and(|(_, rest)| rest.contains("HashMap") || rest.contains("HashSet"))
    })
}

#[test]
fn tables_are_id_maps() {
    assert_none("std HashMap/HashSet in the crates", std_hash_tables(tree()));
}

#[test]
fn id_map_rule_fires_on_a_std_hash_map() {
    let bad = snippet(&[(
        "crates/core/src/x.rs",
        "use std::collections::{BTreeMap, HashMap};",
    )]);
    assert_eq!(std_hash_tables(&bad).len(), 1);
}

// ---- Undo ---------------------------------------------------------------

/// A naming-service write is undone by restoring the before-image its
/// table logged (`crates/core/src/table.rs`); the undo arena covers
/// replicas. A hand-written inverse closure anywhere else fails here.
fn push_undo_sites(files: &[File]) -> Vec<String> {
    let in_scope = |p: &str| {
        in_crate_src(p) && !p.starts_with("crates/actions/src/") && p != "crates/core/src/table.rs"
    };
    lines_where(files, in_scope, |line| line.contains("push_undo("))
}

#[test]
fn push_undo_stays_in_the_action_service_and_the_core_table() {
    assert_none("push_undo outside its two homes", push_undo_sites(tree()));
}

#[test]
fn push_undo_rule_fires_outside_its_homes() {
    let bad = snippet(&[
        ("crates/core/src/table.rs", "am.push_undo(a, undo);"),
        ("crates/replication/src/x.rs", "am.push_undo(a, undo);"),
    ]);
    assert_eq!(push_undo_sites(&bad).len(), 1);
}

// ---- One ReplicaObject impl ---------------------------------------------

/// A class is written once, as an `ObjectType`; servers get
/// `ReplicaObject` from the one blanket impl in
/// `crates/replication/src/object.rs`. A hand-written replica impl (a
/// second copy of some class's codec) is a second line here.
fn replica_impls(files: &[File]) -> Vec<String> {
    lines_where(files, in_workspace, |line| {
        let Some(after_impl) = word_at(line, "impl") else {
            return false;
        };
        let rest = &line[after_impl..];
        let Some(after) = word_at(rest, "ReplicaObject") else {
            return false;
        };
        let tail = &rest[after..];
        tail.starts_with(char::is_whitespace) && word_at(tail.trim_start(), "for") == Some(3)
    })
}

#[test]
fn one_replica_object_impl() {
    let impls = replica_impls(tree());
    assert!(
        impls.len() == 1 && impls[0].starts_with("crates/replication/src/object.rs:"),
        "ReplicaObject impls besides the blanket one: {impls:#?}"
    );
}

#[test]
fn replica_impl_rule_fires_on_a_second_impl() {
    let bad = snippet(&[
        (
            "crates/replication/src/object.rs",
            "impl<O: ObjectType> ReplicaObject for O {",
        ),
        ("tests/x.rs", "impl ReplicaObject for Counter {"),
    ]);
    assert_eq!(replica_impls(&bad).len(), 2);
}

// ---- The batch layout ---------------------------------------------------

/// The batch bit is a detail of the op-body layout: a frame carries it,
/// but dedup keys, undo logs and checkpoint entries use the plain op id.
/// Only the module that writes and reads that layout names it.
fn batch_flag_outside_wire(files: &[File]) -> Vec<String> {
    let in_scope = |p: &str| in_workspace(p) && p != "crates/replication/src/wire.rs";
    lines_where(files, in_scope, |line| line.contains("BATCH_FLAG"))
}

#[test]
fn batch_flag_is_known_in_one_module() {
    assert_none(
        "BATCH_FLAG outside replication/src/wire.rs",
        batch_flag_outside_wire(tree()),
    );
}

#[test]
fn batch_flag_rule_fires_outside_the_wire_module() {
    let bad = snippet(&[("crates/replication/src/invoke.rs", "op & !BATCH_FLAG")]);
    assert_eq!(batch_flag_outside_wire(&bad).len(), 1);
}

// ---- One booking site ---------------------------------------------------

/// Whether `line` adds to a `RunMetrics` abort counter: `aborts +=` or
/// `abort_<kind> +=`.
fn bumps_abort_counter(line: &str) -> bool {
    line.match_indices(" +=").any(|(at, _)| {
        let before = &line[..at];
        let start = before
            .rfind(|c: char| !(c.is_ascii_lowercase() || c == '_'))
            .map_or(0, |i| i + 1);
        let counter = &before[start..];
        counter == "aborts" || counter.len() > "abort_".len() && counter.starts_with("abort_")
    })
}

/// The functions (as `path: fn line`) in `crates/*/src` that bump an abort
/// counter. An ended workload action is booked in one function, the
/// scenario runner's `book`: counts, history event and cost sample
/// together. A second function bumping a counter is a second booking
/// path, which is how the taxonomy drifts between paths.
fn booking_sites(files: &[File]) -> BTreeSet<String> {
    let mut sites = BTreeSet::new();
    for file in files.iter().filter(|f| in_crate_src(&f.path)) {
        let mut current = "";
        for line in file.text.lines() {
            let t = line.trim_start();
            let t = t.strip_prefix("pub ").unwrap_or(t);
            let t = t
                .strip_prefix("pub(")
                .and_then(|r| r.split_once(") "))
                .map_or(t, |(_, r)| r);
            if t.starts_with("fn ") {
                current = line.trim();
            }
            if bumps_abort_counter(line) {
                sites.insert(format!("{}: {current}", file.path));
            }
        }
    }
    sites
}

#[test]
fn one_booking_site_for_abort_counters() {
    let sites = booking_sites(tree());
    assert_eq!(sites.len(), 1, "abort counters bumped in {sites:#?}");
}

#[test]
fn booking_rule_fires_on_a_second_site() {
    let bad = snippet(&[(
        "crates/scenario/src/runner.rs",
        "fn book(&mut self) {\n    m.aborts += 1;\n}\n\
         pub(crate) fn retry(&mut self) {\n    m.abort_failure += 1;\n}\n",
    )]);
    assert_eq!(booking_sites(&bad).len(), 2);
}

// ---- One refusal taxonomy -----------------------------------------------

/// Whether contention, a failure or an invalid request refused an
/// operation is decided once, where the error is raised: each error
/// type's `cause()` names its own variants' causes and passes a wrapped
/// error's cause through. A walker that works the cause out again by
/// matching through wrappers is a hit, as is a second `enum Cause`.
fn taxonomy_breaks(files: &[File]) -> Vec<String> {
    let mut hits = lines_where(files, in_workspace, |line| {
        line.contains("is_failure_caused") || line.contains("is_lock_refused")
    });
    let causes = lines_where(files, in_workspace, |line| {
        word_at(line, "enum Cause").is_some()
    });
    if causes.len() != 1 {
        hits.push(format!("{} `enum Cause`: {causes:?}", causes.len()));
    }
    hits
}

#[test]
fn one_refusal_taxonomy() {
    assert_none("a second refusal taxonomy", taxonomy_breaks(tree()));
}

#[test]
fn taxonomy_rule_fires_on_a_walker_and_a_second_cause() {
    let walker = snippet(&[
        ("crates/sim/src/error.rs", "pub enum Cause {"),
        (
            "crates/core/src/x.rs",
            "fn is_lock_refused(e: &E) -> bool {",
        ),
    ]);
    assert_eq!(taxonomy_breaks(&walker).len(), 1);
    let twice = snippet(&[
        ("crates/sim/src/error.rs", "pub enum Cause {"),
        ("crates/core/src/x.rs", "enum Cause { A }"),
    ]);
    assert_eq!(taxonomy_breaks(&twice).len(), 1);
}

// ---- Deferred-only recovery ---------------------------------------------

/// A recovered node does its §4 work once (`recover_node`), then retries
/// only what that pass deferred (`RecoveryManager::retry` on the
/// `Deferred` value it returned). A full store or server pass in the
/// scenario runner would redo every recovered object on every step,
/// which is how recovery once sent most of a run's messages.
fn full_recovery_in_the_runner(files: &[File]) -> Vec<String> {
    let in_scope = |p: &str| p.starts_with("crates/scenario/src/");
    lines_where(files, in_scope, |line| {
        line.contains("recover_store(")
            || line.contains("recover_server(")
            || line.contains("fn recovery_pass")
    })
}

#[test]
fn the_runner_retries_only_deferred_recovery_work() {
    assert_none(
        "full recovery passes in the scenario crate",
        full_recovery_in_the_runner(tree()),
    );
}

#[test]
fn recovery_rule_fires_on_a_full_pass() {
    let bad = snippet(&[(
        "crates/scenario/src/runner.rs",
        "let _ = sys.recover_server(node);",
    )]);
    assert_eq!(full_recovery_in_the_runner(&bad).len(), 1);
}

// ---- One world, one thread ----------------------------------------------

/// Every world is single-threaded: one `System` on one thread runs the
/// paper. A lock, a channel or a spawned thread in library code is a
/// design change to be made on its own.
fn threads(files: &[File]) -> Vec<String> {
    let in_scope = |p: &str| in_crate_src(p) || p.starts_with("src/");
    lines_where(files, in_scope, |line| {
        line.contains("std::thread") || line.contains("mpsc") || line.contains("std::sync::")
    })
}

#[test]
fn one_world_one_thread() {
    assert_none("threads, channels or locks in the crates", threads(tree()));
}

#[test]
fn thread_rule_fires_on_a_mutex() {
    let bad = snippet(&[("crates/sim/src/world.rs", "use std::sync::Mutex;")]);
    assert_eq!(threads(&bad).len(), 1);
}

// ---- One global allocator -----------------------------------------------

/// The files that declare a `#[global_allocator]`. The allocation pins
/// (`crates/bench/tests/alloc_budgets.rs`) need the only counting
/// allocator in the process; a second one would make them measure
/// something else. The benchmark's own is a separate package.
fn global_allocators(files: &[File]) -> Vec<&str> {
    files
        .iter()
        .filter(|f| in_workspace(&f.path))
        .filter(|f| f.text.lines().any(|l| l.starts_with("#[global_allocator]")))
        .map(|f| f.path.as_str())
        .collect()
}

#[test]
fn one_global_allocator() {
    assert_eq!(
        global_allocators(tree()),
        ["crates/bench/tests/alloc_budgets.rs"]
    );
}

#[test]
fn allocator_rule_fires_on_a_second_allocator() {
    let bad = snippet(&[
        ("crates/bench/tests/alloc_budgets.rs", "#[global_allocator]"),
        (
            "tests/x.rs",
            "#[global_allocator]\nstatic A: Counting = Counting;",
        ),
    ]);
    assert_eq!(global_allocators(&bad).len(), 2);
}

// ---- Every pub fn has a caller ------------------------------------------

/// Every name `text` calls or names by path. A call is an identifier
/// before `(` or a turbofish `::<…>(`; an unqualified one counts only if
/// the same text declares no `fn` of that name. A path is an identifier
/// after `::` (an import, or a function passed by name).
fn called_names(text: &str, out: &mut BTreeSet<String>) {
    let mut declared = BTreeSet::new();
    let mut bare = BTreeSet::new();
    for line in text.lines() {
        let mut i = 0;
        while i < line.len() {
            let c = line[i..].chars().next().unwrap();
            if !is_ident_char(c) {
                i += c.len_utf8();
                continue;
            }
            let start = i;
            i += line[i..]
                .find(|c| !is_ident_char(c))
                .unwrap_or(line.len() - i);
            let (before, name, rest) = (&line[..start], &line[start..i], &line[i..]);
            let prev = before.trim_end();
            let called =
                rest.starts_with('(') || rest.strip_prefix("::<").is_some_and(|r| r.contains(">("));
            if prev.ends_with("fn") && !prev[..prev.len() - 2].ends_with(is_ident_char) {
                declared.insert(name);
            } else if before.ends_with("::") || before.ends_with('.') && called {
                out.insert(name.to_string());
            } else if called {
                bare.insert(name);
            }
        }
    }
    out.extend(bare.difference(&declared).map(|n| n.to_string()));
}

/// Whether `path` is in crate `name`'s library: under its `src`, but not
/// a binary in `src/bin`, which is a crate of its own.
fn in_lib(path: &str, name: &str) -> bool {
    src_crate(path) == Some(name) && !path.starts_with(&format!("crates/{name}/src/bin/"))
}

/// The `pub fn`s (and `pub const fn`s) of crate `name`'s library outside
/// its `#[cfg(test)]` modules, as `(name, path:line)`.
fn pub_fns<'a>(files: &'a [File], name: &str) -> Vec<(&'a str, String)> {
    let mut fns = Vec::new();
    for file in files.iter().filter(|f| in_lib(&f.path, name)) {
        let lines: Vec<&str> = file.text.lines().collect();
        // Brace depth inside a test module; `None` outside one.
        let mut in_tests: Option<i64> = None;
        for (n, line) in lines.iter().enumerate() {
            let t = line.trim_start();
            if let Some(depth) = &mut in_tests {
                *depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
                if *depth <= 0 {
                    in_tests = None;
                }
                continue;
            }
            let next = lines.get(n + 1).map(|l| l.trim_start());
            if t == "#[cfg(test)]" && next.is_some_and(|l| l.starts_with("mod ")) {
                in_tests = Some(0);
                continue;
            }
            let Some(rest) = t
                .strip_prefix("pub fn ")
                .or_else(|| t.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
            fns.push((&rest[..end], format!("{}:{}", file.path, n + 1)));
        }
    }
    fns
}

/// The Rust code of the doc examples in `text`: the lines of each fenced
/// block in a `///` or `//!` comment, unless the fence names another
/// language. Rustdoc compiles each as a crate of its own.
fn doc_examples(text: &str) -> String {
    let mut code = String::new();
    let mut rust = None;
    for line in text.lines() {
        let t = line.trim_start();
        let Some(doc) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) else {
            continue;
        };
        let doc = doc.strip_prefix(' ').unwrap_or(doc);
        if let Some(lang) = doc.trim_start().strip_prefix("```") {
            rust = match rust {
                Some(_) => None,
                None => Some(lang.is_empty() || lang.starts_with("rust")),
            };
        } else if rust == Some(true) {
            code.push_str(doc.strip_prefix("# ").unwrap_or(doc));
            code.push('\n');
        }
    }
    code
}

/// The `pub fn`s of crate `name` that nothing outside its library calls.
/// Callers are the other crates, the root package's sources, tests and
/// examples, and the benchmark's sources; a crate's own binaries, `tests/`
/// and doc examples count too, except for `sim`. `Sim` models the paper's
/// substrate (a clock, a network, faults) and nothing its users do not
/// call, so a function only its own tests reach is deleted.
fn uncalled_pub_fns(files: &[File], name: &str) -> Vec<String> {
    let own_crate = format!("crates/{name}/");
    let strict = name == "sim";
    let mut called = BTreeSet::new();
    for file in files {
        if in_lib(&file.path, name) {
            if !strict {
                called_names(&doc_examples(&file.text), &mut called);
            }
        } else if !(strict && file.path.starts_with(&own_crate)) {
            called_names(&file.text, &mut called);
        }
    }
    pub_fns(files, name)
        .into_iter()
        .filter(|(f, _)| !called.contains(*f))
        .map(|(f, at)| format!("{at}: {f}"))
        .collect()
}

/// The workspace's library crates, by directory name.
fn crate_names(files: &[File]) -> BTreeSet<&str> {
    files.iter().filter_map(|f| src_crate(&f.path)).collect()
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let names = crate_names(tree());
    assert_eq!(names.len(), 11, "{names:?}");
    let mut missing = BTreeMap::new();
    for name in names {
        let uncalled = uncalled_pub_fns(tree(), name);
        if !uncalled.is_empty() {
            missing.insert(name, uncalled);
        }
    }
    assert!(
        missing.is_empty(),
        "pub fns without a caller outside their crate (make them pub(crate) or delete them): {missing:#?}"
    );
}

#[test]
fn caller_rule_fires_on_an_uncalled_fn() {
    let files = snippet(&[
        (
            "crates/store/src/lib.rs",
            "/// ```\n/// store::documented();\n/// ```\n\
             /// ```text\n/// store::unused();\n/// ```\n\
             pub fn used() {}\npub fn tested() {}\npub fn documented() {}\n\
             pub fn unused() {}\npub const fn also_unused() {}\n\
             fn private() { self::unused() }\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() {\n    }\n}\n\
             pub fn after_the_tests() {}\n",
        ),
        ("crates/core/src/lib.rs", "store::used();"),
        ("crates/store/tests/t.rs", "store::tested();"),
        (
            "crates/sim/src/world.rs",
            "/// ```\n/// sim.run();\n/// ```\npub fn run(&mut self) {}",
        ),
        ("crates/sim/tests/t.rs", "w.run();"),
    ]);
    let names = |hits: Vec<String>| -> Vec<String> {
        hits.iter()
            .map(|h| h.rsplit(' ').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names(uncalled_pub_fns(&files, "store")),
        ["unused", "also_unused", "after_the_tests"]
    );
    // `sim`'s own tests and doc examples are not callers.
    assert_eq!(names(uncalled_pub_fns(&files, "sim")), ["run"]);
}

#[test]
fn calls_are_found_through_paths_methods_turbofish_and_imports() {
    let mut names = BTreeSet::new();
    called_names(
        "a.plain(); T::assoc(); x.typed::<u8>(); let f = not_called; g(bare); m.field;\n\
         v.map(Uid::by_path); local(1); pub fn local(x: u8) {}",
        &mut names,
    );
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        ["assoc", "by_path", "g", "map", "plain", "typed"]
    );
}
