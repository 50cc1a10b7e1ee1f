//! The docs name only types that exist.
//!
//! Rustdoc's broken-link gate checks `///` links, and README's
//! `rust,ignore` blocks compile nowhere, so a type deleted or renamed in
//! code can live on in prose. This test collects every CamelCase name in
//! `README.md` and `docs/*.md` that appears in a backtick span or a fenced
//! code block, and fails on any name that no `struct`, `enum`, `trait`,
//! `type` or `union` under `crates/*/src`, `src` or `vendor` declares (an
//! enum declares its variants too).
//!
//! A path counts by its first CamelCase segment (`PlanAction::AddNode`
//! names `PlanAction`), and a name followed by `.` is a file name
//! (`Cargo.toml`), not a type. Comments inside fenced blocks are prose
//! and are skipped.

mod common;

use common::{is_ident_char, root, rust_files};
use std::collections::BTreeSet;
use std::fs;

/// Names the docs may use without a declaration in the workspace: std
/// and core items, and the paper's own terms.
const ALLOWED: &[&str] = &[
    // std / core
    "Arc",
    "AsRef",
    "Box",
    "Cell",
    "Deref",
    "Display",
    "Error",
    "From",
    "HashMap",
    "HashSet",
    "Into",
    "None",
    "Ok",
    "Option",
    "Rc",
    "RefCell",
    "Result",
    "Self",
    "Send",
    "Sized",
    "Some",
    "Sync",
    "Vec",
    // the paper's terms
    "GetServer",
    "GetView",
    "Include",
    "Insert",
    "Remove",
    "St",
    "Sv",
];

/// Starts upper-case, is alphanumeric, and has a lower-case letter (so
/// `PHASE_TID_BASE` and `O` are not CamelCase names).
fn is_camel(word: &str) -> bool {
    word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.chars().all(|c| c.is_ascii_alphanumeric())
        && word.chars().any(|c| c.is_ascii_lowercase())
}

/// `text` with every `//` line comment (doc comments included) removed.
fn strip_line_comments(text: &str) -> String {
    text.lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The variants of the enum whose body starts right after its `{`: the
/// identifiers directly inside the braces, outside any nested bracket.
fn enum_variants(body: &str, out: &mut BTreeSet<String>) {
    let mut depth = 0usize;
    let mut word = String::new();
    for c in body.chars() {
        if is_ident_char(c) {
            if depth == 0 {
                word.push(c);
            }
            continue;
        }
        if !word.is_empty() {
            out.insert(std::mem::take(&mut word));
        }
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth == 0 => return,
            '}' | ')' | ']' => depth -= 1,
            _ => {}
        }
    }
}

/// Every type name (and enum variant) declared in the workspace's library
/// sources.
fn declared_types() -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let in_src = file
            .strip_prefix(root())
            .unwrap()
            .components()
            .any(|c| c.as_os_str() == "src");
        if !in_src {
            continue;
        }
        let text = strip_line_comments(&fs::read_to_string(&file).unwrap());
        let mut words = Vec::new();
        let mut start = None;
        for (at, c) in text.char_indices() {
            match (is_ident_char(c), start) {
                (true, None) => start = Some(at),
                (false, Some(from)) => {
                    words.push((from, &text[from..at]));
                    start = None;
                }
                _ => {}
            }
        }
        for pair in words.windows(2) {
            let ((_, keyword), (at, name)) = (pair[0], pair[1]);
            if !matches!(keyword, "struct" | "enum" | "trait" | "type" | "union") {
                continue;
            }
            names.insert(name.to_string());
            if keyword == "enum" {
                let after = &text[at..];
                if let Some(open) = after.find(['{', ';']) {
                    if after[open..].starts_with('{') {
                        enum_variants(&after[open + 1..], &mut names);
                    }
                }
            }
        }
    }
    names
}

/// The CamelCase names a piece of code or a backtick span uses: the first
/// CamelCase segment of each `::` path, skipping file names.
fn names_in(code: &str, out: &mut BTreeSet<String>) {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if !is_ident_char(chars[i]) {
            i += 1;
            continue;
        }
        // One path: identifiers joined by `::`.
        let mut first_camel = None;
        loop {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            let file_name = chars.get(i) == Some(&'.')
                && chars.get(i + 1).is_some_and(|c| c.is_ascii_lowercase());
            if first_camel.is_none() && is_camel(&word) && !file_name {
                first_camel = Some(word);
            }
            let more = chars.get(i) == Some(&':')
                && chars.get(i + 1) == Some(&':')
                && chars.get(i + 2).is_some_and(|&c| is_ident_char(c));
            if !more {
                break;
            }
            i += 2;
        }
        out.extend(first_camel);
    }
}

/// Drops a line comment (`//` in Rust, `#` in shell) from a code line.
fn strip_comment<'a>(line: &'a str, lang: &str) -> &'a str {
    let marker = if lang.starts_with("rust") || lang.is_empty() {
        "//"
    } else {
        "#"
    };
    line.find(marker).map_or(line, |at| &line[..at])
}

/// The backtick spans of Markdown prose (a span may wrap a line).
fn spans_in(prose: &str, out: &mut BTreeSet<String>) {
    for (k, span) in prose.split('`').enumerate() {
        if k % 2 == 1 {
            names_in(span, out);
        }
    }
}

/// Every CamelCase name a Markdown file uses in code.
fn names_in_markdown(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut fence: Option<String> = None;
    let mut prose = String::new();
    for line in text.lines() {
        if let Some(lang) = line.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => {
                    spans_in(&prose, &mut names);
                    prose.clear();
                    Some(lang.trim().to_string())
                }
            };
            continue;
        }
        match &fence {
            Some(lang) => names_in(strip_comment(line, lang), &mut names),
            None => {
                prose.push_str(line);
                prose.push('\n');
            }
        }
    }
    spans_in(&prose, &mut names);
    names
}

#[test]
fn docs_name_only_declared_types() {
    let declared = declared_types();
    let mut docs = vec![root().join("README.md")];
    for entry in fs::read_dir(root().join("docs")).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "md") {
            docs.push(entry.path());
        }
    }
    docs.sort();
    let mut unknown = Vec::new();
    for doc in &docs {
        let text = fs::read_to_string(doc).unwrap();
        for name in names_in_markdown(&text) {
            if !declared.contains(&name) && !ALLOWED.contains(&name.as_str()) {
                let shown = doc.strip_prefix(root()).unwrap().display();
                unknown.push(format!("{shown}: `{name}`"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs name types nothing declares:\n  {}",
        unknown.join("\n  ")
    );
}

#[test]
fn names_are_collected_from_spans_paths_and_fences() {
    let text = "A `PlanAction::AddNode` and `Cargo.toml`, not CamelCase.\n\
                ```rust\n\
                let sys = System::builder(1); // Perfetto\n\
                ```\n\
                `groupview_sim::wire::stats()`, `PHASE_TID_BASE`, `(a,\n\
                TxBegin)` Outside.\n";
    let names: Vec<String> = names_in_markdown(text).into_iter().collect();
    assert_eq!(names, ["PlanAction", "System", "TxBegin"]);
}
