//! Keep the README's generated protocol table in sync with the
//! `ProtocolKind` registry it is derived from, and the docs' code
//! citations in sync with the tree.

use rtdb::cc::ProtocolKind;
use std::path::Path;

/// The docs whose path citations must resolve. `benchmark/README.md` is
/// left out: the benchmark crate is maintained on its own.
const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "docs/THEORY.md",
    ".claude/skills/verify/SKILL.md",
];

#[test]
fn readme_protocol_table_matches_registry() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md readable");
    let begin = "<!-- protocol-table:begin -->";
    let end = "<!-- protocol-table:end -->";
    let start = readme.find(begin).expect("README has the begin marker") + begin.len();
    let stop = readme.find(end).expect("README has the end marker");
    assert_eq!(
        readme[start..stop].trim(),
        ProtocolKind::markdown_table().trim(),
        "README protocol table is stale — paste the output of \
         ProtocolKind::markdown_table() between the markers"
    );
}

#[test]
fn readme_names_every_protocol() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md readable");
    for kind in ProtocolKind::ALL {
        assert!(readme.contains(kind.name()), "README omits {kind}");
    }
}

/// The repo-relative paths a doc cites: each word of a one-line code
/// span whose first component is a top-level entry of the repo, with a
/// `::item` or `:line` suffix dropped and `{a,b}` alternatives expanded.
/// Globs and build outputs (`target/…`) are not citations.
fn cited_paths(doc: &str, tops: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let spans = doc
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| !s.contains('\n'));
    for word in spans.flat_map(str::split_whitespace) {
        let word = word.trim_matches(|c: char| ",;.()\"'".contains(c));
        let word = word.split(':').next().unwrap_or_default();
        let top = word.split('/').next().unwrap_or_default();
        if !word.contains('/') || word.contains('*') || !tops.iter().any(|t| t == top) {
            continue;
        }
        match (word.find('{'), word.find('}')) {
            (Some(open), Some(close)) if open < close => {
                let (pre, post) = (&word[..open], &word[close + 1..]);
                let alts = word[open + 1..close].split(',');
                out.extend(alts.map(|a| format!("{pre}{a}{post}")));
            }
            _ => out.push(word.to_string()),
        }
    }
    out
}

#[test]
fn docs_cite_only_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tops: Vec<String> = std::fs::read_dir(root)
        .expect("repo root readable")
        .map(|e| e.expect("dir entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name != "target" && name != ".git")
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for path in cited_paths(&text, &tops) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} citations found: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "cited paths that do not exist: {missing:#?}"
    );
}
