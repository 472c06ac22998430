//! Every environment knob the code reads is documented: each
//! `"AIVRIL_…"` string literal in `crates/*/src` and `crates/*/benches`
//! must appear in README.md as a whole word.

use std::fs;
use std::path::{Path, PathBuf};

fn is_knob_char(b: u8) -> bool {
    b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'
}

/// Appends every `.rs` file under `dir` to `out`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `"AIVRIL_[A-Z0-9_]+"` literals in `text`, skipping bare
/// prefixes such as `"AIVRIL_SERVE_"`.
fn knob_literals(text: &str) -> Vec<&str> {
    let mut knobs = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"AIVRIL_") {
        let name = &rest[at + 1..];
        let len = name.bytes().take_while(|&b| is_knob_char(b)).count();
        if name.as_bytes().get(len) == Some(&b'"') && !name[..len].ends_with('_') {
            knobs.push(&name[..len]);
        }
        rest = &name[len..];
    }
    knobs
}

/// `true` when `text` holds `word` not run into a longer knob name.
fn mentions(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let before = at.checked_sub(1).map(|i| text.as_bytes()[i]);
        let after = text.as_bytes().get(at + word.len()).copied();
        !before.is_some_and(is_knob_char) && !after.is_some_and(is_knob_char)
    })
}

#[test]
fn every_env_knob_is_in_the_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("read crates/") {
        let krate = krate.expect("read a crate entry").path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("benches"), &mut files);
    }
    let mut knobs = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("read a source file");
        knobs.extend(knob_literals(&text).into_iter().map(str::to_owned));
    }
    knobs.sort();
    knobs.dedup();
    assert!(knobs.len() >= 30, "found only {knobs:?}");
    let missing: Vec<&String> = knobs.iter().filter(|k| !mentions(&readme, k)).collect();
    assert!(missing.is_empty(), "README.md never mentions {missing:?}");
}
