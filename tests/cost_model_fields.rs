//! Dead-knob guard: every unit cost the [`CostModel`] defines must be
//! charged somewhere. A field that no simulator code reads still shows up
//! as a calibration knob, so tuning it silently changes nothing. This
//! test reads the field names from `crates/sim-core/src/costs.rs` and
//! fails for any field that no non-test source under `crates/*/src`
//! reads as `.field`.
//!
//! [`CostModel`]: nephele::sim_core::CostModel

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `pub <name>: SimDuration` fields of `struct CostModel`, in
/// declaration order.
fn cost_fields() -> Vec<String> {
    let text = std::fs::read_to_string(root().join("crates/sim-core/src/costs.rs")).unwrap();
    let body = text
        .split_once("pub struct CostModel {")
        .expect("costs.rs declares `pub struct CostModel`")
        .1;
    let body = &body[..body.find("\n}").expect("CostModel's closing brace")];
    let fields: Vec<String> = body
        .lines()
        .filter_map(|l| l.trim().strip_prefix("pub "))
        .filter_map(|l| l.strip_suffix(": SimDuration,"))
        .map(str::to_string)
        .collect();
    assert!(
        fields.len() >= 50,
        "CostModel shrank? parsed {} fields",
        fields.len()
    );
    fields
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test code of every `crates/*/src` file: `//` comment lines
/// and `#[cfg(test)] mod` blocks (which rustfmt closes with a `}` in
/// column 0) are dropped.
fn library_sources() -> Vec<String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/ exists") {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(
        files.len() >= 50,
        "workspace shrank? found {} sources",
        files.len()
    );
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let mut code = String::new();
            let mut lines = text.lines().peekable();
            while let Some(line) = lines.next() {
                if line == "#[cfg(test)]" && lines.peek().is_some_and(|n| n.starts_with("mod ")) {
                    for skipped in lines.by_ref() {
                        if skipped == "}" {
                            break;
                        }
                    }
                    continue;
                }
                if !line.trim_start().starts_with("//") {
                    code.push_str(line);
                    code.push('\n');
                }
            }
            code
        })
        .collect()
}

/// Whether `code` reads `.field`: the name is not the prefix of a longer
/// identifier, and the access is not the target of a plain assignment
/// (the zeroing in `CostModel::free` writes every field).
fn reads_field(code: &str, field: &str) -> bool {
    let needle = format!(".{field}");
    code.match_indices(&needle).any(|(at, _)| {
        let rest = &code[at + needle.len()..];
        let ident_continues = rest
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let rest = rest.trim_start();
        let assigned = rest.starts_with('=') && !rest.starts_with("==");
        !ident_continues && !assigned
    })
}

#[test]
fn every_cost_model_field_is_charged() {
    let sources = library_sources();
    let unread: Vec<String> = cost_fields()
        .into_iter()
        .filter(|f| !sources.iter().any(|code| reads_field(code, f)))
        .collect();
    assert!(
        unread.is_empty(),
        "CostModel fields no simulator code reads (charge them or delete them): {}",
        unread.join(", ")
    );
}

#[test]
fn field_reads_are_told_from_writes_and_longer_names() {
    assert!(reads_field(
        "clock.advance(self.costs.bridge_add);",
        "bridge_add"
    ));
    assert!(reads_field("if m.bridge_add == zero {", "bridge_add"));
    assert!(!reads_field("m.bridge_add = zero;", "bridge_add"));
    assert!(!reads_field("self.costs.bridge_add_fast", "bridge_add"));
}
