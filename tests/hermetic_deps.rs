//! Hermeticity guard: the workspace must build with zero external
//! registry dependencies (the seed's `proptest`/`criterion`/`rand`
//! declarations made every test and benchmark unbuildable offline).
//! This test walks every `Cargo.toml` in the workspace and fails if any
//! dependency is not a local `path` crate, so that failure class can
//! never regress.

use std::path::{Path, PathBuf};

/// Returns root + every `crates/*/Cargo.toml` manifest.
fn workspace_manifests() -> Vec<PathBuf> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() >= 15, "workspace shrank? found {}", manifests.len());
    manifests
}

/// True for section headers naming a dependency table, e.g.
/// `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`,
/// `[target.'cfg(unix)'.build-dependencies]`, `[dependencies.foo]`.
fn is_dep_section(header: &str) -> bool {
    header
        .trim_matches(['[', ']'])
        .split('.')
        .any(|part| matches!(part, "dependencies" | "dev-dependencies" | "build-dependencies"))
}

/// A dependency spec is hermetic iff it resolves to a local path crate:
/// either directly (`{ path = "..." }`) or through the workspace table
/// (`{ workspace = true }`, with `[workspace.dependencies]` itself
/// checked by the same rule on the root manifest).
fn is_hermetic_spec(spec: &str) -> bool {
    spec.contains("path =") || spec.contains("path=")
        || spec.contains("workspace = true") || spec.contains("workspace=true")
}

fn check_manifest(path: &Path, violations: &mut Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut in_dep_section = false;
    let mut dotted_dep_header: Option<(String, bool)> = None; // ([dependencies.foo], saw path/workspace)

    let flush_dotted = |hdr: &mut Option<(String, bool)>, violations: &mut Vec<String>| {
        if let Some((name, ok)) = hdr.take() {
            if !ok {
                violations.push(format!("{}: {name} has no path/workspace key", path.display()));
            }
        }
    };

    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_dotted(&mut dotted_dep_header, violations);
            in_dep_section = is_dep_section(line);
            // `[dependencies.foo]`-style table: the keys follow on later
            // lines; require one of them to be `path`/`workspace`.
            if in_dep_section && line.trim_matches(['[', ']']).contains("dependencies.") {
                dotted_dep_header = Some((line.to_string(), false));
                in_dep_section = false;
            }
            continue;
        }
        if let Some((_, ok)) = &mut dotted_dep_header {
            if line.starts_with("path") || line.starts_with("workspace") {
                *ok = true;
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else {
            continue;
        };
        if !is_hermetic_spec(spec) {
            violations.push(format!(
                "{}: `{} =` is not a path/workspace dependency: {}",
                path.display(),
                name.trim(),
                spec.trim()
            ));
        }
    }
    flush_dotted(&mut dotted_dep_header, violations);
}

#[test]
fn every_dependency_is_a_local_path_crate() {
    let mut violations = Vec::new();
    for manifest in workspace_manifests() {
        check_manifest(&manifest, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "non-hermetic dependencies found (the offline build would break):\n  {}",
        violations.join("\n  ")
    );
}

/// The workspace dependency table itself must map every name to a path,
/// otherwise `workspace = true` in member crates would launder a
/// registry dependency past the rule above.
#[test]
fn workspace_dependency_table_is_all_paths() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = std::fs::read_to_string(&root).unwrap();
    let mut in_table = false;
    let mut entries = 0;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if in_table && line.contains('=') {
            entries += 1;
            assert!(
                line.contains("path ="),
                "workspace dependency without a path: {line}"
            );
        }
    }
    assert!(entries >= 14, "workspace.dependencies shrank? found {entries}");
}

/// The old external harness names must never reappear anywhere in a
/// manifest — not even commented-in ready to be re-enabled.
#[test]
fn banned_registry_dependencies_never_return() {
    for manifest in workspace_manifests() {
        let text = std::fs::read_to_string(&manifest).unwrap();
        for banned in ["proptest", "criterion", "rand "] {
            for raw in text.lines() {
                let line = raw.split('#').next().unwrap_or("");
                assert!(
                    !line.trim_start().starts_with(banned),
                    "{}: banned registry dependency `{banned}` in: {raw}",
                    manifest.display()
                );
            }
        }
    }
}
