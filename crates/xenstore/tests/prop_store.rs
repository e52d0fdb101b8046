//! Property tests for the Xenstore tree: arbitrary operation sequences
//! must agree with a flat reference map, and the entry count must stay
//! consistent under writes, removals and `xs_clone` grafts.

use std::collections::BTreeMap;
use std::rc::Rc;

use testkit::prop::{btree_sets, check, lower_alpha_strings, u16s, u8s, usizes, vecs, weighted, Gen};

use sim_core::{Clock, CostModel, DomId};
use xenstore::{XsCloneOp, Xenstore};

#[derive(Debug, Clone)]
enum Op {
    Write { path_idx: usize, val: u8 },
    Rm { path_idx: usize },
    Dir { path_idx: usize },
}

/// A small closed set of paths keeps collisions (and thus interesting
/// overwrite/removal interactions) frequent.
fn paths() -> Vec<String> {
    let mut v = Vec::new();
    for a in ["x", "y"] {
        for b in ["1", "2", "3"] {
            for c in ["s", "t"] {
                v.push(format!("/tool/{a}/{b}/{c}"));
                v.push(format!("/tool/{a}/{b}"));
            }
        }
    }
    v
}

fn op_strategy() -> impl Gen<Value = Op> {
    weighted(vec![
        (3, (usizes(), u8s()).map(|(path_idx, val)| Op::Write { path_idx, val }).boxed()),
        (1, usizes().map(|path_idx| Op::Rm { path_idx }).boxed()),
        (1, usizes().map(|path_idx| Op::Dir { path_idx }).boxed()),
    ])
}

fn fresh() -> Xenstore {
    Xenstore::new(Clock::new(), Rc::new(CostModel::free()))
}

#[test]
fn store_matches_reference() {
    check(128, |g| {
        let ops = g.draw(&vecs(op_strategy(), 1..150));

        let mut xs = fresh();
        let all = paths();
        // Reference: path → value for explicitly written entries.
        let mut model: BTreeMap<String, String> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Write { path_idx, val } => {
                    let path = &all[path_idx % all.len()];
                    let v = format!("v{val}");
                    xs.write(DomId::DOM0, path, &v).unwrap();
                    model.insert(path.clone(), v);
                }
                Op::Rm { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    let existed = xs.exists(path);
                    let r = xs.rm(DomId::DOM0, path);
                    assert_eq!(existed, r.is_ok());
                    // Removal takes the whole subtree with it.
                    let prefix = format!("{path}/");
                    model.retain(|p, _| p != path && !p.starts_with(&prefix));
                }
                Op::Dir { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    if xs.exists(path) {
                        xs.directory(DomId::DOM0, path).unwrap();
                    }
                }
            }
        }

        for (path, val) in &model {
            assert_eq!(&xs.read(DomId::DOM0, path).unwrap(), val, "{}", path);
        }
    });
}

/// The cached entry count always matches a full recount implied by the
/// visible tree (checked via subtree removal returning to the base).
#[test]
fn entry_count_is_conserved() {
    check(128, |g| {
        let ops = g.draw(&vecs(op_strategy(), 1..100));

        let mut xs = fresh();
        let base = xs.entry_count();
        let all = paths();
        for op in ops {
            match op {
                Op::Write { path_idx, val } => {
                    let path = &all[path_idx % all.len()];
                    xs.write(DomId::DOM0, path, &format!("{val}")).unwrap();
                }
                Op::Rm { path_idx } => {
                    let _ = xs.rm(DomId::DOM0, &all[path_idx % all.len()]);
                }
                Op::Dir { .. } => {}
            }
        }
        // Removing the whole working subtree returns exactly to base+1
        // (the /tool directory itself remains).
        if xs.exists("/tool/x") {
            xs.rm(DomId::DOM0, "/tool/x").unwrap();
        }
        if xs.exists("/tool/y") {
            xs.rm(DomId::DOM0, "/tool/y").unwrap();
        }
        assert_eq!(xs.entry_count(), base);
    });
}

/// xs_clone grafts are exact copies modulo domid rewriting: cloning a
/// directory written with arbitrary entries yields the same child
/// structure, and re-cloning is idempotent in entry count.
#[test]
fn xs_clone_preserves_structure() {
    check(128, |g| {
        let keys = g.draw(&btree_sets(lower_alpha_strings(1..7), 1..10));
        let vals = g.draw(&vecs(u16s(), 10..11));

        let mut xs = fresh();
        let parent = DomId(3);
        let child = DomId(9);
        xs.introduce_domain(parent, None).unwrap();
        xs.introduce_domain(child, Some(parent)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            xs.write(
                DomId::DOM0,
                &format!("/local/domain/3/device/vif/0/{k}"),
                &format!("{}", vals[i % vals.len()]),
            )
            .unwrap();
        }
        let before = xs.entry_count();
        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            parent,
            child,
            &xs.subtree("/local/domain/3/device/vif/0"),
            "/local/domain/9/device/vif/0",
        )
        .unwrap();

        let mut src = xs.directory(DomId::DOM0, "/local/domain/3/device/vif/0").unwrap();
        let mut dst = xs.directory(DomId::DOM0, "/local/domain/9/device/vif/0").unwrap();
        src.sort();
        dst.sort();
        assert_eq!(&src, &dst);
        for k in &keys {
            let a = xs.read(DomId::DOM0, &format!("/local/domain/3/device/vif/0/{k}")).unwrap();
            let b = xs.read(DomId::DOM0, &format!("/local/domain/9/device/vif/0/{k}")).unwrap();
            // Values are numeric (never a domid path), so they are copied
            // verbatim by the rewrite heuristics... unless they collide
            // with the parent domid, which must be rewritten.
            if a == "3" {
                assert_eq!(&b, "9");
            } else {
                assert_eq!(&a, &b);
            }
        }

        // Re-cloning over the same destination does not change the count.
        let after_first = xs.entry_count();
        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            parent,
            child,
            &xs.subtree("/local/domain/3/device/vif/0"),
            "/local/domain/9/device/vif/0",
        )
        .unwrap();
        assert_eq!(xs.entry_count(), after_first);
        assert!(after_first > before);
    });
}
