//! Copy-on-write equivalence: the structurally-shared persistent store
//! must be observably identical to a naive always-deep-copy reference.
//!
//! A random operation tape (write / mkdir / rm / directory / xs_clone /
//! transaction commit+abort / watch / unwatch) drives the real
//! [`Xenstore`] and a reference model that deep-copies every subtree the
//! way the tree worked before the rewrite. After every operation the two
//! must agree on: the operation's result, the queued watch events, the
//! cached entry count, and — crucially — the virtual-time charge (both
//! run the calibrated [`CostModel`] on private clocks, so a divergence in
//! any count the charges derive from shows up as a clock mismatch).

use std::collections::BTreeMap;
use std::rc::Rc;

use testkit::prop::{check, usizes, u8s, vecs, weighted, Gen};

use sim_core::{Clock, CostModel, DomId};
use xenstore::log::AccessLog;
use xenstore::{WatchEvent, XsCloneOp, Xenstore};

// ---------------------------------------------------------------------
// Reference model: the pre-rewrite eager tree + daemon charging logic.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefNode {
    value: Option<String>,
    children: BTreeMap<String, RefNode>,
}

fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

impl RefNode {
    fn dir() -> Self {
        RefNode { value: None, children: BTreeMap::new() }
    }

    fn get(&self, path: &str) -> Option<&RefNode> {
        let mut cur = self;
        for c in components(path) {
            cur = cur.children.get(c)?;
        }
        Some(cur)
    }

    fn insert(&mut self, path: &str, value: &str) -> u64 {
        let mut created = 0;
        let mut cur = self;
        for c in components(path) {
            if !cur.children.contains_key(c) {
                created += 1;
                cur.children.insert(c.to_string(), RefNode::dir());
            }
            cur = cur.children.get_mut(c).expect("just inserted");
        }
        cur.value = Some(value.to_string());
        created
    }

    fn mkdir(&mut self, path: &str) -> u64 {
        let mut created = 0;
        let mut cur = self;
        for c in components(path) {
            if !cur.children.contains_key(c) {
                created += 1;
                cur.children.insert(c.to_string(), RefNode::dir());
            }
            cur = cur.children.get_mut(c).expect("just inserted");
        }
        created
    }

    fn remove(&mut self, path: &str) -> Option<u64> {
        let comps: Vec<&str> = components(path).collect();
        let (last, dirs) = comps.split_last()?;
        let mut cur = self;
        for c in dirs {
            cur = cur.children.get_mut(*c)?;
        }
        let removed = cur.children.remove(*last)?;
        Some(removed.count_entries())
    }

    fn count_entries(&self) -> u64 {
        1 + self.children.values().map(RefNode::count_entries).sum::<u64>()
    }

    fn graft(&mut self, path: &str, subtree: RefNode) -> i64 {
        let added = subtree.count_entries();
        let removed = self.remove(path).unwrap_or(0);
        let comps: Vec<&str> = components(path).collect();
        let Some((last, dirs)) = comps.split_last() else {
            return 0;
        };
        let mut created = 0;
        let mut cur = self;
        for c in dirs {
            if !cur.children.contains_key(*c) {
                created += 1;
                cur.children.insert(c.to_string(), RefNode::dir());
            }
            cur = cur.children.get_mut(*c).expect("just inserted");
        }
        cur.children.insert(last.to_string(), subtree);
        created + added as i64 - removed as i64
    }

    /// The eager domid rewrite the device clone variants used to apply.
    fn rewrite_domid(&mut self, old: u32, new: u32) {
        let old_home = format!("/local/domain/{old}/");
        let new_home = format!("/local/domain/{new}/");
        let old_home_end = format!("/local/domain/{old}");
        let new_home_end = format!("/local/domain/{new}");
        let old_id = old.to_string();
        let new_id = new.to_string();
        self.visit_values(&mut |v| {
            if v == &old_id {
                *v = new_id.clone();
                return;
            }
            if v.contains(&old_home) {
                *v = v.replace(&old_home, &new_home);
            } else if v.ends_with(&old_home_end) {
                *v = format!("{}{}", &v[..v.len() - old_home_end.len()], new_home_end);
            }
            let seg_old = format!("/{old_id}/");
            let seg_new = format!("/{new_id}/");
            if v.starts_with("/local/domain/0/backend/") && v.contains(&seg_old) {
                *v = v.replacen(&seg_old, &seg_new, 1);
            }
        });
    }

    fn visit_values(&mut self, f: &mut impl FnMut(&mut String)) {
        if let Some(v) = self.value.as_mut() {
            f(v);
        }
        for child in self.children.values_mut() {
            child.visit_values(f);
        }
    }
}

#[derive(Debug, Clone)]
enum RefTxnOp {
    Write { path: String, value: String },
    Rm { path: String },
}

/// The reference daemon: naive tree, linear watch scan, identical charges.
struct RefStore {
    clock: Clock,
    costs: Rc<CostModel>,
    root: RefNode,
    watches: Vec<(DomId, String, String)>,
    fired: Vec<WatchEvent>,
    txns: BTreeMap<u32, Vec<RefTxnOp>>,
    next_txn: u32,
    access_log: AccessLog,
    entry_count: u64,
}

impl RefStore {
    fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        let mut s = RefStore {
            clock,
            costs,
            root: RefNode::dir(),
            watches: Vec::new(),
            fired: Vec::new(),
            txns: BTreeMap::new(),
            next_txn: 1,
            access_log: AccessLog::new(3000),
            entry_count: 0,
        };
        for dir in ["/tool", "/local", "/local/domain", "/vm", "/libxl"] {
            s.entry_count += s.root.mkdir(dir);
        }
        s
    }

    fn charge_request(&mut self) {
        self.clock.advance(self.costs.xs_request_base);
        self.clock.advance(
            self.costs
                .xs_per_existing_entry
                .saturating_mul(self.entry_count),
        );
        let rotated = self.access_log.append();
        self.clock.advance(self.costs.xs_access_log_append);
        if rotated {
            self.clock.advance(self.costs.xs_access_log_rotate);
        }
    }

    fn fire_watches(&mut self, path: &str) {
        self.clock.advance(
            self.costs
                .xs_watch_match
                .saturating_mul(self.watches.len() as u64),
        );
        let mut hits = Vec::new();
        for (_, token, prefix) in &self.watches {
            if path == prefix || path.starts_with(&format!("{prefix}/")) {
                hits.push(WatchEvent { token: token.clone(), path: path.to_string() });
            }
        }
        for h in hits {
            self.clock.advance(self.costs.xs_watch_fire);
            self.fired.push(h);
        }
    }

    fn write(&mut self, path: &str, value: &str) {
        self.charge_request();
        self.entry_count += self.root.insert(path, value);
        self.fire_watches(path);
    }

    fn mkdir(&mut self, path: &str) {
        self.charge_request();
        self.entry_count += self.root.mkdir(path);
        self.fire_watches(path);
    }

    fn rm(&mut self, path: &str) -> bool {
        self.charge_request();
        match self.root.remove(path) {
            Some(removed) => {
                self.entry_count -= removed;
                self.fire_watches(path);
                true
            }
            None => false,
        }
    }

    fn directory(&mut self, path: &str) -> Option<Vec<String>> {
        self.charge_request();
        self.root
            .get(path)
            .map(|n| n.children.keys().cloned().collect())
    }

    fn read(&mut self, path: &str) -> Option<String> {
        self.charge_request();
        self.root
            .get(path)
            .map(|n| n.value.clone().unwrap_or_default())
    }

    fn watch(&mut self, who: DomId, token: &str, prefix: &str) {
        self.charge_request();
        self.watches.push((
            who,
            token.to_string(),
            prefix.trim_end_matches('/').to_string(),
        ));
    }

    fn unwatch(&mut self, who: DomId, token: &str) {
        self.charge_request();
        self.watches.retain(|(o, t, _)| !(*o == who && t == token));
    }

    fn txn_start(&mut self) -> u32 {
        self.clock.advance(self.costs.xs_transaction);
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(id, Vec::new());
        id
    }

    fn txn_write(&mut self, txn: u32, path: &str, value: &str) {
        self.txns.get_mut(&txn).expect("tape only uses live txns").push(
            RefTxnOp::Write { path: path.to_string(), value: value.to_string() },
        );
    }

    fn txn_rm(&mut self, txn: u32, path: &str) {
        self.txns
            .get_mut(&txn)
            .expect("tape only uses live txns")
            .push(RefTxnOp::Rm { path: path.to_string() });
    }

    fn txn_commit(&mut self, txn: u32) {
        let ops = self.txns.remove(&txn).expect("tape only uses live txns");
        self.clock.advance(self.costs.xs_transaction);
        let mut touched = Vec::new();
        for op in ops {
            match op {
                RefTxnOp::Write { path, value } => {
                    self.charge_request();
                    self.entry_count += self.root.insert(&path, &value);
                    touched.push(path);
                }
                RefTxnOp::Rm { path } => {
                    self.charge_request();
                    if let Some(removed) = self.root.remove(&path) {
                        self.entry_count -= removed;
                    }
                    touched.push(path);
                }
            }
        }
        for path in touched {
            self.fire_watches(&path);
        }
    }

    fn txn_abort(&mut self, txn: u32) {
        self.txns.remove(&txn);
    }

    fn xs_clone(&mut self, op: XsCloneOp, parent: DomId, child: DomId, from: &str, to: &str) -> bool {
        self.charge_request();
        let Some(src) = self.root.get(from).cloned() else {
            return false;
        };
        let entries = src.count_entries();
        self.clock
            .advance(self.costs.xs_clone_per_entry.saturating_mul(entries));
        let rewritten = match op {
            XsCloneOp::Basic => src,
            XsCloneOp::DevConsole
            | XsCloneOp::DevVif
            | XsCloneOp::Dev9pfs
            | XsCloneOp::DevVbd
            | XsCloneOp::DevVsock => {
                let mut n = src;
                n.rewrite_domid(parent.0, child.0);
                n
            }
        };
        let delta = self.root.graft(to, rewritten);
        self.entry_count = (self.entry_count as i64 + delta).max(0) as u64;
        self.fire_watches(to);
        true
    }

    /// All (path, value) pairs, depth-first.
    fn dump(&self) -> Vec<(String, String)> {
        fn walk(node: &RefNode, prefix: &str, out: &mut Vec<(String, String)>) {
            for (name, child) in &node.children {
                let path = format!("{prefix}/{name}");
                out.push((path.clone(), child.value.clone().unwrap_or_default()));
                walk(child, &path, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }
}

// ---------------------------------------------------------------------
// The operation tape.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Write { path_idx: usize, val: u8 },
    Mkdir { path_idx: usize },
    Rm { path_idx: usize },
    Dir { path_idx: usize },
    Read { path_idx: usize },
    Clone { op_idx: usize, from_dom: usize, to_dom: usize },
    Watch { path_idx: usize, tok: u8 },
    Unwatch { tok: u8 },
    TxnRun { writes: Vec<(usize, u8)>, rm: Option<usize>, commit: bool },
}

/// A closed path pool under a handful of domain homes, with some values
/// that look like domid references so the lazy rewrite overlays and the
/// eager reference rewrites must agree.
fn doms() -> [u32; 4] {
    [3, 5, 8, 12]
}

fn paths() -> Vec<String> {
    let mut v = Vec::new();
    for d in doms() {
        for leaf in ["state", "mac", "backend"] {
            v.push(format!("/local/domain/{d}/device/vif/0/{leaf}"));
        }
        v.push(format!("/local/domain/{d}/device/vif/0"));
        v.push(format!("/local/domain/{d}/device"));
        v.push(format!("/local/domain/{d}"));
    }
    v
}

/// Values cycle through plain strings and domid-reference shapes.
fn value_for(dom: u32, val: u8) -> String {
    match val % 5 {
        0 => format!("v{val}"),
        1 => dom.to_string(),
        2 => format!("/local/domain/{dom}/device/vif/0"),
        3 => format!("/local/domain/0/backend/vif/{dom}/0"),
        _ => format!("/local/domain/{dom}"),
    }
}

fn op_strategy() -> impl Gen<Value = Op> {
    weighted(vec![
        (6, (usizes(), u8s()).map(|(path_idx, val)| Op::Write { path_idx, val }).boxed()),
        (1, usizes().map(|path_idx| Op::Mkdir { path_idx }).boxed()),
        (2, usizes().map(|path_idx| Op::Rm { path_idx }).boxed()),
        (2, usizes().map(|path_idx| Op::Dir { path_idx }).boxed()),
        (3, usizes().map(|path_idx| Op::Read { path_idx }).boxed()),
        (4, (usizes(), usizes(), usizes())
            .map(|(op_idx, from_dom, to_dom)| Op::Clone { op_idx, from_dom, to_dom })
            .boxed()),
        (2, (usizes(), u8s()).map(|(path_idx, tok)| Op::Watch { path_idx, tok }).boxed()),
        (1, u8s().map(|tok| Op::Unwatch { tok }).boxed()),
        (2, (vecs((usizes(), u8s()), 0..4), usizes(), u8s())
            .map(|(writes, rm_idx, commit)| Op::TxnRun {
                writes,
                rm: if commit % 3 == 0 { Some(rm_idx) } else { None },
                commit: commit % 2 == 0,
            })
            .boxed()),
    ])
}

// ---------------------------------------------------------------------
// The equivalence property.
// ---------------------------------------------------------------------

#[test]
fn cow_store_matches_deep_copy_reference() {
    check(96, |g| {
        let ops = g.draw(&vecs(op_strategy(), 1..120));

        let costs = Rc::new(CostModel::calibrated());
        let clock_a = Clock::new();
        let clock_b = Clock::new();
        let mut xs = Xenstore::new(clock_a.clone(), costs.clone());
        let mut rf = RefStore::new(clock_b.clone(), costs);
        assert_eq!(xs.entry_count(), rf.entry_count);

        let all = paths();
        let dom_ids = doms();
        let clone_ops = [
            XsCloneOp::Basic,
            XsCloneOp::DevConsole,
            XsCloneOp::DevVif,
            XsCloneOp::Dev9pfs,
            XsCloneOp::DevVbd,
            XsCloneOp::DevVsock,
        ];

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Write { path_idx, val } => {
                    let path = &all[path_idx % all.len()];
                    let dom = dom_ids[path_idx % dom_ids.len()];
                    let v = value_for(dom, val);
                    xs.write(DomId::DOM0, path, &v).unwrap();
                    rf.write(path, &v);
                }
                Op::Mkdir { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    xs.mkdir(DomId::DOM0, path).unwrap();
                    rf.mkdir(path);
                }
                Op::Rm { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    let a = xs.rm(DomId::DOM0, path).is_ok();
                    let b = rf.rm(path);
                    assert_eq!(a, b, "rm {path} at step {step}");
                }
                Op::Dir { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    let a = xs.directory(DomId::DOM0, path).ok();
                    let b = rf.directory(path);
                    assert_eq!(a, b, "directory {path} at step {step}");
                }
                Op::Read { path_idx } => {
                    let path = &all[path_idx % all.len()];
                    let a = xs.read(DomId::DOM0, path).ok();
                    let b = rf.read(path);
                    assert_eq!(a, b, "read {path} at step {step}");
                }
                Op::Clone { op_idx, from_dom, to_dom } => {
                    let cop = clone_ops[op_idx % clone_ops.len()];
                    let p = dom_ids[from_dom % dom_ids.len()];
                    let c = dom_ids[to_dom % dom_ids.len()];
                    let from = format!("/local/domain/{p}/device/vif/0");
                    let to = format!("/local/domain/{c}/device/vif/0");
                    let a = xs
                        .xs_clone(DomId::DOM0, cop, DomId(p), DomId(c), &from, &to)
                        .is_ok();
                    let b = rf.xs_clone(cop, DomId(p), DomId(c), &from, &to);
                    assert_eq!(a, b, "xs_clone {from} -> {to} at step {step}");
                }
                Op::Watch { path_idx, tok } => {
                    let path = &all[path_idx % all.len()];
                    let token = format!("t{}", tok % 8);
                    xs.watch(DomId::DOM0, &token, path).unwrap();
                    rf.watch(DomId::DOM0, &token, path);
                }
                Op::Unwatch { tok } => {
                    let token = format!("t{}", tok % 8);
                    xs.unwatch(DomId::DOM0, &token);
                    rf.unwatch(DomId::DOM0, &token);
                }
                Op::TxnRun { writes, rm, commit } => {
                    let ta = xs.txn_start(DomId::DOM0);
                    let tb = rf.txn_start();
                    for (path_idx, val) in &writes {
                        let path = &all[path_idx % all.len()];
                        let dom = dom_ids[path_idx % dom_ids.len()];
                        let v = value_for(dom, *val);
                        xs.txn_write(DomId::DOM0, ta, path, &v).unwrap();
                        rf.txn_write(tb, path, &v);
                    }
                    if let Some(path_idx) = rm {
                        let path = &all[path_idx % all.len()];
                        xs.txn_rm(DomId::DOM0, ta, path).unwrap();
                        rf.txn_rm(tb, path);
                    }
                    if commit {
                        xs.txn_commit(DomId::DOM0, ta).unwrap();
                        rf.txn_commit(tb);
                    } else {
                        xs.txn_abort(ta).unwrap();
                        rf.txn_abort(tb);
                    }
                }
            }

            // After every op: identical watch events, counts and charges.
            assert_eq!(
                xs.drain_watch_events(),
                std::mem::take(&mut rf.fired),
                "watch events diverged at step {step}"
            );
            assert_eq!(
                xs.entry_count(),
                rf.entry_count,
                "entry counts diverged at step {step}"
            );
            assert_eq!(
                clock_a.now(),
                clock_b.now(),
                "virtual-time charges diverged at step {step}"
            );
        }

        // Final full-state comparison: every path and value agrees, the
        // persistent tree's cached accounting is consistent, and the
        // sharing split covers exactly the resident bytes.
        for (path, want) in rf.dump() {
            assert_eq!(
                xs.read(DomId::DOM0, &path).ok().as_ref(),
                Some(&want),
                "value at {path}"
            );
        }
        xs.audit_tree().unwrap();
        let sharing = xs.sharing();
        assert_eq!(
            sharing.shared_entry_bytes + sharing.unique_entry_bytes,
            xs.resident_bytes()
        );
    });
}
