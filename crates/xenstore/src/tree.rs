//! The Xenstore node tree — persistent and structurally shared.
//!
//! Nodes are immutable [`Rc<NodeData>`] cells; every mutation path-copies
//! only the ancestors of the touched node (`Rc::make_mut`), so untouched
//! subtrees stay shared between the live tree, `xs_clone` grafts and
//! transaction snapshots. Consequences:
//!
//! * [`Node::clone`] (and thus a transaction snapshot) is O(1);
//! * grafting a subtree ([`Node::graft`]) is O(path-depth), not O(subtree);
//! * per-node cached entry counts make [`Node::count_entries`] and the
//!   add/remove accounting of `graft`/`remove` O(1) per level.
//!
//! The domain-id rewriting performed by the device variants of `xs_clone`
//! is *lazy*: a grafted handle carries a [`DomidRewrite`] overlay that
//! applies to every value in its subtree. Reads apply the overlay on the
//! fly; the overlay is pushed one level down (and the node privatized)
//! only when a shared node is first written through
//! (`Node::materialize_level`). Overlays stack, so cloning a clone
//! before either diverges stays O(path-depth) too.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use sim_core::DomId;

/// A pending domain-id rewrite over a whole subtree.
///
/// Encodes the per-device heuristics of `xs_clone` (Fig. 3 of the paper):
/// path components `/local/domain/<old>/` (and the trailing-id form), the
/// frontend-domid component of backend paths, and values that are exactly
/// `<old>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomidRewrite {
    /// Domain id to rewrite away (the clone's parent).
    pub old: u32,
    /// Replacement domain id (the clone).
    pub new: u32,
}

impl DomidRewrite {
    /// Applies the rewrite to one value, returning the (possibly
    /// unchanged) result. Must match the eager `rewrite_domid` heuristics
    /// bit for bit: values equal to the bare id are replaced outright and
    /// skip the path heuristics.
    pub fn apply(&self, v: &str) -> String {
        let old_id = self.old.to_string();
        let new_id = self.new.to_string();
        if v == old_id {
            return new_id;
        }
        let old_home = format!("/local/domain/{}/", self.old);
        let new_home = format!("/local/domain/{}/", self.new);
        let old_home_end = format!("/local/domain/{}", self.old);
        let new_home_end = format!("/local/domain/{}", self.new);
        let mut out = v.to_string();
        if out.contains(&old_home) {
            out = out.replace(&old_home, &new_home);
        } else if out.ends_with(&old_home_end) {
            out = format!("{}{}", &out[..out.len() - old_home_end.len()], new_home_end);
        }
        // Backend-style paths embed the frontend domid as a component:
        // /local/domain/0/backend/vif/<old>/0.
        let seg_old = format!("/{old_id}/");
        let seg_new = format!("/{new_id}/");
        if out.starts_with("/local/domain/0/backend/") && out.contains(&seg_old) {
            out = out.replacen(&seg_old, &seg_new, 1);
        }
        out
    }
}

/// The shared payload of a tree node.
#[derive(Debug, Clone)]
struct NodeData {
    /// The node's value (directories typically have none).
    value: Option<String>,
    /// Child handles by name (ordered for deterministic iteration).
    children: BTreeMap<String, Node>,
    /// Owning domain (permission bookkeeping).
    owner: DomId,
    /// Cached number of entries in this subtree, this node included.
    entries: u64,
}

/// A handle to a (possibly shared) subtree, plus the rewrite overlay
/// pending over it. `Clone` is O(1): it bumps the refcount and copies the
/// (almost always empty) overlay vector.
#[derive(Debug, Clone)]
pub struct Node {
    data: Rc<NodeData>,
    /// Rewrites pending over this subtree, in application order
    /// (innermost graft first).
    rewrites: Vec<DomidRewrite>,
}

fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

/// An immutable view of the node at some path, with the rewrite overlays
/// accumulated along the way already resolved.
pub struct NodeRef<'a> {
    node: &'a Node,
    rewrites: Vec<DomidRewrite>,
}

impl NodeRef<'_> {
    /// The node's value with all pending rewrites applied.
    pub fn value(&self) -> Option<String> {
        self.node.data.value.as_ref().map(|v| {
            let mut s = v.clone();
            for r in &self.rewrites {
                s = r.apply(&s);
            }
            s
        })
    }

    /// Child names, in deterministic (sorted) order. Rewrites only ever
    /// touch values, never names.
    pub fn child_names(&self) -> impl Iterator<Item = &str> {
        self.node.data.children.keys().map(String::as_str)
    }

    /// Entries in this subtree (cached, O(1)).
    pub fn entry_count(&self) -> u64 {
        self.node.data.entries
    }

    /// Owning domain.
    pub fn owner(&self) -> DomId {
        self.node.data.owner
    }

    /// Detaches an owning handle to this subtree: an O(1) `Rc` clone
    /// carrying the effective overlay, suitable for grafting elsewhere.
    pub fn detach(&self) -> Node {
        Node {
            data: Rc::clone(&self.node.data),
            rewrites: self.rewrites.clone(),
        }
    }
}

/// Structural-sharing statistics for a tree (see [`Node::sharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharingStats {
    /// Logical entries: every node counted once per path it is reachable
    /// through. Always equals [`Node::count_entries`].
    pub logical_entries: u64,
    /// Distinct `NodeData` allocations actually resident.
    pub distinct_nodes: u64,
    /// Logical entries backed by a node reachable through more than one
    /// path (i.e. deduplicated by structural sharing).
    pub shared_logical: u64,
    /// Logical entries backed by a singly-referenced node.
    pub unique_logical: u64,
}

impl Node {
    /// Creates an empty directory node owned by `owner`.
    pub fn dir(owner: DomId) -> Self {
        Node {
            data: Rc::new(NodeData {
                value: None,
                children: BTreeMap::new(),
                owner,
                entries: 1,
            }),
            rewrites: Vec::new(),
        }
    }

    /// Pushes a rewrite onto this handle's overlay (applied after any
    /// already pending). O(1); nothing is copied.
    pub fn with_rewrite(mut self, r: DomidRewrite) -> Self {
        self.rewrites.push(r);
        self
    }

    /// Looks up the node at `path`, accumulating rewrite overlays along
    /// the walk. O(depth) plus overlay bookkeeping (almost always empty).
    pub fn lookup(&self, path: &str) -> Option<NodeRef<'_>> {
        let mut rewrites = self.rewrites.clone();
        let mut cur = self;
        for c in components(path) {
            cur = cur.data.children.get(c)?;
            if !cur.rewrites.is_empty() {
                // The child's own overlay applies before the accumulated
                // outer ones.
                let mut eff = cur.rewrites.clone();
                eff.extend(rewrites);
                rewrites = eff;
            }
        }
        Some(NodeRef { node: cur, rewrites })
    }

    /// Counts entries in this subtree (cached, O(1); each node counts as
    /// one entry).
    pub fn count_entries(&self) -> u64 {
        self.data.entries
    }

    /// Pushes this handle's pending rewrites one level down: applies them
    /// to the node's own value and appends them to every child handle's
    /// overlay. The node is privatized (`Rc::make_mut`) only if it has a
    /// pending overlay — this is the lazy materialization point for
    /// written-through shared nodes.
    fn materialize_level(&mut self) {
        if self.rewrites.is_empty() {
            return;
        }
        let rules = std::mem::take(&mut self.rewrites);
        let data = Rc::make_mut(&mut self.data);
        if let Some(v) = data.value.as_mut() {
            let mut s = std::mem::take(v);
            for r in &rules {
                s = r.apply(&s);
            }
            *v = s;
        }
        for child in data.children.values_mut() {
            child.rewrites.extend(rules.iter().copied());
        }
    }

    /// Inserts `value` at `path`, creating intermediate directories.
    /// Returns the number of *new* entries created (0 for an overwrite).
    /// Path-copies (and materializes overlays on) only the walked spine.
    pub fn insert(&mut self, path: &str, value: &str, owner: DomId) -> u64 {
        let comps: Vec<&str> = components(path).collect();
        self.insert_at(&comps, value, owner)
    }

    fn insert_at(&mut self, comps: &[&str], value: &str, owner: DomId) -> u64 {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        match comps.split_first() {
            None => {
                data.value = Some(value.to_string());
                0
            }
            Some((name, rest)) => {
                let created = match data.children.get_mut(*name) {
                    Some(child) => child.insert_at(rest, value, owner),
                    None => {
                        let mut child = Node::dir(owner);
                        let created = 1 + child.insert_at(rest, value, owner);
                        data.children.insert((*name).to_string(), child);
                        created
                    }
                };
                data.entries += created;
                created
            }
        }
    }

    /// Creates a directory at `path`; returns new entries created.
    pub fn mkdir(&mut self, path: &str, owner: DomId) -> u64 {
        let comps: Vec<&str> = components(path).collect();
        self.mkdir_at(&comps, owner)
    }

    fn mkdir_at(&mut self, comps: &[&str], owner: DomId) -> u64 {
        let Some((name, rest)) = comps.split_first() else {
            return 0;
        };
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let created = match data.children.get_mut(*name) {
            Some(child) => child.mkdir_at(rest, owner),
            None => {
                let mut child = Node::dir(owner);
                let created = 1 + child.mkdir_at(rest, owner);
                data.children.insert((*name).to_string(), child);
                created
            }
        };
        data.entries += created;
        created
    }

    /// Removes the subtree at `path`; returns the number of entries
    /// removed (O(1) via the cached count) or `None` if the path does not
    /// exist. A failed removal leaves the tree — including its sharing
    /// structure — untouched.
    pub fn remove(&mut self, path: &str) -> Option<u64> {
        self.lookup(path)?;
        let comps: Vec<&str> = components(path).collect();
        let (last, dirs) = comps.split_last()?;
        Some(self.remove_at(dirs, last))
    }

    fn remove_at(&mut self, dirs: &[&str], last: &str) -> u64 {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let removed = match dirs.split_first() {
            None => {
                let victim = data.children.remove(last).expect("existence checked");
                victim.data.entries
            }
            Some((name, rest)) => {
                let child = data.children.get_mut(*name).expect("existence checked");
                child.remove_at(rest, last)
            }
        };
        data.entries -= removed;
        removed
    }

    /// Grafts `subtree` at `path` (replacing anything there); returns the
    /// net change in entry count, negative when the replaced subtree was
    /// larger than the grafted one. O(path-depth): the subtree itself is
    /// attached by handle, never copied.
    pub fn graft(&mut self, path: &str, subtree: Node, owner: DomId) -> i64 {
        let removed = self.remove(path).unwrap_or(0);
        let comps: Vec<&str> = components(path).collect();
        let Some((last, dirs)) = comps.split_last() else {
            return 0;
        };
        let inserted = self.graft_at(dirs, last, subtree, owner);
        inserted as i64 - removed as i64
    }

    /// Walks to the graft parent (creating intermediate directories owned
    /// by the grafting domain), attaches the subtree handle, and bubbles
    /// the entry-count delta up the spine. Returns entries added to this
    /// subtree (created dirs + grafted entries).
    fn graft_at(&mut self, dirs: &[&str], last: &str, subtree: Node, owner: DomId) -> u64 {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let delta = match dirs.split_first() {
            None => {
                let added = subtree.data.entries;
                data.children.insert(last.to_string(), subtree);
                added
            }
            Some((name, rest)) => match data.children.get_mut(*name) {
                Some(child) => child.graft_at(rest, last, subtree, owner),
                None => {
                    let mut child = Node::dir(owner);
                    let d = 1 + child.graft_at(rest, last, subtree, owner);
                    data.children.insert((*name).to_string(), child);
                    d
                }
            },
        };
        data.entries += delta;
        delta
    }

    /// Verifies every cached entry count against the structure, visiting
    /// each distinct `NodeData` once. Returns a description of the first
    /// inconsistency found.
    pub fn verify_counts(&self) -> Result<(), String> {
        fn check(node: &Node, seen: &mut HashMap<*const NodeData, ()>) -> Result<(), String> {
            let ptr = Rc::as_ptr(&node.data);
            if seen.contains_key(&ptr) {
                return Ok(());
            }
            seen.insert(ptr, ());
            let sum: u64 = node.data.children.values().map(|c| c.data.entries).sum();
            if node.data.entries != 1 + sum {
                return Err(format!(
                    "cached entries {} != 1 + children {}",
                    node.data.entries, sum
                ));
            }
            for c in node.data.children.values() {
                check(c, seen)?;
            }
            Ok(())
        }
        check(self, &mut HashMap::new())
    }

    /// Computes structural-sharing statistics by walking the DAG of
    /// distinct `NodeData` allocations once (O(distinct nodes), not
    /// O(logical entries)), then propagating per-node logical occurrence
    /// counts along graft edges.
    pub fn sharing(&self) -> SharingStats {
        type Ptr = *const NodeData;
        // Pass 1: discover distinct nodes, their child edges and in-degrees.
        let mut children_of: HashMap<Ptr, Vec<Ptr>> = HashMap::new();
        let mut indegree: HashMap<Ptr, u64> = HashMap::new();
        let root = Rc::as_ptr(&self.data);
        indegree.insert(root, 0);
        let mut stack: Vec<&Node> = vec![self];
        while let Some(n) = stack.pop() {
            let ptr = Rc::as_ptr(&n.data);
            if children_of.contains_key(&ptr) {
                continue;
            }
            let mut kids = Vec::with_capacity(n.data.children.len());
            for c in n.data.children.values() {
                let cp = Rc::as_ptr(&c.data);
                kids.push(cp);
                *indegree.entry(cp).or_insert(0) += 1;
                stack.push(c);
            }
            children_of.insert(ptr, kids);
        }
        // Pass 2: logical occurrence counts, parents before children
        // (Kahn's algorithm over the acyclic graft DAG).
        let mut occ: HashMap<Ptr, u64> = HashMap::new();
        occ.insert(root, 1);
        let mut remaining = indegree;
        let mut queue: VecDeque<Ptr> = VecDeque::new();
        queue.push_back(root);
        let mut stats = SharingStats::default();
        while let Some(ptr) = queue.pop_front() {
            let n = occ[&ptr];
            stats.distinct_nodes += 1;
            stats.logical_entries += n;
            if n > 1 {
                stats.shared_logical += n;
            } else {
                stats.unique_logical += n;
            }
            for cp in &children_of[&ptr] {
                *occ.entry(*cp).or_insert(0) += n;
                let d = remaining.get_mut(cp).expect("edge counted in pass 1");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(*cp);
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Node {
        Node::dir(DomId::DOM0)
    }

    fn value_at(r: &Node, path: &str) -> Option<String> {
        r.lookup(path).and_then(|n| n.value())
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut r = root();
        assert_eq!(r.insert("/a/b/c", "v", DomId::DOM0), 3);
        assert_eq!(value_at(&r, "/a/b/c").as_deref(), Some("v"));
        assert_eq!(r.insert("/a/b/c", "w", DomId::DOM0), 0, "overwrite creates nothing");
        assert_eq!(value_at(&r, "/a/b/c").as_deref(), Some("w"));
    }

    #[test]
    fn count_and_remove() {
        let mut r = root();
        r.insert("/a/b", "1", DomId::DOM0);
        r.insert("/a/c", "2", DomId::DOM0);
        assert_eq!(r.lookup("/a").unwrap().entry_count(), 3);
        assert_eq!(r.remove("/a"), Some(3));
        assert_eq!(r.remove("/a"), None);
    }

    #[test]
    fn graft_accounts_net_entries() {
        let mut r = root();
        r.insert("/src/x", "1", DomId::DOM0);
        let sub = r.lookup("/src").unwrap().detach();
        let added = r.graft("/dst/here", sub, DomId::DOM0);
        // subtree has 2 entries, plus 1 intermediate dir "dst".
        assert_eq!(added, 3);
        assert_eq!(value_at(&r, "/dst/here/x").as_deref(), Some("1"));
        // Grafting a smaller subtree over a larger one yields a negative
        // delta instead of underflowing.
        r.insert("/big/a", "1", DomId::DOM0);
        r.insert("/big/b", "1", DomId::DOM0);
        r.insert("/big/c", "1", DomId::DOM0);
        let leaf = r.lookup("/src/x").unwrap().detach();
        let delta = r.graft("/big", leaf, DomId::DOM0);
        assert_eq!(delta, -3); // 1 grafted entry replaces 4.
    }

    #[test]
    fn rewrite_overlay_forms() {
        let mut r = root();
        r.insert("/d/backend", "/local/domain/0/backend/vif/3/0", DomId::DOM0);
        r.insert("/d/frontend", "/local/domain/3/device/vif/0", DomId::DOM0);
        r.insert("/d/frontend-id", "3", DomId::DOM0);
        r.insert("/d/home", "/local/domain/3", DomId::DOM0);
        r.insert("/d/mac", "00:16:3e:00:00:03", DomId::DOM0);
        let d = r
            .lookup("/d")
            .unwrap()
            .detach()
            .with_rewrite(DomidRewrite { old: 3, new: 9 });
        r.graft("/e", d, DomId::DOM0);
        assert_eq!(
            value_at(&r, "/e/backend").as_deref(),
            Some("/local/domain/0/backend/vif/9/0")
        );
        assert_eq!(
            value_at(&r, "/e/frontend").as_deref(),
            Some("/local/domain/9/device/vif/0")
        );
        assert_eq!(value_at(&r, "/e/frontend-id").as_deref(), Some("9"));
        assert_eq!(value_at(&r, "/e/home").as_deref(), Some("/local/domain/9"));
        // MAC addresses stay untouched even though they contain "3".
        assert_eq!(value_at(&r, "/e/mac").as_deref(), Some("00:16:3e:00:00:03"));
        // The source is untouched.
        assert_eq!(value_at(&r, "/d/frontend-id").as_deref(), Some("3"));
    }

    #[test]
    fn overlays_stack_for_clone_of_clone() {
        let mut r = root();
        r.insert("/d/frontend", "/local/domain/3/device/vif/0", DomId::DOM0);
        let d = r
            .lookup("/d")
            .unwrap()
            .detach()
            .with_rewrite(DomidRewrite { old: 3, new: 9 });
        r.graft("/e", d, DomId::DOM0);
        // Clone the (unmaterialized) clone: 9 -> 12 applies on top of 3 -> 9.
        let e = r
            .lookup("/e")
            .unwrap()
            .detach()
            .with_rewrite(DomidRewrite { old: 9, new: 12 });
        r.graft("/f", e, DomId::DOM0);
        assert_eq!(
            value_at(&r, "/f/frontend").as_deref(),
            Some("/local/domain/12/device/vif/0")
        );
        assert_eq!(
            value_at(&r, "/e/frontend").as_deref(),
            Some("/local/domain/9/device/vif/0")
        );
    }

    #[test]
    fn write_through_materializes_only_the_spine() {
        let mut r = root();
        for k in ["a", "b", "c"] {
            r.insert(&format!("/src/{k}"), "3", DomId::DOM0);
        }
        let sub = r
            .lookup("/src")
            .unwrap()
            .detach()
            .with_rewrite(DomidRewrite { old: 3, new: 9 });
        r.graft("/dst", sub, DomId::DOM0);
        // Writing through the clone rewrites the spine but leaves the
        // siblings shared and their lazily-rewritten reads intact.
        r.insert("/dst/a", "fresh", DomId::DOM0);
        assert_eq!(value_at(&r, "/dst/a").as_deref(), Some("fresh"));
        assert_eq!(value_at(&r, "/dst/b").as_deref(), Some("9"));
        assert_eq!(value_at(&r, "/src/a").as_deref(), Some("3"));
        assert_eq!(value_at(&r, "/src/b").as_deref(), Some("3"));
        r.verify_counts().unwrap();
    }

    #[test]
    fn sharing_stats_track_clone_and_divergence() {
        let mut r = root();
        for k in 0..8 {
            r.insert(&format!("/src/k{k}"), "v", DomId::DOM0);
        }
        let before = r.sharing();
        assert_eq!(before.shared_logical, 0);
        assert_eq!(before.logical_entries, r.count_entries());

        let sub = r.lookup("/src").unwrap().detach();
        r.graft("/dst", sub, DomId::DOM0);
        let cloned = r.sharing();
        assert_eq!(cloned.logical_entries, r.count_entries());
        // /src's 9 nodes are each reachable twice now.
        assert_eq!(cloned.shared_logical, 18);
        assert_eq!(cloned.distinct_nodes, before.distinct_nodes);

        // Diverging one entry privatizes the spine on both sides.
        r.insert("/dst/k0", "w", DomId::DOM0);
        let diverged = r.sharing();
        assert_eq!(diverged.logical_entries, r.count_entries());
        assert!(diverged.shared_logical < cloned.shared_logical);
        assert!(diverged.unique_logical > cloned.unique_logical);
        r.verify_counts().unwrap();
    }

    #[test]
    fn failed_remove_leaves_sharing_untouched() {
        let mut r = root();
        r.insert("/src/x", "1", DomId::DOM0);
        let sub = r.lookup("/src").unwrap().detach();
        r.graft("/dst", sub, DomId::DOM0);
        let before = r.sharing();
        assert_eq!(r.remove("/dst/x/nope/deeper"), None);
        assert_eq!(r.sharing(), before);
    }
}
