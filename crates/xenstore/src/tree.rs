//! The Xenstore node tree — persistent and structurally shared.
//!
//! Nodes are immutable [`Rc<NodeData>`] cells; every mutation path-copies
//! only the ancestors of the touched node (`Rc::make_mut`), so untouched
//! subtrees stay shared between the live tree and `xs_clone` grafts.
//! Consequences:
//!
//! * [`Node::clone`] is O(1);
//! * grafting a subtree ([`Node::graft`]) is O(path-depth), not O(subtree);
//! * per-node cached entry counts make [`Node::count_entries`] and the
//!   add/remove accounting of `graft`/`remove` O(1) per level.
//!
//! The domain-id rewriting `xs_clone` performs on device directories
//! is *lazy*: a grafted handle carries a [`DomidRewrite`] overlay that
//! applies to every value in its subtree. Reads apply the overlay on the
//! fly; the overlay is pushed one level down (and the node privatized)
//! only when a shared node is first written through
//! (`Node::materialize_level`). Overlays stack, so cloning a clone
//! before either diverges stays O(path-depth) too.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use sim_core::DomId;

/// A pending domain-id rewrite over a whole subtree.
///
/// Encodes the device heuristics of `xs_clone` (Fig. 3 of the paper):
/// path components `/local/domain/<old>/` (and the trailing-id form), the
/// frontend-domid component of backend paths, and values that are exactly
/// `<old>`. The device manager's deep-copy fallback applies the same
/// rewrite value by value.
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

/// A node's name or value. Strings of up to [`Text::INLINE`] bytes, every
/// name and most values the simulator writes among them, are stored in
/// place: a descent through `/local/domain`, which holds one child per
/// live domain, compares keys without a heap dereference per key, and
/// creating a node allocates no string. Ordered by bytes, like `String`.
#[derive(Debug, Clone)]
enum Text {
    Inline(u8, [u8; Text::INLINE]),
    Heap(Box<str>),
}

impl Text {
    const INLINE: usize = 22;

    fn new(s: &str) -> Self {
        let mut bytes = [0; Text::INLINE];
        match bytes.get_mut(..s.len()) {
            Some(prefix) => {
                prefix.copy_from_slice(s.as_bytes());
                Text::Inline(s.len() as u8, bytes)
            }
            None => Text::Heap(s.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Text::Inline(len, bytes) => &bytes[..*len as usize],
            Text::Heap(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Text::Inline(..) => std::str::from_utf8(self.as_bytes())
                .expect("inline text is copied whole from a str"),
            Text::Heap(s) => s,
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::borrow::Borrow<[u8]> for Text {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// The shared payload of a tree node.
#[derive(Debug, Clone)]
struct NodeData {
    /// The node's value (directories typically have none).
    value: Option<Text>,
    /// Child handles by name (ordered for deterministic iteration).
    children: BTreeMap<Text, Node>,
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

/// Splits `path` into its directory part and final component, without
/// collecting the components. The final component is empty for the root.
fn split_last(path: &str) -> (&str, &str) {
    let path = path.trim_end_matches('/');
    path.rsplit_once('/').unwrap_or(("", path))
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
            let mut s = v.as_str().to_string();
            for r in &self.rewrites {
                s = r.apply(&s);
            }
            s
        })
    }

    /// Child names, in deterministic (sorted) order. Rewrites only ever
    /// touch values, never names.
    pub fn child_names(&self) -> impl Iterator<Item = &str> {
        self.node.data.children.keys().map(Text::as_str)
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

/// Hashes a node's address with one multiply, folded so that the low
/// bits a table indexes by depend on every bit of the address. Addresses
/// are unique keys, so the walk needs no collision resistance, and this
/// halves its time against the default SipHash.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(self.0 as usize ^ usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
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
            cur = cur.data.children.get(c.as_bytes())?;
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
            let mut s = v.as_str().to_string();
            for r in &rules {
                s = r.apply(&s);
            }
            *v = Text::new(&s);
        }
        for child in data.children.values_mut() {
            child.rewrites.extend(rules.iter().copied());
        }
    }

    /// Inserts `value` at `path`, creating intermediate directories.
    /// Returns the number of *new* entries created (0 for an overwrite).
    /// Path-copies (and materializes overlays on) only the walked spine.
    pub fn insert(&mut self, path: &str, value: &str, owner: DomId) -> u64 {
        self.insert_at(components(path), value, owner)
    }

    fn insert_at<'a>(
        &mut self,
        mut comps: impl Iterator<Item = &'a str>,
        value: &str,
        owner: DomId,
    ) -> u64 {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        match comps.next() {
            None => {
                data.value = Some(Text::new(value));
                0
            }
            Some(name) => {
                let created = match data.children.entry(Text::new(name)) {
                    Entry::Occupied(child) => child.into_mut().insert_at(comps, value, owner),
                    Entry::Vacant(slot) => {
                        1 + slot.insert(Node::dir(owner)).insert_at(comps, value, owner)
                    }
                };
                data.entries += created;
                created
            }
        }
    }

    /// Creates a directory at `path`; returns new entries created.
    pub fn mkdir(&mut self, path: &str, owner: DomId) -> u64 {
        self.mkdir_at(components(path), owner)
    }

    fn mkdir_at<'a>(&mut self, mut comps: impl Iterator<Item = &'a str>, owner: DomId) -> u64 {
        let Some(name) = comps.next() else {
            return 0;
        };
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let created = match data.children.entry(Text::new(name)) {
            Entry::Occupied(child) => child.into_mut().mkdir_at(comps, owner),
            Entry::Vacant(slot) => 1 + slot.insert(Node::dir(owner)).mkdir_at(comps, owner),
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
        let (dirs, last) = split_last(path);
        if last.is_empty() {
            return None;
        }
        Some(self.take_at(components(dirs), last)?.data.entries)
    }

    /// Detaches the subtree at `path` in one descent and returns its
    /// handle (overlay included), or `None` when nothing is there. The
    /// spine is path-copied like a write's, even on a miss.
    pub fn take(&mut self, path: &str) -> Option<Node> {
        let (dirs, last) = split_last(path);
        if last.is_empty() {
            return None;
        }
        self.take_at(components(dirs), last)
    }

    fn take_at<'a>(&mut self, mut dirs: impl Iterator<Item = &'a str>, last: &str) -> Option<Node> {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let taken = match dirs.next() {
            None => data.children.remove(last.as_bytes())?,
            Some(name) => data
                .children
                .get_mut(name.as_bytes())?
                .take_at(dirs, last)?,
        };
        data.entries -= taken.data.entries;
        Some(taken)
    }

    /// Grafts `subtree` at `path`, replacing anything there in place;
    /// returns the net change in entry count, negative when the replaced
    /// subtree was larger than the grafted one. One descent: the subtree
    /// itself is attached by handle, never copied.
    pub fn graft(&mut self, path: &str, subtree: Node, owner: DomId) -> i64 {
        let (dirs, last) = split_last(path);
        if last.is_empty() {
            return 0;
        }
        self.graft_at(components(dirs), last, subtree, owner)
    }

    /// Walks to the graft parent (creating intermediate directories owned
    /// by the grafting domain), swaps the subtree handle in, and bubbles
    /// the entry-count delta up the spine.
    fn graft_at<'a>(
        &mut self,
        mut dirs: impl Iterator<Item = &'a str>,
        last: &str,
        subtree: Node,
        owner: DomId,
    ) -> i64 {
        self.materialize_level();
        let data = Rc::make_mut(&mut self.data);
        let delta = match dirs.next() {
            None => {
                let added = subtree.data.entries as i64;
                match data.children.entry(Text::new(last)) {
                    Entry::Occupied(mut slot) => added - slot.insert(subtree).data.entries as i64,
                    Entry::Vacant(slot) => {
                        slot.insert(subtree);
                        added
                    }
                }
            }
            Some(name) => match data.children.entry(Text::new(name)) {
                Entry::Occupied(child) => child.into_mut().graft_at(dirs, last, subtree, owner),
                Entry::Vacant(slot) => {
                    1 + slot
                        .insert(Node::dir(owner))
                        .graft_at(dirs, last, subtree, owner)
                }
            },
        };
        data.entries = data
            .entries
            .checked_add_signed(delta)
            .expect("entry count stays positive");
        delta
    }

    /// Verifies every cached entry count against the structure and
    /// returns the tree's sharing statistics, in one walk over the
    /// distinct `NodeData` allocations. Returns a description of the
    /// first inconsistent count found instead.
    pub fn audit(&self) -> Result<SharingStats, String> {
        let (stats, counts) = self.walk();
        counts.map(|()| stats)
    }

    /// Computes structural-sharing statistics in O(distinct nodes), not
    /// O(logical entries). Cached counts are not checked; see
    /// [`Node::audit`].
    pub fn sharing(&self) -> SharingStats {
        self.walk().0
    }

    /// The walk behind [`Node::audit`] and [`Node::sharing`]. Discovery
    /// visits each distinct node once, checks its cached count and counts
    /// its children's in-degrees. A second pass over the same nodes,
    /// parents before children (Kahn's algorithm over the acyclic graft
    /// DAG), propagates each node's logical occurrence count to its
    /// children. Both passes read a node's children from the node
    /// itself, and one map keyed by node holds its in-degree and
    /// occurrence count.
    fn walk(&self) -> (SharingStats, Result<(), String>) {
        #[derive(Default)]
        struct Visit {
            indegree: u64,
            occurrences: u64,
        }
        let key = |n: &NodeData| n as *const NodeData;
        let root: &NodeData = &self.data;
        let mut visits: HashMap<*const NodeData, Visit, BuildHasherDefault<AddrHasher>> =
            HashMap::default();
        visits.insert(key(root), Visit::default());
        let mut counts = Ok(());
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let mut sum = 0;
            for c in n.children.values() {
                sum += c.data.entries;
                let v = visits.entry(Rc::as_ptr(&c.data)).or_default();
                v.indegree += 1;
                if v.indegree == 1 {
                    stack.push(&c.data);
                }
            }
            if n.entries != 1 + sum && counts.is_ok() {
                counts = Err(format!(
                    "cached entries {} != 1 + children {}",
                    n.entries, sum
                ));
            }
        }

        let mut stats = SharingStats::default();
        visits.get_mut(&key(root)).expect("root visited").occurrences = 1;
        let mut ready = vec![root];
        while let Some(n) = ready.pop() {
            let occurrences = visits[&key(n)].occurrences;
            stats.distinct_nodes += 1;
            stats.logical_entries += occurrences;
            if occurrences > 1 {
                stats.shared_logical += occurrences;
            } else {
                stats.unique_logical += occurrences;
            }
            for c in n.children.values() {
                let v = visits
                    .get_mut(&Rc::as_ptr(&c.data))
                    .expect("edge counted in discovery");
                v.occurrences += occurrences;
                v.indegree -= 1;
                if v.indegree == 0 {
                    ready.push(&c.data);
                }
            }
        }
        (stats, counts)
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
    fn text_sorts_like_strings_inline_or_not() {
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
        let long = "a-name-longer-than-the-inline-capacity";
        let mut names = ["10", "9", "", "100", long, "static-max", "1", "a"];
        let mut keys: Vec<Text> = names.iter().map(|n| Text::new(n)).collect();
        assert!(matches!(Text::new(long), Text::Heap(_)));
        names.sort();
        keys.sort();
        let sorted: Vec<&str> = keys.iter().map(Text::as_str).collect();
        assert_eq!(sorted, names);
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
        r.audit().unwrap();
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
        r.audit().unwrap();
    }

    #[test]
    fn audit_names_a_drifted_cached_count_and_sharing_still_walks() {
        let mut r = root();
        r.insert("/a/b", "1", DomId::DOM0);
        let sub = r.lookup("/a").unwrap().detach();
        r.graft("/c", sub, DomId::DOM0);
        let clean = r.audit().expect("a fresh tree audits clean");
        assert_eq!(clean, r.sharing());

        // Privatizing /a for the corruption leaves /c the only holder of
        // the old node; the root, checked first, no longer adds up.
        let a = Rc::make_mut(&mut r.data).children.get_mut("a".as_bytes()).unwrap();
        Rc::make_mut(&mut a.data).entries += 1;
        let err = r.audit().expect_err("a drifted count must fail the audit");
        assert_eq!(err, "cached entries 5 != 1 + children 5");
        assert_eq!(r.sharing().distinct_nodes, clean.distinct_nodes + 1);
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
