//! A Xenstore-like hierarchical key-value registry.
//!
//! Xenstore is Xen's device registry: a small tree of string values with
//! per-node permissions. The toolstack populates it during domain creation
//! and xencloned clones a parent's entries for each child.
//!
//! Nephele's additions (§5.2.1) are implemented faithfully:
//!
//! * [`Xenstore::introduce_domain`] accepts an optional parent id — clone
//!   introductions are initiated by `xencloned` and carry the parent;
//! * the new [`Xenstore::xs_clone`] request deep-copies a directory on the
//!   daemon side in a single request, rewriting a device directory's
//!   domain-id references ([`XsCloneOp::Device`], Figs. 2–3). This slashes
//!   the number of request round-trips, which is what makes cloning's
//!   instantiation growth so much flatter than boot's in Fig. 4;
//! * an access log with rotation; the rotation pauses the daemon and is the
//!   source of the latency spikes in Fig. 4 ("Xenstore logs every incoming
//!   request, just as reported by LightVM").

pub mod log;
pub mod tree;

use std::fmt::{self, Write};
use std::rc::Rc;

use sim_core::{Clock, CostModel, DomId, TraceSink};

use crate::log::AccessLog;
use crate::tree::{DomidRewrite, Node, NodeRef};

/// Errors returned by Xenstore requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XsError {
    /// Path does not exist.
    NoEnt(String),
    /// Caller may not access the path.
    Denied(String),
    /// Malformed path.
    BadPath(String),
}

impl fmt::Display for XsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsError::NoEnt(p) => write!(f, "ENOENT: {p}"),
            XsError::Denied(p) => write!(f, "EACCES: {p}"),
            XsError::BadPath(p) => write!(f, "EINVAL: bad path {p}"),
        }
    }
}

impl std::error::Error for XsError {}

/// Convenience alias for Xenstore results.
pub type Result<T> = std::result::Result<T, XsError>;

/// What [`Xenstore::xs_clone`] does to the copied values (Fig. 3 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XsCloneOp {
    /// Normal in-depth directory copy, no rewriting.
    Basic,
    /// A device directory: every value referencing the parent domain is
    /// rewritten to reference the child ([`tree::DomidRewrite`]). The paper
    /// names one such operation per device class; in this model they are
    /// all this one rewrite.
    Device,
}

/// A handle on the subtree at a path, taken by [`Xenstore::subtree`]
/// without a request: the node itself (an `Rc` handle carrying the
/// rewrite overlay pending over it), or nothing when the path does not
/// exist. [`Xenstore::xs_clone`] grafts it without descending to the
/// source again, and a reader walks below it without resolving paths.
///
/// The handle is a snapshot: a write at or below its path replaces the
/// node in the tree and leaves the handle on the old one, and while it
/// is held, such a write copies the node first. Hold handles on small
/// subtrees, for as long as nothing writes under them; debug builds of
/// `xs_clone` check that its source is still the node at its path.
#[derive(Debug, Clone)]
pub struct Subtree {
    path: String,
    node: Option<Node>,
}

impl Subtree {
    /// The path the handle was taken at.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The node, or `None` when nothing was at the path.
    pub fn node(&self) -> Option<&Node> {
        self.node.as_ref()
    }

    /// Whether a node was at the path.
    pub fn exists(&self) -> bool {
        self.node.is_some()
    }
}

/// The split of the modelled resident memory into structurally shared and
/// unique entry bytes (see [`Xenstore::sharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct XsSharing {
    /// Bytes attributed to entries backed by a node the persistent tree
    /// shares between several paths (parent + clones).
    pub shared_entry_bytes: u64,
    /// Bytes attributed to entries with their own private node.
    pub unique_entry_bytes: u64,
    /// Distinct tree-node allocations actually resident.
    pub distinct_nodes: u64,
}

/// The Xenstore daemon.
#[derive(Debug)]
pub struct Xenstore {
    clock: Clock,
    costs: Rc<CostModel>,
    root: Node,
    access_log: AccessLog,
    /// Entries currently stored (cached; kept in sync with the tree).
    entry_count: u64,
    /// Approximate resident bytes per entry for the Dom0 memory accounting
    /// of Fig. 5 (the paper reports oxenstored growing to ~350 MB).
    resident_per_entry: u64,
    /// The [`Xenstore::with_home`] scope, kept between scopes so opening
    /// one allocates nothing.
    home: HomeScope,
    trace: TraceSink,
}

/// The directory holding every domain's home.
const DOMAIN_DIR: &str = "/local/domain";

/// A domain home detached from the persistent tree for the duration of
/// [`Xenstore::with_home`]. `dir` stands in for `/local/domain`: it holds
/// the home as its only child (or nothing, while the home does not
/// exist), so requests below the home descend from `dir` with the same
/// tree operations the root uses. Outside a scope, `dir` is empty.
#[derive(Debug)]
struct HomeScope {
    open: bool,
    /// `/local/domain/<domid>` of the open scope.
    path: String,
    dir: Node,
}

impl HomeScope {
    /// Whether a scope is open and `path` is its home or lies below it.
    fn covers(&self, path: &str) -> bool {
        self.open
            && path
                .strip_prefix(self.path.as_str())
                .is_some_and(|below| below.is_empty() || below.starts_with('/'))
    }

    /// Whether a scope is open and `path` is a proper ancestor of its
    /// home: that subtree is incomplete while the home is detached.
    fn is_ancestor(&self, path: &str) -> bool {
        self.open
            && path != self.path
            && self.path.starts_with(path)
            && (path == "/" || self.path.as_bytes()[path.len()] == b'/')
    }
}

fn validate(path: &str) -> Result<()> {
    if !path.starts_with('/') || path.contains("//") || path.len() > 1024 {
        return Err(XsError::BadPath(path.to_string()));
    }
    // A trailing slash (except the root itself) would produce an empty
    // final segment that every tree lookup silently drops.
    if path.len() > 1 && path.ends_with('/') {
        return Err(XsError::BadPath(path.to_string()));
    }
    Ok(())
}

impl Xenstore {
    /// Creates an empty store with the standard top-level directories.
    pub fn new(clock: Clock, costs: Rc<CostModel>) -> Self {
        let mut xs = Xenstore {
            clock,
            costs,
            root: Node::dir(DomId::DOM0),
            access_log: AccessLog::new(3000),
            entry_count: 0,
            resident_per_entry: 1024,
            home: HomeScope {
                open: false,
                path: String::new(),
                dir: Node::dir(DomId::DOM0),
            },
            trace: TraceSink::default(),
        };
        for dir in ["/tool", "/local", "/local/domain", "/vm", "/libxl"] {
            xs.mkdir_internal(DomId::DOM0, dir).expect("static dirs");
        }
        xs
    }

    /// Attaches a trace sink (disabled by default); request spans and
    /// rotation counters are recorded into it.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    // ------------------------------------------------------------------
    // Cost accounting
    // ------------------------------------------------------------------

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
            // Rotation stalls the daemon: the latency spikes of Fig. 4.
            let start = self.clock.now();
            let span = self.trace.span("xs.log_rotate");
            self.clock.advance(self.costs.xs_access_log_rotate);
            self.trace.count("xs.log_rotations", 1);
            drop(span);
            self.trace
                .record_ns("xs.log_rotate", self.clock.now().since(start).as_ns());
        }
    }

    /// Bumps the `xs.fail` counter for any error before returning it, so
    /// error outcomes show up in the trace next to the success counters.
    fn note_fail<T>(&self, r: Result<T>) -> Result<T> {
        if r.is_err() {
            self.trace.count("xs.fail", 1);
        }
        r
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// The node a request on `path` descends from, and the path below it:
    /// the open home scope's stand-in directory for the home and its
    /// descendants, the root for everything else. Every request resolves
    /// its path here.
    fn resolve<'p>(&self, path: &'p str) -> (&Node, &'p str) {
        if self.home.covers(path) {
            return (&self.home.dir, &path[DOMAIN_DIR.len()..]);
        }
        self.check_whole_tree_path(path);
        (&self.root, path)
    }

    /// [`Xenstore::resolve`] for a request that mutates the tree.
    fn resolve_mut<'p>(&mut self, path: &'p str) -> (&mut Node, &'p str) {
        if self.home.covers(path) {
            return (&mut self.home.dir, &path[DOMAIN_DIR.len()..]);
        }
        self.check_whole_tree_path(path);
        (&mut self.root, path)
    }

    /// Debug builds reject a request on a proper ancestor of an open
    /// home: the detached home is missing from its subtree.
    fn check_whole_tree_path(&self, path: &str) {
        debug_assert!(
            !self.home.is_ancestor(path),
            "{path} spans the detached home {}; whole-tree requests are not allowed inside with_home",
            self.home.path
        );
    }

    /// Debug builds reject whole-tree readers inside a home scope.
    fn check_no_home(&self, what: &str) {
        debug_assert!(
            !self.home.open,
            "{what} reads the whole tree and is not allowed inside with_home"
        );
    }

    /// Runs `f` with `/local/domain/<domid>` taken off the persistent tree
    /// (one descent), so every request at or below the home descends from
    /// the detached node instead of from the root; the home is grafted
    /// back (one descent) when `f` returns, whatever it returns. Requests
    /// charge exactly what they charge outside the scope: the store's
    /// entry count and the access log do not depend on where the home
    /// node sits. A home left behind by an earlier owner of
    /// `domid` is taken off with its entries, as `mkdir` would keep them.
    ///
    /// Inside the scope, requests on proper ancestors of the home (a
    /// listing of `/local/domain`, say) and whole-tree readers
    /// ([`Xenstore::sharing`], [`Xenstore::audit_tree`]) would see the
    /// tree without the home; debug builds panic on them.
    ///
    /// # Panics
    ///
    /// Panics if a home scope is already open: scopes do not nest.
    pub fn with_home<R>(&mut self, domid: DomId, f: impl FnOnce(&mut Self) -> R) -> R {
        let scope = &mut self.home;
        assert!(!scope.open, "with_home scopes do not nest");
        scope.path.clear();
        write!(scope.path, "{DOMAIN_DIR}/{}", domid.0).expect("writing to a String cannot fail");
        if let Some(home) = self.root.take(&scope.path) {
            scope
                .dir
                .graft(&scope.path[DOMAIN_DIR.len()..], home, DomId::DOM0);
        }
        scope.open = true;
        let r = f(self);
        let scope = &mut self.home;
        scope.open = false;
        if let Some(home) = scope.dir.take(&scope.path[DOMAIN_DIR.len()..]) {
            self.root.graft(&scope.path, home, DomId::DOM0);
        }
        r
    }

    // ------------------------------------------------------------------
    // Permissions
    // ------------------------------------------------------------------

    fn may_write(&self, who: DomId, path: &str) -> bool {
        if who.is_dom0() {
            return true;
        }
        // Guests may only write below their own home directory.
        path.starts_with(&format!("/local/domain/{}/", who.0))
            || path == format!("/local/domain/{}", who.0)
    }

    // ------------------------------------------------------------------
    // Core requests
    // ------------------------------------------------------------------

    /// Reads the value at `path`.
    pub fn read(&mut self, who: DomId, path: &str) -> Result<String> {
        let r = self.read_impl(who, path);
        self.note_fail(r)
    }

    fn read_impl(&mut self, who: DomId, path: &str) -> Result<String> {
        validate(path)?;
        self.charge_request();
        let _ = who;
        match self.lookup(path) {
            Some(node) => Ok(node.value().unwrap_or_default()),
            None => Err(XsError::NoEnt(path.to_string())),
        }
    }

    fn lookup(&self, path: &str) -> Option<NodeRef<'_>> {
        let (node, below) = self.resolve(path);
        node.lookup(below)
    }

    /// Whether a path exists (no logging; used internally and by tests).
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_some()
    }

    /// Introspection-only directory listing: child names without charging
    /// virtual time or logging an access. The auditor uses this to
    /// enumerate device nodes; the simulated machine must use
    /// [`Xenstore::directory`].
    pub fn peek_directory(&self, path: &str) -> Vec<String> {
        match self.lookup(path) {
            Some(node) => node.child_names().map(str::to_string).collect(),
            None => Vec::new(),
        }
    }

    /// Introspection-only value read: like [`Xenstore::read`] but without
    /// charging virtual time or logging an access. `None` for missing
    /// paths and value-less directories.
    pub fn peek(&self, path: &str) -> Option<String> {
        self.lookup(path).and_then(|node| node.value())
    }

    /// Introspection-only handle on the subtree at `path` (see
    /// [`Subtree`]), taken without charging virtual time or logging an
    /// access.
    pub fn subtree(&self, path: impl Into<String>) -> Subtree {
        let path = path.into();
        let node = self.lookup(&path).map(|n| n.detach());
        Subtree { path, node }
    }

    /// Whether `handle` still holds the node at its path: the same
    /// allocation under the same overlay, or nothing on both sides.
    fn is_current(&self, handle: &Subtree) -> bool {
        match (self.lookup(&handle.path), &handle.node) {
            (Some(now), Some(held)) => now.is(held),
            (now, held) => now.is_none() && held.is_none(),
        }
    }

    /// Introspection-only resident bytes of the entries under `path`
    /// (the node itself included), at the same logical per-entry cost as
    /// [`Xenstore::resident_bytes`]. No virtual time is charged; the
    /// family rollups use this to attribute `/local/domain/<id>` subtree
    /// bytes to clone families. 0 for missing paths.
    pub fn subtree_entry_bytes(&self, path: &str) -> u64 {
        match self.lookup(path) {
            Some(node) => node.entry_count() * self.resident_per_entry,
            None => 0,
        }
    }

    /// Writes `value` at `path`, creating intermediate directories and
    /// charging the per-request costs.
    pub fn write(&mut self, who: DomId, path: &str, value: &str) -> Result<()> {
        let r = self.write_impl(who, path, value);
        self.note_fail(r)
    }

    fn write_impl(&mut self, who: DomId, path: &str, value: &str) -> Result<()> {
        validate(path)?;
        if !self.may_write(who, path) {
            return Err(XsError::Denied(path.to_string()));
        }
        self.charge_request();
        self.write_unlogged(who, path, value);
        Ok(())
    }

    fn write_unlogged(&mut self, who: DomId, path: &str, value: &str) {
        let (node, below) = self.resolve_mut(path);
        let created = node.insert(below, value, who);
        self.entry_count += created;
    }

    fn mkdir_internal(&mut self, who: DomId, path: &str) -> Result<()> {
        validate(path)?;
        let (node, below) = self.resolve_mut(path);
        let created = node.mkdir(below, who);
        self.entry_count += created;
        Ok(())
    }

    /// Removes the subtree at `path`, keeping the entry count in step;
    /// `None` if nothing is there.
    fn remove_unlogged(&mut self, path: &str) -> Option<()> {
        let (node, below) = self.resolve_mut(path);
        let removed = node.remove(below)?;
        self.entry_count = self.entry_count.saturating_sub(removed);
        Some(())
    }

    /// Creates a directory node.
    pub fn mkdir(&mut self, who: DomId, path: &str) -> Result<()> {
        let r = self.mkdir_impl(who, path);
        self.note_fail(r)
    }

    fn mkdir_impl(&mut self, who: DomId, path: &str) -> Result<()> {
        validate(path)?;
        if !self.may_write(who, path) {
            return Err(XsError::Denied(path.to_string()));
        }
        self.charge_request();
        self.mkdir_internal(who, path)?;
        Ok(())
    }

    /// Removes `path` and everything beneath it.
    pub fn rm(&mut self, who: DomId, path: &str) -> Result<()> {
        let r = self.rm_impl(who, path);
        self.note_fail(r)
    }

    fn rm_impl(&mut self, who: DomId, path: &str) -> Result<()> {
        validate(path)?;
        if !self.may_write(who, path) {
            return Err(XsError::Denied(path.to_string()));
        }
        self.charge_request();
        self.remove_unlogged(path)
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        Ok(())
    }

    /// Lists the child names of a directory.
    pub fn directory(&mut self, who: DomId, path: &str) -> Result<Vec<String>> {
        let r = self.directory_impl(who, path);
        self.note_fail(r)
    }

    fn directory_impl(&mut self, who: DomId, path: &str) -> Result<Vec<String>> {
        validate(path)?;
        let _ = who;
        self.charge_request();
        match self.lookup(path) {
            Some(node) => Ok(node.child_names().map(str::to_string).collect()),
            None => Err(XsError::NoEnt(path.to_string())),
        }
    }

    // ------------------------------------------------------------------
    // Domain management
    // ------------------------------------------------------------------

    /// Introduces a domain to the store, creating its home directory. For
    /// clones, `parent` carries the parent domain id (the augmented
    /// introduction request of §5.2.1).
    pub fn introduce_domain(&mut self, domid: DomId, parent: Option<DomId>) -> Result<()> {
        let r = self.introduce_domain_impl(domid, parent);
        self.note_fail(r)
    }

    fn introduce_domain_impl(&mut self, domid: DomId, parent: Option<DomId>) -> Result<()> {
        self.clock.advance(self.costs.xs_introduce);
        self.charge_request();
        self.scrub_stale_backends(domid);
        let mut path = String::with_capacity(DOMAIN_DIR.len() + 18);
        write!(path, "{DOMAIN_DIR}/{}", domid.0).expect("formatting into a String cannot fail");
        self.mkdir_internal(DomId::DOM0, &path)?;
        if let Some(p) = parent {
            path.push_str("/parent");
            self.write_unlogged(DomId::DOM0, &path, &p.0.to_string());
        }
        Ok(())
    }

    /// Garbage-collects Dom0-side backend subtrees left behind by a
    /// *previous* owner of `domid`. Destruction deliberately leaves them
    /// in place (see [`Xenstore::forget_domain`]); now that the domid
    /// allocator reuses freed ids, a domain taking over an id must not
    /// inherit its predecessor's stale device nodes — the auditor's
    /// orphan sweep is scoped to live domains and would (rightly) flag
    /// them. Pure bookkeeping folded into the introduce request: no
    /// extra virtual time, and a no-op for fresh ids, so figures that
    /// never destroy a domain are byte-identical.
    fn scrub_stale_backends(&mut self, domid: DomId) {
        for class in self.peek_directory("/local/domain/0/backend") {
            self.remove_unlogged(&format!("/local/domain/0/backend/{class}/{}", domid.0));
        }
    }

    /// Removes a domain's subtree on destruction.
    pub fn forget_domain(&mut self, domid: DomId) {
        let home = format!("/local/domain/{}", domid.0);
        if self.exists(&home) {
            let _ = self.rm(DomId::DOM0, &home);
        }
        // NOTE: the Dom0-side backend entries
        // (`/local/domain/0/backend/<class>/<domid>`) are deliberately
        // left in place, mirroring the legacy toolstack teardown. Every
        // committed figure's virtual time depends on the store's entry
        // count (`xs_per_existing_entry`), so removing them here would
        // drift the determinism-gated CSVs; the device auditor
        // (invariant 11) scopes its orphan sweep to live domains
        // accordingly.
    }

    // ------------------------------------------------------------------
    // xs_clone (Nephele)
    // ------------------------------------------------------------------

    /// Clones the directory `src` holds to `child_path` in a single
    /// request (§5.2.1, Fig. 2). Depending on `op`, values referencing the
    /// parent domain are rewritten to reference the child. The source is
    /// a [`Subtree`] handle, so a caller cloning one directory for many
    /// children resolves it once; the request validates its path, checks
    /// the caller and charges exactly as one naming the path would, and
    /// fails with [`XsError::NoEnt`] on a handle that holds nothing.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `src` no longer holds the node at its
    /// path: something wrote there after the handle was taken.
    pub fn xs_clone(
        &mut self,
        who: DomId,
        op: XsCloneOp,
        parent_domid: DomId,
        child_domid: DomId,
        src: &Subtree,
        child_path: &str,
    ) -> Result<()> {
        let start = self.clock.now();
        let r = self.xs_clone_impl(who, op, parent_domid, child_domid, src, child_path);
        if r.is_ok() {
            self.trace
                .record_ns("xs.xs_clone", self.clock.now().since(start).as_ns());
        }
        self.note_fail(r)
    }

    fn xs_clone_impl(
        &mut self,
        who: DomId,
        op: XsCloneOp,
        parent_domid: DomId,
        child_domid: DomId,
        src: &Subtree,
        child_path: &str,
    ) -> Result<()> {
        validate(&src.path)?;
        validate(child_path)?;
        if !who.is_dom0() {
            return Err(XsError::Denied(src.path.clone()));
        }
        debug_assert!(
            self.is_current(src),
            "stale Subtree handle: {} changed after the handle was taken",
            src.path
        );
        let _span = self.trace.span("xs.xs_clone");
        // One request round-trip for the entire directory.
        self.charge_request();

        // O(path-depth) on the host: graft a structurally-shared handle to
        // the source subtree instead of deep-copying it. The *modelled*
        // daemon still walks every entry, so the virtual-time charge keeps
        // its per-entry term and the figure CSVs stay byte-identical.
        let src = src
            .node
            .clone()
            .ok_or_else(|| XsError::NoEnt(src.path.clone()))?;
        let entries = src.count_entries();
        self.clock
            .advance(self.costs.xs_clone_per_entry.saturating_mul(entries));

        // The domid rewrite is a lazy overlay: values are rewritten when
        // read through the clone, and a shared node is materialized only
        // when first written through.
        let rewritten = match op {
            XsCloneOp::Basic => src,
            XsCloneOp::Device => src.with_rewrite(DomidRewrite {
                old: parent_domid.0,
                new: child_domid.0,
            }),
        };
        let (node, below) = self.resolve_mut(child_path);
        let delta = node.graft(below, rewritten, DomId::DOM0);
        self.entry_count = (self.entry_count as i64 + delta).max(0) as u64;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection / accounting
    // ------------------------------------------------------------------

    /// Total entries in the store.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Modelled resident memory of the daemon in bytes (Fig. 5 Dom0 side).
    /// This is the *logical* accounting — one slot per entry — and is
    /// deliberately unchanged by structural sharing, so the Fig. 5 curves
    /// keep reproducing oxenstored's growth. See [`Xenstore::sharing`] for
    /// the shared/unique split.
    pub fn resident_bytes(&self) -> u64 {
        self.entry_count * self.resident_per_entry
    }

    /// Splits [`Xenstore::resident_bytes`] into structurally-shared and
    /// unique entry bytes. An entry is *shared* when the persistent tree
    /// backs it with a node reachable through more than one path — e.g.
    /// the subtree a clone still has in common with its parent; it moves
    /// to *unique* once either side diverges (writes through it). The two
    /// always sum to `resident_bytes()`. O(distinct nodes) on the host.
    pub fn sharing(&self) -> XsSharing {
        self.check_no_home("sharing");
        let stats = self.root.sharing();
        // The root node itself is not an "entry" (entry_count excludes
        // it), and it is always unique.
        let unique = stats.unique_logical.saturating_sub(1);
        XsSharing {
            shared_entry_bytes: stats.shared_logical * self.resident_per_entry,
            unique_entry_bytes: unique * self.resident_per_entry,
            distinct_nodes: stats.distinct_nodes,
        }
    }

    /// Cross-checks the persistent tree against its cached accounting, in
    /// one walk over its distinct nodes: every per-node cached entry
    /// count, the daemon's cached `entry_count`, and the walk's logical
    /// total must all agree. Used by the platform auditor.
    pub fn audit_tree(&self) -> std::result::Result<(), String> {
        self.check_no_home("audit_tree");
        let stats = self.root.audit()?;
        let total = self.root.count_entries();
        if total != self.entry_count + 1 {
            return Err(format!(
                "cached entry_count {} != tree total {} - root",
                self.entry_count, total
            ));
        }
        if stats.logical_entries != total {
            return Err(format!(
                "sharing walk saw {} logical entries, tree counts {}",
                stats.logical_entries, total
            ));
        }
        Ok(())
    }

    /// Enables or disables access logging (the paper notes disabling it
    /// removes the spikes but not the baseline trend).
    pub fn set_access_logging(&mut self, on: bool) {
        self.access_log.set_enabled(on);
    }

    /// Number of log rotations so far (spike count in Fig. 4).
    pub fn log_rotations(&self) -> u64 {
        self.access_log.rotations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs() -> Xenstore {
        Xenstore::new(Clock::new(), Rc::new(CostModel::free()))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut xs = xs();
        xs.write(DomId::DOM0, "/local/domain/1/name", "guest").unwrap();
        assert_eq!(xs.read(DomId::DOM0, "/local/domain/1/name").unwrap(), "guest");
    }

    #[test]
    fn read_missing_is_enoent() {
        let mut xs = xs();
        assert!(matches!(
            xs.read(DomId::DOM0, "/nope"),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn bad_paths_rejected() {
        let mut xs = xs();
        assert!(matches!(
            xs.write(DomId::DOM0, "relative", "x"),
            Err(XsError::BadPath(_))
        ));
        assert!(matches!(
            xs.write(DomId::DOM0, "/a//b", "x"),
            Err(XsError::BadPath(_))
        ));
        // Trailing slashes would leave an empty final segment that tree
        // lookups silently drop: reject them (except the root itself).
        assert!(matches!(
            xs.write(DomId::DOM0, "/local/domain/1/", "x"),
            Err(XsError::BadPath(_))
        ));
        assert!(matches!(
            xs.rm(DomId::DOM0, "/tool/"),
            Err(XsError::BadPath(_))
        ));
        // The root path "/" is still fine.
        assert!(xs.directory(DomId::DOM0, "/").is_ok());
    }

    #[test]
    fn guest_confined_to_home_directory() {
        let mut xs = xs();
        let guest = DomId(7);
        assert!(matches!(
            xs.write(guest, "/local/domain/8/attack", "x"),
            Err(XsError::Denied(_))
        ));
        xs.write(guest, "/local/domain/7/data", "ok").unwrap();
    }

    #[test]
    fn directory_lists_children() {
        let mut xs = xs();
        xs.write(DomId::DOM0, "/local/domain/1/device/vif/0/mac", "aa").unwrap();
        xs.write(DomId::DOM0, "/local/domain/1/device/vif/0/state", "4").unwrap();
        let mut kids = xs.directory(DomId::DOM0, "/local/domain/1/device/vif/0").unwrap();
        kids.sort();
        assert_eq!(kids, vec!["mac", "state"]);
    }

    #[test]
    fn rm_removes_subtree_and_updates_count() {
        let mut xs = xs();
        let base = xs.entry_count();
        xs.write(DomId::DOM0, "/local/domain/1/a/b", "x").unwrap();
        xs.write(DomId::DOM0, "/local/domain/1/a/c", "y").unwrap();
        assert!(xs.entry_count() > base);
        xs.rm(DomId::DOM0, "/local/domain/1").unwrap();
        assert_eq!(xs.entry_count(), base);
        assert!(!xs.exists("/local/domain/1"));
    }

    #[test]
    fn introduce_records_parent() {
        let mut xs = xs();
        xs.introduce_domain(DomId(9), Some(DomId(4))).unwrap();
        assert_eq!(xs.read(DomId::DOM0, "/local/domain/9/parent").unwrap(), "4");
    }

    #[test]
    fn forget_domain_clears_state() {
        let mut xs = xs();
        xs.introduce_domain(DomId(9), None).unwrap();
        xs.forget_domain(DomId(9));
        assert!(!xs.exists("/local/domain/9"));
    }

    #[test]
    fn xs_clone_copies_and_rewrites() {
        let mut xs = xs();
        let p = DomId(3);
        let c = DomId(8);
        xs.write(DomId::DOM0, "/local/domain/3/device/vif/0/backend",
                 "/local/domain/0/backend/vif/3/0").unwrap();
        xs.write(DomId::DOM0, "/local/domain/3/device/vif/0/backend-id", "0").unwrap();
        xs.write(DomId::DOM0, "/local/domain/3/device/vif/0/mac", "00:16:3e:01:02:03").unwrap();
        xs.write(DomId::DOM0, "/local/domain/3/device/vif/0/state", "4").unwrap();

        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            p,
            c,
            &xs.subtree("/local/domain/3/device/vif/0"),
            "/local/domain/8/device/vif/0",
        )
        .unwrap();

        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/8/device/vif/0/backend").unwrap(),
            "/local/domain/0/backend/vif/8/0",
            "domid reference rewritten"
        );
        // MAC is identical by design (transparent cloning, §5.2.1).
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/8/device/vif/0/mac").unwrap(),
            "00:16:3e:01:02:03"
        );
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/8/device/vif/0/state").unwrap(),
            "4"
        );
        // The parent's entries are untouched.
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/3/device/vif/0/backend").unwrap(),
            "/local/domain/0/backend/vif/3/0"
        );
    }

    #[test]
    fn xs_clone_basic_does_not_rewrite() {
        let mut xs = xs();
        xs.write(DomId::DOM0, "/local/domain/3/data/ref", "/local/domain/3/x").unwrap();
        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Basic,
            DomId(3),
            DomId(8),
            &xs.subtree("/local/domain/3/data"),
            "/local/domain/8/data",
        )
        .unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/8/data/ref").unwrap(),
            "/local/domain/3/x"
        );
    }

    #[test]
    fn xs_clone_requires_dom0() {
        let mut xs = xs();
        xs.write(DomId::DOM0, "/local/domain/3/data/x", "1").unwrap();
        assert!(matches!(
            xs.xs_clone(
                DomId(3),
                XsCloneOp::Basic,
                DomId(3),
                DomId(8),
                &xs.subtree("/local/domain/3/data"),
                "/local/domain/8/data",
            ),
            Err(XsError::Denied(_))
        ));
    }

    #[test]
    fn a_subtree_handle_clones_to_many_children_and_charges_each_request() {
        let clock = Clock::new();
        let mut xs = Xenstore::new(clock.clone(), Rc::new(CostModel::calibrated()));
        xs.write(DomId::DOM0, "/local/domain/3/device/vif/0/frontend-id", "3")
            .unwrap();
        let src = xs.subtree("/local/domain/3/device/vif/0");
        let missing = xs.subtree("/local/domain/3/device/vif/1");
        assert!(src.exists() && !missing.exists());
        let mut gained = Vec::new();
        for child in [8, 9] {
            let entries = xs.entry_count();
            let to = format!("/local/domain/{child}/device/vif/0");
            xs.xs_clone(DomId::DOM0, XsCloneOp::Device, DomId(3), DomId(child), &src, &to)
                .unwrap();
            assert_eq!(xs.peek(&format!("{to}/frontend-id")), Some(child.to_string()));
            gained.push(xs.entry_count() - entries);
        }
        assert_eq!(gained[0], gained[1], "each child gains the same entries");

        // A handle on nothing is a request that fails like a missing
        // path: charged, then ENOENT naming the path, and no entry made.
        let (t0, entries) = (clock.now(), xs.entry_count());
        let r = xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            DomId(3),
            DomId(10),
            &missing,
            "/local/domain/10/device/vif/1",
        );
        assert_eq!(r, Err(XsError::NoEnt("/local/domain/3/device/vif/1".into())));
        assert!(clock.now() > t0);
        assert_eq!(xs.entry_count(), entries);
        xs.audit_tree().unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale Subtree handle: /local/domain/3/data changed")]
    fn xs_clone_panics_on_a_handle_written_under() {
        let mut xs = xs();
        xs.write(DomId::DOM0, "/local/domain/3/data/x", "1").unwrap();
        let src = xs.subtree("/local/domain/3/data");
        xs.write(DomId::DOM0, "/local/domain/3/data/x", "2").unwrap();
        let _ = xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Basic,
            DomId(3),
            DomId(8),
            &src,
            "/local/domain/8/data",
        );
    }

    #[test]
    fn request_cost_scales_with_store_size() {
        let clock = Clock::new();
        let mut xs = Xenstore::new(clock.clone(), Rc::new(CostModel::calibrated()));
        // Populate the store.
        for i in 0..500 {
            xs.write(DomId::DOM0, &format!("/tool/pad/{i}"), "x").unwrap();
        }
        let t0 = clock.now();
        xs.write(DomId::DOM0, "/tool/probe1", "x").unwrap();
        let small = clock.now().since(t0);
        for i in 500..5000 {
            xs.write(DomId::DOM0, &format!("/tool/pad/{i}"), "x").unwrap();
        }
        let t1 = clock.now();
        xs.write(DomId::DOM0, "/tool/probe2", "x").unwrap();
        let big = clock.now().since(t1);
        assert!(big > small, "cost must grow with entry count");
    }

    #[test]
    fn access_log_rotation_spikes() {
        let clock = Clock::new();
        let mut xs = Xenstore::new(clock.clone(), Rc::new(CostModel::calibrated()));
        let rotate_cost = CostModel::calibrated().xs_access_log_rotate;
        let mut spikes = 0;
        for i in 0..7000u32 {
            let t0 = clock.now();
            xs.write(DomId::DOM0, &format!("/tool/k{}", i % 64), "v").unwrap();
            if clock.now().since(t0) >= rotate_cost {
                spikes += 1;
            }
        }
        assert_eq!(spikes as u64, xs.log_rotations());
        assert!(spikes >= 2, "rotation threshold crossed at least twice");
    }

    #[test]
    fn disabling_logging_stops_rotation() {
        let mut xs = xs();
        xs.set_access_logging(false);
        for i in 0..10_000u32 {
            xs.write(DomId::DOM0, &format!("/tool/k{}", i % 64), "v").unwrap();
        }
        assert_eq!(xs.log_rotations(), 0);
    }

    #[test]
    fn resident_bytes_track_entries() {
        let mut xs = xs();
        let before = xs.resident_bytes();
        xs.write(DomId::DOM0, "/tool/a", "1").unwrap();
        assert!(xs.resident_bytes() > before);
    }

    #[test]
    fn sharing_splits_resident_bytes() {
        let mut xs = xs();
        for i in 0..16 {
            xs.write(DomId::DOM0, &format!("/local/domain/3/data/k{i}"), "v")
                .unwrap();
        }
        let before = xs.sharing();
        assert_eq!(before.shared_entry_bytes, 0, "nothing cloned yet");
        assert_eq!(
            before.shared_entry_bytes + before.unique_entry_bytes,
            xs.resident_bytes()
        );

        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Basic,
            DomId(3),
            DomId(9),
            &xs.subtree("/local/domain/3/data"),
            "/local/domain/9/data",
        )
        .unwrap();
        let cloned = xs.sharing();
        assert!(cloned.shared_entry_bytes > 0, "clone shares its subtree");
        assert_eq!(
            cloned.shared_entry_bytes + cloned.unique_entry_bytes,
            xs.resident_bytes()
        );

        // Diverging the clone moves bytes from shared to unique.
        xs.write(DomId::DOM0, "/local/domain/9/data/k0", "w").unwrap();
        let diverged = xs.sharing();
        assert!(diverged.shared_entry_bytes < cloned.shared_entry_bytes);
        assert!(diverged.unique_entry_bytes > cloned.unique_entry_bytes);
        assert_eq!(
            diverged.shared_entry_bytes + diverged.unique_entry_bytes,
            xs.resident_bytes()
        );
        xs.audit_tree().unwrap();
    }

    #[test]
    fn home_scope_grafts_the_home_back_after_an_error() {
        let mut xs = xs();
        let home = "/local/domain/5";
        let r = xs.with_home(DomId(5), |xs| -> Result<()> {
            xs.introduce_domain(DomId(5), Some(DomId(3)))?;
            xs.write(DomId::DOM0, &format!("{home}/name"), "c1")?;
            xs.read(DomId::DOM0, &format!("{home}/missing"))?;
            xs.write(DomId::DOM0, &format!("{home}/never"), "x")
        });
        assert!(matches!(r, Err(XsError::NoEnt(_))));
        assert_eq!(xs.read(DomId::DOM0, &format!("{home}/name")).unwrap(), "c1");
        assert_eq!(
            xs.read(DomId::DOM0, &format!("{home}/parent")).unwrap(),
            "3"
        );
        assert!(!xs.exists(&format!("{home}/never")));
        assert_eq!(xs.peek_directory("/local/domain"), ["5"]);
        xs.audit_tree().unwrap();
    }

    #[test]
    fn home_scope_keeps_an_earlier_owners_entries_like_mkdir() {
        // Ids can keep an old home, e.g. when the hypervisor alone
        // destroyed the domain. Introducing a new owner keeps the stale
        // entries with or without the scope, at the same charges.
        let run = |scoped: bool| {
            let clock = Clock::new();
            let mut xs = Xenstore::new(clock.clone(), Rc::new(CostModel::calibrated()));
            xs.write(DomId::DOM0, "/local/domain/7/stale", "old")
                .unwrap();
            xs.write(DomId::DOM0, "/local/domain/8/other", "x").unwrap();
            let body = |xs: &mut Xenstore| {
                xs.introduce_domain(DomId(7), Some(DomId(2))).unwrap();
                xs.write(DomId::DOM0, "/local/domain/7/name", "new")
                    .unwrap();
            };
            if scoped {
                xs.with_home(DomId(7), body);
            } else {
                body(&mut xs);
            }
            xs.audit_tree().unwrap();
            let dump: Vec<(String, Option<String>)> = xs
                .peek_directory("/local/domain/7")
                .into_iter()
                .map(|k| {
                    let v = xs.peek(&format!("/local/domain/7/{k}"));
                    (k, v)
                })
                .collect();
            (dump, xs.entry_count(), clock.now())
        };
        let scoped = run(true);
        assert_eq!(scoped, run(false));
        assert!(scoped
            .0
            .contains(&("stale".to_string(), Some("old".to_string()))));
    }

    #[cfg(debug_assertions)]
    mod whole_tree_readers_panic_inside_a_home_scope {
        use super::*;

        fn in_scope(f: impl FnOnce(&mut Xenstore)) {
            let mut xs = xs();
            xs.introduce_domain(DomId(4), None).unwrap();
            xs.with_home(DomId(4), f);
        }

        #[test]
        #[should_panic(expected = "not allowed inside with_home")]
        fn sharing() {
            in_scope(|xs| {
                xs.sharing();
            });
        }

        #[test]
        #[should_panic(expected = "not allowed inside with_home")]
        fn audit_tree() {
            in_scope(|xs| {
                let _ = xs.audit_tree();
            });
        }

        #[test]
        #[should_panic(expected = "not allowed inside with_home")]
        fn listing_the_domain_directory() {
            in_scope(|xs| {
                let _ = xs.directory(DomId::DOM0, "/local/domain");
            });
        }
    }

    #[test]
    fn clone_of_clone_stacks_lazy_rewrites() {
        let mut xs = xs();
        xs.write(
            DomId::DOM0,
            "/local/domain/3/device/vif/0/frontend",
            "/local/domain/3/device/vif/0",
        )
        .unwrap();
        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            DomId(3),
            DomId(8),
            &xs.subtree("/local/domain/3/device/vif/0"),
            "/local/domain/8/device/vif/0",
        )
        .unwrap();
        // Clone the (still lazily-rewritten) clone.
        xs.xs_clone(
            DomId::DOM0,
            XsCloneOp::Device,
            DomId(8),
            DomId(12),
            &xs.subtree("/local/domain/8/device/vif/0"),
            "/local/domain/12/device/vif/0",
        )
        .unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/12/device/vif/0/frontend").unwrap(),
            "/local/domain/12/device/vif/0"
        );
        assert_eq!(
            xs.read(DomId::DOM0, "/local/domain/8/device/vif/0/frontend").unwrap(),
            "/local/domain/8/device/vif/0"
        );
        xs.audit_tree().unwrap();
    }
}
