//! Clone-family rollups: a provenance registry that attributes metrics to
//! the *root* of each clone family.
//!
//! The hypervisor feeds its family tree into the registry as domains are
//! created, cloned and destroyed ([`FamilyRegistry::register_root`],
//! [`register_child`](FamilyRegistry::register_child),
//! [`forget`](FamilyRegistry::forget)); the trace sink then resolves every
//! dom-attributed span, counter and gauge to its root family *at record
//! time* — so attribution is immune to domain-id reuse — and folds it here
//! immediately.
//!
//! Registry memory is O(live domains + families × distinct keys): the
//! per-domain root binding is dropped when a domain dies, while the family
//! row itself persists so end-of-run exports still cover extinct families.

use std::collections::BTreeMap;

use crate::ids::DomId;

/// Per-family aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilyStats {
    /// Name of the root domain (from its creation).
    pub root_name: String,
    /// Domains ever registered into the family (root included).
    pub members_total: u64,
    /// Currently live members.
    pub members_live: u64,
    /// Span stats keyed by span name: `(count, total_ns)`.
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    /// Counter totals keyed by counter name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last gauge value keyed by `(name, member domain id)`; entries die
    /// with the member (a dead domain no longer holds bytes).
    pub gauges: BTreeMap<(&'static str, u32), u64>,
}

/// The provenance registry; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FamilyRegistry {
    /// Live domain → its family root.
    dom_root: BTreeMap<u32, u32>,
    /// Family root → stats. Rows persist after the family dies out.
    families: BTreeMap<u32, FamilyStats>,
}

impl FamilyRegistry {
    /// Registers `dom` as the root of a new family.
    pub fn register_root(&mut self, dom: DomId, name: &str) {
        self.dom_root.insert(dom.0, dom.0);
        let f = self.families.entry(dom.0).or_default();
        f.root_name = name.to_string();
        f.members_total += 1;
        f.members_live += 1;
    }

    /// Registers `child` as a clone of `parent` (joining the parent's
    /// family). An unregistered parent — created before tracing was
    /// attached — makes the child a root of its own anonymous family.
    pub fn register_child(&mut self, child: DomId, parent: Option<DomId>) {
        let root = parent.and_then(|p| self.dom_root.get(&p.0).copied());
        match root {
            Some(r) => {
                self.dom_root.insert(child.0, r);
                let f = self.families.entry(r).or_default();
                f.members_total += 1;
                f.members_live += 1;
            }
            None => {
                let name = format!("dom{}", child.0);
                self.register_root(child, &name);
            }
        }
    }

    /// Unbinds a destroyed domain: the live count drops and its gauge
    /// entries die, but the family row (and lifetime totals) persist.
    pub fn forget(&mut self, dom: DomId) {
        if let Some(root) = self.dom_root.remove(&dom.0) {
            if let Some(f) = self.families.get_mut(&root) {
                f.members_live = f.members_live.saturating_sub(1);
                f.gauges.retain(|(_, d), _| *d != dom.0);
            }
        }
    }

    /// The family root of a live domain, if it is registered.
    pub fn root_of(&self, dom: DomId) -> Option<u32> {
        self.dom_root.get(&dom.0).copied()
    }

    /// Folds a span close into the family rooted at `root`.
    pub fn record_span(&mut self, root: u32, name: &'static str, dur_ns: u64) {
        if let Some(f) = self.families.get_mut(&root) {
            let e = f.spans.entry(name).or_insert((0, 0));
            e.0 += 1;
            e.1 += dur_ns;
        }
    }

    /// Folds a counter bump into the family rooted at `root`.
    pub fn record_counter(&mut self, root: u32, name: &'static str, delta: u64) {
        if let Some(f) = self.families.get_mut(&root) {
            *f.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Folds a gauge observation (last value wins per member).
    pub fn record_gauge(&mut self, root: u32, name: &'static str, dom: u32, value: u64) {
        if let Some(f) = self.families.get_mut(&root) {
            f.gauges.insert((name, dom), value);
        }
    }

    /// All families, keyed by root domain id.
    pub fn families(&self) -> &BTreeMap<u32, FamilyStats> {
        &self.families
    }

    /// Number of live registered domains.
    pub fn live_members(&self) -> usize {
        self.dom_root.len()
    }

    /// Drops per-family metric stats but keeps the lineage (membership and
    /// live bindings): lineage is structural state fed by lifecycle events
    /// that will not be replayed, so a metrics `clear` must not lose it.
    pub fn clear_stats(&mut self) {
        for f in self.families.values_mut() {
            f.spans.clear();
            f.counters.clear();
            f.gauges.clear();
        }
    }

    /// Flat `(family, metric, value)` rows for every family, using the
    /// metric naming scheme of [`render_family_csv`].
    pub fn rows(&self) -> Vec<FamilyRow> {
        let mut rows = Vec::new();
        for (root, f) in &self.families {
            let push = |rows: &mut Vec<FamilyRow>, metric: String, value: u64| {
                rows.push(FamilyRow {
                    family: *root,
                    root_name: f.root_name.clone(),
                    metric,
                    value,
                });
            };
            push(&mut rows, "members_live".into(), f.members_live);
            push(&mut rows, "members_total".into(), f.members_total);
            for (name, total) in &f.counters {
                push(&mut rows, format!("counter.{name}"), *total);
            }
            for ((name, dom), v) in &f.gauges {
                push(&mut rows, format!("gauge.{name}.dom{dom}"), *v);
            }
            for (name, (count, total_ns)) in &f.spans {
                push(&mut rows, format!("span.{name}.count"), *count);
                push(&mut rows, format!("span.{name}.total_ns"), *total_ns);
            }
        }
        rows
    }
}

/// One row of the family rollup: `(family root id, root name, metric, value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyRow {
    /// Root domain id of the family.
    pub family: u32,
    /// Name the root domain was created with.
    pub root_name: String,
    /// Metric key (`members_live`, `counter.<name>`, `gauge.<name>.dom<id>`,
    /// `span.<name>.count`, `span.<name>.total_ns`, `resident.<what>`, ...).
    pub metric: String,
    /// Metric value.
    pub value: u64,
}

/// Renders family rows as `family,root,metric,value` CSV, sorted by
/// `(family, metric)` — byte-identical for identical rows regardless of
/// the order they were produced in.
pub fn render_family_csv(mut rows: Vec<FamilyRow>) -> String {
    rows.sort_by(|a, b| (a.family, &a.metric).cmp(&(b.family, &b.metric)));
    let mut out = String::from("family,root,metric,value\n");
    for r in rows {
        out.push_str(&format!("{},{},{},{}\n", r.family, r.root_name, r.metric, r.value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_attributes_to_roots_across_generations() {
        let mut reg = FamilyRegistry::default();
        reg.register_root(DomId(1), "web");
        reg.register_child(DomId(2), Some(DomId(1)));
        reg.register_child(DomId(3), Some(DomId(2))); // grandchild
        assert_eq!(reg.root_of(DomId(3)), Some(1));
        reg.record_span(1, "clone.child", 100);
        reg.record_counter(1, "cow.fault", 2);
        let f = &reg.families()[&1];
        assert_eq!(f.members_total, 3);
        assert_eq!(f.spans["clone.child"], (1, 100));
        assert_eq!(f.counters["cow.fault"], 2);
    }

    #[test]
    fn forget_drops_live_binding_but_keeps_the_family() {
        let mut reg = FamilyRegistry::default();
        reg.register_root(DomId(1), "web");
        reg.register_child(DomId(2), Some(DomId(1)));
        reg.record_gauge(1, "bytes", 2, 42);
        reg.forget(DomId(2));
        assert_eq!(reg.root_of(DomId(2)), None);
        let f = &reg.families()[&1];
        assert_eq!(f.members_live, 1);
        assert_eq!(f.members_total, 2);
        assert!(f.gauges.is_empty(), "dead members hold no bytes");
        // Id reuse: a fresh root with the recycled id starts a new family.
        reg.register_root(DomId(2), "other");
        assert_eq!(reg.root_of(DomId(2)), Some(2));
    }

    #[test]
    fn unregistered_parent_starts_an_anonymous_family() {
        let mut reg = FamilyRegistry::default();
        reg.register_child(DomId(5), Some(DomId(4)));
        assert_eq!(reg.root_of(DomId(5)), Some(5));
        assert_eq!(reg.families()[&5].root_name, "dom5");
    }

    #[test]
    fn csv_renders_sorted_rows() {
        let mut reg = FamilyRegistry::default();
        reg.register_root(DomId(2), "b");
        reg.register_root(DomId(1), "a");
        reg.record_counter(2, "x", 7);
        let csv = render_family_csv(reg.rows());
        assert_eq!(
            csv,
            "family,root,metric,value\n\
             1,a,members_live,1\n\
             1,a,members_total,1\n\
             2,b,counter.x,7\n\
             2,b,members_live,1\n\
             2,b,members_total,1\n"
        );
    }
}
