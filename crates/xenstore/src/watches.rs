//! The watch registry: an indexed prefix map over interned path segments.
//!
//! Dispatching a write used to scan every registered watch
//! (`O(watches)` host work per request — the `write_with_1000_watches`
//! hot path). The registry instead interns watch-prefix segments and keys
//! a sorted map by the interned segment sequence, so a written path with
//! `d` segments needs only `d + 1` exact prefix lookups to find every
//! covering watch — independent of how many watches are registered.
//!
//! Determinism: watches carry monotonically increasing registration ids,
//! and [`Watches::matching`] returns hits in id (= registration) order —
//! exactly the order the old linear scan produced. The *virtual-time*
//! charge for watch matching is still computed from the total registered
//! count by the daemon, so the index changes host wall-clock only.

use std::collections::{BTreeMap, HashMap};

use sim_core::DomId;

/// Interned path-segment id.
type Seg = u32;

/// One registered watch.
#[derive(Debug, Clone)]
struct Watch {
    owner: DomId,
    token: String,
}

/// The indexed watch registry.
#[derive(Debug, Default)]
pub(crate) struct Watches {
    /// Segment interner: only watch prefixes allocate ids, so the table
    /// stays bounded by the registered-watch vocabulary.
    intern: HashMap<String, Seg>,
    /// Registration id -> watch, in registration order.
    entries: BTreeMap<u64, Watch>,
    /// Interned prefix -> registration ids (ascending by construction).
    index: BTreeMap<Box<[Seg]>, Vec<u64>>,
    next_id: u64,
}

fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

impl Watches {
    /// Registers a watch on `prefix` (trailing slashes already trimmed by
    /// the daemon). Duplicate registrations are kept, like the old list.
    pub fn register(&mut self, owner: DomId, token: &str, prefix: &str) {
        let next_seg = |intern: &mut HashMap<String, Seg>, c: &str| {
            if let Some(id) = intern.get(c) {
                *id
            } else {
                let id = intern.len() as Seg;
                intern.insert(c.to_string(), id);
                id
            }
        };
        let segs: Box<[Seg]> = components(prefix)
            .map(|c| next_seg(&mut self.intern, c))
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert(
            id,
            Watch {
                owner,
                token: token.to_string(),
            },
        );
        self.index.entry(segs).or_default().push(id);
    }

    /// Removes every watch registered by `owner` under `token`.
    pub fn unregister(&mut self, owner: DomId, token: &str) {
        self.retain(|w_owner, w_token| !(w_owner == owner && w_token == token));
    }

    /// Drops every watch owned by `owner` (domain destruction).
    pub fn forget_owner(&mut self, owner: DomId) {
        self.retain(|w_owner, _| w_owner != owner);
    }

    fn retain(&mut self, keep: impl Fn(DomId, &str) -> bool) {
        let dead: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, w)| !keep(w.owner, &w.token))
            .map(|(id, _)| *id)
            .collect();
        if dead.is_empty() {
            return;
        }
        for id in &dead {
            self.entries.remove(id);
        }
        self.index.retain(|_, ids| {
            ids.retain(|id| !dead.contains(id));
            !ids.is_empty()
        });
    }

    /// Number of registered watches.
    pub fn count(&self) -> usize {
        self.entries.len()
    }

    /// Tokens of every watch whose prefix covers `path`, in registration
    /// order. Touches only the `d + 1` prefixes of the written path.
    pub fn matching(&self, path: &str) -> Vec<String> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        let mut segs: Vec<Seg> = Vec::new();
        let mut hits: Vec<u64> = Vec::new();
        // The empty prefix (a watch on "/") covers everything.
        if let Some(ids) = self.index.get(&segs[..] as &[Seg]) {
            hits.extend_from_slice(ids);
        }
        for c in components(path) {
            match self.intern.get(c) {
                // A segment no watch prefix ever used: no deeper prefix of
                // this path can be indexed either.
                None => break,
                Some(id) => segs.push(*id),
            }
            if let Some(ids) = self.index.get(&segs[..] as &[Seg]) {
                hits.extend_from_slice(ids);
            }
        }
        hits.sort_unstable();
        hits.iter().map(|id| self.entries[id].token.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_respects_prefix_semantics() {
        let mut w = Watches::default();
        w.register(DomId::DOM0, "a", "/local/domain/1");
        w.register(DomId::DOM0, "b", "/local/domain/1/device");
        w.register(DomId::DOM0, "c", "/local/domain/2");
        assert_eq!(w.matching("/local/domain/1/device/vif"), vec!["a", "b"]);
        assert_eq!(w.matching("/local/domain/1"), vec!["a"]);
        // "/local/domain/10" is NOT covered by a watch on "/local/domain/1".
        assert!(w.matching("/local/domain/10").is_empty());
        assert!(w.matching("/vm").is_empty());
    }

    #[test]
    fn root_watch_covers_everything() {
        let mut w = Watches::default();
        w.register(DomId::DOM0, "all", "/");
        assert_eq!(w.matching("/anything/at/all"), vec!["all"]);
    }

    #[test]
    fn hits_come_in_registration_order() {
        let mut w = Watches::default();
        w.register(DomId::DOM0, "deep", "/a/b");
        w.register(DomId::DOM0, "shallow", "/a");
        w.register(DomId::DOM0, "deep2", "/a/b");
        assert_eq!(w.matching("/a/b/c"), vec!["deep", "shallow", "deep2"]);
    }

    #[test]
    fn unregister_and_forget() {
        let mut w = Watches::default();
        w.register(DomId(1), "t", "/a");
        w.register(DomId(1), "t", "/b");
        w.register(DomId(1), "u", "/a");
        w.register(DomId(2), "t", "/a");
        assert_eq!(w.count(), 4);
        w.unregister(DomId(1), "t");
        assert_eq!(w.count(), 2);
        assert_eq!(w.matching("/a/x"), vec!["u", "t"]);
        w.forget_owner(DomId(1));
        assert_eq!(w.count(), 1);
        assert_eq!(w.matching("/a/x"), vec!["t"]);
    }
}
