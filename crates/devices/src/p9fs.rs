//! The 9pfs (Plan 9 filesystem) split device.
//!
//! 9pfs is the NFS-like remote filesystem Unikraft uses as its root
//! filesystem; the backend runs as a **QEMU process in Dom0** and keeps a
//! table of file ids (*fids*) for all open files, analogous to a kernel
//! file-descriptor table (§5.2.1).
//!
//! Cloning choices follow the paper: rather than launching a new backend
//! process per clone (which "stresses the limits of the host system when
//! reaching a high density of clones"), Nephele reuses the **same backend
//! process for the parent and all its clones**, and extends QMP with a
//! cloning request that duplicates the parent's fids for the child —
//! implemented in [`P9Backend::clone_fids`].

use std::collections::BTreeMap;

use sim_core::DomId;

use crate::memfs::{FsError, MemFs};

/// A client-chosen file id.
pub type Fid = u32;

/// State behind one fid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FidState {
    /// Path relative to the export root.
    pub path: String,
    /// Whether the fid has been opened for I/O.
    pub open: bool,
    /// Current file offset for sequential I/O.
    pub offset: usize,
}

/// 9p protocol requests (the subset the workloads use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P9Request {
    /// Establish a fid for the export root.
    Attach {
        /// The new fid.
        fid: Fid,
    },
    /// Derive `newfid` from `fid` by walking `names`.
    Walk {
        /// Existing fid.
        fid: Fid,
        /// Fid to establish.
        newfid: Fid,
        /// Path components to walk.
        names: Vec<String>,
    },
    /// Open a fid for I/O.
    Open {
        /// Fid to open.
        fid: Fid,
    },
    /// Create a file under the directory `fid` references and open it as
    /// `fid`.
    Create {
        /// Directory fid, re-pointed at the new file.
        fid: Fid,
        /// New file name.
        name: String,
    },
    /// Read up to `count` bytes at `offset`.
    Read {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: usize,
        /// Maximum bytes.
        count: usize,
    },
    /// Write bytes at `offset`.
    Write {
        /// Open fid.
        fid: Fid,
        /// Byte offset.
        offset: usize,
        /// Data to write.
        data: Vec<u8>,
    },
    /// Release a fid.
    Clunk {
        /// Fid to release.
        fid: Fid,
    },
}

/// 9p protocol responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P9Response {
    /// Generic success.
    Ok,
    /// Read result.
    Data(Vec<u8>),
    /// Write result (bytes written).
    Count(usize),
    /// Protocol or filesystem error.
    Error(String),
}

/// The 9pfs backend state living inside a QEMU process.
#[derive(Debug, Clone)]
pub struct P9Backend {
    export_root: String,
    /// Fids keyed by (client domain, fid): one process serves the whole
    /// clone family, so the table is namespaced per domain.
    fids: BTreeMap<(u32, Fid), FidState>,
}

impl P9Backend {
    /// Creates a backend exporting `export_root` of the Dom0 filesystem.
    pub fn new(export_root: &str) -> Self {
        P9Backend {
            export_root: export_root.trim_end_matches('/').to_string(),
            fids: BTreeMap::new(),
        }
    }

    /// The export root.
    pub fn export_root(&self) -> &str {
        &self.export_root
    }

    /// Number of fids currently held by `dom`.
    pub fn fid_count(&self, dom: DomId) -> usize {
        self.fids.keys().filter(|(d, _)| *d == dom.0).count()
    }

    fn abs(&self, rel: &str) -> String {
        if rel.is_empty() {
            self.export_root.clone()
        } else {
            format!("{}/{rel}", self.export_root)
        }
    }

    /// Handles one protocol request from `dom` against the shared Dom0
    /// filesystem.
    pub fn handle(&mut self, fs: &mut MemFs, dom: DomId, req: P9Request) -> P9Response {
        match self.handle_inner(fs, dom, req) {
            Ok(r) => r,
            Err(e) => P9Response::Error(e.to_string()),
        }
    }

    fn fid(&self, dom: DomId, fid: Fid) -> Result<&FidState, FsError> {
        self.fids
            .get(&(dom.0, fid))
            .ok_or_else(|| FsError::NotFound(format!("fid {fid}")))
    }

    fn handle_inner(
        &mut self,
        fs: &mut MemFs,
        dom: DomId,
        req: P9Request,
    ) -> Result<P9Response, FsError> {
        match req {
            P9Request::Attach { fid } => {
                self.fids.insert(
                    (dom.0, fid),
                    FidState {
                        path: String::new(),
                        open: false,
                        offset: 0,
                    },
                );
                Ok(P9Response::Ok)
            }
            P9Request::Walk { fid, newfid, names } => {
                let base = self.fid(dom, fid)?.path.clone();
                let mut path = base;
                for n in names {
                    if path.is_empty() {
                        path = n;
                    } else {
                        path = format!("{path}/{n}");
                    }
                }
                if !fs.exists(&self.abs(&path)) {
                    return Err(FsError::NotFound(path));
                }
                self.fids.insert(
                    (dom.0, newfid),
                    FidState {
                        path,
                        open: false,
                        offset: 0,
                    },
                );
                Ok(P9Response::Ok)
            }
            P9Request::Open { fid } => {
                let st = self
                    .fids
                    .get_mut(&(dom.0, fid))
                    .ok_or_else(|| FsError::NotFound(format!("fid {fid}")))?;
                st.open = true;
                st.offset = 0;
                Ok(P9Response::Ok)
            }
            P9Request::Create { fid, name } => {
                let dir = self.fid(dom, fid)?.path.clone();
                let rel = if dir.is_empty() {
                    name.clone()
                } else {
                    format!("{dir}/{name}")
                };
                let abs = self.abs(&rel);
                match fs.create(&abs) {
                    Ok(()) | Err(FsError::Exists(_)) => {}
                    Err(e) => return Err(e),
                }
                let st = self
                    .fids
                    .get_mut(&(dom.0, fid))
                    .ok_or_else(|| FsError::NotFound(format!("fid {fid}")))?;
                st.path = rel;
                st.open = true;
                st.offset = 0;
                Ok(P9Response::Ok)
            }
            P9Request::Read { fid, offset, count } => {
                let st = self.fid(dom, fid)?;
                if !st.open {
                    return Err(FsError::WrongType(format!("fid {fid} not open")));
                }
                let data = fs.read(&self.abs(&st.path), offset, count)?;
                Ok(P9Response::Data(data))
            }
            P9Request::Write { fid, offset, data } => {
                let path = {
                    let st = self.fid(dom, fid)?;
                    if !st.open {
                        return Err(FsError::WrongType(format!("fid {fid} not open")));
                    }
                    self.abs(&st.path)
                };
                let n = fs.write(&path, offset, &data)?;
                Ok(P9Response::Count(n))
            }
            P9Request::Clunk { fid } => {
                self.fids
                    .remove(&(dom.0, fid))
                    .ok_or_else(|| FsError::NotFound(format!("fid {fid}")))?;
                Ok(P9Response::Ok)
            }
        }
    }

    /// QMP clone request: duplicates every fid of `parent` for `child`, so
    /// the clone's open files are immediately valid. Returns the number of
    /// fids cloned (charged per fid by the caller).
    pub fn clone_fids(&mut self, parent: DomId, child: DomId) -> usize {
        let cloned: Vec<((u32, Fid), FidState)> = self
            .fids
            .iter()
            .filter(|((d, _), _)| *d == parent.0)
            .map(|((_, f), st)| ((child.0, *f), st.clone()))
            .collect();
        let n = cloned.len();
        self.fids.extend(cloned);
        n
    }

    /// Drops every fid of a destroyed domain.
    pub fn forget_domain(&mut self, dom: DomId) {
        self.fids.retain(|(d, _), _| *d != dom.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MemFs, P9Backend) {
        let mut fs = MemFs::new();
        fs.mkdir_p("/export/data").unwrap();
        fs.create("/export/data/file").unwrap();
        fs.write("/export/data/file", 0, b"contents").unwrap();
        (fs, P9Backend::new("/export"))
    }

    const D: DomId = DomId(5);
    const C: DomId = DomId(9);

    #[test]
    fn attach_walk_open_read() {
        let (mut fs, mut be) = setup();
        assert_eq!(be.handle(&mut fs, D, P9Request::Attach { fid: 0 }), P9Response::Ok);
        assert_eq!(
            be.handle(
                &mut fs,
                D,
                P9Request::Walk {
                    fid: 0,
                    newfid: 1,
                    names: vec!["data".into(), "file".into()]
                }
            ),
            P9Response::Ok
        );
        assert_eq!(be.handle(&mut fs, D, P9Request::Open { fid: 1 }), P9Response::Ok);
        assert_eq!(
            be.handle(&mut fs, D, P9Request::Read { fid: 1, offset: 0, count: 100 }),
            P9Response::Data(b"contents".to_vec())
        );
    }

    #[test]
    fn create_and_write() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        be.handle(
            &mut fs,
            D,
            P9Request::Walk { fid: 0, newfid: 1, names: vec!["data".into()] },
        );
        assert_eq!(
            be.handle(&mut fs, D, P9Request::Create { fid: 1, name: "dump.rdb".into() }),
            P9Response::Ok
        );
        assert_eq!(
            be.handle(&mut fs, D, P9Request::Write { fid: 1, offset: 0, data: b"snap".to_vec() }),
            P9Response::Count(4)
        );
        assert_eq!(fs.read("/export/data/dump.rdb", 0, 10).unwrap(), b"snap");
    }

    #[test]
    fn walk_to_missing_fails() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        let r = be.handle(
            &mut fs,
            D,
            P9Request::Walk { fid: 0, newfid: 1, names: vec!["nope".into()] },
        );
        assert!(matches!(r, P9Response::Error(_)));
        assert_eq!(be.fid_count(D), 1, "failed walk must not leak a fid");
    }

    #[test]
    fn read_requires_open() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        be.handle(
            &mut fs,
            D,
            P9Request::Walk { fid: 0, newfid: 1, names: vec!["data".into(), "file".into()] },
        );
        let r = be.handle(&mut fs, D, P9Request::Read { fid: 1, offset: 0, count: 1 });
        assert!(matches!(r, P9Response::Error(_)));
    }

    #[test]
    fn clunk_releases() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        assert_eq!(be.fid_count(D), 1);
        be.handle(&mut fs, D, P9Request::Clunk { fid: 0 });
        assert_eq!(be.fid_count(D), 0);
    }

    #[test]
    fn clone_fids_duplicates_parent_table() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        be.handle(
            &mut fs,
            D,
            P9Request::Walk { fid: 0, newfid: 1, names: vec!["data".into(), "file".into()] },
        );
        be.handle(&mut fs, D, P9Request::Open { fid: 1 });

        let n = be.clone_fids(D, C);
        assert_eq!(n, 2);
        assert_eq!(be.fid_count(C), 2);
        // The child can immediately read through its cloned fid.
        assert_eq!(
            be.handle(&mut fs, C, P9Request::Read { fid: 1, offset: 0, count: 100 }),
            P9Response::Data(b"contents".to_vec())
        );
        // Child clunks do not disturb the parent.
        be.handle(&mut fs, C, P9Request::Clunk { fid: 1 });
        assert_eq!(be.fid_count(D), 2);
    }

    #[test]
    fn forget_domain_clears_fids() {
        let (mut fs, mut be) = setup();
        be.handle(&mut fs, D, P9Request::Attach { fid: 0 });
        be.clone_fids(D, C);
        be.forget_domain(D);
        assert_eq!(be.fid_count(D), 0);
        assert_eq!(be.fid_count(C), 1, "family members unaffected");
    }
}
