//! An in-memory filesystem modelling the Dom0 ramdisk.
//!
//! The paper runs the entire Dom0 root filesystem from a ramdisk "to reduce
//! the overheads related to the storage medium" (§6) and shares one root
//! filesystem between guests over 9pfs. [`MemFs`] is that ramdisk: a plain
//! tree of directories and byte files that the 9pfs backend operates on.

use std::collections::BTreeMap;

/// Errors returned by filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component missing.
    NotFound(String),
    /// Operation expected a file but found a directory (or vice versa).
    WrongType(String),
    /// Entry already exists.
    Exists(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::WrongType(p) => write!(f, "wrong type: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, FsError>;

#[derive(Debug, Clone)]
enum Entry {
    File(Vec<u8>),
    Dir(BTreeMap<String, Entry>),
}

/// An in-memory filesystem tree.
#[derive(Debug, Clone)]
pub struct MemFs {
    root: Entry,
}

fn components(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty()).collect()
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        MemFs {
            root: Entry::Dir(BTreeMap::new()),
        }
    }

    fn lookup(&self, path: &str) -> Result<&Entry> {
        let mut cur = &self.root;
        for c in components(path) {
            match cur {
                Entry::Dir(children) => {
                    cur = children.get(c).ok_or_else(|| FsError::NotFound(path.into()))?;
                }
                Entry::File(_) => return Err(FsError::WrongType(path.into())),
            }
        }
        Ok(cur)
    }

    fn lookup_dir_mut(&mut self, comps: &[&str], path: &str) -> Result<&mut BTreeMap<String, Entry>> {
        let mut cur = &mut self.root;
        for c in comps {
            match cur {
                Entry::Dir(children) => {
                    cur = children
                        .get_mut(*c)
                        .ok_or_else(|| FsError::NotFound(path.into()))?;
                }
                Entry::File(_) => return Err(FsError::WrongType(path.into())),
            }
        }
        match cur {
            Entry::Dir(children) => Ok(children),
            Entry::File(_) => Err(FsError::WrongType(path.into())),
        }
    }

    /// Creates a directory, including missing parents.
    pub fn mkdir_p(&mut self, path: &str) -> Result<()> {
        let mut cur = &mut self.root;
        for c in components(path) {
            match cur {
                Entry::Dir(children) => {
                    cur = children
                        .entry(c.to_string())
                        .or_insert_with(|| Entry::Dir(BTreeMap::new()));
                }
                Entry::File(_) => return Err(FsError::WrongType(path.into())),
            }
        }
        match cur {
            Entry::Dir(_) => Ok(()),
            Entry::File(_) => Err(FsError::WrongType(path.into())),
        }
    }

    /// Creates an empty file; parents must exist. Fails if it exists.
    pub fn create(&mut self, path: &str) -> Result<()> {
        let comps = components(path);
        let (name, dirs) = comps.split_last().ok_or_else(|| FsError::WrongType(path.into()))?;
        let dir = self.lookup_dir_mut(dirs, path)?;
        if dir.contains_key(*name) {
            return Err(FsError::Exists(path.into()));
        }
        dir.insert(name.to_string(), Entry::File(Vec::new()));
        Ok(())
    }

    /// Whether a path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Reads `len` bytes from a file starting at `offset` (short reads at
    /// EOF).
    pub fn read(&self, path: &str, offset: usize, len: usize) -> Result<Vec<u8>> {
        match self.lookup(path)? {
            Entry::File(data) => {
                let start = offset.min(data.len());
                let end = (offset + len).min(data.len());
                Ok(data[start..end].to_vec())
            }
            Entry::Dir(_) => Err(FsError::WrongType(path.into())),
        }
    }

    /// Writes bytes at `offset`, extending the file as needed. Returns the
    /// bytes written.
    pub fn write(&mut self, path: &str, offset: usize, data: &[u8]) -> Result<usize> {
        let comps = components(path);
        let (name, dirs) = comps.split_last().ok_or_else(|| FsError::WrongType(path.into()))?;
        let dir = self.lookup_dir_mut(dirs, path)?;
        match dir.get_mut(*name) {
            Some(Entry::File(buf)) => {
                if buf.len() < offset + data.len() {
                    buf.resize(offset + data.len(), 0);
                }
                buf[offset..offset + data.len()].copy_from_slice(data);
                Ok(data.len())
            }
            Some(Entry::Dir(_)) => Err(FsError::WrongType(path.into())),
            None => Err(FsError::NotFound(path.into())),
        }
    }

    /// Size of a file in bytes.
    pub fn size(&self, path: &str) -> Result<usize> {
        match self.lookup(path)? {
            Entry::File(data) => Ok(data.len()),
            Entry::Dir(_) => Err(FsError::WrongType(path.into())),
        }
    }

    /// Total bytes stored in files (Dom0 memory accounting).
    pub fn total_bytes(&self) -> usize {
        fn walk(e: &Entry) -> usize {
            match e {
                Entry::File(d) => d.len(),
                Entry::Dir(children) => children.values().map(walk).sum(),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut fs = MemFs::new();
        fs.mkdir_p("/srv/redis").unwrap();
        fs.create("/srv/redis/dump.rdb").unwrap();
        fs.write("/srv/redis/dump.rdb", 0, b"hello").unwrap();
        assert_eq!(fs.read("/srv/redis/dump.rdb", 0, 5).unwrap(), b"hello");
        assert_eq!(fs.size("/srv/redis/dump.rdb").unwrap(), 5);
    }

    #[test]
    fn offset_write_extends() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        fs.write("/f", 3, b"xy").unwrap();
        assert_eq!(fs.read("/f", 0, 10).unwrap(), vec![0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn short_read_at_eof() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"abc").unwrap();
        assert_eq!(fs.read("/f", 2, 10).unwrap(), b"c");
        assert!(fs.read("/f", 9, 1).unwrap().is_empty());
    }

    #[test]
    fn create_twice_fails() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        assert_eq!(fs.create("/f"), Err(FsError::Exists("/f".into())));
    }

    #[test]
    fn type_errors() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        assert!(matches!(fs.size("/"), Err(FsError::WrongType(_))));
        assert!(matches!(fs.create("/f/g"), Err(FsError::WrongType(_))));
        assert!(matches!(fs.read("/", 0, 1), Err(FsError::WrongType(_))));
        assert!(matches!(fs.mkdir_p("/f/sub"), Err(FsError::WrongType(_))));
    }

    #[test]
    fn totals_count_every_files_bytes_once() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &[1; 100]).unwrap();
        assert_eq!(fs.total_bytes(), 100);
        fs.mkdir_p("/d/e").unwrap();
        fs.create("/d/e/g").unwrap();
        fs.write("/d/e/g", 10, &[2; 20]).unwrap();
        assert_eq!(fs.total_bytes(), 130, "a gap before an offset write counts");
        fs.write("/f", 50, &[3; 50]).unwrap();
        assert_eq!(fs.total_bytes(), 130, "an overwrite adds nothing");
    }
}
