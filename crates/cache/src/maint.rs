//! Cache-directory inventory: the scan behind `bpfree cache stat`.
//!
//! The cache is one file, [`crate::image_path`], rewritten whole from
//! the running build's artifacts whenever a run computes something, so
//! there is nothing to garbage-collect: the inventory is simply the
//! image's directory.

use std::path::Path;

use crate::image::{ImageEntry, SectionKind, SuiteImage};

/// What a scan found in a cache directory.
#[derive(Debug, Default, Clone)]
pub struct CacheStat {
    /// The cache image's directory, in on-disk (sorted) order; empty
    /// when the directory holds no image.
    pub entries: Vec<ImageEntry>,
    /// The image's size in bytes (0 when there is none).
    pub bytes: u64,
}

impl CacheStat {
    /// Aggregated (kind, entries, payload bytes) rows in kind order, for
    /// the `cache stat` table. Kinds with no entries are left out.
    pub fn by_kind(&self) -> Vec<(SectionKind, usize, u64)> {
        SectionKind::ALL
            .iter()
            .map(|&kind| {
                let of_kind = self.entries.iter().filter(|e| e.kind == kind);
                let bytes = of_kind.clone().map(|e| e.payload_bytes() as u64).sum();
                (kind, of_kind.count(), bytes)
            })
            .filter(|&(_, n, _)| n > 0)
            .collect()
    }

    /// The cache's total size on disk: the whole image file.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Inventories the cache image in `dir`. A missing directory or image
/// is an empty (not an error) result — there is simply nothing cached.
/// An image that does not open (truncated, corrupt, another format
/// version) is an `InvalidData` error; the engine treats such a cache as
/// empty and overwrites it at the end of its next run.
pub fn scan(dir: &Path) -> std::io::Result<CacheStat> {
    let path = crate::image_path(dir);
    if !path.is_file() {
        return Ok(CacheStat::default());
    }
    let img = SuiteImage::open(&path)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(CacheStat {
        entries: img.entries().to_vec(),
        bytes: img.total_bytes() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{Artifact, ImageBuilder};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bpfree-maint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_inventories_the_cache_image() {
        let dir = temp_dir("stat");
        let s = crate::tests::sample();
        let mut b = ImageBuilder::new();
        b.add("a", "O", None, Artifact::Compile(&s.program));
        b.add("b", "O", None, Artifact::Compile(&s.program));
        b.add("a", "O", Some(0), Artifact::Run(&s.profile, s.run));
        let (_, bytes) = b.write(&crate::image_path(&dir)).unwrap();
        // Files other than the image are not the cache's business.
        std::fs::write(dir.join("notes.md"), "not a cache entry").unwrap();

        let stat = scan(&dir).unwrap();
        assert_eq!(stat.entries.len(), 3);
        assert_eq!(stat.total_bytes(), bytes);
        let rows = stat.by_kind();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].0, rows[0].1), (SectionKind::Compile, 2));
        assert_eq!((rows[1].0, rows[1].1), (SectionKind::Run, 1));
        assert!(rows.iter().all(|&(_, _, b)| b > 0));

        // A damaged image is reported, not silently counted as empty.
        std::fs::write(crate::image_path(&dir), b"BPFIMG08 but truncated").unwrap();
        let err = scan(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_of_missing_dir_is_empty() {
        let absent = std::env::temp_dir().join("bpfree-maint-definitely-absent");
        let stat = scan(&absent).unwrap();
        assert!(stat.entries.is_empty());
        assert_eq!(stat.total_bytes(), 0);

        let dir = temp_dir("empty");
        std::fs::write(dir.join("0123456789abcdef.txt"), "bpfree-cache v6\n").unwrap();
        let stat = scan(&dir).unwrap();
        assert!(stat.entries.is_empty(), "old per-entry files are ignored");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
