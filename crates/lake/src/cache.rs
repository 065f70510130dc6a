//! The columnar on-disk table cache under `<lake>/.metam/cache/`.
//!
//! Every profiled file's parsed [`Table`] is persisted as
//! `<file name>.mtc` — a fingerprint prefix (file size + mtime, the same
//! invalidation key the file's `.mks` catalog record uses) followed by a
//! [`metam_table::colbin`] payload. `LakeCatalog::load_table`
//! deserializes columns straight from this cache instead of re-parsing
//! CSV text on every discover run; a missing, stale,
//! truncated or corrupt cache file silently falls back to the CSV source
//! (and is healed by the next write).

use std::path::{Path, PathBuf};

use metam_table::colbin::{self, Reader};
use metam_table::Table;

use crate::catalog::{put_fingerprint, read_fingerprint, Fingerprint};
use crate::TableMeta;

/// Cache-file prefix; bump on breaking layout changes.
const CACHE_MAGIC: &[u8; 4] = b"MLC1";

/// Directory holding `.mtc` cache files under a lake root.
pub fn cache_dir(root: &Path) -> PathBuf {
    root.join(".metam").join("cache")
}

/// Cache path of one lake file.
pub fn cache_path(root: &Path, file_name: &str) -> PathBuf {
    cache_dir(root).join(format!("{file_name}.mtc"))
}

pub(crate) fn encode(fp: Fingerprint, table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CACHE_MAGIC);
    put_fingerprint(&mut out, fp);
    out.extend_from_slice(&colbin::to_bytes(table));
    out
}

/// Persist `table` as the cached deserialization of `file_name` at
/// fingerprint `fp`. Best-effort by design: a full disk or read-only
/// `.metam` must not fail a scan, so callers ignore the result — loads
/// just keep falling back to CSV.
pub fn store(root: &Path, file_name: &str, fp: Fingerprint, table: &Table) -> std::io::Result<()> {
    std::fs::create_dir_all(cache_dir(root))?;
    std::fs::write(cache_path(root, file_name), encode(fp, table))
}

/// Load the cached table for a catalog entry, validating the fingerprint
/// against the entry's recorded size + mtime and the payload checksum.
/// `None` on any mismatch or damage — never an error.
pub fn load(root: &Path, entry: &TableMeta) -> Option<Table> {
    let bytes = std::fs::read(cache_path(root, &entry.file_name)).ok()?;
    let mut header = Reader::new(&bytes);
    if header.take(CACHE_MAGIC.len()).ok()? != CACHE_MAGIC
        || read_fingerprint(&mut header)? != entry.fingerprint()
    {
        return None;
    }
    let mut table = colbin::read_table(header.rest()).ok()?;
    // Pin identity to the *current* catalog view (a renamed lake directory
    // changes the provenance tag; the stem is authoritative for the name).
    table.name = entry.name.clone();
    if let Some(dir) = root.file_name() {
        table.source = dir.to_string_lossy().into_owned();
    }
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::Column;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metam-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(fp: Fingerprint) -> TableMeta {
        TableMeta {
            name: "t".into(),
            file_name: "t.csv".into(),
            file_size: fp.0,
            mtime_s: fp.1,
            mtime_ns: fp.2,
            nrows: 1,
            ncols: 1,
            columns: Vec::new(),
        }
    }

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![Column::from_strings(
                Some("s".into()),
                vec![Some("NA".into())],
            )],
        )
        .unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let root = tmp_root("roundtrip");
        let fp = (10, 20, 30);
        store(&root, "t.csv", fp, &table()).unwrap();
        let t = load(&root, &entry(fp)).expect("cache hit");
        assert_eq!(t.nrows(), 1);
        assert_eq!(
            t.column_by_name("s").unwrap().get(0),
            metam_table::Value::Str("NA".into())
        );
        assert!(!t.source.is_empty(), "source pinned to the lake dir name");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_fingerprint_misses() {
        let root = tmp_root("stale");
        store(&root, "t.csv", (10, 20, 30), &table()).unwrap();
        assert!(load(&root, &entry((11, 20, 30))).is_none());
        assert!(load(&root, &entry((10, 21, 30))).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_or_corrupt_payload_misses() {
        let root = tmp_root("corrupt");
        let fp = (10, 20, 30);
        store(&root, "t.csv", fp, &table()).unwrap();
        let path = cache_path(&root, "t.csv");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load(&root, &entry(fp)).is_none(), "truncated");
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load(&root, &entry(fp)).is_none(), "corrupt");
        std::fs::write(&path, b"xx").unwrap();
        assert!(load(&root, &entry(fp)).is_none(), "garbage");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_file_misses() {
        let root = tmp_root("missing");
        assert!(load(&root, &entry((1, 2, 3))).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }
}
