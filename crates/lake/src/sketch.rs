//! Per-file catalog records under `<lake>/.metam/sketches/`.
//!
//! Every profiled file gets one binary record, `<file name>.mks` — the
//! lake's only persisted catalog entry. Per column it holds the summary
//! statistics ([`ColumnStats`]: name, dtype, null and exact distinct
//! counts, numeric min/max/mean/std) plus the MinHash signature over the
//! column's normalized distinct values. A scan builds each file's
//! [`TableMeta`](crate::TableMeta) from its record, and
//! `LakeCatalog::sketch_descriptors` rebuilds [`TableDescriptor`]s from
//! the same records, so a discover run constructs its
//! [`metam_discovery::DiscoveryIndex`] without touching `.mtc` or CSV
//! payloads — prepare cost scales with catalog metadata, not lake bytes.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "MSKS"                 version: u32 (= SKETCH_VERSION)
//! fingerprint: size u64, mtime_s u64, mtime_ns u32
//! name: u32 len + utf8         source: u32 len + utf8
//! approx_bytes: u64            nrows: u64
//! ncols: u32
//! per column:
//!   named: u8 (0|1) [+ name: u32 len + utf8]
//!   dtype: u8 (0=int 1=float 2=str 3=bool)
//!   null_count: u64            distinct: u64
//!   min, max, mean, std: each u8 presence [+ f64 bits]
//!   sketch slots: SKETCH_SLOTS × u64
//! fnv1a-64 checksum of everything above: u64
//! ```
//!
//! Strings, dtype tags and the checksum trailer are written and read by
//! the `.mtc` record codec ([`metam_table::colbin`]); the fingerprint is
//! encoded as the `.mtc` cache file's prefix encodes it.
//!
//! Invalidation uses the same key as the `.mtc` cache: the embedded
//! fingerprint must match the file's current size + mtime. A record from
//! another format version, a stale fingerprint, truncation or a checksum
//! mismatch all read as "no record" — the scan then re-profiles just that
//! file and rewrites its record, and a prepare-time miss degrades to
//! loading that one table (healing the record on the way). Records never
//! fail a scan: writes are best-effort, reads are `Option`.

use std::path::{Path, PathBuf};

use metam_discovery::{ColumnDescriptor, MinHash, TableDescriptor, SKETCH_SLOTS};
use metam_table::colbin::{dtype_from_tag, dtype_tag, put_str, seal, Reader};
use metam_table::Table;

use crate::catalog::{put_fingerprint, read_fingerprint, table_name, Fingerprint};
use crate::stats::ColumnStats;

/// First four bytes of every sketch record.
pub const SKETCH_MAGIC: &[u8; 4] = b"MSKS";

/// Record-format version; bump on breaking layout changes. A version
/// mismatch invalidates the record exactly like a stale fingerprint.
/// Version 2 added each column's mean and standard deviation.
pub const SKETCH_VERSION: u32 = 2;

/// Directory holding `.mks` sketch records under a lake root.
pub fn sketch_dir(root: &Path) -> PathBuf {
    root.join(".metam").join("sketches")
}

/// Sketch-record path of one lake file.
pub fn sketch_path(root: &Path, file_name: &str) -> PathBuf {
    sketch_dir(root).join(format!("{file_name}.mks"))
}

/// One table's persisted record: everything the catalog knows about a
/// file version, and everything candidate generation needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSketch {
    /// Table name (the file stem).
    pub name: String,
    /// Provenance tag (the lake directory name).
    pub source: String,
    /// Approximate in-memory size in bytes of the materialized table.
    pub approx_bytes: usize,
    /// Row count.
    pub nrows: usize,
    /// Per-column summary statistics, in column order.
    pub columns: Vec<ColumnStats>,
    /// Per-column MinHash signatures, aligned with `columns`; each one's
    /// `cardinality` is its column's exact `distinct_count`.
    pub minhashes: Vec<MinHash>,
}

impl TableSketch {
    /// Profile a materialized table (the scan-time computation).
    pub fn from_table(table: &Table) -> TableSketch {
        let (columns, minhashes) = table.columns().iter().map(ColumnStats::profile).unzip();
        TableSketch {
            name: table.name.clone(),
            source: table.source.clone(),
            approx_bytes: table.approx_bytes(),
            nrows: table.nrows(),
            columns,
            minhashes,
        }
    }

    /// Rebuild the payload-free descriptor the discovery index consumes.
    /// Each column is described by [`ColumnDescriptor::new`] from the
    /// persisted counts, as `DiscoveryIndex::build` describes it in
    /// memory, so a catalog-backed index is byte-identical to an
    /// in-memory one.
    pub fn to_descriptor(&self) -> TableDescriptor {
        let columns = self
            .columns
            .iter()
            .zip(&self.minhashes)
            .map(|(c, minhash)| {
                let non_null = self.nrows.saturating_sub(c.null_count);
                ColumnDescriptor::new(c.name.clone(), minhash.clone(), non_null)
            })
            .collect();
        TableDescriptor {
            name: self.name.clone(),
            source: self.source.clone(),
            approx_bytes: self.approx_bytes,
            columns,
        }
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
}

fn read_opt_f64(cur: &mut Reader) -> Option<Option<f64>> {
    match cur.u8().ok()? {
        0 => Some(None),
        1 => Some(Some(f64::from_bits(cur.u64().ok()?))),
        _ => None,
    }
}

/// Serialize a sketch record (with its invalidation fingerprint) to bytes.
pub fn encode(fp: Fingerprint, sketch: &TableSketch) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SKETCH_MAGIC);
    out.extend_from_slice(&SKETCH_VERSION.to_le_bytes());
    put_fingerprint(&mut out, fp);
    put_str(&mut out, &sketch.name);
    put_str(&mut out, &sketch.source);
    out.extend_from_slice(&(sketch.approx_bytes as u64).to_le_bytes());
    out.extend_from_slice(&(sketch.nrows as u64).to_le_bytes());
    out.extend_from_slice(&(sketch.columns.len() as u32).to_le_bytes());
    for (col, minhash) in sketch.columns.iter().zip(&sketch.minhashes) {
        match &col.name {
            Some(name) => {
                out.push(1);
                put_str(&mut out, name);
            }
            None => out.push(0),
        }
        out.push(dtype_tag(col.dtype));
        out.extend_from_slice(&(col.null_count as u64).to_le_bytes());
        out.extend_from_slice(&(col.distinct_count as u64).to_le_bytes());
        for v in [col.min, col.max, col.mean, col.std] {
            put_opt_f64(&mut out, v);
        }
        for slot in minhash.slots() {
            out.extend_from_slice(&slot.to_le_bytes());
        }
    }
    seal(&mut out);
    out
}

/// Deserialize a sketch record, verifying magic, version and checksum.
/// `None` on any mismatch or damage — never an error (callers re-profile).
pub fn decode(bytes: &[u8]) -> Option<(Fingerprint, TableSketch)> {
    let mut cur = Reader::open(bytes, SKETCH_MAGIC).ok()?;
    if cur.u32().ok()? != SKETCH_VERSION {
        return None;
    }
    let fp = read_fingerprint(&mut cur)?;
    let name = cur.str().ok()?;
    let source = cur.str().ok()?;
    let approx_bytes = cur.u64().ok()? as usize;
    let nrows = cur.u64().ok()? as usize;
    let ncols = cur.u32().ok()? as usize;
    // Every column costs at least SKETCH_SLOTS*8 bytes of slots alone; a
    // count exceeding the remaining payload is corrupt — reject before
    // trusting it as an allocation size.
    if ncols > cur.remaining() / (SKETCH_SLOTS * 8) {
        return None;
    }
    let mut columns = Vec::with_capacity(ncols);
    let mut minhashes = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col_name = if cur.u8().ok()? != 0 {
            Some(cur.str().ok()?)
        } else {
            None
        };
        let dtype = dtype_from_tag(cur.u8().ok()?)?;
        let null_count = cur.u64().ok()? as usize;
        let distinct_count = cur.u64().ok()? as usize;
        let mut slots = [0u64; SKETCH_SLOTS];
        columns.push(ColumnStats {
            name: col_name,
            dtype,
            null_count,
            distinct_count,
            min: read_opt_f64(&mut cur)?,
            max: read_opt_f64(&mut cur)?,
            mean: read_opt_f64(&mut cur)?,
            std: read_opt_f64(&mut cur)?,
        });
        for slot in slots.iter_mut() {
            *slot = cur.u64().ok()?;
        }
        minhashes.push(MinHash::from_parts(slots, distinct_count));
    }
    if cur.remaining() != 0 {
        return None;
    }
    Some((
        fp,
        TableSketch {
            name,
            source,
            approx_bytes,
            nrows,
            columns,
            minhashes,
        },
    ))
}

/// Persist `sketch` as the record of `file_name` at fingerprint `fp`.
/// Best-effort by design: a full disk or read-only `.metam` must not fail
/// a scan — candidate generation just keeps falling back to table loads.
pub fn store(
    root: &Path,
    file_name: &str,
    fp: Fingerprint,
    sketch: &TableSketch,
) -> std::io::Result<()> {
    std::fs::create_dir_all(sketch_dir(root))?;
    std::fs::write(sketch_path(root, file_name), encode(fp, sketch))
}

/// Load the record of `file_name`, validating version, checksum and the
/// embedded fingerprint against `fp` (the file's size + mtime as the
/// caller last saw it). `None` on any mismatch or damage — never an error.
pub fn load(root: &Path, file_name: &str, fp: Fingerprint) -> Option<TableSketch> {
    let bytes = std::fs::read(sketch_path(root, file_name)).ok()?;
    let (stored, mut sketch) = decode(&bytes)?;
    if stored != fp {
        return None;
    }
    // Pin identity to the *current* lake, exactly like the `.mtc` cache
    // does: the file stem is authoritative for the name and a renamed
    // lake directory changes the provenance tag.
    sketch.name = table_name(Path::new(file_name));
    if let Some(dir) = root.file_name() {
        sketch.source = dir.to_string_lossy().into_owned();
    }
    Some(sketch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::colbin::fnv1a;
    use metam_table::Column;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metam-sketch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn table() -> Table {
        let mut t = Table::from_columns(
            "t",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..40).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("rate".into()),
                    (0..40)
                        .map(|i| (i % 5 != 0).then_some(i as f64 / 3.0))
                        .collect(),
                ),
                Column::from_ints(None, (0..40).map(|i| Some(i % 7)).collect()),
            ],
        )
        .unwrap();
        t.source = "lake".into();
        t
    }

    /// A fixed table with every column type, nulls and an unnamed column.
    fn pinned_table() -> Table {
        let mut t = Table::from_columns(
            "pinned",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..24)
                        .map(|i| (i % 9 != 4).then(|| format!("z{}", i % 17)))
                        .collect(),
                ),
                Column::from_floats(
                    Some("rate".into()),
                    (0..24)
                        .map(|i| (i % 5 != 0).then_some(i as f64 / 3.0 - 2.5))
                        .collect(),
                ),
                Column::from_ints(
                    None,
                    (0..24)
                        .map(|i| (i % 6 != 1).then_some(i * i - 40))
                        .collect(),
                ),
                Column::from_bools(
                    Some("flag".into()),
                    (0..24)
                        .map(|i| (i % 4 != 2).then_some(i % 3 == 0))
                        .collect(),
                ),
            ],
        )
        .unwrap();
        t.source = "lake".into();
        t
    }

    #[test]
    fn record_bytes_keep_their_layout() {
        // Recorded before the `.mtc` and `.mks` codecs shared their
        // helpers: existing `.metam/` files must keep loading.
        let t = pinned_table();
        let fp = (4096, 1_700_000_000, 123_456_789);
        assert_eq!(
            fnv1a(&metam_table::colbin::to_bytes(&t)),
            0x636137ea284bc613
        );
        assert_eq!(
            fnv1a(&encode(fp, &TableSketch::from_table(&t))),
            0xcd0bb2b5ade1584c
        );
        assert_eq!(fnv1a(&crate::cache::encode(fp, &t)), 0x1574b56ab32b4305);
    }

    #[test]
    fn encode_decode_roundtrips_bit_identically() {
        let sketch = TableSketch::from_table(&table());
        let fp = (12, 34, 56);
        let bytes = encode(fp, &sketch);
        let (fp2, back) = decode(&bytes).expect("valid record");
        assert_eq!(fp2, fp);
        assert_eq!(back, sketch, "sketch ↔ bytes ↔ sketch is lossless");
        assert_eq!(encode(fp, &back), bytes, "re-encoding is byte-identical");
    }

    #[test]
    fn descriptor_from_record_equals_descriptor_from_table() {
        let t = table();
        let sketch = TableSketch::from_table(&t);
        let bytes = encode((1, 2, 3), &sketch);
        let (_, back) = decode(&bytes).unwrap();
        assert_eq!(back.to_descriptor(), TableDescriptor::from_table(&t));
    }

    #[test]
    fn store_then_load_validates_fingerprint() {
        let root = tmp_root("fp");
        let sketch = TableSketch::from_table(&table());
        store(&root, "t.csv", (10, 20, 30), &sketch).unwrap();
        assert!(load(&root, "t.csv", (10, 20, 30)).is_some());
        assert!(load(&root, "t.csv", (11, 20, 30)).is_none(), "stale size");
        assert!(load(&root, "t.csv", (10, 21, 30)).is_none(), "stale mtime");
        assert!(load(&root, "t.csv", (10, 20, 31)).is_none(), "stale ns");
        assert!(load(&root, "missing.csv", (10, 20, 30)).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn load_pins_name_and_source_to_catalog_view() {
        let root = tmp_root("pin");
        let mut sketch = TableSketch::from_table(&table());
        sketch.name = "old-name".into();
        sketch.source = "old-source".into();
        store(&root, "t.csv", (1, 2, 3), &sketch).unwrap();
        let loaded = load(&root, "t.csv", (1, 2, 3)).unwrap();
        assert_eq!(loaded.name, "t", "file stem is authoritative");
        assert_eq!(
            loaded.source,
            root.file_name().unwrap().to_string_lossy(),
            "lake directory is the provenance tag"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_invalidates_even_with_valid_checksum() {
        let sketch = TableSketch::from_table(&table());
        let mut bytes = encode((1, 2, 3), &sketch);
        // Re-seal the record with a bumped version: the checksum is
        // valid, so only the version gate can reject it.
        let body_len = bytes.len() - 8;
        bytes[4..8].copy_from_slice(&(SKETCH_VERSION + 1).to_le_bytes());
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&bytes).is_none(), "future version must not parse");
    }

    #[test]
    fn truncated_or_corrupt_record_is_rejected() {
        let sketch = TableSketch::from_table(&table());
        let bytes = encode((1, 2, 3), &sketch);
        for cut in [0, 4, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(decode(&flipped).is_none(), "bit flip");
        assert!(decode(b"xx").is_none(), "garbage");
    }

    #[test]
    fn huge_column_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SKETCH_MAGIC);
        bytes.extend_from_slice(&SKETCH_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 20]); // fingerprint
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name ""
        bytes.extend_from_slice(&0u32.to_le_bytes()); // source ""
        bytes.extend_from_slice(&0u64.to_le_bytes()); // approx_bytes
        bytes.extend_from_slice(&0u64.to_le_bytes()); // nrows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ncols: absurd
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(decode(&bytes).is_none());
    }
}
