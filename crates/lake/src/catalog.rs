//! [`LakeCatalog`]: scan a directory of CSVs into a persistent catalog.
//!
//! A scan walks `<root>` for `*.csv` files (sorted, deterministic) and
//! fingerprints each one (size + mtime). A file whose `.mks` record
//! ([`crate::sketch`]) carries the same fingerprint is a hit: its
//! [`TableMeta`] is built from the record. Every other file is profiled
//! ([`ColumnStats`] per column) **in parallel** across scoped worker
//! threads (one per available core, [`metam_pool::available_threads`]);
//! results merge back in file-name order, so catalogs, records and cache
//! counters are byte-identical with a sequential scan.
//!
//! Persistence lives under `<root>/.metam/`, one pair of files per lake
//! file:
//!
//! * `sketches/<file>.mks` — the catalog record ([`crate::sketch`]):
//!   per-column statistics plus MinHash signatures. A touched file
//!   rewrites exactly its own record.
//!   [`sketch_descriptors`](LakeCatalog::sketch_descriptors) rebuilds a
//!   payload-free [`TableDescriptor`] set from these, so candidate
//!   generation never loads table data;
//!   [`candidates`](LakeCatalog::candidates) enumerates over them once
//!   per input dataset and snapshot ([`crate::memo`]).
//! * `cache/<file>.mtc` — the profiled table serialized in the binary
//!   columnar format ([`crate::cache`]); [`LakeCatalog::load_table`]
//!   deserializes columns directly instead of re-parsing CSV text.
//!
//! Both layers invalidate on the same fingerprint. A missing, stale or
//! damaged record re-profiles just its file; a missing or damaged `.mtc`
//! falls back to the CSV source and heals on load.
//! [`LakeCatalog::cache_hits`] counts record reuse across scans;
//! [`LakeCatalog::load_counters`] counts `.mtc` hits vs CSV fallbacks;
//! [`LakeCatalog::sketch_load_counters`] counts prepare-time sketch reads
//! vs table-load fallbacks.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use metam_discovery::TableDescriptor;
use metam_table::colbin::Reader;
use metam_table::csv::read_csv;
use metam_table::Table;

use crate::memo::CandidateMemo;
use crate::sketch::TableSketch;
use crate::stats::ColumnStats;
use crate::{cache, sketch};
use crate::{LakeError, Result};

/// Catalog record of one lake table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    /// Table name (the file stem).
    pub name: String,
    /// File name relative to the lake root.
    pub file_name: String,
    /// File size in bytes at profiling time.
    pub file_size: u64,
    /// Modification time, seconds since the epoch.
    pub mtime_s: u64,
    /// Modification time, sub-second nanoseconds.
    pub mtime_ns: u32,
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Per-column summary statistics.
    pub columns: Vec<ColumnStats>,
}

impl TableMeta {
    /// The invalidation key shared by the sketch record and the table
    /// cache.
    pub fn fingerprint(&self) -> Fingerprint {
        (self.file_size, self.mtime_s, self.mtime_ns)
    }

    /// The catalog entry of `file_name` at fingerprint `fp`, described by
    /// its record (the record's MinHash signatures are dropped: hot
    /// catalogs hold statistics only).
    fn from_record(file_name: String, fp: Fingerprint, record: TableSketch) -> TableMeta {
        TableMeta {
            name: record.name,
            file_name,
            file_size: fp.0,
            mtime_s: fp.1,
            mtime_ns: fp.2,
            nrows: record.nrows,
            ncols: record.columns.len(),
            columns: record.columns,
        }
    }
}

/// File size + mtime, the cache-invalidation key.
pub type Fingerprint = (u64, u64, u32);

/// Append `fp` the way `.mtc` cache files and `.mks` sketch records embed
/// it: size `u64`, mtime seconds `u64`, mtime nanoseconds `u32`.
pub(crate) fn put_fingerprint(out: &mut Vec<u8>, (size, mtime_s, mtime_ns): Fingerprint) {
    out.extend_from_slice(&size.to_le_bytes());
    out.extend_from_slice(&mtime_s.to_le_bytes());
    out.extend_from_slice(&mtime_ns.to_le_bytes());
}

/// Read a fingerprint written by [`put_fingerprint`].
pub(crate) fn read_fingerprint(cur: &mut Reader) -> Option<Fingerprint> {
    Some((cur.u64().ok()?, cur.u64().ok()?, cur.u32().ok()?))
}

/// A hit/miss counter pair shared behind an [`Arc`] so callers (the CLI,
/// benches) can keep observing after the catalog moves into a `Session`.
/// Used for `.mtc`-vs-CSV table loads ([`LakeCatalog::load_counters`])
/// and for sketch-record reads vs table-load fallbacks
/// ([`LakeCatalog::sketch_load_counters`]).
#[derive(Debug, Default)]
pub struct LoadCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl LoadCounters {
    /// Loads served from the fast path (columnar cache / sketch record).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that fell back to the slow path (CSV parse / table load).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn add_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// A scanned lake directory: table registry + persisted profile cache.
#[derive(Debug)]
pub struct LakeCatalog {
    root: PathBuf,
    entries: Vec<TableMeta>,
    by_name: HashMap<String, usize>,
    cache_hits: usize,
    cache_misses: usize,
    load_counters: Arc<LoadCounters>,
    sketch_counters: Arc<LoadCounters>,
    /// This snapshot's candidate memo ([`LakeCatalog::candidates`]).
    pub(crate) candidate_memo: CandidateMemo,
}

/// File metadata used for cache invalidation.
fn fingerprint(path: &Path) -> Result<Fingerprint> {
    Ok(fingerprint_of(&std::fs::metadata(path)?))
}

/// The fingerprint of a file's metadata.
fn fingerprint_of(meta: &std::fs::Metadata) -> Fingerprint {
    let (s, ns) = match meta.modified() {
        Ok(t) => match t.duration_since(std::time::UNIX_EPOCH) {
            Ok(d) => (d.as_secs(), d.subsec_nanos()),
            Err(_) => (0, 0),
        },
        Err(_) => (0, 0),
    };
    (meta.len(), s, ns)
}

/// The lake's `*.csv` files as `(file name, path, fingerprint)`, sorted by
/// file name. One `metadata` call per file (following symlinks, as
/// `Path::is_file` does) tells both whether it is a file and its
/// fingerprint; a file that cannot be stat-ed is not listed.
fn csv_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf, Fingerprint)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        let is_csv = path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("csv"));
        if !is_csv {
            continue;
        }
        if let Ok(meta) = std::fs::metadata(&path) {
            if meta.is_file() {
                let fp = fingerprint_of(&meta);
                files.push((entry.file_name().to_string_lossy().into_owned(), path, fp));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// One changed file queued for (re-)profiling.
struct MissJob {
    file_name: String,
    path: PathBuf,
    fp: Fingerprint,
}

/// Profile one file: parse the CSV, compute per-column statistics and
/// signatures, and persist the parsed table into the columnar cache plus
/// its catalog record (both best-effort — a read-only `.metam` degrades
/// loads to CSV, it must not fail the scan).
fn profile_one(root: &Path, job: &MissJob) -> Result<TableMeta> {
    let _span = metam_obs::span("scan.profile", &job.file_name);
    let table = read_table_file(&job.path)?;
    let _ = cache::store(root, &job.file_name, job.fp, &table);
    let record = TableSketch::from_table(&table);
    let _ = sketch::store(root, &job.file_name, job.fp, &record);
    Ok(TableMeta::from_record(
        job.file_name.clone(),
        job.fp,
        record,
    ))
}

/// Profile every queued file over the shared worker pool
/// ([`metam_pool::map`]). Results come back in job (file-name) order,
/// so the merged catalog is position-stable regardless of scheduling.
fn profile_all(root: &Path, jobs: &[MissJob], threads: usize) -> Vec<Result<TableMeta>> {
    metam_pool::map(jobs, threads, |job| profile_one(root, job))
}

impl LakeCatalog {
    /// The `.metam` metadata directory under a lake root (sketch records
    /// + columnar cache).
    pub fn meta_dir(root: &Path) -> PathBuf {
        root.join(".metam")
    }

    /// Scan `root` for CSV files: a file whose record matches its current
    /// fingerprint is reused as-is; new and changed files are profiled
    /// (in parallel), each writing its own `.mtc` and `.mks`.
    pub fn scan(root: impl AsRef<Path>) -> Result<LakeCatalog> {
        Self::scan_threads(root, metam_pool::available_threads())
    }

    /// [`scan`](Self::scan) profiling on `threads` workers; the thread
    /// count never changes the result.
    pub(crate) fn scan_threads(root: impl AsRef<Path>, threads: usize) -> Result<LakeCatalog> {
        let root = root.as_ref().to_path_buf();
        let mut scan_span = metam_obs::span("scan", root.display().to_string());
        let files = csv_files(&root)?;

        // Table names are file stems; two files must not collapse onto one
        // name (e.g. `trips.csv` + `trips.CSV`) or lookups and the
        // din-exclusion logic would silently pick one of them.
        let mut stems: Vec<String> = files.iter().map(|(_, path, _)| table_name(path)).collect();
        stems.sort_unstable();
        if let Some(dup) = stems.windows(2).find(|w| w[0] == w[1]) {
            return Err(LakeError::BadArgument(format!(
                "two lake files share the table name {:?}; rename one",
                dup[0]
            )));
        }

        /// A scan slot: an unchanged entry rebuilt from its record, or the
        /// index of a queued profiling job.
        enum Planned {
            Hit(TableMeta),
            Miss(usize),
        }
        let mut plan = Vec::with_capacity(files.len());
        let mut jobs: Vec<MissJob> = Vec::new();
        for (file_name, path, fp) in files {
            match sketch::load(&root, &file_name, fp) {
                Some(record) => {
                    plan.push(Planned::Hit(TableMeta::from_record(file_name, fp, record)))
                }
                None => {
                    plan.push(Planned::Miss(jobs.len()));
                    jobs.push(MissJob {
                        file_name,
                        path,
                        fp,
                    });
                }
            }
        }

        let cache_misses = jobs.len();
        let cache_hits = plan.len() - cache_misses;
        let mut profiled = profile_all(&root, &jobs, threads)
            .into_iter()
            .map(Some)
            .collect::<Vec<_>>();

        // Merge back in file-name order; the first failure (in that same
        // deterministic order) aborts the scan like the sequential path.
        let mut entries = Vec::with_capacity(plan.len());
        for slot in plan {
            match slot {
                Planned::Hit(entry) => entries.push(entry),
                // metam-analyze: allow(panic-in-lib): each Miss index is planned exactly once, so the slot is still occupied
                Planned::Miss(i) => entries.push(profiled[i].take().expect("job used once")?),
            }
        }

        metam_obs::counter_add("lake.scan.profile_hits", cache_hits as u64);
        metam_obs::counter_add("lake.scan.profile_misses", cache_misses as u64);
        scan_span.field("files", entries.len() as f64);
        scan_span.field("profile_hits", cache_hits as f64);
        scan_span.field("profile_misses", cache_misses as f64);
        let by_name = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.name.clone(), i))
            .collect();
        Ok(LakeCatalog {
            root,
            entries,
            by_name,
            cache_hits,
            cache_misses,
            load_counters: Arc::new(LoadCounters::default()),
            sketch_counters: Arc::new(LoadCounters::default()),
            candidate_memo: CandidateMemo::default(),
        })
    }

    /// Lake root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Registered tables, in deterministic (file-name) order.
    pub fn entries(&self) -> &[TableMeta] {
        &self.entries
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the lake holds no tables.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Files whose record the last scan reused.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Files the last scan had to (re-)profile, rewriting their records:
    /// new and changed files, plus missing, stale or damaged records.
    pub fn cache_misses(&self) -> usize {
        self.cache_misses
    }

    /// The `.mtc`-vs-CSV load counters, shared: the returned handle keeps
    /// counting even after the catalog moves into a `Session`.
    pub fn load_counters(&self) -> Arc<LoadCounters> {
        Arc::clone(&self.load_counters)
    }

    /// Prepare-time sketch counters (records served vs table-load
    /// fallbacks in [`sketch_descriptors`](Self::sketch_descriptors)),
    /// shared like [`load_counters`](Self::load_counters).
    pub fn sketch_load_counters(&self) -> Arc<LoadCounters> {
        Arc::clone(&self.sketch_counters)
    }

    /// Catalog record by table name (O(1); the index is built at scan
    /// time, so 100k-entry catalogs don't pay a linear probe per lookup).
    pub fn get(&self, name: &str) -> Option<&TableMeta> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// Load one table's data, deserializing from the columnar cache when
    /// it is fresh and falling back to (and re-caching from) the CSV
    /// source otherwise.
    pub fn load_table(&self, name: &str) -> Result<Table> {
        let entry = self
            .get(name)
            .ok_or_else(|| LakeError::UnknownTable(name.to_string()))?;
        self.load_entry(entry)
    }

    /// Load one table, counting the load on
    /// [`load_counters`](Self::load_counters) and, as
    /// `lake.load.mtc_hits` / `lake.load.csv_fallbacks`, in the metrics
    /// registry, where it happens: a lazy provider's loads during a search
    /// count like the input dataset's.
    fn load_entry(&self, entry: &TableMeta) -> Result<Table> {
        if let Some(table) = cache::load(&self.root, entry) {
            self.load_counters.add_hit();
            metam_obs::counter_add("lake.load.mtc_hits", 1);
            return Ok(table);
        }
        self.load_counters.add_miss();
        metam_obs::counter_add("lake.load.csv_fallbacks", 1);
        let path = self.root.join(&entry.file_name);
        let table = read_table_file(&path)?;
        // Heal the cache — but only when the file still matches the
        // cataloged fingerprint; a file modified since the scan would
        // otherwise pin stale bytes under a fresh-looking key.
        if let Ok(fp) = fingerprint(&path) {
            if fp == entry.fingerprint() {
                let _ = cache::store(&self.root, &entry.file_name, fp, &table);
            }
        }
        Ok(table)
    }

    /// Names of every table except those in `exclude` (typically the
    /// input dataset, which must not join with itself), in catalog
    /// (file-name) order — the repository indexing shared by
    /// [`sketch_descriptors`](Self::sketch_descriptors) and the lazy table
    /// provider built over this catalog.
    pub fn repository_names(&self, exclude: &[&str]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !exclude.contains(&e.name.as_str()))
            .map(|e| e.name.clone())
            .collect()
    }

    /// Payload-free [`TableDescriptor`]s for every table except those in
    /// `exclude`, served from persisted sketch records — the sublinear
    /// half of a catalog-backed prepare: no `.mtc` or CSV payload is
    /// touched for a fresh record. A missing or damaged record degrades
    /// to loading just that table (counted on
    /// [`sketch_load_counters`](Self::sketch_load_counters) as a miss)
    /// and heals the record on the way. Descriptor order matches
    /// [`repository_names`](Self::repository_names).
    pub fn sketch_descriptors(&self, exclude: &[&str]) -> Result<Vec<TableDescriptor>> {
        let mut span = metam_obs::span("prepare.sketch_index", self.root.display().to_string());
        let mut out = Vec::new();
        let mut record_hits = 0usize;
        for entry in &self.entries {
            if exclude.contains(&entry.name.as_str()) {
                continue;
            }
            let loaded = match sketch::load(&self.root, &entry.file_name, entry.fingerprint()) {
                Some(record) => {
                    record_hits += 1;
                    self.sketch_counters.add_hit();
                    record
                }
                None => {
                    self.sketch_counters.add_miss();
                    let table = self.load_entry(entry)?;
                    let record = TableSketch::from_table(&table);
                    let _ =
                        sketch::store(&self.root, &entry.file_name, entry.fingerprint(), &record);
                    record
                }
            };
            out.push(loaded.to_descriptor());
        }
        let fallbacks = out.len() - record_hits;
        span.field("sketch_hits", record_hits as f64);
        span.field("sketch_fallbacks", fallbacks as f64);
        metam_obs::counter_add("lake.sketch.hits", record_hits as u64);
        metam_obs::counter_add("lake.sketch.fallbacks", fallbacks as u64);
        Ok(out)
    }

    /// Total rows across the catalog (from cached metadata; no file reads).
    pub fn total_rows(&self) -> usize {
        self.entries.iter().map(|e| e.nrows).sum()
    }

    /// Total columns across the catalog.
    pub fn total_columns(&self) -> usize {
        self.entries.iter().map(|e| e.ncols).sum()
    }

    /// Whether the lake directory has drifted from this catalog since its
    /// scan: a CSV file added, removed, renamed, or re-fingerprinted
    /// (size+mtime — the same invalidation key every cache layer uses).
    /// I/O trouble while checking counts as stale, so a long-lived holder
    /// (the `metam serve` registry) errs toward a [`rescan`](Self::rescan)
    /// rather than serving answers about files it can no longer see.
    pub fn is_stale(&self) -> bool {
        let Ok(current) = csv_files(&self.root) else {
            return true;
        };
        if current.len() != self.entries.len() {
            return true;
        }
        // Entries are already in file-name order (scan sorts before
        // profiling), so a pairwise walk compares the full file sets.
        current
            .iter()
            .zip(&self.entries)
            .any(|((name, _, fp), meta)| name != &meta.file_name || *fp != meta.fingerprint())
    }

    /// Re-scan the same lake directory, producing a refreshed catalog that
    /// keeps observing on **this** catalog's [`LoadCounters`] handles —
    /// the refresh hook for long-lived holders (`metam serve`), whose
    /// server-lifetime hit/miss totals must survive catalog swaps.
    /// Unchanged files reuse their records exactly like any other scan;
    /// only drifted files re-profile. The refreshed catalog's candidate
    /// memo starts empty.
    pub fn rescan(&self) -> Result<LakeCatalog> {
        let mut fresh = Self::scan(&self.root)?;
        fresh.load_counters = Arc::clone(&self.load_counters);
        fresh.sketch_counters = Arc::clone(&self.sketch_counters);
        Ok(fresh)
    }
}

/// The table name of a lake file: its file stem.
pub(crate) fn table_name(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string())
}

/// Read one CSV file as a [`Table`] named by its file stem, tagged with the
/// lake directory name as its provenance source.
pub fn read_table_file(path: &Path) -> Result<Table> {
    let stem = table_name(path);
    let file =
        std::fs::File::open(path).map_err(|e| LakeError::Io(format!("{}: {e}", path.display())))?;
    let reader = std::io::BufReader::new(file);
    let mut table = read_csv(&stem, reader, true)?;
    if let Some(dir) = path.parent().and_then(|p| p.file_name()) {
        table.source = dir.to_string_lossy().into_owned();
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metam-lake-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_profiles_and_caches() {
        let dir = tmp_dir("scan");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();
        fs::write(dir.join("b.csv"), "zip,w\nz1,5\n").unwrap();
        fs::write(dir.join("notes.txt"), "not a table").unwrap();

        let cat = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.cache_hits(), 0);
        assert_eq!(cat.cache_misses(), 2);
        assert_eq!(cat.get("a").unwrap().nrows, 2);
        assert_eq!(cat.total_rows(), 3);
        assert_eq!(cat.total_columns(), 4);

        // Backdate both records: a scan that rewrites a record, even with
        // identical bytes, moves its mtime off this stamp.
        let stamp = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        let record_mtime = |file: &str| {
            let path = sketch::sketch_path(&dir, file);
            fs::metadata(path).unwrap().modified().unwrap()
        };
        for file in ["a.csv", "b.csv"] {
            let path = sketch::sketch_path(&dir, file);
            let record = fs::File::options().write(true).open(path).unwrap();
            record.set_modified(stamp).unwrap();
        }

        // Second scan: everything unchanged ⇒ all hits, no record rewritten.
        let cat2 = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(cat2.cache_hits(), 2);
        assert_eq!(cat2.cache_misses(), 0);
        assert_eq!(cat2.entries(), cat.entries());
        assert_eq!(
            (record_mtime("a.csv"), record_mtime("b.csv")),
            (stamp, stamp)
        );

        // Touch one file with different content size ⇒ one miss, and only
        // that file's record is rewritten.
        let record_a = fs::read(sketch::sketch_path(&dir, "a.csv")).unwrap();
        let record_b = fs::read(sketch::sketch_path(&dir, "b.csv")).unwrap();
        fs::write(dir.join("b.csv"), "zip,w\nz1,5\nz9,6\n").unwrap();
        let cat3 = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(cat3.cache_misses(), 1);
        assert_eq!(cat3.cache_hits(), 1);
        assert_eq!(cat3.get("b").unwrap().nrows, 2);
        assert_eq!(
            fs::read(sketch::sketch_path(&dir, "a.csv")).unwrap(),
            record_a
        );
        assert_eq!(record_mtime("a.csv"), stamp, "a's record is not rewritten");
        assert_ne!(
            fs::read(sketch::sketch_path(&dir, "b.csv")).unwrap(),
            record_b
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_stems_are_rejected() {
        let dir = tmp_dir("stems");
        fs::write(dir.join("trips.csv"), "x\n1\n").unwrap();
        fs::write(dir.join("trips.CSV"), "y\n2\n").unwrap();
        assert!(matches!(
            LakeCatalog::scan(&dir),
            Err(LakeError::BadArgument(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn removed_files_drop_out() {
        let dir = tmp_dir("remove");
        fs::write(dir.join("a.csv"), "x\n1\n").unwrap();
        fs::write(dir.join("b.csv"), "y\n2\n").unwrap();
        assert_eq!(LakeCatalog::scan(&dir).unwrap().len(), 2);
        fs::remove_file(dir.join("b.csv")).unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.get("b").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn staleness_detected_and_rescan_keeps_counter_handles() {
        let dir = tmp_dir("stale");
        fs::write(dir.join("a.csv"), "x\n1\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        assert!(!cat.is_stale(), "freshly scanned lake is not stale");
        cat.load_table("a").unwrap();
        let counters = cat.load_counters();
        let lifetime = counters.hits() + counters.misses();
        assert_eq!(lifetime, 1);

        // Content drift (different size ⇒ different fingerprint) and file
        // additions both count as stale.
        fs::write(dir.join("a.csv"), "x\n1\n2\n").unwrap();
        assert!(cat.is_stale(), "re-fingerprinted file is drift");
        fs::write(dir.join("b.csv"), "y\n9\n").unwrap();
        assert!(cat.is_stale(), "added file is drift");

        let fresh = cat.rescan().unwrap();
        assert!(!fresh.is_stale());
        assert_eq!(fresh.len(), 2, "rescan sees the added table");
        assert_eq!(fresh.get("a").unwrap().nrows, 2);
        fresh.load_table("b").unwrap();
        assert_eq!(
            counters.hits() + counters.misses(),
            lifetime + 1,
            "the refreshed catalog observes on the original counter handles"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_scan_rebuilds_the_cold_catalog_exactly() {
        // Names with a tab, a backslash and non-ASCII text, an all-null
        // column and negative/fractional floats all round-trip through
        // the binary record bit for bit.
        let dir = tmp_dir("exact");
        let header = "zip,ta\tb\\c ü名,empty,rate";
        let rows = "z1,x,,-1.5\nz2,y,,0.125\nz3,x,,-3.75\nz4,w,,1e-7\n";
        fs::write(dir.join("odd.csv"), format!("{header}\n{rows}")).unwrap();
        fs::write(dir.join("plain.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();

        let cold = LakeCatalog::scan(&dir).unwrap();
        let odd = &cold.get("odd").unwrap().columns;
        assert_eq!(odd[1].name.as_deref(), Some("ta\tb\\c ü名"));
        assert_eq!((odd[2].null_count, odd[2].distinct_count), (4, 0));
        assert_eq!((odd[3].min, odd[3].max), (Some(-3.75), Some(0.125)));

        let warm = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(warm.cache_misses(), 0);
        assert_eq!(warm.entries(), cold.entries());
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        for (w, c) in warm.entries().iter().zip(cold.entries()) {
            for (wc, cc) in w.columns.iter().zip(&c.columns) {
                for (a, b) in [
                    (wc.min, cc.min),
                    (wc.max, cc.max),
                    (wc.mean, cc.mean),
                    (wc.std, cc.std),
                ] {
                    assert_eq!(bits(a), bits(b), "{}: {:?}", w.name, wc.name);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_alone_restore_the_catalog() {
        let dir = tmp_dir("records-only");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();
        fs::write(dir.join("b.csv"), "zip,w\nz1,5\n").unwrap();
        let cold = LakeCatalog::scan(&dir).unwrap();

        // Delete everything under .metam/ except the records.
        for entry in fs::read_dir(LakeCatalog::meta_dir(&dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().is_some_and(|n| n == "sketches") {
                continue;
            }
            if path.is_dir() {
                fs::remove_dir_all(&path).unwrap();
            } else {
                fs::remove_file(&path).unwrap();
            }
        }
        let warm = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(warm.cache_misses(), 0, "records alone restore the catalog");
        assert_eq!(warm.cache_hits(), 2);
        assert_eq!(warm.entries(), cold.entries());

        // Loads fall back to CSV and heal the columnar cache.
        let counters = warm.load_counters();
        let from_csv = warm.load_table("a").unwrap();
        assert_eq!((counters.hits(), counters.misses()), (0, 1));
        assert!(cache::cache_path(&dir, "a.csv").exists(), "cache healed");
        assert_eq!(warm.load_table("a").unwrap(), from_csv);
        assert_eq!((counters.hits(), counters.misses()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        let dir = tmp_dir("parallel");
        for i in 0..23 {
            let rows: String = (0..10).map(|r| format!("z{r},{}\n", r * (i + 1))).collect();
            fs::write(
                dir.join(format!("t{i:02}.csv")),
                format!("zip,v{i}\n{rows}"),
            )
            .unwrap();
        }
        let sequential = LakeCatalog::scan_threads(&dir, 1).unwrap();
        let records = |cat: &LakeCatalog| -> Vec<Vec<u8>> {
            cat.entries()
                .iter()
                .map(|e| fs::read(sketch::sketch_path(&dir, &e.file_name)).unwrap())
                .collect()
        };
        let seq_records = records(&sequential);

        // Wipe all persisted state and rescan with many workers.
        fs::remove_dir_all(LakeCatalog::meta_dir(&dir)).unwrap();
        let parallel = LakeCatalog::scan_threads(&dir, 4).unwrap();
        assert_eq!(parallel.entries(), sequential.entries());
        assert_eq!(parallel.cache_hits(), sequential.cache_hits());
        assert_eq!(parallel.cache_misses(), sequential.cache_misses());
        assert_eq!(
            records(&parallel),
            seq_records,
            "records are byte-identical regardless of thread count"
        );

        // A warm parallel rescan hits everywhere, exactly like sequential.
        let warm = LakeCatalog::scan_threads(&dir, 4).unwrap();
        assert_eq!(warm.cache_hits(), 23);
        assert_eq!(warm.cache_misses(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_table_reads_data_and_source() {
        let dir = tmp_dir("load");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        let t = cat.load_table("a").unwrap();
        assert_eq!(t.nrows(), 1);
        assert_eq!(t.name, "a");
        assert!(!t.source.is_empty(), "source tag comes from the lake dir");
        assert!(matches!(
            cat.load_table("nope"),
            Err(LakeError::UnknownTable(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_table_prefers_the_columnar_cache() {
        let dir = tmp_dir("mtc");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        let counters = cat.load_counters();
        let from_cache = cat.load_table("a").unwrap();
        assert_eq!(counters.hits(), 1, "profile-time cache serves the load");
        assert_eq!(counters.misses(), 0);
        // The cached deserialization equals the CSV parse exactly.
        let from_csv = read_table_file(&dir.join("a.csv")).unwrap();
        assert_eq!(from_cache, from_csv);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_falls_back_to_csv_and_heals() {
        let dir = tmp_dir("mtc-heal");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        let mtc = cache::cache_path(&dir, "a.csv");
        assert!(mtc.exists(), "scan populates the cache");
        // Truncate the payload: the load must fall back to CSV…
        let bytes = fs::read(&mtc).unwrap();
        fs::write(&mtc, &bytes[..bytes.len() / 2]).unwrap();
        let counters = cat.load_counters();
        let t = cat.load_table("a").unwrap();
        assert_eq!(t.nrows(), 1);
        assert_eq!(counters.hits(), 0);
        assert_eq!(counters.misses(), 1, "corrupt cache counts as a miss");
        // …and heal the cache, so the next load hits again.
        let t2 = cat.load_table("a").unwrap();
        assert_eq!(t2, t);
        assert_eq!(counters.hits(), 1, "healed cache serves the next load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_maintains_sketch_records() {
        let dir = tmp_dir("sketch-scan");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();
        fs::write(dir.join("b.csv"), "zip,w\nz1,5\n").unwrap();

        let cold = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(cold.cache_hits(), 0);
        assert_eq!(cold.cache_misses(), 2, "cold scan writes every record");
        assert!(sketch::sketch_path(&dir, "a.csv").exists());

        let warm = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(warm.cache_hits(), 2, "unchanged lake reuses records");
        assert_eq!(warm.cache_misses(), 0);

        // Deleting one record makes that file a profile miss: the scan
        // re-profiles exactly it and rewrites the record.
        fs::remove_file(sketch::sketch_path(&dir, "b.csv")).unwrap();
        let healed = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(
            healed.cache_misses(),
            1,
            "missing sketch forces re-profiling"
        );
        assert_eq!(healed.cache_hits(), 1, "the intact file stays cached");
        assert!(sketch::sketch_path(&dir, "b.csv").exists(), "record healed");

        // Corrupting a record has the same effect as deleting it.
        let path = sketch::sketch_path(&dir, "a.csv");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let reheal = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(reheal.cache_misses(), 1, "corrupt record re-profiles");
        let last = LakeCatalog::scan(&dir).unwrap();
        assert_eq!(last.cache_hits(), 2, "healed records hit again");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sketch_descriptors_match_in_memory_descriptors() {
        let dir = tmp_dir("sketch-desc");
        fs::write(dir.join("din.csv"), "k,y\na,1\nb,2\n").unwrap();
        fs::write(dir.join("x.csv"), "k,v\na,2\nb,3\nc,4\n").unwrap();
        fs::write(dir.join("y.csv"), "k,w\na,7\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        let counters = cat.sketch_load_counters();

        let descriptors = cat.sketch_descriptors(&["din"]).unwrap();
        assert_eq!(counters.hits(), 2, "fresh records serve every table");
        assert_eq!(counters.misses(), 0);
        assert_eq!(cat.repository_names(&["din"]), vec!["x", "y"]);

        // Byte-identical to descriptors computed from the loaded tables.
        let eager: Vec<TableDescriptor> = cat
            .repository_names(&["din"])
            .iter()
            .map(|name| TableDescriptor::from_table(&cat.load_table(name).unwrap()))
            .collect();
        assert_eq!(descriptors, eager);

        // A lost record degrades to loading that one table — and heals.
        fs::remove_file(sketch::sketch_path(&dir, "x.csv")).unwrap();
        let again = cat.sketch_descriptors(&["din"]).unwrap();
        assert_eq!(again, eager, "fallback path produces the same result");
        assert_eq!(counters.misses(), 1, "one record fell back to a load");
        assert!(sketch::sketch_path(&dir, "x.csv").exists(), "record healed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repository_names_skip_din() {
        let dir = tmp_dir("except");
        fs::write(dir.join("din.csv"), "k,y\na,1\n").unwrap();
        fs::write(dir.join("ext.csv"), "k,v\na,2\n").unwrap();
        let cat = LakeCatalog::scan(&dir).unwrap();
        let tables: Vec<Table> = cat
            .repository_names(&["din"])
            .iter()
            .map(|name| cat.load_table(name).unwrap())
            .collect();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "ext");
        assert_eq!(
            cat.load_counters().hits(),
            1,
            "repository loads come from the columnar cache"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
