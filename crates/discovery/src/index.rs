//! The discovery index: per-column sketches over a repository.
//!
//! The index is **metadata-only**: it holds per-table descriptors (name,
//! provenance, column names, sketches) and never retains table payloads.
//! That split is what lets a catalog-backed prepare build the index from
//! persisted sketches ([`DiscoveryIndex::from_catalog`]) without touching
//! raw data — candidate generation becomes set algebra over sketches, and
//! payloads load lazily only when a candidate materializes.
//!
//! A join search ([`DiscoveryIndex::joinable_columns`]) either scans, one
//! sketch comparison per keyish column, or reads the index's exact slot
//! postings: for each of the probe's slot values, the run of keyish
//! columns holding the same value in that slot. A column appears once per
//! value it shares, so the postings alone give its match count, and its
//! containment comes from that count by the formula
//! [`MinHash::containment_in`] uses, without reading its sketch. A probe
//! that is itself a keyish indexed column ([`Probe::Column`], every
//! second-hop probe) finds each run at its own posting's recorded
//! position; any other probe binary-searches the slot for it.

use std::sync::{Arc, OnceLock};

use metam_table::schema::display_name;
use metam_table::Table;

use crate::minhash::{MinHash, SKETCH_SLOTS};

/// Reference to one column of one repository table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table index within the repository.
    pub table: usize,
    /// Column index within the table.
    pub column: usize,
}

/// Per-column metadata kept by the index. The column's sketch stays in
/// its table's descriptor ([`DiscoveryIndex::sketch`]).
#[derive(Debug, Clone)]
pub struct ColumnEntry {
    /// Which column this entry describes.
    pub column: ColumnRef,
    /// Whether the column looks like a join key (mostly distinct values).
    pub keyish: bool,
}

/// Everything the index needs to know about one column, payload-free.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDescriptor {
    /// Column name (`None` for anonymous columns).
    pub name: Option<String>,
    /// MinHash sketch of the column's normalized distinct values (carries
    /// the exact distinct count as its cardinality).
    pub sketch: MinHash,
    /// Whether the column looks like a join key: ≥ 50 % of its non-null
    /// values are distinct. Computed from counts, so a descriptor built
    /// from a persisted sketch agrees exactly with one built in memory.
    pub keyish: bool,
}

impl ColumnDescriptor {
    /// Describe a column with `non_null` non-null values from its name and
    /// sketch, whose cardinality is the exact distinct count. Descriptors
    /// built in memory and from persisted sketch records both come from
    /// here, so they agree exactly.
    pub fn new(name: Option<String>, sketch: MinHash, non_null: usize) -> ColumnDescriptor {
        ColumnDescriptor {
            name,
            keyish: non_null > 0 && sketch.cardinality * 2 >= non_null,
            sketch,
        }
    }
}

/// Everything the index needs to know about one table, payload-free.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDescriptor {
    /// Table name.
    pub name: String,
    /// Provenance tag.
    pub source: String,
    /// Approximate in-memory size in bytes (Table I-style statistics).
    pub approx_bytes: usize,
    /// Per-column descriptors, in column order.
    pub columns: Vec<ColumnDescriptor>,
}

impl TableDescriptor {
    /// Describe a materialized table: sketch every column and flag join
    /// keys. This is the in-memory profiling path; the lake layer persists
    /// the same information at scan time and rebuilds descriptors from the
    /// catalog without reloading payloads.
    pub fn from_table(table: &Table) -> TableDescriptor {
        let columns = table
            .columns()
            .iter()
            .map(|col| {
                let sketch = MinHash::from_keys(&col.distinct_keys());
                ColumnDescriptor::new(col.name.clone(), sketch, col.len() - col.null_count())
            })
            .collect();
        TableDescriptor {
            name: table.name.clone(),
            source: table.source.clone(),
            approx_bytes: table.approx_bytes(),
            columns,
        }
    }

    /// Display name of column `i` (anonymous columns render as `_colN`,
    /// matching [`Table::column_display_name`]).
    pub fn column_display_name(&self, i: usize) -> String {
        display_name(self.columns.get(i).and_then(|c| c.name.as_deref()), i)
    }
}

/// How [`DiscoveryIndex::joinable_columns`] finds the columns a probe
/// shares values with. Both searches return the same list, bit for bit;
/// they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSearch {
    /// Compare the probe with every keyish entry: no set-up, and each
    /// probe costs one full sketch comparison per entry.
    Scan,
    /// Look the probe's slot values up in the index's slot postings and
    /// score only the entries sharing at least one value, from the number
    /// of values they share. The postings are built on first use and kept
    /// for the index's lifetime.
    Postings,
}

/// What [`DiscoveryIndex::joinable_columns`] probes with.
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// A sketch from outside the index, such as a column of `din`.
    Sketch(&'a MinHash),
    /// An indexed column, probed with its own sketch. A postings search
    /// finds a keyish column's postings by position instead of searching
    /// for them.
    Column(ColumnRef),
}

/// The columns one probe joins into, and what finding them cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Joinable {
    /// Joinable columns with their containment, sorted by containment
    /// descending (ties by column ref).
    pub columns: Vec<(ColumnRef, f64)>,
    /// Containments computed: the keyish entries outside the excluded
    /// table for a scan, only those sharing a slot value with the probe
    /// for a postings search.
    pub scored: usize,
}

/// Exact slot postings over the keyish entries: for every MinHash slot,
/// the (min value, entry) pairs of that slot, sorted, and where each
/// entry's value sits among them. Flat arrays, 12 bytes per posting and
/// 512 bytes of positions per entry; empty slots (`u64::MAX`) are not
/// posted, matching [`MinHash::jaccard`], which never counts them as
/// matches. Each entry is posted at most once per slot, so the number of
/// a probe's slot values an entry holds is exactly the match count a
/// sketch comparison would recount.
#[derive(Clone)]
struct Postings {
    /// Slot `s`'s postings are `keys[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    /// Slot min values, ascending within each slot.
    keys: Vec<u64>,
    /// The entry holding each posted value.
    entries: Vec<u32>,
    /// `positions[e * SKETCH_SLOTS + s]` is where entry `e`'s slot `s`
    /// value is posted in `keys` (`u32::MAX` when it is not posted).
    positions: Vec<u32>,
}

impl std::fmt::Debug for Postings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Postings")
            .field("postings", &self.keys.len())
            .finish()
    }
}

impl Postings {
    /// Post every keyish entry of `index`. `None` when the entry ids or
    /// the positions of the postings do not fit `u32`; such an index
    /// always scans.
    fn build(index: &DiscoveryIndex) -> Option<Postings> {
        u32::try_from(index.entries.len()).ok()?;
        let keyish: Vec<(u32, &[u64; SKETCH_SLOTS])> = index
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.keyish)
            .map(|(i, e)| (i as u32, index.sketch(e.column).slots()))
            .collect();
        let n_postings: usize = keyish
            .iter()
            .map(|(_, slots)| slots.iter().filter(|&&v| v != u64::MAX).count())
            .sum();
        u32::try_from(n_postings).ok()?;
        let mut offsets = Vec::with_capacity(SKETCH_SLOTS + 1);
        let mut keys = Vec::with_capacity(n_postings);
        let mut ids = Vec::with_capacity(n_postings);
        let mut positions = vec![u32::MAX; index.entries.len() * SKETCH_SLOTS];
        let mut slot_pairs: Vec<(u64, u32)> = Vec::with_capacity(keyish.len());
        for slot in 0..SKETCH_SLOTS {
            offsets.push(keys.len());
            slot_pairs.clear();
            slot_pairs.extend(
                keyish
                    .iter()
                    .map(|&(i, slots)| (slots[slot], i))
                    .filter(|&(v, _)| v != u64::MAX),
            );
            slot_pairs.sort_unstable();
            for &(v, i) in &slot_pairs {
                positions[i as usize * SKETCH_SLOTS + slot] = keys.len() as u32;
                keys.push(v);
                ids.push(i);
            }
        }
        offsets.push(keys.len());
        Some(Postings {
            offsets,
            keys,
            entries: ids,
            positions,
        })
    }

    /// The entries sharing at least one slot value with `probe`, each
    /// with the number of slot values it shares, ascending by entry.
    /// `posted` is the probe's own entry when it is posted: each slot's
    /// run of equal values is then found at that entry's position,
    /// otherwise by a binary search of the slot's postings.
    fn sharing(&self, probe: &MinHash, posted: Option<usize>) -> Vec<(u32, usize)> {
        let mut hits = Vec::new();
        for (slot, &value) in probe.slots().iter().enumerate() {
            if value == u64::MAX {
                continue;
            }
            let lo = self.offsets[slot];
            let keys = &self.keys[lo..self.offsets[slot + 1]];
            // A position in `keys` where the run of `value` starts or lies.
            let at = match posted {
                Some(e) => self.positions[e * SKETCH_SLOTS + slot] as usize - lo,
                None => keys.partition_point(|&k| k < value),
            };
            let start = at - keys[..at].iter().rev().take_while(|&&k| k == value).count();
            let end = at + keys[at..].iter().take_while(|&&k| k == value).count();
            hits.extend_from_slice(&self.entries[lo + start..lo + end]);
        }
        hits.sort_unstable();
        hits.chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .collect()
    }
}

/// An index over every column of a repository, the Aurum stand-in.
///
/// Construction is payload-free: [`from_catalog`](Self::from_catalog)
/// consumes descriptors (typically rebuilt from persisted sketches), and
/// [`build`](Self::build) is the in-memory convenience that describes the
/// tables first. Either way the resulting index is identical — candidate
/// generation only ever sees descriptors.
#[derive(Debug, Clone)]
pub struct DiscoveryIndex {
    descriptors: Vec<TableDescriptor>,
    entries: Vec<ColumnEntry>,
    /// `entry_offsets[t] + c` is the entry index of column `c` of table
    /// `t` (entries are pushed one per column, in table-then-column order).
    entry_offsets: Vec<usize>,
    /// Slot postings, built by the first [`JoinSearch::Postings`] probe.
    postings: OnceLock<Option<Postings>>,
}

impl DiscoveryIndex {
    /// Build an index over materialized repository tables. Every column is
    /// sketched; a column is flagged `keyish` when ≥ 50 % of its non-null
    /// values are distinct (a join on a low-cardinality column explodes
    /// and is skipped during path enumeration). The table payloads are
    /// **not** retained — this is [`from_catalog`](Self::from_catalog)
    /// over freshly computed descriptors.
    pub fn build(tables: Vec<Arc<Table>>) -> DiscoveryIndex {
        DiscoveryIndex::from_catalog(
            tables
                .iter()
                .map(|t| TableDescriptor::from_table(t))
                .collect(),
        )
    }

    /// Sketch-only construction from per-table descriptors, e.g. read back
    /// from a lake catalog's persisted sketch records. No table payload is
    /// touched; the index produced is byte-identical to
    /// [`build`](Self::build) over the same tables.
    pub fn from_catalog(descriptors: Vec<TableDescriptor>) -> DiscoveryIndex {
        let mut entries = Vec::new();
        let mut entry_offsets = Vec::with_capacity(descriptors.len());
        for (ti, table) in descriptors.iter().enumerate() {
            entry_offsets.push(entries.len());
            for (ci, col) in table.columns.iter().enumerate() {
                entries.push(ColumnEntry {
                    column: ColumnRef {
                        table: ti,
                        column: ci,
                    },
                    keyish: col.keyish,
                });
            }
        }
        DiscoveryIndex {
            descriptors,
            entries,
            entry_offsets,
            postings: OnceLock::new(),
        }
    }

    /// Number of indexed tables.
    pub fn n_tables(&self) -> usize {
        self.descriptors.len()
    }

    /// The per-table descriptors, in repository order.
    pub fn descriptors(&self) -> &[TableDescriptor] {
        &self.descriptors
    }

    /// Descriptor of table `idx`.
    pub fn descriptor(&self, idx: usize) -> &TableDescriptor {
        &self.descriptors[idx]
    }

    /// All column entries.
    pub fn entries(&self) -> &[ColumnEntry] {
        &self.entries
    }

    /// The entry for column `column` of table `table`.
    pub fn entry(&self, table: usize, column: usize) -> &ColumnEntry {
        &self.entries[self.entry_offsets[table] + column]
    }

    /// The MinHash sketch of `column`'s normalized distinct values.
    pub fn sketch(&self, column: ColumnRef) -> &MinHash {
        &self.descriptors[column.table].columns[column.column].sketch
    }

    /// Columns (from any table except `exclude_table`) that a probe column
    /// joins into: containment of the probe's values in the candidate column
    /// is at least `threshold`. Results are sorted by containment descending
    /// (ties by column ref) and restricted to `keyish` columns.
    ///
    /// `search` picks how the candidates are found, never which: a
    /// [`JoinSearch::Scan`] compares the probe's sketch with every keyish
    /// entry's, a [`JoinSearch::Postings`] scores only the entries sharing
    /// a slot value with the probe, from the count of values they share in
    /// the postings, with [`MinHash::containment_from_matches`] (the
    /// formula [`MinHash::containment_in`] uses). A [`Probe::Column`] of a
    /// keyish column finds its postings by position. An entry sharing no
    /// value has containment 0, so for `threshold > 0` the two return the
    /// same list, bit for bit; a threshold `<= 0` admits every keyish
    /// entry and always scans. [`search_for`](Self::search_for) picks the
    /// cheaper one for a hop.
    pub fn joinable_columns(
        &self,
        probe: Probe<'_>,
        threshold: f64,
        exclude_table: Option<usize>,
        search: JoinSearch,
    ) -> Joinable {
        // A keyish column probe is posted itself: its entry locates its runs.
        let (sketch, posted) = match probe {
            Probe::Sketch(sketch) => (sketch, None),
            Probe::Column(column) => {
                let e = self.entry_offsets[column.table] + column.column;
                (self.sketch(column), self.entries[e].keyish.then_some(e))
            }
        };
        let outside = |e: &ColumnEntry| Some(e.column.table) != exclude_table;
        let postings = match search {
            JoinSearch::Postings if threshold > 0.0 => {
                self.postings.get_or_init(|| Postings::build(self)).as_ref()
            }
            _ => None,
        };
        let mut scored = 0;
        let mut keep = |column: ColumnRef, c: f64| {
            scored += 1;
            (c >= threshold).then_some((column, c))
        };
        let mut columns: Vec<(ColumnRef, f64)> = match postings {
            Some(postings) => postings
                .sharing(sketch, posted)
                .into_iter()
                .map(|(i, matches)| (&self.entries[i as usize], matches))
                .filter(|(e, _)| outside(e))
                .filter_map(|(e, matches)| {
                    let other = self.sketch(e.column).cardinality;
                    keep(e.column, sketch.containment_from_matches(other, matches))
                })
                .collect(),
            None => self
                .entries
                .iter()
                .filter(|e| e.keyish && outside(e))
                .filter_map(|e| keep(e.column, sketch.containment_in(self.sketch(e.column))))
                .collect(),
        };
        columns.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Joinable { columns, scored }
    }

    /// The cheaper search for a hop that makes `probes` probes at
    /// `threshold`. Postings cost one sort over the keyish entries' slot
    /// values, about log2(keyish entries) scans' worth, so they pay only
    /// for hops making more probes than that — many second-hop probes
    /// over a lake, but not the few probes of a narrow join neighbourhood.
    pub fn search_for(&self, probes: usize, threshold: f64) -> JoinSearch {
        let keyish = self.entries.iter().filter(|e| e.keyish).count();
        let sort_cost = keyish.checked_ilog2().unwrap_or(0) as usize;
        if threshold > 0.0 && probes > sort_cost {
            JoinSearch::Postings
        } else {
            JoinSearch::Scan
        }
    }

    /// Repository statistics for Table I-style reporting.
    pub fn stats(&self) -> IndexStats {
        let n_tables = self.descriptors.len();
        let n_columns = self.entries.len();
        let n_keyish = self.entries.iter().filter(|e| e.keyish).count();
        let bytes = self.descriptors.iter().map(|t| t.approx_bytes).sum();
        IndexStats {
            n_tables,
            n_columns,
            n_keyish,
            bytes,
        }
    }
}

/// Summary statistics of an index (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of tables.
    pub n_tables: usize,
    /// Number of columns.
    pub n_columns: usize,
    /// Number of join-key-like columns.
    pub n_keyish: usize,
    /// Approximate total size in bytes.
    pub bytes: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use metam_table::Column;

    fn repo() -> Vec<Arc<Table>> {
        let zips: Vec<Option<String>> = (0..100).map(|i| Some(format!("z{i}"))).collect();
        let t1 = Table::from_columns(
            "crime",
            vec![
                Column::from_strings(Some("zip".into()), zips.clone()),
                Column::from_floats(
                    Some("rate".into()),
                    (0..100).map(|i| Some(i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        // Low-cardinality column: not keyish.
        let t2 = Table::from_columns(
            "category",
            vec![Column::from_strings(
                Some("kind".into()),
                (0..100)
                    .map(|i| Some(if i % 2 == 0 { "a" } else { "b" }.to_string()))
                    .collect(),
            )],
        )
        .unwrap();
        vec![Arc::new(t1), Arc::new(t2)]
    }

    #[test]
    fn index_flags_keyish_columns() {
        let idx = DiscoveryIndex::build(repo());
        let entries = idx.entries();
        assert!(entries[0].keyish, "distinct zip column is a key");
        assert!(!entries[2].keyish, "binary category is not a key");
    }

    #[test]
    fn joinable_columns_finds_overlap() {
        let idx = DiscoveryIndex::build(repo());
        let probe_keys: Vec<String> = (0..50).map(|i| format!("z{i}")).collect();
        let probe = MinHash::from_keys(&probe_keys);
        let hits = idx
            .joinable_columns(Probe::Sketch(&probe), 0.5, None, JoinSearch::Scan)
            .columns;
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].0,
            ColumnRef {
                table: 0,
                column: 0
            }
        );
        assert!(hits[0].1 > 0.8);
    }

    #[test]
    fn exclude_table_is_respected() {
        let idx = DiscoveryIndex::build(repo());
        let probe_keys: Vec<String> = (0..50).map(|i| format!("z{i}")).collect();
        let probe = MinHash::from_keys(&probe_keys);
        for search in [JoinSearch::Scan, JoinSearch::Postings] {
            assert!(idx
                .joinable_columns(Probe::Sketch(&probe), 0.5, Some(0), search)
                .columns
                .is_empty());
        }
    }

    #[test]
    fn stats_count_everything() {
        let idx = DiscoveryIndex::build(repo());
        let s = idx.stats();
        assert_eq!(s.n_tables, 2);
        assert_eq!(s.n_columns, 3);
        // Both `zip` (distinct strings) and `rate` (distinct numbers) look
        // key-like; the binary `kind` column does not.
        assert_eq!(s.n_keyish, 2);
        assert!(s.bytes > 0);
    }

    #[test]
    fn from_catalog_equals_build() {
        let tables = repo();
        let built = DiscoveryIndex::build(tables.clone());
        let descriptors: Vec<TableDescriptor> = tables
            .iter()
            .map(|t| TableDescriptor::from_table(t))
            .collect();
        let from_cat = DiscoveryIndex::from_catalog(descriptors);
        assert_eq!(from_cat.descriptors(), built.descriptors());
        assert_eq!(from_cat.entries().len(), built.entries().len());
        for (a, b) in from_cat.entries().iter().zip(built.entries()) {
            assert_eq!(a.column, b.column);
            assert_eq!(from_cat.sketch(a.column), built.sketch(b.column));
            assert_eq!(a.keyish, b.keyish);
        }
        assert_eq!(from_cat.stats(), built.stats());
    }

    #[test]
    fn entry_lookup_matches_flat_order() {
        let idx = DiscoveryIndex::build(repo());
        assert_eq!(
            idx.entry(1, 0).column,
            ColumnRef {
                table: 1,
                column: 0
            }
        );
        assert_eq!(idx.descriptor(0).name, "crime");
        assert_eq!(idx.descriptor(0).column_display_name(1), "rate");
        assert_eq!(idx.n_tables(), 2);
    }

    /// The seeded generator of the randomized tests.
    pub(crate) use metam_table::sample::splitmix64 as next;

    /// A random key set: none (an empty sketch), a range of keys of its
    /// own (`own` keeps it disjoint from every other set), or a range of
    /// a pool every set draws from (so sets overlap, nest or coincide).
    fn random_keys(state: &mut u64, own: usize) -> Vec<String> {
        let len = 1 + next(state) % 60;
        match next(state) % 4 {
            0 => Vec::new(),
            1 => (0..len).map(|i| format!("own{own}_{i}")).collect(),
            _ => {
                let lo = next(state) % 40;
                (lo..lo + len).map(|i| format!("k{i}")).collect()
            }
        }
    }

    /// Random tables of random columns. A third of the columns repeat an
    /// earlier column's sketch, so equal slot values form runs of several
    /// postings.
    fn random_descriptors(state: &mut u64) -> Vec<TableDescriptor> {
        let n_tables = 1 + next(state) % 8;
        let mut sketches: Vec<MinHash> = Vec::new();
        (0..n_tables as usize)
            .map(|t| TableDescriptor {
                name: format!("t{t}"),
                source: String::new(),
                approx_bytes: 0,
                columns: (0..1 + next(state) % 4)
                    .map(|c| {
                        let sketch = match next(state) % 3 {
                            0 if !sketches.is_empty() => {
                                sketches[(next(state) % sketches.len() as u64) as usize].clone()
                            }
                            _ => MinHash::from_keys(&random_keys(state, t * 10 + c as usize)),
                        };
                        sketches.push(sketch.clone());
                        ColumnDescriptor {
                            name: Some(format!("c{c}")),
                            sketch,
                            keyish: !next(state).is_multiple_of(4),
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// A join-search result with its scores as bits.
    pub(crate) fn bits(hits: &[(ColumnRef, f64)]) -> Vec<(ColumnRef, u64)> {
        hits.iter().map(|&(c, v)| (c, v.to_bits())).collect()
    }

    #[test]
    fn postings_and_scan_return_identical_lists() {
        let mut state = 0x5EED;
        let mut found = [0usize; 3];
        // Runs of two or more equal values at a slot's first and at its
        // last position: the edges a run walk must reach.
        let mut edge_runs = [0usize; 2];
        let mut column_hits = 0;
        for case in 0..300 {
            let descriptors = random_descriptors(&mut state);
            let n_tables = descriptors.len() as u64;
            let index = DiscoveryIndex::from_catalog(descriptors);
            let probe = MinHash::from_keys(&random_keys(&mut state, 999));
            let exclude = match next(&mut state) % 3 {
                0 => None,
                _ => Some((next(&mut state) % n_tables) as usize),
            };
            for (t, threshold) in [0.0, 0.6, 1.0].into_iter().enumerate() {
                let search = |search| {
                    index.joinable_columns(Probe::Sketch(&probe), threshold, exclude, search)
                };
                let (scan, postings) = (search(JoinSearch::Scan), search(JoinSearch::Postings));
                assert_eq!(
                    bits(&scan.columns),
                    bits(&postings.columns),
                    "case {case}, threshold {threshold}, exclude {exclude:?}"
                );
                assert!(postings.scored <= scan.scored);
                found[t] += scan.columns.len();
            }
            // Every keyish column probed by reference, through its
            // postings' positions, against a scan of its sketch.
            for entry in index.entries().iter().filter(|e| e.keyish) {
                let column = entry.column;
                for exclude in [None, Some(column.table)] {
                    for threshold in [f64::MIN_POSITIVE, 0.6] {
                        let sketch = Probe::Sketch(index.sketch(column));
                        let scan =
                            index.joinable_columns(sketch, threshold, exclude, JoinSearch::Scan);
                        let by_position = index.joinable_columns(
                            Probe::Column(column),
                            threshold,
                            exclude,
                            JoinSearch::Postings,
                        );
                        assert_eq!(
                            bits(&scan.columns),
                            bits(&by_position.columns),
                            "case {case}, column {column:?}, threshold {threshold:e}, exclude {exclude:?}"
                        );
                        column_hits += scan.columns.len();
                    }
                }
            }
            if let Some(Some(postings)) = index.postings.get() {
                for slot in postings.offsets.windows(2) {
                    let keys = &postings.keys[slot[0]..slot[1]];
                    if keys.len() > 2 {
                        edge_runs[0] += usize::from(keys[0] == keys[1]);
                        edge_runs[1] += usize::from(keys[keys.len() - 1] == keys[keys.len() - 2]);
                    }
                }
            }
        }
        assert!(
            found.iter().all(|&n| n > 0),
            "every threshold admits some columns: {found:?}"
        );
        assert!(column_hits > 0, "column probes find columns");
        assert!(
            edge_runs.iter().all(|&n| n > 0),
            "runs start at a slot's first and end at its last posting: {edge_runs:?}"
        );
    }

    #[test]
    fn postings_pay_only_beyond_log2_probes() {
        let descriptors: Vec<TableDescriptor> = (0..20)
            .map(|t| TableDescriptor {
                name: format!("t{t}"),
                source: String::new(),
                approx_bytes: 0,
                columns: vec![ColumnDescriptor {
                    name: None,
                    sketch: MinHash::from_keys(&[format!("k{t}")]),
                    keyish: true,
                }],
            })
            .collect();
        let idx = DiscoveryIndex::from_catalog(descriptors);
        // 20 keyish entries: log2 rounds down to 4.
        assert_eq!(idx.search_for(4, 0.6), JoinSearch::Scan);
        assert_eq!(idx.search_for(5, 0.6), JoinSearch::Postings);
        assert_eq!(
            idx.search_for(1000, 0.0),
            JoinSearch::Scan,
            "a threshold of 0 admits every keyish entry"
        );
    }
}
