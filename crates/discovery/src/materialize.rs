//! Candidate materialization with caching.
//!
//! Materializing `Γ(Din, P[j])` chains first-match left joins along the
//! path and projects one column, keeping the result row-aligned with
//! `Din`. There is one routine for it: every hop maps rows through
//! [`KeyIndex::map_rows`], the first hop by [`match_rows`] from `din`'s
//! join column, each later hop through the key index of its table's key
//! column. The joins give a row mapping that depends on the path alone,
//! and every candidate of a path is a projection of it.
//! [`Materializer::materialize_run`] walks a list of candidates, keeping
//! the last first-hop and path mappings so that consecutive candidates
//! share them; many paths, across first-hop groups, join the same
//! `(table, key_column)` after their first hop, so one pass over a
//! candidate list shares those key indexes ([`NextIndexes`]), each until
//! the last path run that joins it. [`Materializer::materialize`] is a
//! run of one. Candidates are materialized many times across the search
//! (profiles, repeated utility queries), so results are cached behind an
//! `Arc`.
//!
//! The repository behind a materializer is a [`TableProvider`]: either the
//! tables themselves (the in-memory path) or a deferred handle that loads
//! a table from backing storage the first time a candidate needs it (the
//! catalog-backed path — a discover run then touches only the tables that
//! actually win candidacy).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use metam_table::join::{match_rows, KeyIndex};
use metam_table::{Column, Table, TableError};
use parking_lot::{Mutex, RwLock};

use crate::candidate::{path_runs, Candidate, CandidateId};
use crate::path::{Hop, JoinPath};

/// A source of repository table payloads, indexed like the
/// [`crate::DiscoveryIndex`] that produced the candidates.
///
/// `Send + Sync` because profile evaluation materializes candidates from
/// worker threads. [`Materializer`] memoizes and single-flights fetches,
/// so implementations need no cache of their own; a fetch is repeated
/// only after an error, and must return the same table every time.
pub trait TableProvider: Send + Sync {
    /// Number of repository tables.
    fn len(&self) -> usize;

    /// `true` when the repository holds no tables.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch table `idx`. Errors are surfaced as
    /// [`TableError::Provider`] by the materializer.
    fn fetch(&self, idx: usize) -> Result<Arc<Table>, String>;
}

/// The eager provider: tables already in memory.
struct EagerTables(Vec<Arc<Table>>);

impl TableProvider for EagerTables {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&self, idx: usize) -> Result<Arc<Table>, String> {
        self.0.get(idx).cloned().ok_or_else(|| {
            format!(
                "table index {idx} out of bounds for {} tables",
                self.0.len()
            )
        })
    }
}

/// Where each `din` row lands in the final table of one join path (or of
/// a path's first hop): the chained first-match left joins, before any
/// column is projected.
struct RowMapping {
    /// The path's final table.
    table: Arc<Table>,
    /// Per `din` row, the matching row of `table`, if any.
    rows: Vec<Option<usize>>,
}

impl RowMapping {
    /// Project the candidate's value column through the mapping into a
    /// `din`-aligned column. The column keeps the value column's type (an
    /// all-null projection is a `Bool` column, see [`Column::gather`]).
    fn project(&self, candidate: &Candidate) -> metam_table::Result<Column> {
        let mut col = self
            .table
            .column(candidate.value_column)?
            .gather(self.rows.iter().copied());
        // Augmented columns are named uniquely so repeated augmentations
        // from different tables never collide inside the augmented Din.
        col.name = Some(format!("aug{}_{}", candidate.id, candidate.column_name));
        Ok(col)
    }
}

/// The key indexes that one pass of [`Materializer::materialize_run`]
/// calls over a candidate list shares: one per `(table, key_column)` pair
/// that a path joins after its first hop, built by the first path that
/// needs it (racing workers wait for that one build, as
/// [`Materializer::table`] does for a fetch) and dropped after the last
/// path run that joins it, or with this value. A failed build is retried
/// by the next path that needs the pair.
pub struct NextIndexes {
    /// `(table, key_column)` pairs, sorted.
    pairs: Vec<(usize, usize)>,
    /// Per pair: its index once built, and how many path runs have yet to
    /// join it.
    slots: Vec<Mutex<(Option<Arc<KeyIndex>>, usize)>>,
    /// Indexes built so far.
    builds: AtomicUsize,
}

impl NextIndexes {
    /// Empty slots for every pair that a path of `candidates` joins after
    /// its first hop.
    pub fn new(candidates: &[Candidate]) -> NextIndexes {
        let mut joins: Vec<(usize, usize)> = path_runs(candidates)
            .flat_map(|run| &run[0].path.hops[1..])
            .map(|hop| (hop.table, hop.key_column))
            .collect();
        joins.sort_unstable();
        let mut pairs = joins.clone();
        pairs.dedup();
        NextIndexes {
            slots: joins
                .chunk_by(|a, b| a == b)
                .map(|runs| Mutex::new((None, runs.len())))
                .collect(),
            pairs,
            builds: AtomicUsize::new(0),
        }
    }

    /// Number of pairs: the indexes a pass over the candidates builds at
    /// most.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no path of the candidates has a second hop.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of indexes built so far.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// The index of `hop`'s pair: the one a path of this pass built, or
    /// the one `build` makes now for the paths after it. `None` for a pair
    /// the candidates never join after a first hop.
    fn index(
        &self,
        hop: &Hop,
        build: impl FnOnce() -> metam_table::Result<KeyIndex>,
    ) -> Option<metam_table::Result<Arc<KeyIndex>>> {
        let at = self
            .pairs
            .binary_search(&(hop.table, hop.key_column))
            .ok()?;
        let mut slot = self.slots[at].lock();
        let (held, runs_left) = &mut *slot;
        *runs_left = runs_left.saturating_sub(1);
        let index = match held {
            Some(index) => Ok(Arc::clone(index)),
            None => build().map(|index| {
                let index = Arc::new(index);
                self.builds.fetch_add(1, Ordering::Relaxed);
                *held = Some(Arc::clone(&index));
                index
            }),
        };
        if *runs_left == 0 {
            *held = None;
        }
        Some(index)
    }
}

/// Materializes candidates against a fixed repository, caching per
/// candidate id. Cheap to clone is not needed; share by reference.
///
/// [`materialize`](Self::materialize) serves one candidate;
/// [`materialize_run`](Self::materialize_run) serves a run of candidates
/// sharing one join path and joins along that path once. Both return and
/// cache the same columns.
pub struct Materializer {
    provider: Box<dyn TableProvider>,
    /// One slot per table, memoizing its fetch. A fetch holds its slot's
    /// lock, so a lazy provider loads each backing table once even when
    /// workers race for it.
    fetched: Vec<Mutex<Option<Arc<Table>>>>,
    cache: RwLock<HashMap<CandidateId, Arc<Column>>>,
}

impl std::fmt::Debug for Materializer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materializer")
            .field("tables", &self.provider.len())
            .field(
                "fetched",
                &self.fetched.iter().filter(|s| s.lock().is_some()).count(),
            )
            .field("cached_columns", &self.cache.read().len())
            .finish()
    }
}

impl Materializer {
    /// New materializer over in-memory repository tables (same order as
    /// the [`crate::DiscoveryIndex`] that produced the candidates).
    pub fn new(tables: Vec<Arc<Table>>) -> Materializer {
        Materializer::lazy(Box::new(EagerTables(tables)))
    }

    /// New materializer over a deferred [`TableProvider`] (same indexing
    /// as the index that produced the candidates). Tables are fetched on
    /// first use and memoized, so only candidate-bearing tables ever load.
    pub fn lazy(provider: Box<dyn TableProvider>) -> Materializer {
        Materializer {
            fetched: (0..provider.len()).map(|_| Mutex::new(None)).collect(),
            provider,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Number of repository tables behind the provider.
    pub fn n_tables(&self) -> usize {
        self.provider.len()
    }

    /// Repository table by index, fetching through the provider on first
    /// use (memoized; an eager materializer never really "loads"). Callers
    /// racing for the same table wait for one fetch; distinct tables load
    /// concurrently.
    pub fn table(&self, idx: usize) -> metam_table::Result<Arc<Table>> {
        let Some(slot) = self.fetched.get(idx) else {
            // Out of range: the provider reports the error.
            return self.provider.fetch(idx).map_err(TableError::Provider);
        };
        let mut slot = slot.lock();
        if let Some(t) = &*slot {
            return Ok(Arc::clone(t));
        }
        let table = self.provider.fetch(idx).map_err(TableError::Provider)?;
        *slot = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Number of cached columns (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.cache.read().len()
    }

    /// Materialize the candidate into a `din`-aligned column: a run of
    /// one through [`materialize_run`](Self::materialize_run)'s code.
    ///
    /// The result is cached by candidate id; subsequent calls are `Arc`
    /// clones that allocate nothing. The cache assumes one `din` per
    /// materializer (true for every search run).
    pub fn materialize(
        &self,
        din: &Table,
        candidate: &Candidate,
    ) -> metam_table::Result<Arc<Column>> {
        if let Some(cached) = self.cache.read().get(&candidate.id) {
            return Ok(Arc::clone(cached));
        }
        let indexes = NextIndexes::new(std::slice::from_ref(candidate));
        self.materialize_next(din, candidate, &indexes, &mut None, &mut None)
    }

    /// Materialize a list of candidates, returning per candidate what
    /// [`materialize`](Self::materialize) would, cache hits included.
    ///
    /// Consecutive candidates on one path share its row mapping, and
    /// consecutive paths with one first hop share that hop's mapping, so a
    /// [`first_hop_groups`](crate::first_hop_groups) group joins `din`
    /// into its first table once and each of its paths once. Only the last
    /// first hop and the last path are kept, and only until the call
    /// returns. Later hops take their key index from `indexes`, which the
    /// caller shares across the calls of one pass. A failed mapping fails
    /// that candidate and is retried at the next one, as separate calls
    /// would retry it.
    pub fn materialize_run(
        &self,
        din: &Table,
        run: &[Candidate],
        indexes: &NextIndexes,
    ) -> Vec<metam_table::Result<Arc<Column>>> {
        let (mut first, mut last) = (None, None);
        run.iter()
            .map(|candidate| self.materialize_next(din, candidate, indexes, &mut first, &mut last))
            .collect()
    }

    /// Materialize the next candidate of a run: a cache hit, or its
    /// path's row mapping projected and cached. `first` and `last` hold
    /// the run's last first-hop and path mappings, reused when the
    /// candidate shares them and replaced when it does not.
    fn materialize_next<'r>(
        &self,
        din: &Table,
        candidate: &'r Candidate,
        indexes: &NextIndexes,
        first: &mut Option<(Hop, RowMapping)>,
        last: &mut Option<(&'r JoinPath, RowMapping)>,
    ) -> metam_table::Result<Arc<Column>> {
        if let Some(cached) = self.cache.read().get(&candidate.id) {
            return Ok(Arc::clone(cached));
        }
        let path = &candidate.path;
        let hop = path.hops[0];
        let first_rows = match first.take() {
            Some((h, rows)) if h == hop => first.insert((h, rows)),
            _ => first.insert((hop, self.first_hop(din, &hop)?)),
        };
        let mapping = match &path.hops[1..] {
            [] => &first_rows.1,
            [next, rest @ ..] => {
                let current = match last.take() {
                    Some((p, rows)) if p == path => (p, rows),
                    _ => {
                        let mut rows = self.join_next(&first_rows.1, next, indexes)?;
                        for hop in rest {
                            rows = self.join_next(&rows, hop, indexes)?;
                        }
                        (path, rows)
                    }
                };
                &last.insert(current).1
            }
        };
        let arc = Arc::new(mapping.project(candidate)?);
        self.cache.write().insert(candidate.id, Arc::clone(&arc));
        Ok(arc)
    }

    /// Left-join `din` into the first table of a path through `hop`.
    fn first_hop(&self, din: &Table, hop: &Hop) -> metam_table::Result<RowMapping> {
        let table = self.table(hop.table)?;
        let rows = match_rows(din.column(hop.left_column)?, table.column(hop.key_column)?)?;
        Ok(RowMapping { table, rows })
    }

    /// Extend `from` by one hop: a first-match left join of its table's
    /// bridge column into the next table, through the key index that
    /// `indexes` shares for the hop's pair (or one of its own for a pair
    /// that `indexes` does not hold).
    fn join_next(
        &self,
        from: &RowMapping,
        hop: &Hop,
        indexes: &NextIndexes,
    ) -> metam_table::Result<RowMapping> {
        let bridge = from.table.column(hop.left_column)?;
        let table = self.table(hop.table)?;
        let build = || Ok(KeyIndex::new(table.column(hop.key_column)?));
        let index = match indexes.index(hop, build) {
            Some(index) => index?,
            None => Arc::new(build()?),
        };
        let rows = index.map_rows(bridge, from.rows.iter().copied())?;
        Ok(RowMapping { table, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DiscoveryIndex;
    use crate::path::PathConfig;
    use metam_table::Value;

    fn setup() -> (Table, DiscoveryIndex, Materializer, Vec<Candidate>) {
        let din = Table::from_columns(
            "din",
            vec![Column::from_strings(
                Some("zip".into()),
                vec![Some("z0".into()), Some("z1".into()), Some("zX".into())],
            )],
        )
        .unwrap();
        let t0 = Table::from_columns(
            "crime",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..40).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_strings(
                    Some("district".into()),
                    (0..40).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("rate".into()),
                    (0..40).map(|i| Some(i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let t1 = Table::from_columns(
            "districts",
            vec![
                Column::from_strings(
                    Some("id".into()),
                    (0..40).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("income".into()),
                    (0..40).map(|i| Some(100.0 + i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let tables = vec![Arc::new(t0), Arc::new(t1)];
        let index = DiscoveryIndex::build(tables.clone());
        let cfg = PathConfig {
            containment_threshold: 0.05,
            ..Default::default()
        };
        let candidates = crate::candidate::generate_candidates(&din, &index, &cfg, 100);
        let mat = Materializer::new(tables);
        (din, index, mat, candidates)
    }

    #[test]
    fn single_hop_materializes_values_and_nulls() {
        let (din, _idx, mat, cands) = setup();
        let c = cands
            .iter()
            .find(|c| c.path.len() == 1 && c.column_name == "rate")
            .expect("rate candidate");
        let col = mat.materialize(&din, c).unwrap();
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Value::Float(0.0));
        assert_eq!(col.get(1), Value::Float(1.0));
        assert_eq!(col.get(2), Value::Null, "zX has no match");
    }

    #[test]
    fn two_hop_materializes_through_bridge() {
        let (din, _idx, mat, cands) = setup();
        let c = cands
            .iter()
            .find(|c| c.path.len() == 2 && c.column_name == "income")
            .expect("two-hop income candidate");
        let col = mat.materialize(&din, c).unwrap();
        assert_eq!(col.get(0), Value::Float(100.0));
        assert_eq!(col.get(1), Value::Float(101.0));
        assert_eq!(col.get(2), Value::Null);
    }

    #[test]
    fn cache_returns_same_arc() {
        let (din, _idx, mat, cands) = setup();
        let c = &cands[0];
        let a = mat.materialize(&din, c).unwrap();
        let b = mat.materialize(&din, c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(mat.cache_len(), 1);
    }

    #[test]
    fn materialized_names_are_unique_per_candidate() {
        let (din, _idx, mat, cands) = setup();
        let names: Vec<String> = cands
            .iter()
            .map(|c| mat.materialize(&din, c).unwrap().name.clone().unwrap())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique: {names:?}");
    }

    #[test]
    fn materialize_run_matches_per_candidate_materialize() {
        let (din, _idx, mat, mut cands) = setup();
        // A table whose key column is all null: a first hop into it fails
        // each of its candidates with `EmptyJoinKey`, and so does a second
        // hop into it after a healthy first hop.
        let empty = Table::from_columns(
            "void",
            vec![
                Column::from_strings(Some("zip".into()), vec![None; 4]),
                Column::from_floats(Some("x".into()), vec![Some(1.0); 4]),
            ],
        )
        .unwrap();
        let void = mat.n_tables();
        let mut tables: Vec<Arc<Table>> = (0..void).map(|t| mat.table(t).unwrap()).collect();
        tables.push(Arc::new(empty));
        let two_hop = cands
            .iter()
            .position(|c| c.path.len() == 2)
            .expect("two-hop");
        let healthy = cands[two_hop].clone();
        let into_void = |hops: Vec<Hop>| {
            let mut c = healthy.clone();
            c.path = JoinPath { hops };
            c.value_column = 1;
            c
        };
        let void_hop = Hop {
            left_column: 0,
            table: void,
            key_column: 0,
        };
        let bridge_hop = healthy.path.hops[1];
        // Inside the healthy first hop's group: a failing second hop
        // between two candidates of the healthy path.
        cands.insert(two_hop + 1, into_void(vec![healthy.path.hops[0], void_hop]));
        cands.insert(two_hop + 2, healthy.clone());
        // A group whose first hop fails: 1- and 2-hop paths.
        let at = cands.len() / 2;
        cands.insert(at, into_void(vec![void_hop]));
        cands.insert(at, into_void(vec![void_hop]));
        cands.insert(at, into_void(vec![void_hop, bridge_hop]));
        for (id, c) in cands.iter_mut().enumerate() {
            c.id = id;
        }
        let groups: Vec<&[Candidate]> = crate::first_hop_groups(&cands).collect();
        assert!(
            groups.len() < crate::path_runs(&cands).count(),
            "some first hop carries several paths"
        );

        let one_by_one = Materializer::new(tables.clone());
        let expected: Vec<_> = cands
            .iter()
            .map(|c| one_by_one.materialize(&din, c))
            .collect();
        let failed = |c: &Candidate| c.path.hops.contains(&void_hop);
        for (c, want) in cands.iter().zip(&expected) {
            let want_err = failed(c).then_some(&TableError::EmptyJoinKey);
            assert_eq!(want.as_ref().err(), want_err, "{:?}", c.path);
        }

        let by_group = Materializer::new(tables.clone());
        let hit = expected.iter().rposition(Result::is_ok).unwrap();
        let warm = by_group.materialize(&din, &cands[hit]).unwrap();
        let indexes = NextIndexes::new(&cands);
        let got: Vec<_> = groups
            .iter()
            .flat_map(|group| by_group.materialize_run(&din, group, &indexes))
            .collect();
        assert_eq!(got, expected);
        assert!(Arc::ptr_eq(got[hit].as_ref().unwrap(), &warm), "cache hit");
        assert_eq!(by_group.cache_len(), one_by_one.cache_len());

        // One call over candidates of many first hops maps each anew.
        let mixed = Materializer::new(tables);
        let indexes = NextIndexes::new(&cands);
        assert_eq!(mixed.materialize_run(&din, &cands, &indexes), expected);
    }

    #[test]
    fn a_pass_builds_each_next_hop_index_once() {
        let (din, _idx, mat, _cands) = setup();
        // A second first-hop table that bridges into `districts` too.
        let blocks = Table::from_columns(
            "blocks",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..40).rev().map(|i| Some(format!("Z{i}"))).collect(),
                ),
                Column::from_strings(
                    Some("district".into()),
                    (0..40)
                        .map(|i| Some(format!("D{}", (i * 7) % 40)))
                        .collect(),
                ),
            ],
        )
        .unwrap();
        let mut tables: Vec<Arc<Table>> =
            (0..mat.n_tables()).map(|t| mat.table(t).unwrap()).collect();
        tables.push(Arc::new(blocks));
        let index = DiscoveryIndex::build(tables.clone());
        let cfg = PathConfig {
            containment_threshold: 0.05,
            ..Default::default()
        };
        let cands = crate::candidate::generate_candidates(&din, &index, &cfg, 100);
        let second_hop_paths = crate::path_runs(&cands)
            .filter(|run| run[0].path.len() >= 2)
            .count();
        let indexes = NextIndexes::new(&cands);
        assert!(
            second_hop_paths > indexes.len() && !indexes.is_empty(),
            "paths of several first hops share a next-hop index"
        );

        let one_by_one = Materializer::new(tables.clone());
        let expected: Vec<_> = cands
            .iter()
            .map(|c| one_by_one.materialize(&din, c))
            .collect();
        // Every group on its own worker, all racing through one pass.
        let by_group = Materializer::new(tables);
        let groups: Vec<&[Candidate]> = crate::first_hop_groups(&cands).collect();
        let got: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = groups
                .iter()
                .map(|group| scope.spawn(|| by_group.materialize_run(&din, group, &indexes)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(got, expected);
        assert_eq!(indexes.builds(), indexes.len(), "one build per pair");
    }

    /// Counts fetches per table and dawdles inside each, so racing
    /// callers overlap.
    struct CountingTables {
        tables: Vec<Arc<Table>>,
        fetches: Vec<std::sync::atomic::AtomicUsize>,
    }

    impl TableProvider for CountingTables {
        fn len(&self) -> usize {
            self.tables.len()
        }

        fn fetch(&self, idx: usize) -> Result<Arc<Table>, String> {
            let count = self.fetches.get(idx).ok_or("no such table")?;
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(Arc::clone(&self.tables[idx]))
        }
    }

    #[test]
    fn racing_workers_fetch_each_table_once() {
        let n = 6;
        let tables: Vec<Arc<Table>> = (0..n)
            .map(|t| {
                let col = Column::from_floats(Some("x".into()), vec![Some(t as f64)]);
                Arc::new(Table::from_columns(format!("t{t}"), vec![col]).unwrap())
            })
            .collect();
        let provider = Arc::new(CountingTables {
            tables,
            fetches: (0..n).map(|_| 0.into()).collect(),
        });

        /// Shares the counting provider with the test after the
        /// materializer takes its box.
        struct Shared(Arc<CountingTables>);
        impl TableProvider for Shared {
            fn len(&self) -> usize {
                self.0.len()
            }
            fn fetch(&self, idx: usize) -> Result<Arc<Table>, String> {
                self.0.fetch(idx)
            }
        }

        let mat = Materializer::lazy(Box::new(Shared(Arc::clone(&provider))));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (mat, start) = (&mat, &start);
                scope.spawn(move || {
                    // All workers ask for the same tables in the same order.
                    start.wait();
                    for idx in 0..n {
                        let table = mat.table(idx).unwrap();
                        assert_eq!(table.name, format!("t{idx}"));
                    }
                });
            }
        });
        let counts: Vec<usize> = provider
            .fetches
            .iter()
            .map(|c| c.load(std::sync::atomic::Ordering::SeqCst))
            .collect();
        assert_eq!(counts, vec![1; n], "fetches per table");
        assert!(mat.table(n).is_err(), "out-of-range index is an error");
    }
}
