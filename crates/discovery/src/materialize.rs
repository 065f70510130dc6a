//! Candidate materialization with caching.
//!
//! Materializing `Γ(Din, P[j])` = chaining left joins along the path and
//! projecting one column, keeping the result row-aligned with `Din`. The
//! joins give a row mapping that depends on the path alone; every
//! candidate of a path is a projection of it, so
//! [`Materializer::materialize_run`] maps a run of same-path candidates
//! once. Candidates are materialized many times across the search
//! (profiles, repeated utility queries), so results are cached behind an
//! `Arc`.
//!
//! The repository behind a materializer is a [`TableProvider`]: either the
//! tables themselves (the in-memory path) or a deferred handle that loads
//! a table from backing storage the first time a candidate needs it (the
//! catalog-backed path — a discover run then touches only the tables that
//! actually win candidacy).

use std::collections::HashMap;
use std::sync::Arc;

use metam_table::join::first_match_index;
use metam_table::{Column, Table, TableError, Value};
use parking_lot::{Mutex, RwLock};

use crate::candidate::{Candidate, CandidateId};
use crate::path::JoinPath;

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

/// Where each `din` row lands in the final table of one join path: the
/// chained first-match left joins, before any column is projected.
struct RowMapping {
    /// The path's final table.
    table: Arc<Table>,
    /// Per `din` row, the matching row of `table`, if any.
    rows: Vec<Option<usize>>,
}

impl RowMapping {
    /// Project the candidate's value column through the mapping into a
    /// `din`-aligned column.
    fn project(&self, candidate: &Candidate) -> metam_table::Result<Column> {
        let value_col = self.table.column(candidate.value_column)?;
        let values: Vec<Value> = self
            .rows
            .iter()
            .map(|m| m.map_or(Value::Null, |row| value_col.get(row)))
            .collect();
        let mut col = Column::from_values(Some(candidate.column_name.clone()), values);
        // Augmented columns are named uniquely so repeated augmentations
        // from different tables never collide inside the augmented Din.
        col.name = Some(format!("aug{}_{}", candidate.id, candidate.column_name));
        Ok(col)
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

    /// Materialize the candidate into a `din`-aligned column.
    ///
    /// The result is cached by candidate id; subsequent calls are `Arc`
    /// clones. The cache assumes one `din` per materializer (true for every
    /// search run); `clear_cache` resets it otherwise.
    pub fn materialize(
        &self,
        din: &Table,
        candidate: &Candidate,
    ) -> metam_table::Result<Arc<Column>> {
        if let Some(cached) = self.cache.read().get(&candidate.id) {
            return Ok(Arc::clone(cached));
        }
        let column = self.row_mapping(din, &candidate.path)?.project(candidate)?;
        let arc = Arc::new(column);
        self.cache.write().insert(candidate.id, Arc::clone(&arc));
        Ok(arc)
    }

    /// Materialize a run of candidates that share one join path (a
    /// [`path_runs`](crate::path_runs) run), returning per candidate what
    /// [`materialize`](Self::materialize) would, cache hits included. The
    /// row mapping is built at the first uncached candidate and lives
    /// until the call returns. A failed mapping fails that candidate and
    /// is retried at the next one, as separate calls would retry it; a
    /// candidate on another path gets a mapping of its own.
    pub fn materialize_run(
        &self,
        din: &Table,
        run: &[Candidate],
    ) -> Vec<metam_table::Result<Arc<Column>>> {
        let mut mapping: Option<(&JoinPath, RowMapping)> = None;
        run.iter()
            .map(|candidate| {
                if let Some(cached) = self.cache.read().get(&candidate.id) {
                    return Ok(Arc::clone(cached));
                }
                let current = match mapping.take() {
                    Some((path, rows)) if *path == candidate.path => (path, rows),
                    _ => (&candidate.path, self.row_mapping(din, &candidate.path)?),
                };
                let (_, rows) = mapping.insert(current);
                let arc = Arc::new(rows.project(candidate)?);
                self.cache.write().insert(candidate.id, Arc::clone(&arc));
                Ok(arc)
            })
            .collect()
    }

    /// Drop all cached columns.
    pub fn clear_cache(&self) {
        self.cache.write().clear();
    }

    /// Chain the path's first-match left joins from `din`.
    fn row_mapping(&self, din: &Table, path: &JoinPath) -> metam_table::Result<RowMapping> {
        // Row mapping from Din rows into the current table of the chain.
        let first = &path.hops[0];
        let first_table = self.table(first.table)?;
        let probe_keys = din.column(first.left_column)?.join_keys();
        let index = first_match_index(first_table.column(first.key_column)?);
        if index.is_empty() {
            return Err(TableError::EmptyJoinKey);
        }
        let mut rows: Vec<Option<usize>> = probe_keys
            .into_iter()
            .map(|k| k.and_then(|k| index.get(&k).copied()))
            .collect();
        let mut current_table = first_table;

        for hop in &path.hops[1..] {
            let bridge = current_table.column(hop.left_column)?;
            let next_table = self.table(hop.table)?;
            let next_index = first_match_index(next_table.column(hop.key_column)?);
            if next_index.is_empty() {
                return Err(TableError::EmptyJoinKey);
            }
            rows = rows
                .into_iter()
                .map(|m| {
                    m.and_then(|row| bridge.get(row).join_key())
                        .and_then(|k| next_index.get(&k).copied())
                })
                .collect();
            current_table = next_table;
        }
        Ok(RowMapping {
            table: current_table,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DiscoveryIndex;
    use crate::path::PathConfig;

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
        mat.clear_cache();
        assert_eq!(mat.cache_len(), 0);
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
        // A table whose key column is all null: its candidates fail with
        // `EmptyJoinKey`, one run of them between two healthy runs.
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
        let at = cands.len() / 2;
        for value_column in [1, 1] {
            let mut c = cands[0].clone();
            c.path = JoinPath::single(0, void, 0);
            c.value_column = value_column;
            cands.insert(at, c);
        }
        for (id, c) in cands.iter_mut().enumerate() {
            c.id = id;
        }
        assert!(cands.iter().any(|c| c.path.len() == 2), "two-hop paths");

        let one_by_one = Materializer::new(tables.clone());
        let expected: Vec<_> = cands
            .iter()
            .map(|c| one_by_one.materialize(&din, c))
            .collect();
        assert!(expected.contains(&Err(TableError::EmptyJoinKey)));

        let by_run = Materializer::new(tables.clone());
        let hit = expected.iter().rposition(Result::is_ok).unwrap();
        let warm = by_run.materialize(&din, &cands[hit]).unwrap();
        let got: Vec<_> = crate::path_runs(&cands)
            .flat_map(|run| by_run.materialize_run(&din, run))
            .collect();
        assert_eq!(got, expected);
        assert!(Arc::ptr_eq(got[hit].as_ref().unwrap(), &warm), "cache hit");
        assert_eq!(by_run.cache_len(), one_by_one.cache_len());

        // One call over candidates of many paths maps each path anew.
        let mixed = Materializer::new(tables);
        assert_eq!(mixed.materialize_run(&din, &cands), expected);
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
