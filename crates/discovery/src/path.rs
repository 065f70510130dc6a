//! Join paths (paper Definition 3) and their enumeration.

use metam_table::Table;

use crate::index::{ColumnRef, DiscoveryIndex, JoinSearch, Probe};
use crate::minhash::MinHash;

/// One equi-join hop in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hop {
    /// Column of the *previous* relation in the chain (the input dataset
    /// for the first hop) providing the join values.
    pub left_column: usize,
    /// Repository table joined into.
    pub table: usize,
    /// Key column within that table.
    pub key_column: usize,
}

/// An ordered chain of joins `Din ⋈ D1 ⋈ … ⋈ Dt`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JoinPath {
    /// The hops, in join order. Never empty.
    pub hops: Vec<Hop>,
}

impl JoinPath {
    /// Single-hop path.
    pub fn single(left_column: usize, table: usize, key_column: usize) -> JoinPath {
        JoinPath {
            hops: vec![Hop {
                left_column,
                table,
                key_column,
            }],
        }
    }

    /// The final hop of the chain. Both constructors (`single` and
    /// `extended`) push a hop before a `JoinPath` exists, so the chain
    /// is non-empty by construction.
    pub fn last_hop(&self) -> &Hop {
        // metam-analyze: allow(panic-in-lib): hops is non-empty by construction (see doc above); the one place the invariant is asserted
        self.hops.last().expect("join path has at least one hop")
    }

    /// Index of the final table in the chain.
    pub fn last_table(&self) -> usize {
        self.last_hop().table
    }

    /// Chain length `t` (number of joined datasets).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Join paths are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathConfig {
    /// Minimum containment of probe keys in the candidate key column.
    pub containment_threshold: f64,
    /// Maximum hops (1 = direct joins only, 2 adds transitive joins).
    pub max_hops: usize,
    /// Hard cap on enumerated paths (keeps adversarial repositories sane).
    pub max_paths: usize,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            containment_threshold: 0.6,
            max_hops: 2,
            max_paths: 50_000,
        }
    }
}

/// The join paths of one enumeration, and what finding them cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEnumeration {
    /// Paths with the containment score of their first hop, in
    /// enumeration order.
    pub paths: Vec<(JoinPath, f64)>,
    /// Index probes made, one per probed column over every hop.
    pub probes: usize,
    /// Hops whose probes searched the index's slot postings
    /// ([`JoinSearch::Postings`]) instead of scanning it.
    pub postings_hops: usize,
    /// (probe, column) containments computed over every probe
    /// ([`Joinable::scored`](crate::index::Joinable::scored)): beside the
    /// paths found, the join search's wasted work.
    pub scored: usize,
}

/// The probes the first hop makes: each `keyish` column of `din` (at
/// least half of its non-null values distinct), by index, with the
/// MinHash of its distinct keys. Together with `din`'s column names these
/// are all that enumeration reads of `din`.
pub fn din_probes(din: &Table) -> Vec<(usize, MinHash)> {
    din.columns()
        .iter()
        .enumerate()
        .filter_map(|(ci, col)| {
            let keys = col.distinct_keys();
            let non_null = col.len() - col.null_count();
            (non_null > 0 && keys.len() * 2 >= non_null).then(|| (ci, MinHash::from_keys(&keys)))
        })
        .collect()
}

/// Enumerate join paths from `din` into the indexed repository.
///
/// Every `keyish` column of `din` is probed; each discovered joinable
/// column yields a 1-hop path, and (up to `max_hops`) each keyish column of
/// a joined table is probed again for transitive paths. Paths are returned
/// with the containment score of their *first* hop (the fraction of `din`
/// rows expected to survive the chain start).
///
/// Each hop counts its probes before making them and searches the index
/// the way [`DiscoveryIndex::search_for`] finds cheaper for that count;
/// the paths do not depend on that choice.
pub fn enumerate_paths(
    din: &Table,
    index: &DiscoveryIndex,
    config: &PathConfig,
) -> PathEnumeration {
    enumerate_paths_from(&din_probes(din), index, config)
}

/// [`enumerate_paths`] from `din`'s already computed [`din_probes`].
pub fn enumerate_paths_from(
    din_probes: &[(usize, MinHash)],
    index: &DiscoveryIndex,
    config: &PathConfig,
) -> PathEnumeration {
    enumerate_with(din_probes, index, config, |probes| {
        index.search_for(probes, config.containment_threshold)
    })
}

/// [`enumerate_paths_from`] with each hop's search picked by `choose` from
/// the hop's probe count.
fn enumerate_with(
    din_probes: &[(usize, MinHash)],
    index: &DiscoveryIndex,
    config: &PathConfig,
    choose: impl Fn(usize) -> JoinSearch,
) -> PathEnumeration {
    let first_search = choose(din_probes.len());
    let mut scored = 0;
    let first_hops: Vec<(usize, Vec<_>)> = din_probes
        .iter()
        .map(|(ci, probe)| {
            let found = index.joinable_columns(
                Probe::Sketch(probe),
                config.containment_threshold,
                None,
                first_search,
            );
            scored += found.scored;
            (*ci, found.columns)
        })
        .collect();
    let second_search = (config.max_hops >= 2).then(|| {
        let probes = first_hops
            .iter()
            .flat_map(|(_, targets)| targets)
            .map(|(target, _)| bridge_columns(index, target.table, target.column).count())
            .sum();
        choose(probes)
    });
    let mut out = PathEnumeration {
        paths: Vec::new(),
        probes: din_probes.len(),
        postings_hops: [Some(first_search), second_search]
            .iter()
            .filter(|&&s| s == Some(JoinSearch::Postings))
            .count(),
        scored,
    };

    for (ci, targets) in first_hops {
        for (target, containment) in targets {
            if out.paths.len() >= config.max_paths {
                return out;
            }
            let path = JoinPath::single(ci, target.table, target.column);
            out.paths.push((path.clone(), containment));

            if let Some(search) = second_search {
                extend_path(&path, containment, index, config, search, &mut out);
            }
        }
    }
    out
}

/// The keyish columns of table `table` other than its join key `used_key`:
/// the bridge columns a 2nd hop probes.
fn bridge_columns(
    index: &DiscoveryIndex,
    table: usize,
    used_key: usize,
) -> impl Iterator<Item = usize> + '_ {
    (0..index.descriptor(table).columns.len())
        .filter(move |&ci| ci != used_key && index.entry(table, ci).keyish)
}

/// Add 2nd-hop extensions of `path`.
///
/// The bridge column of the joined table is probed by reference
/// ([`Probe::Column`]), with the sketch the index already holds for it —
/// identical to re-sketching the column's distinct values (both derive
/// from the same `distinct_keys`), but payload-free, so transitive
/// enumeration works over a catalog-backed index without loading the
/// bridge table; and a postings search finds the column's postings by
/// position.
fn extend_path(
    path: &JoinPath,
    first_containment: f64,
    index: &DiscoveryIndex,
    config: &PathConfig,
    search: JoinSearch,
    out: &mut PathEnumeration,
) {
    let last = path.last_table();
    for ci in bridge_columns(index, last, path.last_hop().key_column) {
        out.probes += 1;
        let probe = Probe::Column(ColumnRef {
            table: last,
            column: ci,
        });
        let found = index.joinable_columns(probe, config.containment_threshold, Some(last), search);
        out.scored += found.scored;
        for (target, _containment) in found.columns {
            if out.paths.len() >= config.max_paths {
                return;
            }
            let mut hops = path.hops.clone();
            hops.push(Hop {
                left_column: ci,
                table: target.table,
                key_column: target.column,
            });
            out.paths.push((JoinPath { hops }, first_containment));
        }
    }
}

/// Pretty description like `zip→crime.zipcode→district.id`.
pub fn describe_path(din: &Table, path: &JoinPath, index: &DiscoveryIndex) -> String {
    let mut parts = vec![din.column_display_name(path.hops[0].left_column)];
    for hop in &path.hops {
        let t = index.descriptor(hop.table);
        parts.push(format!(
            "{}.{}",
            t.name,
            t.column_display_name(hop.key_column)
        ));
    }
    parts.join("→")
}

/// Re-export used by candidate generation.
pub use crate::index::ColumnRef as PathColumnRef;

#[allow(unused)]
fn _assert_types(c: ColumnRef) -> ColumnRef {
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::Column;
    use std::sync::Arc;

    fn din() -> Table {
        Table::from_columns(
            "din",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..60).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(Some("y".into()), (0..60).map(|i| Some(i as f64)).collect()),
            ],
        )
        .unwrap()
    }

    fn repo() -> DiscoveryIndex {
        // t0 joins din.zip and bridges via "district" to t1.
        let t0 = Table::from_columns(
            "crime",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..60).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_strings(
                    Some("district".into()),
                    (0..60).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("rate".into()),
                    (0..60).map(|i| Some(i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let t1 = Table::from_columns(
            "districts",
            vec![
                Column::from_strings(
                    Some("id".into()),
                    (0..60).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("income".into()),
                    (0..60).map(|i| Some(i as f64 * 2.0)).collect(),
                ),
            ],
        )
        .unwrap();
        DiscoveryIndex::build(vec![Arc::new(t0), Arc::new(t1)])
    }

    #[test]
    fn finds_direct_and_transitive_paths() {
        let idx = repo();
        let paths = enumerate_paths(&din(), &idx, &PathConfig::default()).paths;
        let single: Vec<_> = paths.iter().filter(|(p, _)| p.len() == 1).collect();
        let double: Vec<_> = paths.iter().filter(|(p, _)| p.len() == 2).collect();
        assert!(
            single.iter().any(|(p, _)| p.last_table() == 0),
            "direct join into crime expected"
        );
        assert!(
            double.iter().any(|(p, _)| p.last_table() == 1),
            "transitive join into districts expected: {paths:?}"
        );
    }

    #[test]
    fn max_hops_one_disables_transitive() {
        let idx = repo();
        let cfg = PathConfig {
            max_hops: 1,
            ..Default::default()
        };
        let paths = enumerate_paths(&din(), &idx, &cfg).paths;
        assert!(paths.iter().all(|(p, _)| p.len() == 1));
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let idx = repo();
        let cfg = PathConfig {
            max_paths: 1,
            ..Default::default()
        };
        let paths = enumerate_paths(&din(), &idx, &cfg).paths;
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn containment_scores_in_range() {
        let idx = repo();
        let paths = enumerate_paths(&din(), &idx, &PathConfig::default()).paths;
        assert!(paths.iter().all(|(_, c)| (0.0..=1.0).contains(c)));
    }

    #[test]
    fn describe_is_readable() {
        let idx = repo();
        let paths = enumerate_paths(&din(), &idx, &PathConfig::default()).paths;
        let (p, _) = paths.iter().find(|(p, _)| p.len() == 1).unwrap();
        let desc = describe_path(&din(), p, &idx);
        assert!(desc.contains("zip"), "desc={desc}");
        assert!(desc.contains("crime."), "desc={desc}");
    }

    /// A random lake of 30-row tables whose columns are keys over a
    /// shared zip pool or district pool (distinct, so keyish, at random
    /// offsets), a low-cardinality code (not keyish) or distinct floats;
    /// and a din keyed on zips.
    fn random_lake(state: &mut u64) -> (Table, DiscoveryIndex) {
        use crate::index::tests::next;
        let column = |state: &mut u64, name: String| {
            let lo = next(state) % 40;
            let values: Vec<Option<String>> = match next(state) % 4 {
                0 => (lo..lo + 30).map(|i| Some(format!("z{i}"))).collect(),
                1 => (lo..lo + 30).map(|i| Some(format!("d{i}"))).collect(),
                2 => (0..30).map(|i| Some(format!("c{}", i % 3))).collect(),
                _ => {
                    let floats = (0..30).map(|i| Some((lo * 100 + i) as f64)).collect();
                    return Column::from_floats(Some(name), floats);
                }
            };
            Column::from_strings(Some(name), values)
        };
        let tables: Vec<Arc<Table>> = (0..2 + next(state) % 6)
            .map(|t| {
                let columns = (0..2 + next(state) % 3)
                    .map(|c| column(state, format!("c{c}")))
                    .collect();
                Arc::new(Table::from_columns(format!("t{t}"), columns).unwrap())
            })
            .collect();
        let lo = next(state) % 20;
        let din = Table::from_columns(
            "din",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (lo..lo + 30).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(Some("y".into()), (0..30).map(|i| Some(i as f64)).collect()),
            ],
        )
        .unwrap();
        (din, DiscoveryIndex::build(tables))
    }

    #[test]
    fn forced_searches_enumerate_identical_paths() {
        let bits = |e: &PathEnumeration| -> Vec<(JoinPath, u64)> {
            e.paths
                .iter()
                .map(|(p, c)| (p.clone(), c.to_bits()))
                .collect()
        };
        let mut state = 0xD15C0;
        let mut two_hop = 0;
        for case in 0..64 {
            let (din, idx) = random_lake(&mut state);
            for threshold in [0.0, 0.6, 1.0] {
                let cfg = PathConfig {
                    containment_threshold: threshold,
                    ..Default::default()
                };
                let probes = din_probes(&din);
                let scan = enumerate_with(&probes, &idx, &cfg, |_| JoinSearch::Scan);
                let postings = enumerate_with(&probes, &idx, &cfg, |_| JoinSearch::Postings);
                let chosen = enumerate_paths(&din, &idx, &cfg);
                assert_eq!(bits(&scan), bits(&postings), "case {case} at {threshold}");
                assert_eq!(bits(&scan), bits(&chosen), "case {case} at {threshold}");
                assert_eq!(scan.probes, postings.probes);
                assert_eq!((scan.postings_hops, postings.postings_hops), (0, 2));
                two_hop += scan.paths.iter().filter(|(p, _)| p.len() == 2).count();
            }
        }
        assert!(two_hop > 0, "some lakes have transitive paths");
    }
}
