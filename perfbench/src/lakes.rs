//! The three workloads and the seeded CSV lakes they run over.
//!
//! Every lake is a pure function of `(workload, seed, quick)`: the program
//! under test only ever sees these files. Generation is bench work and is
//! never timed.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use metam::datagen::repo::price_classification;
use metam::datagen::{build_supervised, SupervisedConfig};
use metam::lake::export_scenario;

/// The non-joinable table the write ops append to. Its keys (`q<n>`)
/// appear nowhere else, so appending never changes a candidate set.
pub const DECOY: &str = "zz_decoy.csv";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `metam demo` lake: task queries (random-forest fits) dominate.
    ForestSearch,
    /// Thousands of candidates and a small budget: prepare dominates.
    ManyCandidates,
    /// A wide lake behind `metam serve`: per-request fixed costs dominate.
    ServeWide,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ForestSearch,
        Workload::ManyCandidates,
        Workload::ServeWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForestSearch => "forest_search",
            Workload::ManyCandidates => "many_candidates",
            Workload::ServeWide => "serve_wide",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that sizes one workload run.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub quick: bool,
    /// Task spec every discover sends, and its target column.
    pub task: &'static str,
    pub target: &'static str,
    pub budget: usize,
    /// The timed loop cycles session seeds `seed+1 ..= seed+session_seeds`,
    /// so every seed repeats and each repeat is checked bit-for-bit.
    pub session_seeds: u64,
    /// Client B of the daemon sends one write per this many ops.
    pub write_every: usize,
    /// Traced run: repetitions of each cheap layer probe, of the profile
    /// evaluation, and of the one-file rescan.
    pub probe_reps: usize,
    pub evaluate_reps: usize,
    pub rescan_reps: usize,
    /// Traced run: at least this many untraced/traced discover pairs, and
    /// more until 100 task fits have been timed (so p90 has 10 samples
    /// beyond it).
    pub min_traced_seeds: u64,
    /// Traced run: ops each of the two clients sends to the daemon. Only
    /// `serve_wide` sends enough for the `serve.*` metrics to mean
    /// anything (over 500 discovers, so p98 has ten beyond it); the
    /// in-process workloads send two each, because every run reports
    /// every metric.
    pub serve_ops: usize,
}

/// The input dataset's name in every lake.
pub const DIN: &str = "din";

impl Spec {
    pub fn new(workload: Workload, quick: bool) -> Spec {
        let base = Spec {
            workload,
            quick,
            task: "classification:label",
            target: "label",
            budget: 20,
            session_seeds: 3,
            write_every: 2,
            probe_reps: 10,
            evaluate_reps: 3,
            rescan_reps: 5,
            min_traced_seeds: 2,
            serve_ops: 2,
        };
        match (workload, quick) {
            (Workload::ForestSearch, false) => Spec {
                budget: 200,
                ..base
            },
            (Workload::ManyCandidates, false) => Spec {
                budget: 30,
                session_seeds: 4,
                probe_reps: 5,
                min_traced_seeds: 4,
                ..base
            },
            (Workload::ServeWide, false) => Spec {
                session_seeds: 8,
                write_every: 10,
                probe_reps: 20,
                rescan_reps: 10,
                min_traced_seeds: 8,
                serve_ops: 280,
                ..base
            },
            (_, true) => Spec {
                budget: 10,
                session_seeds: 2,
                probe_reps: 2,
                evaluate_reps: 1,
                rescan_reps: 2,
                min_traced_seeds: 1,
                ..base
            },
        }
    }

    /// The session seeds the timed loop cycles through.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        (1..=self.session_seeds).map(|i| seed + i).collect()
    }

    /// Write this workload's lake for `seed` into `dir` (which must not
    /// exist yet), including the decoy table the write ops append to.
    pub fn generate(&self, dir: &Path, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        match (self.workload, self.quick) {
            (Workload::ForestSearch, false) => export(dir, &price_classification(seed))?,
            (Workload::ForestSearch, true) => export(
                dir,
                &build_supervised(&SupervisedConfig {
                    seed,
                    n_rows: 300,
                    n_informative: 3,
                    n_duplicates: 1,
                    n_irrelevant_tables: 6,
                    n_erroneous_tables: 6,
                    n_redundant_tables: 4,
                    classification: true,
                    name: "housing_prices".to_string(),
                    ..Default::default()
                }),
            )?,
            (Workload::ManyCandidates, false) => many_candidates(dir, seed, 390, 10, 500)?,
            (Workload::ManyCandidates, true) => many_candidates(dir, seed, 36, 4, 100)?,
            (Workload::ServeWide, false) => serve_wide(dir, seed, 2000, 200)?,
            (Workload::ServeWide, true) => serve_wide(dir, seed, 200, 50)?,
        }
        let mut decoy = String::from("decoy_key,decoy_val\n");
        for i in 0..10 {
            decoy_row(&mut decoy, seed, i);
        }
        std::fs::write(dir.join(DECOY), decoy)
    }
}

fn export(dir: &Path, scenario: &metam::datagen::Scenario) -> std::io::Result<()> {
    export_scenario(scenario, dir)
        .map(|_| ())
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// Deterministic 64-bit mixing (splitmix64 finalizer).
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A float in `[0, span)` drawn from `h`, rendered with three decimals.
fn value(out: &mut String, h: u64, span: f64) {
    let _ = write!(out, "{:.3}", (h % 1_000_000) as f64 / 1_000_000.0 * span);
}

fn label(seed: u64, r: usize) -> u64 {
    mix(seed ^ 0x1abe1 ^ ((r as u64) << 20)) % 2
}

/// `din.csv`: a `z<r>` key, a feature that joins nothing, and a binary
/// label.
fn write_din(dir: &Path, seed: u64, rows: usize) -> std::io::Result<()> {
    let mut csv = String::from("zip,x,label\n");
    for r in 0..rows {
        let _ = write!(csv, "z{r:05},");
        value(&mut csv, mix(seed ^ 0xd1 ^ r as u64), 50.0);
        let _ = writeln!(csv, ",{}", label(seed, r));
    }
    std::fs::write(dir.join("din.csv"), csv)
}

/// `main` tables that each hold the full `zip` keyspace (rows rotated)
/// and eight float columns; every fifth carries label signal in `c0`, and
/// every 36th also carries an `sid` key into the `side` side tables (and
/// into each other), which adds two-hop join paths: about 4.6k candidates
/// at full size.
fn many_candidates(
    dir: &Path,
    seed: u64,
    main: usize,
    side: usize,
    rows: usize,
) -> std::io::Result<()> {
    write_din(dir, seed, rows)?;
    for f in 0..main {
        let with_sid = f % 36 == 5;
        let mut csv = String::from(if with_sid { "zip,sid" } else { "zip" });
        for c in 0..8 {
            let _ = write!(csv, ",c{c}");
        }
        csv.push('\n');
        for i in 0..rows {
            let r = (i + f * 37) % rows;
            let _ = write!(csv, "z{r:05}");
            if with_sid {
                let _ = write!(csv, ",s{r:05}");
            }
            for c in 0..8u64 {
                csv.push(',');
                let h = mix(seed ^ ((f as u64) << 32) ^ (c << 24) ^ r as u64);
                if c == 0 && f % 5 == 0 {
                    let _ = write!(
                        csv,
                        "{:.3}",
                        label(seed, r) as f64 * 2.0 + (h % 1000) as f64 / 1000.0
                    );
                } else {
                    value(&mut csv, h, 1000.0);
                }
            }
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("t{f:04}.csv")), csv)?;
    }
    for j in 0..side {
        let mut csv = String::from("sid,v0,v1,v2,v3\n");
        for r in 0..rows {
            let _ = write!(csv, "s{r:05}");
            for c in 0..4u64 {
                csv.push(',');
                value(
                    &mut csv,
                    mix(seed ^ 0x51de ^ ((j as u64) << 32) ^ (c << 24) ^ r as u64),
                    1000.0,
                );
            }
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("s{j:02}.csv")), csv)?;
    }
    Ok(())
}

/// The tables of a `tables`-wide lake that share din's keys.
pub fn wide_joinable(tables: usize) -> [usize; 3] {
    [0, tables / 3, 2 * tables / 3]
}

/// `tables` two-value tables of which exactly three join din (six
/// candidates); every other table keys on its own `d<f>_<r>` namespace.
fn serve_wide(dir: &Path, seed: u64, tables: usize, rows: usize) -> std::io::Result<()> {
    write_din(dir, seed, rows)?;
    let joinable = wide_joinable(tables);
    for f in 0..tables {
        let mut csv = String::from("key,a,b\n");
        for r in 0..rows {
            let h = mix(seed ^ ((f as u64) << 32) ^ r as u64);
            if joinable.contains(&f) {
                let _ = write!(
                    csv,
                    "z{r:05},{:.3},",
                    label(seed, r) as f64 * 2.0 + (h % 1000) as f64 / 1000.0
                );
            } else {
                let _ = write!(csv, "d{f}_{r},");
                value(&mut csv, h, 1000.0);
                csv.push(',');
            }
            value(&mut csv, mix(h), 1000.0);
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("t{f:04}.csv")), csv)?;
    }
    Ok(())
}

fn decoy_row(out: &mut String, seed: u64, i: u64) {
    let _ = write!(out, "q{i},");
    value(out, mix(seed ^ 0xdec0 ^ i), 100.0);
    out.push('\n');
}

/// Appends fresh rows to a lake's decoy table: one "write" to the lake.
#[derive(Debug)]
pub struct Decoy {
    path: PathBuf,
    seed: u64,
    next: u64,
}

impl Decoy {
    pub fn new(lake: &Path, seed: u64) -> Decoy {
        Decoy {
            path: lake.join(DECOY),
            seed,
            next: 10,
        }
    }

    pub fn append(&mut self) -> std::io::Result<()> {
        let mut row = String::new();
        decoy_row(&mut row, self.seed, self.next);
        self.next += 1;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)?
            .write_all(row.as_bytes())
    }
}

/// A scratch directory removed when dropped, so temp lakes go away on
/// every exit path, failed checks and panics included.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(path: PathBuf) -> std::io::Result<TempDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam::discovery::path::PathConfig;
    use metam::discovery::{generate_candidates, DiscoveryIndex};
    use metam::lake::LakeCatalog;
    use std::sync::Arc;

    fn scratch(tag: &str) -> TempDir {
        TempDir::new(
            std::env::temp_dir().join(format!("metam-perfbench-{tag}-{}", std::process::id())),
        )
        .expect("scratch dir")
    }

    fn read_all(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("lake dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let name = path
                    .file_name()
                    .expect("name")
                    .to_string_lossy()
                    .into_owned();
                (name, std::fs::read(&path).expect("read"))
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn generators_are_byte_identical_per_seed() {
        let root = scratch("gen");
        for workload in Workload::ALL {
            let spec = Spec::new(workload, true);
            let (a, b, c) = (
                root.path().join(format!("{}-a", workload.name())),
                root.path().join(format!("{}-b", workload.name())),
                root.path().join(format!("{}-c", workload.name())),
            );
            spec.generate(&a, 11).expect("generate a");
            spec.generate(&b, 11).expect("generate b");
            spec.generate(&c, 12).expect("generate c");
            assert_eq!(read_all(&a), read_all(&b), "{}", workload.name());
            assert_ne!(read_all(&a), read_all(&c), "{}", workload.name());
        }
    }

    #[test]
    fn wide_lake_has_exactly_three_joinable_tables() {
        let root = scratch("wide");
        let dir = root.path().join("lake");
        Spec::new(Workload::ServeWide, true)
            .generate(&dir, 5)
            .expect("generate");
        let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));
        let din = catalog.load_table(DIN).expect("din");
        let (descriptors, _) =
            metam::lake::prepare::repository_descriptors(&catalog, &din, None).expect("sketches");
        let index = DiscoveryIndex::from_catalog(descriptors);
        let candidates = generate_candidates(&din, &index, &PathConfig::default(), 100_000);
        let mut tables: Vec<&str> = candidates.iter().map(|c| c.source_table.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        let expected: Vec<String> = wide_joinable(200)
            .iter()
            .map(|f| format!("t{f:04}"))
            .collect();
        assert_eq!(tables, expected);
        assert_eq!(candidates.len(), 6, "two value columns per joinable table");
    }
}
