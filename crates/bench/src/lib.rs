#![forbid(unsafe_code)]
//! Shared harness for the `paper` binary, which regenerates the tables and
//! figures of the paper's §VI.
//!
//! Each experiment prints the rows/series the paper reports and dumps them
//! as JSON under `--out`; `PAPER_RESULTS.md` at the repo root compares them
//! with the paper's claims, and `paper_results/quick-seed7/` pins the
//! `--quick --seed 7` dumps byte for byte.
//!
//! Usage: `cargo run --release -p metam-bench --bin paper --
//! [--seed N] [--quick] [--out DIR] [EXPERIMENT...]` (no experiment runs
//! them all).

#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use metam::obs::json;
use metam::Method;

/// Command-line arguments of the `paper` binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Master seed.
    pub seed: u64,
    /// Shrink scales for a fast smoke run.
    pub quick: bool,
    /// Output directory for JSON dumps.
    pub out: PathBuf,
    /// The experiments named on the command line (empty = all).
    pub experiments: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args`. An unknown flag, or an experiment not
    /// in `known`, exits 2 with a usage line listing `known`.
    pub fn parse(known: &[&str]) -> Args {
        let mut args = Args {
            seed: 42,
            quick: false,
            out: PathBuf::from("results"),
            experiments: Vec::new(),
        };
        let usage = |msg: &str| -> ! {
            eprintln!(
                "error: {msg}\nusage: paper [--seed N] [--quick] [--out DIR] [EXPERIMENT...]\n\
                 experiments: {}",
                known.join(" ")
            );
            std::process::exit(2)
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--seed" => {
                    args.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--quick" => args.quick = true,
                "--out" => {
                    args.out =
                        PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")));
                }
                flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
                name if known.contains(&name) => args.experiments.push(arg),
                name => usage(&format!("unknown experiment {name}")),
            }
        }
        args
    }
}

/// One plotted series: method label + (queries, utility) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x = queries, y = utility)` samples.
    pub points: Vec<(usize, f64)>,
}

/// One figure panel (e.g. Fig. 3a).
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel id, e.g. `fig3a`.
    pub id: String,
    /// Panel title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Panel {
    /// New empty panel with the standard axes.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Panel {
        Panel {
            id: id.into(),
            title: title.into(),
            x_label: "queries".into(),
            y_label: "utility".into(),
            series: Vec::new(),
        }
    }

    /// The panel as a JSON object (fields in declaration order, each
    /// point a `[queries, utility]` pair).
    pub fn to_json(&self) -> String {
        let series = self.series.iter().fold(json::array(), |a, s| {
            let points = s.points.iter().fold(json::array(), |p, &(x, y)| {
                p.raw(&json::array().int(x).f64(y).finish())
            });
            let series = json::object()
                .str("label", &s.label)
                .raw("points", &points.finish());
            a.raw(&series.finish())
        });
        json::object()
            .str("id", &self.id)
            .str("title", &self.title)
            .str("x_label", &self.x_label)
            .str("y_label", &self.y_label)
            .raw("series", &series.finish())
            .finish()
    }

    /// Pretty-print the panel as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.id, self.title);
        if self.series.is_empty() {
            println!("(no series)");
            return;
        }
        print!("{:>10}", self.x_label);
        for s in &self.series {
            print!("{:>12}", truncate(&s.label, 12));
        }
        println!();
        let grid: Vec<usize> = self.series[0].points.iter().map(|p| p.0).collect();
        for (row, &x) in grid.iter().enumerate() {
            print!("{x:>10}");
            for s in &self.series {
                match s.points.get(row) {
                    Some(&(_, y)) => print!("{y:>12.3}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

/// A tabular report (Tables I/II style).
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table id, e.g. `table2`.
    pub id: String,
    /// Title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// New empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: Vec<&str>) -> TableReport {
        TableReport {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// The table as a JSON object: `id`, `title`, `headers` and `rows`
    /// (an array of string arrays).
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| cells.iter().fold(json::array(), |a, c| a.str(c)).finish();
        let rows = self
            .rows
            .iter()
            .fold(json::array(), |a, r| a.raw(&strings(r)));
        json::object()
            .str("id", &self.id)
            .str("title", &self.title)
            .raw("headers", &strings(&self.headers))
            .raw("rows", &rows.finish())
            .finish()
    }

    /// Pretty-print.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.id, self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
                    + 2
            })
            .collect();
        for (h, w) in self.headers.iter().zip(&widths) {
            print!("{h:>w$}", w = *w);
        }
        println!();
        for row in &self.rows {
            for (cell, w) in row.iter().zip(&widths) {
                print!("{cell:>w$}", w = *w);
            }
            println!();
        }
    }
}

/// Several panels as one JSON array (the figure binaries' dump shape).
pub fn panels_json(panels: &[Panel]) -> String {
    panels
        .iter()
        .fold(json::array(), |a, p| a.raw(&p.to_json()))
        .finish()
}

/// Write a rendered JSON document, indented, as `out/<name>.json`.
pub fn save_json(out: &Path, name: &str, doc: &str) -> io::Result<()> {
    let path = out.join(format!("{name}.json"));
    fs::create_dir_all(out)
        .and_then(|()| fs::write(&path, json::pretty(doc)))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    println!("saved {}", path.display());
    Ok(())
}

/// An evenly spaced query grid `0..=budget` with ~`points` samples.
pub fn query_grid(budget: usize, points: usize) -> Vec<usize> {
    let points = points.max(2);
    let step = (budget / (points - 1)).max(1);
    let mut grid: Vec<usize> = (0..points).map(|i| i * step).collect();
    if *grid.last().unwrap_or(&0) < budget {
        grid.push(budget);
    }
    grid.truncate(points + 1);
    grid
}

/// The standard method lineup of Fig. 3 (iARDA appended only for ML tasks,
/// as in the paper).
pub fn standard_methods(seed: u64, with_iarda: Option<bool>) -> Vec<Method> {
    let mut methods = vec![
        Method::Metam(metam::MetamConfig {
            seed,
            ..Default::default()
        }),
        Method::Mw { seed },
        Method::Overlap,
        Method::Uniform { seed },
    ];
    if let Some(classification) = with_iarda {
        methods.push(Method::IArda {
            classification,
            seed,
        });
    }
    methods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_even_and_capped() {
        let g = query_grid(100, 5);
        assert_eq!(g[0], 0);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(*g.last().unwrap() >= 100);
    }

    fn saved(name: &str, save: impl FnOnce(&Path) -> io::Result<()>) -> String {
        let dir = std::env::temp_dir().join(format!("metam-bench-dump-{}", std::process::id()));
        save(&dir).expect("dump written");
        let text = fs::read_to_string(dir.join(format!("{name}.json"))).expect("dump written");
        let _ = fs::remove_file(dir.join(format!("{name}.json")));
        text
    }

    #[test]
    fn panel_and_table_dumps_keep_their_bytes() {
        let mut panel = Panel::new("fig3a", "Supervised \"x\"");
        panel.series.push(Series {
            label: "Metam".into(),
            points: vec![(0, 0.5), (10, f64::NAN)],
        });
        panel.series.push(Series {
            label: "MW".into(),
            points: vec![],
        });
        let panels = saved("panels", |dir| {
            save_json(dir, "panels", &panels_json(&[panel]))
        });
        assert_eq!(
            panels,
            "[\n  {\n    \"id\": \"fig3a\",\n    \"title\": \"Supervised \\\"x\\\"\",\n    \"x_label\": \"queries\",\n    \"y_label\": \"utility\",\n    \"series\": [\n      {\n        \"label\": \"Metam\",\n        \"points\": [\n          [\n            0,\n            0.5\n          ],\n          [\n            10,\n            null\n          ]\n        ]\n      },\n      {\n        \"label\": \"MW\",\n        \"points\": [\n          \n        ]\n      }\n    ]\n  }\n]"
        );
        let mut table = TableReport::new("table2", "Utility", vec!["Dataset", "Metam"]);
        table.push_row(vec!["a,b".into(), "0.75".into()]);
        let table = saved("table", |dir| save_json(dir, "table", &table.to_json()));
        assert_eq!(
            table,
            "{\n  \"id\": \"table2\",\n  \"title\": \"Utility\",\n  \"headers\": [\n    \"Dataset\",\n    \"Metam\"\n  ],\n  \"rows\": [\n    [\n      \"a,b\",\n      \"0.75\"\n    ]\n  ]\n}"
        );
        let raw = saved("raw", |dir| {
            // The `table2_raw` shape: one `[dataset, method, utility,
            // queries]` array per run.
            let run = json::array().str("d").str("MW").f64(0.25).int(7);
            save_json(dir, "raw", &json::array().raw(&run.finish()).finish())
        });
        assert_eq!(
            raw,
            "[\n  [\n    \"d\",\n    \"MW\",\n    0.25,\n    7\n  ]\n]"
        );
    }

    #[test]
    fn dump_write_failure_is_an_error() {
        // A regular file cannot hold a directory, so `--out` below it can
        // never be created.
        let file = std::env::temp_dir().join(format!("metam-bench-file-{}", std::process::id()));
        fs::write(&file, "not a directory").expect("temp file");
        let err = save_json(&file.join("out"), "table", "{}").expect_err("uncreatable --out");
        let _ = fs::remove_file(&file);
        assert!(err.to_string().contains("table.json"), "{err}");
    }

    #[test]
    fn table_report_rows_align() {
        let mut t = TableReport::new("t", "test", vec!["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print();
    }
}

pub mod synthetic;
