//! Machine-readable catalog statistics, shared by `metam profile --json`
//! and the daemon's `profile` verb — one renderer so the two surfaces can
//! never drift apart — and the load-counter object that `status` reports
//! per lake and `discover` per request.

use metam_lake::{ColumnStats, LakeCatalog, LoadCounters};
use metam_obs::json;

/// Per-table column stats plus the scan's profile-cache and `.mtc`-vs-CSV
/// load counters, as a single-line JSON object.
pub fn profile_json(catalog: &LakeCatalog, only: Option<&str>) -> String {
    let counters = catalog.load_counters();
    let cache = json::object()
        .int("profile_hits", catalog.cache_hits())
        .int("profile_misses", catalog.cache_misses())
        .int("mtc_loads", counters.hits())
        .int("csv_fallbacks", counters.misses());
    let tables = catalog
        .entries()
        .iter()
        .filter(|entry| only.is_none_or(|n| n == entry.name))
        .fold(json::array(), |tables, entry| {
            let columns = entry
                .columns
                .iter()
                .enumerate()
                .fold(json::array(), |columns, (i, c)| {
                    columns.raw(&column_json(i, c))
                });
            let table = json::object()
                .str("table", &entry.name)
                .int("rows", entry.nrows)
                .raw("columns", &columns.finish());
            tables.raw(&table.finish())
        });
    json::object()
        .raw("cache", &cache.finish())
        .raw("tables", &tables.finish())
        .finish()
}

fn column_json(index: usize, c: &ColumnStats) -> String {
    // An absent statistic is NaN, which renders as null.
    let stat = |v: Option<f64>| v.unwrap_or(f64::NAN);
    json::object()
        .str("name", &c.display_name(index))
        .str("dtype", metam_lake::stats::dtype_to_str(c.dtype))
        .int("nulls", c.null_count)
        .int("distinct", c.distinct_count)
        .f64("min", stat(c.min))
        .f64("max", stat(c.max))
        .f64("mean", stat(c.mean))
        .finish()
}

/// The four load counts a catalog has served so far: `.mtc` loads, CSV
/// fallbacks, sketch-record hits and sketch fallbacks.
pub fn load_counts(load: &LoadCounters, sketch: &LoadCounters) -> [usize; 4] {
    [load.hits(), load.misses(), sketch.hits(), sketch.misses()]
}

/// [`load_counts`] (or a difference of two) as a JSON object.
pub fn loads_json(counts: [usize; 4]) -> String {
    let [mtc_loads, csv_fallbacks, sketch_hits, sketch_fallbacks] = counts;
    json::object()
        .int("mtc_loads", mtc_loads)
        .int("csv_fallbacks", csv_fallbacks)
        .int("sketch_hits", sketch_hits)
        .int("sketch_fallbacks", sketch_fallbacks)
        .finish()
}
