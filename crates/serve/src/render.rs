//! Machine-readable catalog statistics, shared by `metam profile --json`
//! and the daemon's `profile` verb — one renderer so the two surfaces can
//! never drift apart.

use metam_lake::LakeCatalog;
use metam_obs::json::{write_f64, write_string};

/// Per-table column stats plus the scan's profile-cache and `.mtc`-vs-CSV
/// load counters, as a single-line JSON object.
pub fn profile_json(catalog: &LakeCatalog, only: Option<&str>) -> String {
    let counters = catalog.load_counters();
    let mut out = String::from("{\"cache\":{");
    out.push_str(&format!(
        "\"profile_hits\":{},\"profile_misses\":{},\"mtc_loads\":{},\"csv_fallbacks\":{}}}",
        catalog.cache_hits(),
        catalog.cache_misses(),
        counters.hits(),
        counters.misses(),
    ));
    out.push_str(",\"tables\":[");
    let mut first_table = true;
    for entry in catalog.entries() {
        if only.is_some_and(|n| n != entry.name) {
            continue;
        }
        if !first_table {
            out.push(',');
        }
        first_table = false;
        out.push_str("{\"table\":");
        write_string(&mut out, &entry.name);
        out.push_str(&format!(",\"rows\":{},\"columns\":[", entry.nrows));
        for (i, c) in entry.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_string(&mut out, &c.display_name(i));
            out.push_str(",\"dtype\":");
            write_string(&mut out, metam_lake::stats::dtype_to_str(c.dtype));
            out.push_str(&format!(
                ",\"nulls\":{},\"distinct\":{}",
                c.null_count, c.distinct_count
            ));
            for (key, v) in [("min", c.min), ("max", c.max), ("mean", c.mean)] {
                out.push_str(&format!(",\"{key}\":"));
                match v {
                    Some(x) => write_f64(&mut out, x),
                    None => out.push_str("null"),
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}
