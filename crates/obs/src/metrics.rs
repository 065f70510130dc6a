//! The process-wide metrics registry: monotonic counters and duration /
//! value histograms behind one mutex. Recording is cheap (one lock + one
//! `BTreeMap` probe) and is designed for *coarse* instrumentation points —
//! per file, per stage, per task query — never per row.
//!
//! The registry is global and cumulative for the process; callers that
//! want a scoped view (tests, long-lived daemons) snapshot before and
//! after, or [`reset`] between runs.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::json;

/// Summary statistics of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl HistSummary {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistSummary>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `n` to the named monotonic counter (created at 0 on first use).
pub fn counter_add(name: &str, n: u64) {
    if n == 0 {
        return;
    }
    let mut reg = lock();
    match reg.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            reg.counters.insert(name.to_string(), n);
        }
    }
}

/// Record one sample into the named histogram.
pub fn record(name: &str, v: f64) {
    let mut reg = lock();
    match reg.histograms.get_mut(name) {
        Some(h) => h.record(v),
        None => {
            let mut h = HistSummary::default();
            h.record(v);
            reg.histograms.insert(name.to_string(), h);
        }
    }
}

/// Clear every counter and histogram (tests; daemons between requests).
pub fn reset() {
    let mut reg = lock();
    reg.counters.clear();
    reg.histograms.clear();
}

/// A point-in-time copy of the registry, name-sorted (deterministic JSON).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Compact JSON object:
    /// `{"counters":{...},"histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,"mean":..}}}`.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(json::object(), |o, (name, v)| o.int(name, *v as usize));
        let histograms = self.histograms.iter().fold(json::object(), |o, (name, h)| {
            // An empty histogram's ±∞ min/max sentinels render as 0.
            let (min, max) = if h.count == 0 {
                (0.0, 0.0)
            } else {
                (h.min, h.max)
            };
            let summary = json::object()
                .int("count", h.count as usize)
                .f64("sum", h.sum)
                .f64("min", min)
                .f64("max", max)
                .f64("mean", h.mean());
            o.raw(name, &summary.finish())
        });
        json::object()
            .raw("counters", &counters.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }
}

/// Copy the registry out (name-sorted, deterministic).
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock();
    MetricsSnapshot {
        counters: reg.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; use names unique to this test file
    // so concurrent test threads cannot interfere.

    #[test]
    fn counters_accumulate_and_snapshot() {
        counter_add("test.metrics.counter_a", 2);
        counter_add("test.metrics.counter_a", 3);
        counter_add("test.metrics.counter_zero", 0);
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.counter_a"), Some(5));
        assert_eq!(
            snap.counter("test.metrics.counter_zero"),
            None,
            "0 adds create nothing"
        );
    }

    #[test]
    fn histograms_track_summary_stats() {
        record("test.metrics.hist", 1.0);
        record("test.metrics.hist", 3.0);
        let snap = snapshot();
        let h = snap.histogram("test.metrics.hist").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn snapshot_json_parses() {
        counter_add("test.metrics.json_counter", 1);
        record("test.metrics.json_hist", 0.5);
        let json = snapshot().to_json();
        let v = json::parse(&json).expect("snapshot JSON must parse");
        assert!(v.get("counters").is_some());
        assert!(v.get("histograms").is_some());
    }
}
