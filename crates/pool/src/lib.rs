#![forbid(unsafe_code)]
//! The workspace's **sanctioned worker pool**: deterministic scoped
//! fan-out shared by the lake scanner and the search engine.
//!
//! [`map`] runs a pure function over a slice on `threads` scoped workers
//! and returns the results **in input order** — each worker owns a
//! contiguous chunk of the input and writes into the matching slots of
//! the output, so the merged vector is position-stable regardless of
//! scheduling. Thread count never changes results, only wall-clock;
//! `threads <= 1` (or a single item) takes a plain sequential loop with
//! no thread machinery at all.
//!
//! This module is the only place in the workspace allowed to spawn
//! threads: `metam-analyze`'s `raw-thread-spawn` rule points offenders
//! here. Workers must stay pure — no RNG, no shared mutable state, no
//! I/O ordering assumptions — because callers rely on the sequential
//! path being byte-identical.

#![warn(missing_docs)]

/// Apply `f` to every item of `items` across up to `threads` scoped
/// workers, returning outputs in input order.
///
/// The worker count is clamped to `1..=items.len()`; with one worker the
/// call degenerates to `items.iter().map(f).collect()` on the calling
/// thread. A panicking worker re-raises on the caller.
pub fn map<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.min(items.len()).max(1);
    let mut results: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    if threads == 1 {
        for (slot, item) in results.iter_mut().zip(items) {
            *slot = Some(f(item));
        }
    } else {
        let chunk = items.len().div_ceil(threads);
        let f = &f;
        crossbeam::thread::scope(|scope| {
            for (result_chunk, item_chunk) in results.chunks_mut(chunk).zip(items.chunks(chunk)) {
                scope.spawn(move |_| {
                    for (slot, item) in result_chunk.iter_mut().zip(item_chunk) {
                        *slot = Some(f(item));
                    }
                });
            }
        })
        // metam-analyze: allow(panic-in-lib): a worker panic is already a bug aborting the caller; re-raising preserves the panic payload
        .expect("pool worker panicked");
    }
    results
        .into_iter()
        // metam-analyze: allow(panic-in-lib): chunks exactly tile the item list, so every slot was written by one worker
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// The default worker count: the machine's available parallelism (1 when
/// it cannot be determined). Lake scans and profile evaluation size their
/// pools with it.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<usize> = Vec::new();
        assert!(map(&empty, 4, |&x| x).is_empty());
        assert_eq!(map(&[7usize], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // f64 work merged in order must be bit-identical to a serial loop.
        let items: Vec<f64> = (0..101).map(|i| i as f64 * 0.37).collect();
        let work = |x: &f64| (x.sin() * 1e6).mul_add(0.5, x.sqrt());
        let seq: Vec<f64> = items.iter().map(work).collect();
        let par = map(&items, 5, work);
        assert_eq!(
            seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_reports_every_error_positionally() {
        let items: Vec<usize> = (0..10).collect();
        let out: Vec<Result<usize, usize>> =
            map(&items, 3, |&x| if x % 3 == 0 { Err(x) } else { Ok(x) });
        for (i, r) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(*r, Err(i));
            } else {
                assert_eq!(*r, Ok(i));
            }
        }
    }
}
