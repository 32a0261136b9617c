//! Batch-probe plumbing: [`BatchQuery`] capability impls for every
//! single-structure filter with a chunked hash→prefetch→test pipeline,
//! plus the shared thread fan-out helper.
//!
//! Each filter's serial pipeline lives next to its data structure
//! (`contains_batch_into`); this module adapts them all to the
//! object-safe [`BatchQuery`] capability and adds the parallel path. The
//! fan-out helper is deliberately dumb — contiguous key ranges, one
//! worker per range — because the pipelines are embarrassingly parallel
//! and input order must be preserved. Below
//! [`MIN_KEYS_PER_THREAD`] keys per worker the spawn overhead exceeds
//! the probe work, so small batches run serially no matter how many
//! threads were requested.

use crate::blocked::BlockedHabf;
use crate::filter_api::BatchQuery;
use crate::scalable::ScalableHabf;
use habf_filters::{BinaryFuseFilter, BlockedBloomFilter, BloomFilter, WeightedBloomFilter};

/// Minimum keys a batch worker must receive before thread fan-out pays
/// for itself; smaller workloads run on the calling thread.
pub const MIN_KEYS_PER_THREAD: usize = 256;

/// Resolves a requested worker count (`0` = auto) against the workload
/// size: never more workers than [`MIN_KEYS_PER_THREAD`]-sized shares,
/// never zero.
#[must_use]
pub(crate) fn effective_threads(threads: usize, keys: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    requested.min(keys / MIN_KEYS_PER_THREAD).max(1)
}

/// Runs a serial batch pipeline across contiguous key ranges on scoped
/// workers, preserving input order.
pub(crate) fn batch_par<F>(keys: &[&[u8]], threads: usize, run: F) -> Vec<bool>
where
    F: Fn(&[&[u8]], &mut Vec<bool>) + Sync,
{
    let threads = effective_threads(threads, keys.len());
    let mut out = Vec::new();
    if threads <= 1 {
        run(keys, &mut out);
        return out;
    }
    let chunk = keys.len().div_ceil(threads);
    let run = &run;
    let parts: Vec<Vec<bool>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|range| {
                s.spawn(move || {
                    let mut part = Vec::new();
                    run(range, &mut part);
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    out.reserve(keys.len());
    for part in parts {
        out.extend_from_slice(&part);
    }
    out
}

macro_rules! impl_batch_query {
    ($($ty:ty),+ $(,)?) => {$(
        impl BatchQuery for $ty {
            fn contains_batch(&self, keys: &[&[u8]]) -> Vec<bool> {
                let mut out = Vec::new();
                self.contains_batch_into(keys, &mut out);
                out
            }

            fn contains_batch_par(&self, keys: &[&[u8]], threads: usize) -> Vec<bool> {
                batch_par(keys, threads, |range, out| {
                    self.contains_batch_into(range, out);
                })
            }
        }
    )+};
}

impl_batch_query!(
    BloomFilter,
    WeightedBloomFilter,
    BlockedBloomFilter,
    BinaryFuseFilter,
    BlockedHabf,
    ScalableHabf,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("{tag}:{i}").into_bytes()).collect()
    }

    #[test]
    fn effective_threads_gates_on_workload() {
        assert_eq!(effective_threads(8, 100), 1, "tiny batch stays serial");
        assert_eq!(effective_threads(8, MIN_KEYS_PER_THREAD * 2), 2);
        assert_eq!(effective_threads(2, MIN_KEYS_PER_THREAD * 100), 2);
        assert!(effective_threads(0, MIN_KEYS_PER_THREAD * 100) >= 1);
    }

    #[test]
    fn parallel_batch_preserves_order_and_answers() {
        let pos = keys(4_000, "pos");
        let f = BloomFilter::build(&pos, 4_000 * 10);
        let mixed: Vec<Vec<u8>> = keys(1_500, "pos")
            .into_iter()
            .chain(keys(1_500, "out"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();
        let serial = f.contains_batch(&refs);
        for threads in [0, 1, 2, 4, 7] {
            assert_eq!(f.contains_batch_par(&refs, threads), serial, "{threads}");
        }
    }

    #[test]
    fn every_pipeline_filter_batches_like_scalar() {
        let pos = keys(2_000, "pos");
        let neg: Vec<(Vec<u8>, f64)> = keys(500, "neg").into_iter().map(|k| (k, 2.0)).collect();
        let mixed: Vec<Vec<u8>> = keys(400, "pos")
            .into_iter()
            .chain(keys(400, "stranger"))
            .collect();
        let refs: Vec<&[u8]> = mixed.iter().map(Vec::as_slice).collect();

        let filters: Vec<Box<dyn crate::DynFilter>> = vec![
            Box::new(BloomFilter::build(&pos, 2_000 * 10)),
            Box::new(WeightedBloomFilter::build(&pos, &neg, 2_000 * 10, 100)),
            Box::new(BlockedBloomFilter::build(&pos, 2_000 * 10)),
            Box::new(BinaryFuseFilter::build(&pos, 2_000 * 10)),
            Box::new(BlockedHabf::build(
                &pos,
                &neg,
                &crate::HabfConfig::with_total_bits(2_000 * 10),
            )),
        ];
        for f in &filters {
            let batch = f.as_batch().expect("pipeline filter must batch");
            let scalar: Vec<bool> = refs.iter().map(|k| f.contains(k)).collect();
            assert_eq!(batch.contains_batch(&refs), scalar, "{}", f.name());
            assert_eq!(batch.contains_batch_par(&refs, 3), scalar, "{}", f.name());
        }
    }
}
