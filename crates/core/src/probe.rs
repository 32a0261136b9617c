//! Batch-probe plumbing: [`BatchQuery`] capability impls for every
//! single-structure filter with a chunked hash→prefetch→test pipeline,
//! the HABF plan-once pipeline, and the shared thread fan-out helper.
//!
//! Each baseline's serial pipeline lives next to its data structure
//! (`contains_batch_into`); the HABF one, shared by every hashing and by
//! the tiered stack, lives here (`contains_batch_any`). This module
//! adapts them all to the object-safe [`BatchQuery`] capability and adds
//! the parallel path. The
//! fan-out helper is deliberately dumb — contiguous key ranges, one
//! worker per range — because the pipelines are embarrassingly parallel
//! and input order must be preserved. Below
//! [`MIN_KEYS_PER_THREAD`] keys per worker the spawn overhead exceeds
//! the probe work, so small batches run serially no matter how many
//! threads were requested.

use crate::filter_api::BatchQuery;
use crate::habf::HabfOver;
use crate::hashing::Hashing;
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

/// The HABF plan-once pipeline over an OR of filters, answering `keys`
/// in input order into `out`. Per [`habf_filters::PROBE_CHUNK`] keys,
/// each filter in `filters` order plans the round-1 positions of the
/// keys no earlier filter accepted ([`HabfOver::plan_round1`]), then
/// tests them ([`HabfOver::contains_planned`]); the keys it rejects go
/// on to the next filter. Those keys are the ones whose answer is still
/// `false`, so no index list is kept. One filter is the plain batch;
/// the tiered stack passes its tiers in probe order.
pub(crate) fn contains_batch_any<'f, H: Hashing>(
    filters: impl Iterator<Item = &'f HabfOver<H>> + Clone,
    keys: &[&[u8]],
    out: &mut Vec<bool>,
) {
    out.clear();
    out.resize(keys.len(), false);
    let prefetch = habf_util::prefetch::enabled();
    let mut plan: Vec<usize> = Vec::new();
    for (chunk, answers) in keys
        .chunks(habf_filters::PROBE_CHUNK)
        .zip(out.chunks_mut(habf_filters::PROBE_CHUNK))
    {
        if prefetch {
            for key in chunk {
                habf_util::prefetch::prefetch_bytes(key);
            }
        }
        for filter in filters.clone() {
            plan.clear();
            let mut planned_keys = 0;
            for (key, _) in chunk.iter().zip(answers.iter()).filter(|(_, &a)| !a) {
                filter.plan_round1(key, &mut plan, prefetch);
                planned_keys += 1;
            }
            if planned_keys == 0 {
                break;
            }
            let width = plan.len() / planned_keys;
            let open = chunk.iter().zip(answers.iter_mut()).filter(|(_, a)| !**a);
            for ((key, answer), planned) in open.zip(plan.chunks_exact(width)) {
                *answer = filter.contains_planned(key, planned);
            }
        }
    }
}

impl<H: Hashing> HabfOver<H> {
    fn contains_batch_into(&self, keys: &[&[u8]], out: &mut Vec<bool>) {
        contains_batch_any(std::iter::once(self), keys, out);
    }
}

macro_rules! impl_batch_query {
    ($([$($generics:tt)*] $ty:ty),+ $(,)?) => {$(
        impl<$($generics)*> BatchQuery for $ty {
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
    [] BloomFilter,
    [] WeightedBloomFilter,
    [] BlockedBloomFilter,
    [] BinaryFuseFilter,
    [H: Hashing] HabfOver<H>,
    [] ScalableHabf,
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
            Box::new(crate::BlockedHabf::build(
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
