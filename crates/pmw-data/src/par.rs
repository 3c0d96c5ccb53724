//! Chunked sweeps over universe- and pool-sized buffers.
//!
//! The Θ(|X|) inner loops (MW update, certificate sweep, normalization) and
//! the Θ(m·d) pooled-sketch sweeps all walk their buffer in fixed chunks:
//! a chunked `for_each` over a mutable buffer and chunked folds.
//!
//! # Deterministic reductions
//!
//! Chunk boundaries come from a [`ChunkPlan`] and depend **only** on the
//! buffer length and the plan's grain. Every helper runs on the calling
//! thread, visits the chunks in chunk order, and combines per-chunk
//! accumulators **strictly in chunk order**, so a floating-point fold's
//! association order is a pure function of the plan.
//!
//! There is no thread fan-out. Spawning workers per sweep was measured
//! slower than this serial walk on every workload, including the dense
//! 20 736-point sweeps, because each round runs several short sweeps and
//! paid a thread spawn for each.

/// Default grain: number of elements per chunk of a [`ChunkPlan::new`]
/// plan.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Worker count the sweep helpers use: always `1`, since every sweep runs
/// on the calling thread. Kept so run reports can record it.
pub fn threads() -> usize {
    1
}

/// Fixed chunk layout for a buffer of a given length: chunk boundaries are
/// a pure function of `(len, grain)`, so every sweep that shares a plan
/// shares its reduction order.
///
/// Hoist one plan per pool/universe size and reuse it across a round's
/// sweeps instead of recomputing the layout per call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    grain: usize,
}

impl ChunkPlan {
    /// Plan for `len` elements at the default grain ([`PAR_THRESHOLD`]).
    pub fn new(len: usize) -> Self {
        Self::with_grain(len, PAR_THRESHOLD)
    }

    /// Plan for `len` elements with an explicit grain (clamped to ≥ 1).
    pub fn with_grain(len: usize, grain: usize) -> Self {
        Self {
            len,
            grain: grain.max(1),
        }
    }

    /// Number of elements this plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk (last chunk may be ragged).
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Number of chunks; at least 1 (an empty buffer is one empty chunk,
    /// matching the sequential `f(0, data)` contract).
    pub fn n_chunks(&self) -> usize {
        self.len.div_ceil(self.grain).max(1)
    }

    /// Half-open element range `[lo, hi)` of chunk `i`.
    pub fn bounds(&self, i: usize) -> (usize, usize) {
        let lo = i * self.grain;
        (lo, self.len.min(lo + self.grain))
    }
}

/// Apply `f(offset, chunk)` over the plan's chunks of `data`, in chunk
/// order; `offset` is the index of the chunk's first element, letting `f`
/// index into companion read-only buffers.
pub fn plan_for_each_mut<T, F>(plan: ChunkPlan, data: &mut [T], f: F)
where
    F: FnMut(usize, &mut [T]),
{
    plan_fold_mut(plan, data, f, |(), ()| ());
}

/// Fold the plan's chunks of `data` with `fold(offset, chunk) -> A`, then
/// combine the per-chunk accumulators **strictly in chunk order** with
/// `combine`.
pub fn plan_fold<T, A, F, C>(plan: ChunkPlan, data: &[T], mut fold: F, combine: C) -> A
where
    F: FnMut(usize, &[T]) -> A,
    C: Fn(A, A) -> A,
{
    debug_assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    fold_in_chunk_order(plan, |lo, hi| fold(lo, &data[lo..hi]), combine)
}

/// Like [`plan_fold`], but over mutable chunks: each chunk is written and
/// also produces an accumulator `A`, combined **strictly in chunk order**.
/// This is the shape of the fused exp-and-sum normalization pass.
pub fn plan_fold_mut<T, A, F, C>(plan: ChunkPlan, data: &mut [T], mut fold: F, combine: C) -> A
where
    F: FnMut(usize, &mut [T]) -> A,
    C: Fn(A, A) -> A,
{
    debug_assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    fold_in_chunk_order(plan, |lo, hi| fold(lo, &mut data[lo..hi]), combine)
}

/// The one chunk walk behind every helper: `chunk(lo, hi)` for each chunk
/// in order, left-folded with `combine`.
fn fold_in_chunk_order<A>(
    plan: ChunkPlan,
    mut chunk: impl FnMut(usize, usize) -> A,
    combine: impl Fn(A, A) -> A,
) -> A {
    let (lo, hi) = plan.bounds(0);
    let mut acc = chunk(lo, hi);
    for i in 1..plan.n_chunks() {
        let (lo, hi) = plan.bounds(i);
        acc = combine(acc, chunk(lo, hi));
    }
    acc
}

/// [`plan_for_each_mut`] with a default plan for `data.len()`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], f: F)
where
    F: FnMut(usize, &mut [T]),
{
    plan_for_each_mut(ChunkPlan::new(data.len()), data, f);
}

/// [`plan_fold`] with a default plan for `data.len()`.
pub fn fold_chunks<T, A, F, C>(data: &[T], fold: F, combine: C) -> A
where
    F: FnMut(usize, &[T]) -> A,
    C: Fn(A, A) -> A,
{
    plan_fold(ChunkPlan::new(data.len()), data, fold, combine)
}

/// [`plan_fold_mut`] with a default plan for `data.len()`.
pub fn fold_chunks_mut<T, A, F, C>(data: &mut [T], fold: F, combine: C) -> A
where
    F: FnMut(usize, &mut [T]) -> A,
    C: Fn(A, A) -> A,
{
    plan_fold_mut(ChunkPlan::new(data.len()), data, fold, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_bounds_cover_len_exactly() {
        for (len, grain) in [
            (0usize, 1usize),
            (0, 64),
            (1, 64),
            (63, 64),
            (64, 64),
            (65, 64),
            (1000, 64),
            (PAR_THRESHOLD + 3, PAR_THRESHOLD),
        ] {
            let plan = ChunkPlan::with_grain(len, grain);
            let mut cursor = 0;
            for i in 0..plan.n_chunks() {
                let (lo, hi) = plan.bounds(i);
                assert_eq!(lo, cursor, "len {len} grain {grain} chunk {i}");
                assert!(hi >= lo && hi <= len);
                cursor = hi;
            }
            assert_eq!(cursor, len, "chunks must cover the buffer");
            assert!(plan.n_chunks() >= 1);
        }
    }

    #[test]
    fn for_each_covers_every_element_exactly_once() {
        for len in [0usize, 1, 7, PAR_THRESHOLD - 1, PAR_THRESHOLD + 3, 1 << 16] {
            let mut data = vec![0u32; len];
            for_each_chunk_mut(&mut data, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (offset + i) as u32;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32),
                "len {len}"
            );
        }
    }

    #[test]
    fn fold_matches_sequential_sum() {
        for len in [1usize, 100, PAR_THRESHOLD + 17, 1 << 16] {
            let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let total = fold_chunks(&data, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
            let expect = (len * (len - 1)) as f64 / 2.0;
            assert!((total - expect).abs() < 1e-6 * expect.max(1.0), "len {len}");
        }
    }

    #[test]
    fn fold_mut_writes_and_accumulates() {
        for len in [3usize, PAR_THRESHOLD + 9, 1 << 16] {
            let mut data = vec![1.0f64; len];
            let total = fold_chunks_mut(
                &mut data,
                |_, chunk| {
                    let mut s = 0.0;
                    for v in chunk.iter_mut() {
                        *v *= 2.0;
                        s += *v;
                    }
                    s
                },
                |a, b| a + b,
            );
            assert_eq!(total, 2.0 * len as f64, "len {len}");
            assert!(data.iter().all(|&v| v == 2.0));
        }
    }

    #[test]
    fn fold_offsets_are_consistent() {
        let data = vec![1u8; (1 << 15) + 5];
        let count = fold_chunks(
            &data,
            |offset, chunk| {
                // Each chunk sees its own offset; return (min_index, len).
                (offset, chunk.len())
            },
            |a, b| {
                assert_eq!(a.0 + a.1, b.0, "chunks must be adjacent and ordered");
                (a.0, a.1 + b.1)
            },
        );
        assert_eq!(count.1, data.len());
    }

    /// A sum whose value depends on association order: pseudorandom
    /// magnitudes spanning many decades, so any reordering of the fold
    /// shifts the low bits. Bit-equality with an explicit chunk-ordered
    /// reference therefore proves the reduction order is the plan's.
    fn adversarial_data(len: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
                let exp = ((state % 37) as i32) - 18;
                mantissa * 2f64.powi(exp)
            })
            .collect()
    }

    /// The chunk-ordered sum the plan prescribes, written out by hand.
    fn reference_sum(data: &[f64], grain: usize) -> f64 {
        let mut chunks = data.chunks(grain).map(|c| c.iter().sum::<f64>());
        let first = chunks.next().unwrap_or(0.0);
        chunks.fold(first, |a, b| a + b)
    }

    #[test]
    fn plan_fold_combines_chunks_in_plan_order() {
        // Ragged tails on purpose: 1000 % 64 != 0, 193 % 64 != 0.
        for (len, grain) in [(1000usize, 64usize), (193, 64), (4096, 256), (5, 2)] {
            let data = adversarial_data(len);
            let plan = ChunkPlan::with_grain(len, grain);
            let got = plan_fold(plan, &data, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
            assert_eq!(
                got.to_bits(),
                reference_sum(&data, grain).to_bits(),
                "len {len} grain {grain}"
            );
        }
    }

    #[test]
    fn plan_fold_mut_writes_and_combines_in_plan_order() {
        for (len, grain) in [(1000usize, 64usize), (193, 64), (4096, 256)] {
            let mut data = adversarial_data(len);
            let expect: Vec<f64> = data.iter().map(|v| v.exp()).collect();
            let total = plan_fold_mut(
                ChunkPlan::with_grain(len, grain),
                &mut data,
                |_, chunk| {
                    let mut s = 0.0;
                    for v in chunk.iter_mut() {
                        *v = v.exp();
                        s += *v;
                    }
                    s
                },
                |a, b| a + b,
            );
            assert_eq!(total.to_bits(), reference_sum(&expect, grain).to_bits());
            assert!(data
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn plan_for_each_hands_out_offsets_in_plan_order() {
        for (len, grain) in [(1000usize, 64usize), (193, 64)] {
            let mut data = adversarial_data(len);
            let expect: Vec<f64> = data
                .iter()
                .enumerate()
                .map(|(i, v)| (v * (i + 1) as f64).sin())
                .collect();
            let mut offsets = Vec::new();
            plan_for_each_mut(
                ChunkPlan::with_grain(len, grain),
                &mut data,
                |offset, chunk| {
                    offsets.push(offset);
                    for (i, v) in chunk.iter_mut().enumerate() {
                        *v = (*v * (offset + i + 1) as f64).sin();
                    }
                },
            );
            assert_eq!(offsets, (0..len).step_by(grain).collect::<Vec<_>>());
            assert!(data
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn plan_helpers_run_on_the_calling_thread() {
        // Several chunks per sweep, so a per-call spawn would show up.
        let caller = std::thread::current().id();
        let plan = ChunkPlan::with_grain(1000, 64);
        let mut data = vec![0.0f64; 1000];
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        plan_for_each_mut(plan, &mut data, |_, _| on_caller());
        plan_fold(plan, &data, |_, _| on_caller(), |(), ()| ());
        plan_fold_mut(plan, &mut data, |_, _| on_caller(), |(), ()| ());
        for_each_chunk_mut(&mut data, |_, _| on_caller());
        fold_chunks(&data, |_, _| on_caller(), |(), ()| ());
        fold_chunks_mut(&mut data, |_, _| on_caller(), |(), ()| ());
        assert_eq!(threads(), 1);
    }
}
