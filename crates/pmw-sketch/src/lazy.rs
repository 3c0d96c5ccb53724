//! [`LazyLogBackend`]: the exact sublinear-*update* state backend.
//!
//! Stores the update log `{(η_t, θ_t, θ̂_t, ℓ_t)}` and nothing else:
//! `O(1)` work per recorded round, `O(t·d)` per point lookup, and no
//! `|X|`-sized allocation ever. Lookups are **exact** — for any point the
//! returned log-weight equals the dense log-domain histogram's entry up to
//! floating-point accumulation order (the property tests in the workspace
//! root pin the agreement to `1e-10`) — which makes this backend both the
//! reference the Monte-Carlo [`SampledBackend`](crate::SampledBackend) is
//! checked against and the engine it evaluates fresh candidates with.
//!
//! Exactness holds under the default [`CompactionPolicy::Never`]. Opting
//! into compaction ([`LazyLogBackend::with_compaction`]) bounds the
//! retained log at the price of a **lossy, panel-free** fold — this
//! backend caches no per-point weights to pin a checkpoint on, so folded
//! rounds are simply dropped and every lookup is off by at most the
//! folded drift. Snapshot reads then carry the explicit
//! [`compaction_fold_radius`] error claim instead of radius `0`.

use crate::error::SketchError;
use crate::log::{CompactionPolicy, RoundUpdate, UpdateLog};
use crate::source::PointSource;
use pmw_core::{MeanFn, PmwError, QueryEstimate, ReadSnapshot};
use pmw_data::{LogWeightFn, PointMatrix, PointQuery};
use pmw_dp::compaction_fold_radius;
use pmw_losses::CmLoss;
use std::cell::RefCell;

/// Rows materialized per block in the exact replay sweeps: the point
/// scratch stays a few hundred KiB — bounded in `|X|`, preserving the
/// backend's no-universe-sized-allocation guarantee.
const LAZY_BLOCK: usize = 4096;

/// Replay the log over one materialized block of `out.len()` row-major
/// points. Each log-weight is an independent per-point replay; on error,
/// the first failing point in index order wins.
fn replay_block(
    log: &UpdateLog,
    flat: &[f64],
    dim: usize,
    out: &mut [f64],
) -> Result<(), SketchError> {
    let mut grad = Vec::new();
    for (slot, point) in out.iter_mut().zip(flat.chunks_exact(dim)) {
        *slot = log.log_weight_at(point, &mut grad)?;
    }
    Ok(())
}

/// Exact lazy state over a [`PointSource`]: uniform prior plus the update
/// log, evaluated per point on demand.
///
/// The backend records rounds and answers per-point log-weight lookups;
/// the exact full-universe sweep (`⟨q, D̂_t⟩` for spot checks) runs on a
/// published [`LazySnapshot`] ([`LazyLogBackend::snapshot`]).
#[derive(Debug)]
pub struct LazyLogBackend<S: PointSource> {
    source: S,
    log: UpdateLog,
    /// When to fold old rounds away ([`CompactionPolicy::Never`] by
    /// default — exact lookups forever). Lazy folds are panel-free and
    /// therefore lossy; see the module docs.
    policy: CompactionPolicy,
    /// Reusable (point, gradient) buffers so a lookup allocates nothing;
    /// `RefCell` because lookups are logically `&self` (they mutate no
    /// state, only scratch space).
    bufs: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<S: PointSource> LazyLogBackend<S> {
    /// Fresh (uniform) state over `source`.
    pub fn new(source: S) -> Result<Self, SketchError> {
        if source.is_empty() {
            return Err(SketchError::EmptyUniverse);
        }
        let dim = source.dim();
        Ok(Self {
            source,
            log: UpdateLog::new(),
            policy: CompactionPolicy::Never,
            bufs: RefCell::new((vec![0.0; dim], Vec::new())),
        })
    }

    /// Opt into log compaction. Lazy folds are **lossy** (panel-free):
    /// folded rounds are dropped outright and every later lookup is off
    /// by at most [`UpdateLog::folded_drift`] — the bound snapshot reads
    /// surface as their radius. Keep the default
    /// [`CompactionPolicy::Never`] when exactness matters more than
    /// memory.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Record one MW round (dual-certificate or linear-query) — `O(1)`
    /// beyond validating the round's point dimension (amortized `O(1)`
    /// including policy-triggered folds).
    pub fn record(&mut self, update: RoundUpdate) -> Result<(), SketchError> {
        if update.point_dim() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: update.point_dim(),
                expected: self.source.dim(),
            });
        }
        self.log.push(update);
        if self
            .policy
            .due(self.log.retained_len(), self.log.retained_bytes())
        {
            // Panel-free fold: no cached per-point weights exist to pin a
            // checkpoint on, so the fold drops the rounds and the error
            // claim is the whole folded drift.
            self.log.compact(&[], &[], 0.0)?;
        }
        Ok(())
    }

    /// Record one linear-query MW round `u(x) = coeff·q(x)` from a
    /// borrowed implicit query (retained through
    /// [`pmw_data::PointQuery::clone_shared`]) — the \[HR10\]/\[HLM12\]
    /// update shape, `O(1)` per round like every other record.
    pub fn record_query(
        &mut self,
        query: &dyn pmw_data::PointQuery,
        coeff: f64,
        eta: f64,
    ) -> Result<(), SketchError> {
        self.record(RoundUpdate::query_from_dyn(query, coeff, eta)?)
    }

    /// Universe size `|X|`.
    pub fn universe_size(&self) -> usize {
        self.source.len()
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> usize {
        self.log.len()
    }

    /// The underlying update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// The log-weight distortion bound every lookup carries from lossy
    /// panel-free folds — `0` under [`CompactionPolicy::Never`] (lookups
    /// exact), [`UpdateLog::folded_drift`] otherwise.
    pub fn fold_drift(&self) -> f64 {
        self.log.folded_drift()
    }

    /// The point source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Exact unnormalized log-weight `log w(x) = −Σ_t η_t·u_t(x)` of
    /// universe element `x` — `O(t·d)`.
    pub fn log_weight_of(&self, x: usize) -> Result<f64, SketchError> {
        let mut bufs = self.bufs.borrow_mut();
        let (point, grad) = &mut *bufs;
        self.source.write_point(x, point);
        self.log.log_weight_at(point, grad)
    }

    /// Exact log-weight of an explicit point (`point.len()` must equal the
    /// source dimension).
    pub fn log_weight_at_point(&self, point: &[f64]) -> Result<f64, SketchError> {
        if point.len() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: point.len(),
                expected: self.source.dim(),
            });
        }
        let mut bufs = self.bufs.borrow_mut();
        self.log.log_weight_at(point, &mut bufs.1)
    }

    /// Publish an immutable [`LazySnapshot`]: a clone of the point source
    /// plus the **frozen update-log prefix** — cheap, because every
    /// round's loss/query payload is shared behind an `Arc`, so the clone
    /// copies `O(t)` handles, not the payloads. Later records extend the
    /// live log only; the published prefix never changes.
    pub fn snapshot(&self) -> LazySnapshot<S>
    where
        S: Clone,
    {
        LazySnapshot {
            source: self.source.clone(),
            log: self.log.clone(),
        }
    }
}

/// A published, immutable view of the lazy state: the frozen update-log
/// prefix over a cloned point source. Its reads are the **exact**
/// full-universe replay sweep — `Θ(|X|·t·d)` time, fixed-size block
/// scratch, no `|X|`-sized allocation — the reference evaluation the
/// Monte-Carlo `SampledBackend` estimates are checked against; a
/// spot-check/testing tool, not a per-round operation. Scratch buffers are
/// per call rather than the backend's `RefCell`, which is what makes the
/// snapshot `Sync` and freely shareable across reader threads.
#[derive(Debug, Clone)]
pub struct LazySnapshot<S: PointSource> {
    source: S,
    log: UpdateLog,
}

impl<S: PointSource> LazySnapshot<S> {
    /// Rounds frozen into this snapshot.
    pub fn rounds(&self) -> usize {
        self.log.len()
    }

    /// The frozen update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// Exact unnormalized log-weight of universe element `x` under the
    /// frozen prefix — `O(t·d)`, allocation per call only.
    pub fn log_weight_of(&self, x: usize) -> Result<f64, SketchError> {
        let mut point = vec![0.0; self.source.dim()];
        let mut grad = Vec::new();
        self.source.write_point(x, &mut point);
        self.log.log_weight_at(&point, &mut grad)
    }
}

impl<S: PointSource + Send + Sync> ReadSnapshot for LazySnapshot<S> {
    fn universe_size(&self) -> usize {
        self.source.len()
    }

    fn updates_recorded(&self) -> usize {
        self.log.len()
    }

    fn hypothesis_minimizer(
        &self,
        _loss: &dyn CmLoss,
        _points: &PointMatrix,
        _solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        // Like the backend (which deliberately does not implement
        // `StateBackend`), the lazy path answers point-wise reads and
        // exact sweeps, never hypothesis solves.
        Err(PmwError::InvalidConfig(
            "the lazy log backend does not answer hypothesis minimizers",
        ))
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        _points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        crate::log::validate_query_shape(query, self.source.len(), self.source.dim())?;
        let (lo, hi) = query.value_bounds();
        let scale = lo.abs().max(hi.abs());
        let value = self.estimate_sweep(&mut |x, point| {
            crate::log::query_value_at(query, x, point).map_err(PmwError::from)
        })?;
        Ok(QueryEstimate {
            value,
            // Exact (radius 0) unless lossy panel-free folds dropped
            // rounds, in which case the deterministic fold bias is the
            // whole error — a sure claim, hence β = 0 either way.
            radius: compaction_fold_radius(scale, self.log.folded_drift()),
            beta: 0.0,
        })
    }

    fn estimate_mean(
        &self,
        _label: &'static str,
        scale: f64,
        f: &mut MeanFn<'_>,
    ) -> Result<QueryEstimate, PmwError> {
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(PmwError::InvalidConfig(
                "estimate_mean scale must be finite and non-negative",
            ));
        }
        let value = self.estimate_sweep(f)?;
        Ok(QueryEstimate {
            value,
            radius: compaction_fold_radius(scale, self.log.folded_drift()),
            beta: 0.0,
        })
    }
}

impl<S: PointSource> LazySnapshot<S> {
    /// The exact two-pass (shift, then normalize-and-accumulate) replay
    /// sweep shared by the snapshot's reads: blocks of points are
    /// materialized, the `O(t·d)` log replay runs over each block, and the
    /// normalizer/numerator accumulate in original `x` order — so the
    /// result is bit-for-bit the streaming sweep's.
    fn estimate_sweep(&self, f: &mut MeanFn) -> Result<f64, PmwError> {
        let (source, log) = (&self.source, &self.log);
        let n = source.len();
        let dim = source.dim();
        let rows_cap = LAZY_BLOCK.min(n.max(1));
        let mut flat = vec![0.0; rows_cap * dim];
        let mut lw = vec![0.0; rows_cap];
        // Pass 1: the max log-weight (numerical shift) — a max-fold in `x`
        // order, identical at any block/chunk split.
        let mut shift = f64::NEG_INFINITY;
        let mut lo = 0;
        while lo < n {
            let rows = rows_cap.min(n - lo);
            for i in 0..rows {
                source.write_point(lo + i, &mut flat[i * dim..(i + 1) * dim]);
            }
            replay_block(log, &flat[..rows * dim], dim, &mut lw[..rows])?;
            for &v in &lw[..rows] {
                shift = shift.max(v);
            }
            lo += rows;
        }
        // Pass 2: shifted normalizer and statistic numerator, accumulated in
        // `x` order (the statistic itself stays sequential: `f` is `FnMut`).
        let (mut num, mut den) = (0.0, 0.0);
        let mut lo = 0;
        while lo < n {
            let rows = rows_cap.min(n - lo);
            for i in 0..rows {
                source.write_point(lo + i, &mut flat[i * dim..(i + 1) * dim]);
            }
            replay_block(log, &flat[..rows * dim], dim, &mut lw[..rows])?;
            for i in 0..rows {
                let w = (lw[i] - shift).exp();
                num += w * f(lo + i, &flat[i * dim..(i + 1) * dim])?;
                den += w;
            }
            lo += rows;
        }
        Ok(num / den)
    }
}

/// The infallible [`LogWeightFn`] view used by the Gumbel-max samplers.
///
/// # Panics
///
/// `log_weight` panics when a recorded loss produces a **non-finite**
/// payoff at point `x` — `record` validates dimensions and parameter
/// finiteness, but cannot pre-check every universe point without the
/// Θ(|X|) sweep this backend exists to avoid (the dense pipeline surfaces
/// the same condition as an error per round instead). Use
/// [`LazyLogBackend::log_weight_of`] for the fallible form; every loss
/// shipped in `pmw-losses` has bounded gradients on its domain and cannot
/// trigger this.
impl<S: PointSource> LogWeightFn for LazyLogBackend<S> {
    fn universe_size(&self) -> usize {
        self.source.len()
    }

    fn log_weight(&self, x: usize) -> f64 {
        self.log_weight_of(x).expect(
            "recorded loss produced a non-finite payoff; use log_weight_of for the fallible form",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::UniversePoints;
    use pmw_core::update::dual_certificate;
    use pmw_data::{gumbel_max_index, BooleanCube, Histogram, Universe};
    use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
        LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
    }

    #[test]
    fn validates_construction_and_records() {
        let cube = BooleanCube::new(3).unwrap();
        let mut lazy = LazyLogBackend::new(UniversePoints(cube)).unwrap();
        assert_eq!(lazy.universe_size(), 8);
        assert_eq!(lazy.rounds(), 0);
        // A loss over 5-dimensional points cannot be recorded on a 3-cube.
        let wrong = RoundUpdate::new(
            Arc::new(bit_loss(0, 5)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        assert!(lazy.record(wrong).is_err());
        assert!(lazy.log_weight_at_point(&[0.0; 5]).is_err());
    }

    #[test]
    fn matches_dense_histogram_log_weights_exactly() {
        // Drive a dense log-domain histogram and a lazy log with the same
        // rounds; unnormalized log-weights must agree (uniform prior = 0).
        let cube = BooleanCube::new(4).unwrap();
        let points = cube.materialize();
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let mut lazy = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
        let steps = [
            (0usize, 0.9, 0.4, 0.7),
            (1, 0.1, 0.6, 0.5),
            (2, 0.8, 0.2, 1.1),
            (0, 0.3, 0.5, 0.9),
        ];
        for &(bit, t_o, t_h, eta) in &steps {
            let loss = bit_loss(bit, 4);
            let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
            dense.mw_update(&u, eta).unwrap();
            lazy.record(
                RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta)
                    .unwrap(),
            )
            .unwrap();
        }
        assert_eq!(lazy.rounds(), 4);
        for x in 0..16 {
            let l = lazy.log_weight_of(x).unwrap();
            let d = dense.log_weight(x);
            assert!((l - d).abs() < 1e-12, "x={x}: lazy {l} vs dense {d}");
        }
    }

    #[test]
    fn query_rounds_and_expected_query_value_match_dense() {
        // Mix a certificate round and a query round; the lazy log-weights
        // and the exact expected-query-value sweep must match a dense
        // histogram driven by the same updates.
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(4).unwrap();
        let points = cube.materialize();
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let mut lazy = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();

        let loss = bit_loss(0, 4);
        let u = dual_certificate(&loss, &points, &[0.9], &[0.4]).unwrap();
        dense.mw_update(&u, 0.7).unwrap();
        lazy.record(
            RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![0.9], vec![0.4], 0.7).unwrap(),
        )
        .unwrap();

        let q = ImplicitQuery::marginal(vec![1, 2], 4).unwrap();
        let qu: Vec<f64> = points.iter().map(|p| -0.4 * q.evaluate(p)).collect();
        dense.mw_update(&qu, 1.0).unwrap();
        lazy.record_query(&q, -0.4, 1.0).unwrap();

        for x in 0..cube.size() {
            let l = lazy.log_weight_of(x).unwrap();
            let d = dense.log_weight(x);
            assert!((l - d).abs() < 1e-12, "x={x}: lazy {l} vs dense {d}");
        }
        // Exact expectation: identical (to fp) with the dense dot, for an
        // implicit and for a dense query of the same predicate.
        let probe = ImplicitQuery::marginal(vec![3], 4).unwrap();
        let dense_probe: Vec<f64> = points.iter().map(|p| probe.evaluate(p)).collect();
        let exact: f64 = dense
            .weights()
            .iter()
            .zip(&dense_probe)
            .map(|(w, v)| w * v)
            .sum();
        let snapshot = lazy.snapshot();
        let via_lazy = snapshot.expected_query_value(&probe, None).unwrap().value;
        assert!((via_lazy - exact).abs() < 1e-12, "{via_lazy} vs {exact}");
        let dense_q = pmw_data::LinearQuery::new(dense_probe).unwrap();
        let via_index = snapshot.expected_query_value(&dense_q, None).unwrap().value;
        assert!((via_index - exact).abs() < 1e-12);
        // Dimension mismatches are rejected.
        let wrong = ImplicitQuery::marginal(vec![0], 7).unwrap();
        assert!(snapshot.expected_query_value(&wrong, None).is_err());
        assert!(lazy.record_query(&wrong, 1.0, 0.5).is_err());
    }

    #[test]
    fn lazy_state_feeds_the_exact_gumbel_max_sampler() {
        // The lazy backend is a LogWeightFn, so the Θ(|X|) exact sampler
        // runs on it directly; frequencies must match the dense masses.
        let cube = BooleanCube::new(3).unwrap();
        let points = cube.materialize();
        let mut dense = Histogram::uniform(8).unwrap();
        let mut lazy = LazyLogBackend::new(UniversePoints(cube)).unwrap();
        let loss = bit_loss(0, 3);
        let u = dual_certificate(&loss, &points, &[0.95], &[0.3]).unwrap();
        dense.mw_update(&u, 3.0).unwrap();
        lazy.record(
            RoundUpdate::new(
                Arc::new(loss) as Arc<dyn CmLoss>,
                vec![0.95],
                vec![0.3],
                3.0,
            )
            .unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[gumbel_max_index(&lazy, &mut rng)] += 1;
        }
        for (x, &c) in counts.iter().enumerate() {
            let freq = c as f64 / n as f64;
            assert!(
                (freq - dense.mass(x)).abs() < 0.02,
                "x={x}: {freq} vs {}",
                dense.mass(x)
            );
        }
    }
}
