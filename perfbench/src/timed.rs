//! Timing decorators over the program's public traits.
//!
//! Each wraps the real backend, snapshot or oracle, opens a span around
//! every call, and forwards the call unchanged — including the methods
//! the traits give default bodies, so a decorated mechanism takes exactly
//! the code paths of an undecorated one (the parity check in `main`
//! verifies this bit-for-bit on every traced run).

use crate::trace::Tracer;
use pmw_core::{BackendEvent, MeanFn, PmwError, QueryEstimate, ReadSnapshot, StateBackend};
use pmw_data::workload::PointQuery;
use pmw_data::{Histogram, PointMatrix};
use pmw_dp::PrivacyBudget;
use pmw_erm::{ErmError, ErmOracle};
use pmw_losses::CmLoss;
use rand::Rng;
use std::sync::Arc;

/// A [`StateBackend`] whose every call is a `backend` span.
pub struct TimedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

const BACKEND: &str = "backend";
const SNAPSHOT: &str = "snapshot";
const ORACLE: &str = "oracle";

impl<B: StateBackend> StateBackend for TimedBackend<B> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn updates_recorded(&self) -> usize {
        self.inner.updates_recorded()
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, PmwError> {
        let _span = self.tracer.span(BACKEND, "hypothesis_minimizer");
        self.inner
            .hypothesis_minimizer(loss, points, solver_iters, rng)
    }

    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError> {
        let _span = self.tracer.span(BACKEND, "apply_update");
        self.inner.apply_update(
            loss,
            retained,
            points,
            theta_oracle,
            theta_hyp,
            eta,
            gap_weights,
            rng,
        )
    }

    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
        let _span = self.tracer.span(BACKEND, "sample_indices");
        self.inner.sample_indices(m, rng)
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<QueryEstimate, PmwError> {
        let _span = self.tracer.span(BACKEND, "expected_query_value");
        self.inner.expected_query_value(query, points, rng)
    }

    /// The linear-query MW step: timed under the same name as the CM
    /// one, since both are "apply one MW update".
    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        retained: Option<Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        let _span = self.tracer.span(BACKEND, "apply_update");
        self.inner
            .apply_query_update(query, retained, coeff, eta, points, rng)
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.inner.dense_hypothesis()
    }

    fn read_radius(&self, scale: f64) -> f64 {
        let _span = self.tracer.span(BACKEND, "read_radius");
        self.inner.read_radius(scale)
    }

    fn requires_shared_loss(&self) -> bool {
        self.inner.requires_shared_loss()
    }

    fn take_events(&mut self) -> Vec<BackendEvent> {
        self.inner.take_events()
    }

    fn requires_materialized_universe(&self) -> bool {
        self.inner.requires_materialized_universe()
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        let inner = {
            let _span = self.tracer.span(BACKEND, "snapshot");
            self.inner.snapshot()?
        };
        Ok(Arc::new(TimedSnapshot {
            inner,
            tracer: Arc::clone(&self.tracer),
        }))
    }
}

/// A published [`ReadSnapshot`] whose every read is a `snapshot` span.
pub struct TimedSnapshot {
    inner: Arc<dyn ReadSnapshot>,
    tracer: Arc<Tracer>,
}

impl ReadSnapshot for TimedSnapshot {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn updates_recorded(&self) -> usize {
        self.inner.updates_recorded()
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        let _span = self.tracer.span(SNAPSHOT, "hypothesis_minimizer");
        self.inner.hypothesis_minimizer(loss, points, solver_iters)
    }

    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        let _span = self.tracer.span(SNAPSHOT, "expected_query_value");
        self.inner.expected_query_value(query, points)
    }

    fn estimate_mean(
        &self,
        label: &'static str,
        scale: f64,
        f: &mut MeanFn<'_>,
    ) -> Result<QueryEstimate, PmwError> {
        let _span = self.tracer.span(SNAPSHOT, "estimate_mean");
        self.inner.estimate_mean(label, scale, f)
    }

    fn read_radius(&self, scale: f64) -> f64 {
        let _span = self.tracer.span(SNAPSHOT, "read_radius");
        self.inner.read_radius(scale)
    }

    fn dense_hypothesis(&self) -> Option<&Histogram> {
        self.inner.dense_hypothesis()
    }
}

/// An [`ErmOracle`] whose every solve is an `oracle` span; failed solves
/// are counted as `oracle.failed`.
#[derive(Clone)]
pub struct TimedOracle<O> {
    inner: O,
    tracer: Arc<Tracer>,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<O: ErmOracle> ErmOracle for TimedOracle<O> {
    fn solve(
        &self,
        loss: &dyn CmLoss,
        points: &PointMatrix,
        weights: &[f64],
        n: usize,
        budget: PrivacyBudget,
        rng: &mut dyn Rng,
    ) -> Result<Vec<f64>, ErmError> {
        let result = {
            let _span = self.tracer.span(ORACLE, "solve");
            self.inner.solve(loss, points, weights, n, budget, rng)
        };
        if result.is_err() {
            self.tracer.count("oracle.failed", 1);
        }
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceProbe;
    use pmw_core::{Mwem, OnlinePmw, PmwConfig};
    use pmw_data::workload::random_implicit_marginals;
    use pmw_data::{BigBitCube, BooleanCube, Dataset};
    use pmw_erm::OracleChoice;
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use pmw_sketch::{CompactionPolicy, SampledBackend, SampledConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(answers: &[Vec<f64>]) -> Vec<Vec<u64>> {
        answers
            .iter()
            .map(|a| a.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn stream(dim: usize) -> Vec<LinearQueryLoss> {
        (0..12)
            .map(|j| {
                let coords = vec![j % dim, (j * 3 + 1) % dim];
                let coords = if coords[0] == coords[1] {
                    vec![coords[0]]
                } else {
                    coords
                };
                LinearQueryLoss::new(PointPredicate::Conjunction { coords }, dim).unwrap()
            })
            .collect()
    }

    fn config(k: usize) -> PmwConfig {
        PmwConfig::builder(1.0, 1e-6, 0.05)
            .k(k)
            .rounds_override(k)
            .scale(1.0)
            .solver_iters(30)
            .build()
            .unwrap()
    }

    fn answer_all<O: ErmOracle, B: StateBackend>(
        mech: &mut OnlinePmw<O, B>,
        losses: &[LinearQueryLoss],
        rng: &mut StdRng,
        probe: Option<&TraceProbe>,
    ) -> Vec<Vec<f64>> {
        losses
            .iter()
            .map(|l| match probe {
                Some(p) => mech.answer_with_probe(l, rng, p),
                None => mech.answer(l, rng),
            })
            .map(|r| r.unwrap_or_default())
            .collect()
    }

    #[test]
    fn decorated_dense_mechanism_answers_bit_for_bit() {
        let cube = BooleanCube::new(4).unwrap();
        let rows: Vec<usize> = (0..200).map(|i| ((i * 7) % 16) | 1).collect();
        let data = Dataset::from_indices(16, rows).unwrap();
        let losses = stream(4);

        let mut rng = StdRng::seed_from_u64(5);
        let mut plain = OnlinePmw::new(config(12), &cube, data.clone(), &mut rng).unwrap();
        let expected = answer_all(&mut plain, &losses, &mut rng, None);

        let tracer = Arc::new(Tracer::new());
        let mut rng = StdRng::seed_from_u64(5);
        let mut timed = OnlinePmw::with_backend(
            config(12),
            &cube,
            data,
            TimedOracle::new(OracleChoice::Auto, &tracer),
            TimedBackend::new(pmw_core::DenseBackend::new(16).unwrap(), &tracer),
            &mut rng,
        )
        .unwrap();
        let probe = TraceProbe::new(&tracer, "mechanism");
        let got = answer_all(&mut timed, &losses, &mut rng, Some(&probe));
        assert_eq!(bits(&got), bits(&expected));
        assert!(plain.updates_used() > 0, "the stream must exercise updates");
        assert_eq!(plain.updates_used(), timed.updates_used());
        let totals = tracer.finish().totals();
        assert_eq!(totals[&("backend", "snapshot")].calls, 12);
        assert_eq!(
            totals[&("oracle", "solve")].calls,
            plain.updates_used() as u64
        );
    }

    #[test]
    fn decorated_sketched_mechanism_answers_bit_for_bit() {
        let source = BigBitCube::new(8).unwrap();
        let rows: Vec<usize> = (0..300).map(|i| ((i * 37) % 256) | 3).collect();
        let data = Dataset::from_indices(256, rows).unwrap();
        let losses = stream(8);
        let sketch = SampledConfig {
            budget: 64,
            resample_every: 3,
            compaction: CompactionPolicy::EveryK(2),
            ..SampledConfig::default()
        };

        let mut rng = StdRng::seed_from_u64(9);
        let backend = SampledBackend::new(BigBitCube::new(8).unwrap(), sketch, &mut rng).unwrap();
        let mut plain = OnlinePmw::with_point_source(
            config(12),
            &source,
            &data,
            OracleChoice::Auto,
            backend,
            &mut rng,
        )
        .unwrap();
        let expected = answer_all(&mut plain, &losses, &mut rng, None);

        let tracer = Arc::new(Tracer::new());
        let mut rng = StdRng::seed_from_u64(9);
        let backend = SampledBackend::with_probe(
            BigBitCube::new(8).unwrap(),
            sketch,
            TraceProbe::new(&tracer, "sketch"),
            &mut rng,
        )
        .unwrap();
        let mut timed = OnlinePmw::with_point_source(
            config(12),
            &source,
            &data,
            TimedOracle::new(OracleChoice::Auto, &tracer),
            TimedBackend::new(backend, &tracer),
            &mut rng,
        )
        .unwrap();
        let probe = TraceProbe::new(&tracer, "mechanism");
        let got = answer_all(&mut timed, &losses, &mut rng, Some(&probe));
        assert_eq!(bits(&got), bits(&expected));
        assert!(plain.updates_used() > 0, "the stream must exercise updates");
    }

    #[test]
    fn decorated_mwem_release_is_bit_for_bit() {
        let source = BigBitCube::new(8).unwrap();
        let rows: Vec<usize> = (0..300).map(|i| ((i * 11) % 256) | 1).collect();
        let data = Dataset::from_indices(256, rows).unwrap();
        let queries = random_implicit_marginals(8, 2, 16, &mut StdRng::seed_from_u64(2)).unwrap();
        let sketch = SampledConfig {
            budget: 64,
            ..SampledConfig::default()
        };
        let mwem = Mwem::new(4, 1.0).unwrap();

        let mut rng = StdRng::seed_from_u64(3);
        let backend = SampledBackend::new(BigBitCube::new(8).unwrap(), sketch, &mut rng).unwrap();
        let plain = mwem
            .run_with_source(&queries, &source, &data, 2.0, backend, &mut rng)
            .unwrap();

        let tracer = Arc::new(Tracer::new());
        let mut rng = StdRng::seed_from_u64(3);
        let backend = SampledBackend::with_probe(
            BigBitCube::new(8).unwrap(),
            sketch,
            TraceProbe::new(&tracer, "sketch"),
            &mut rng,
        )
        .unwrap();
        let timed = mwem
            .run_with_source_probed(
                &queries,
                &source,
                &data,
                2.0,
                TimedBackend::new(backend, &tracer),
                &mut rng,
                &TraceProbe::new(&tracer, "mechanism"),
            )
            .unwrap();
        assert_eq!(bits(&[timed.answers]), bits(&[plain.answers]));
        assert_eq!(timed.selected, plain.selected);
        let totals = tracer.finish().totals();
        assert_eq!(totals[&("backend", "apply_update")].calls, 4);
    }
}
