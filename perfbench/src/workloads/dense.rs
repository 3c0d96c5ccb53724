//! `online-dense`: one caller drives the default `OnlinePmw::new` — the
//! exact `DenseBackend` and `OracleChoice::Auto` — over a materialized
//! grid universe, so the Θ(|X|) histogram and certificate sweeps (and
//! their thread fan-out) do the work. The paper's Figure-3 path.

use super::online::{drive_online, score_answers};
use super::{input_rng, mixed_stream, pass_rng, setup_rng, Pass, RiskEval, RssWindow, Workload};
use crate::timed::{TimedBackend, TimedOracle};
use crate::trace::Tracer;
use pmw_core::{DenseBackend, OnlinePmw, PmwConfig};
use pmw_data::synth::gaussian_mixture_population;
use pmw_data::{Dataset, GridUniverse, Universe, UniversePoints};
use pmw_erm::OracleChoice;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 4;
/// 12^4 = 20 736 grid points.
const CELLS: usize = 12;
const N: usize = 2000;
const K: usize = 128;
const EPSILON: f64 = 2.0;
const ALPHA: f64 = 0.05;
const SOLVER_ITERS: usize = 60;

pub struct OnlineDense {
    seed: u64,
    grid: GridUniverse,
    dataset: Dataset,
    stream: Vec<Arc<dyn CmLoss>>,
    /// Made on first use, after the first pass's memory window closed.
    risk: Option<RiskEval>,
}

impl OnlineDense {
    /// The workload on input set `index` of `seed`.
    pub fn new(seed: u64, index: u64) -> Self {
        // Points stay inside the unit ball: |x|₂ ≤ 2·half = 0.55.
        let half = 0.55 / (DIM as f64).sqrt();
        let grid = GridUniverse::new(DIM, CELLS, -half, half).expect("grid");
        let mut rng = input_rng(seed, index, 1);
        let center: Vec<f64> = (0..DIM)
            .map(|_| (rng.random::<f64>() - 0.5) * 1.2 * half)
            .collect();
        let population =
            gaussian_mixture_population(&grid, &[center], 0.6 * half).expect("population");
        let dataset = Dataset::sample_from(&population, N, &mut rng).expect("dataset");
        let stream = mixed_stream(DIM, K, &mut input_rng(seed, index, 2), |_, rng| {
            let predicate = PointPredicate::Threshold {
                coord: rng.random_range(0..DIM),
                threshold: (rng.random::<f64>() - 0.5) * half,
            };
            LinearQueryLoss::new(predicate, DIM).expect("threshold query")
        });
        Self {
            seed,
            grid,
            dataset,
            stream,
            risk: None,
        }
    }
}

fn config() -> PmwConfig {
    PmwConfig::builder(EPSILON, 1e-6, ALPHA)
        .k(K)
        .rounds_override(K)
        .scale(1.0)
        .solver_iters(SOLVER_ITERS)
        .build()
        .expect("config")
}

impl OnlineDense {
    /// `OnlinePmw::new`: the default dense backend and automatic oracle.
    fn plain(&self, rng: &mut StdRng) -> OnlinePmw {
        OnlinePmw::new(config(), &self.grid, self.dataset.clone(), rng).expect("mechanism")
    }

    /// What `OnlinePmw::new` builds, with both seams decorated.
    fn traced(
        &self,
        rng: &mut StdRng,
        tracer: &Arc<Tracer>,
    ) -> OnlinePmw<TimedOracle<OracleChoice>, TimedBackend<DenseBackend>> {
        let backend = DenseBackend::new(self.grid.size()).expect("dense backend");
        OnlinePmw::with_backend(
            config(),
            &self.grid,
            self.dataset.clone(),
            TimedOracle::new(OracleChoice::Auto, tracer),
            TimedBackend::new(backend, tracer),
            rng,
        )
        .expect("mechanism")
    }
}

impl Workload for OnlineDense {
    fn sequential(&self) -> bool {
        true
    }

    fn setup(&mut self, rep: u64) -> f64 {
        let mut rng = setup_rng(self.seed, rep);
        let start = Instant::now();
        let mech = self.plain(&mut rng);
        let elapsed = start.elapsed().as_secs_f64();
        drop(mech);
        elapsed
    }

    fn pass(&mut self, pass: u64, tracer: Option<&Arc<Tracer>>) -> Pass {
        let mut rng = pass_rng(self.seed, pass);
        let mut out = Pass::default();
        let window = RssWindow::open();
        match tracer {
            None => {
                let mut mech = self.plain(&mut rng);
                drive_online(&mut mech, &self.stream, &mut rng, None, window, &mut out);
            }
            Some(tracer) => {
                let mut mech = self.traced(&mut rng, tracer);
                drive_online(
                    &mut mech,
                    &self.stream,
                    &mut rng,
                    Some(tracer),
                    window,
                    &mut out,
                );
            }
        }
        out
    }

    fn score(&mut self, _pass: u64, out: &mut Pass) {
        let risk = self.risk.get_or_insert_with(|| {
            RiskEval::new(
                &self.dataset,
                &UniversePoints(self.grid.clone()),
                SOLVER_ITERS,
            )
        });
        score_answers(risk, &self.stream, out);
    }
}
