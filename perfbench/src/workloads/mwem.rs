//! `mwem-release`: `Mwem::run_with_source` over a sketched 2^20 cube with
//! k width-2 implicit marginals. Per-query pool estimates and the
//! exponential-mechanism selection do the work; there is no oracle, no
//! hypothesis solve and no serving.

use super::{input_rng, pass_rng, setup_rng, skewed_cube_rows, Pass, RssWindow, Workload};
use crate::timed::TimedBackend;
use crate::trace::{TraceProbe, Tracer};
use pmw_core::{Mwem, MwemRun};
use pmw_data::workload::random_implicit_marginals;
use pmw_data::{BigBitCube, Dataset, ImplicitQuery, PointSource};
use pmw_sketch::{SampledBackend, SampledConfig};
use std::sync::Arc;
use std::time::Instant;

const BITS: usize = 20;
const N: usize = 2000;
const K: usize = 256;
const ROUNDS: usize = 16;
const EPSILON: f64 = 4.0;

fn sketch_config() -> SampledConfig {
    SampledConfig {
        budget: 2048,
        ..SampledConfig::default()
    }
}

pub struct MwemRelease {
    seed: u64,
    dataset: Dataset,
    queries: Vec<ImplicitQuery>,
}

impl MwemRelease {
    /// The workload on input set `index` of `seed`.
    pub fn new(seed: u64, index: u64) -> Self {
        let dataset = skewed_cube_rows(BITS, &[0, 1], N, &mut input_rng(seed, index, 1));
        let queries = random_implicit_marginals(BITS, 2, K, &mut input_rng(seed, index, 2))
            .expect("marginals");
        Self {
            seed,
            dataset,
            queries,
        }
    }

    /// `q(D)` of every query, over the dataset's support rows.
    fn truths(&self) -> Vec<f64> {
        let source = cube();
        let (rows, weights) = self.dataset.support();
        let mut point = vec![0.0; BITS];
        self.queries
            .iter()
            .map(|q| {
                rows.iter()
                    .zip(&weights)
                    .map(|(&row, &w)| {
                        source.write_point(row, &mut point);
                        w * q.evaluate(&point)
                    })
                    .sum()
            })
            .collect()
    }
}

impl Workload for MwemRelease {
    fn sequential(&self) -> bool {
        true
    }

    fn setup(&mut self, rep: u64) -> f64 {
        let mut rng = setup_rng(self.seed, rep);
        let start = Instant::now();
        let backend = SampledBackend::new(cube(), sketch_config(), &mut rng).expect("backend");
        let elapsed = start.elapsed().as_secs_f64();
        drop(backend);
        elapsed
    }

    fn pass(&mut self, pass: u64, tracer: Option<&Arc<Tracer>>) -> Pass {
        let mut rng = pass_rng(self.seed, pass);
        let mwem = Mwem::new(ROUNDS, 1.0).expect("mwem");
        let (queries, dataset) = (&self.queries, &self.dataset);
        let mut out = Pass::default();
        let window = RssWindow::open();
        let release = match tracer {
            None => {
                let backend = SampledBackend::new(cube(), sketch_config(), &mut rng)
                    .expect("sampled backend");
                let t0 = Instant::now();
                let run =
                    mwem.run_with_source(queries, &cube(), dataset, EPSILON, backend, &mut rng);
                out.wall_s = t0.elapsed().as_secs_f64();
                window.close(&mut out);
                run.map(strip)
            }
            Some(tracer) => {
                let probe = TraceProbe::new(tracer, "sketch");
                let backend = SampledBackend::with_probe(cube(), sketch_config(), probe, &mut rng)
                    .expect("sampled backend");
                let backend = TimedBackend::new(backend, tracer);
                let t0 = Instant::now();
                let run = {
                    let _root = tracer.answer();
                    let probe = TraceProbe::new(tracer, "mechanism");
                    mwem.run_with_source_probed(
                        queries,
                        &cube(),
                        dataset,
                        EPSILON,
                        backend,
                        &mut rng,
                        &probe,
                    )
                };
                out.wall_s = t0.elapsed().as_secs_f64();
                window.close(&mut out);
                run.map(strip)
            }
        };
        // One release answers all k queries at once, so every answer's
        // latency is the release's wall time: one sample per release.
        out.latencies_ms = vec![out.wall_s * 1e3];
        out.attempted = K as u64;
        match release {
            Ok(run) => self.check(run, &mut out),
            Err(e) => {
                out.failed = K as u64;
                out.check(false, || format!("release failed: {e}"));
            }
        }
        out
    }

    fn score(&mut self, _pass: u64, out: &mut Pass) {
        if let Some(answers) = out.answers.first() {
            out.errors = answers
                .iter()
                .zip(self.truths())
                .map(|(a, t)| (a - t).abs())
                .collect();
        }
    }
}

fn cube() -> BigBitCube {
    BigBitCube::new(BITS).expect("cube")
}

/// The parts of a run the checks read, whatever the backend type.
struct Release {
    answers: Vec<f64>,
    selected: usize,
    ledger_eps: f64,
    spent: f64,
}

fn strip<B>(run: MwemRun<B>) -> Release {
    Release {
        ledger_eps: run
            .accountant
            .entries()
            .iter()
            .map(|e| e.budget.epsilon())
            .sum(),
        spent: run.accountant.basic_total().map_or(0.0, |b| b.epsilon()),
        selected: run.selected.len(),
        answers: run.answers,
    }
}

impl MwemRelease {
    fn check(&self, run: Release, out: &mut Pass) {
        out.check(run.answers.len() == K, || {
            format!("{} answers for {K} queries", run.answers.len())
        });
        let finite = run.answers.iter().all(|a| a.is_finite());
        out.check(finite, || "a released answer is not finite".to_string());
        out.check((run.ledger_eps - EPSILON).abs() <= 1e-9 * EPSILON, || {
            format!("ledger sums to ε={}, declared {EPSILON}", run.ledger_eps)
        });
        out.check(run.spent <= EPSILON * (1.0 + 1e-9), || {
            format!(
                "accountant spent ε={} over the declared {EPSILON}",
                run.spent
            )
        });
        out.check(run.selected == ROUNDS, || {
            format!("{} rounds selected, {ROUNDS} declared", run.selected)
        });
        out.answered = run.answers.len() as u64;
        out.updates = run.selected as u64;
        out.layer_extra.insert("dp.eps_spent", run.spent);
        out.answers = vec![run.answers];
    }
}
