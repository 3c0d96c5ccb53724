//! `online-write`: one caller drives `OnlinePmw` over a sketched 2^20
//! cube with k = T, so most rounds are ⊤ rounds and the private oracle,
//! the pool sweep, the resample log replay and compaction do the work.

use super::{
    check_online, input_rng, mixed_stream, pass_rng, random_conjunction, setup_rng,
    skewed_cube_rows, Pass, RiskEval, RssWindow, Workload,
};
use crate::timed::{TimedBackend, TimedOracle};
use crate::trace::{TraceProbe, Tracer};
use pmw_core::{OnlinePmw, PmwConfig, StateBackend};
use pmw_data::{BigBitCube, Dataset};
use pmw_erm::{ErmOracle, OracleChoice};
use pmw_losses::CmLoss;
use pmw_sketch::{CompactionPolicy, SampledBackend, SampledConfig};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

const BITS: usize = 20;
const N: usize = 2000;
const K: usize = 256;
const EPSILON: f64 = 2.0;
const ALPHA: f64 = 0.15;
const SOLVER_ITERS: usize = 60;

pub fn sketch_config() -> SampledConfig {
    SampledConfig {
        budget: 2048,
        resample_every: 32,
        compaction: CompactionPolicy::EveryK(16),
        ..SampledConfig::default()
    }
}

pub struct OnlineWrite {
    seed: u64,
    dataset: Dataset,
    stream: Vec<Arc<dyn CmLoss>>,
    /// Made on first use, after the first pass's memory window closed.
    risk: Option<RiskEval>,
}

impl OnlineWrite {
    /// The workload on input set `index` of `seed`.
    pub fn new(seed: u64, index: u64) -> Self {
        let dataset = skewed_cube_rows(BITS, &[0, 1, 2], N, &mut input_rng(seed, index, 1));
        let stream = mixed_stream(BITS, K, &mut input_rng(seed, index, 2), |_, rng| {
            random_conjunction(BITS, 2, rng)
        });
        Self {
            seed,
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

type Plain = OnlinePmw<OracleChoice, SampledBackend<BigBitCube>>;
type Traced =
    OnlinePmw<TimedOracle<OracleChoice>, TimedBackend<SampledBackend<BigBitCube, TraceProbe>>>;

impl OnlineWrite {
    fn plain(&self, rng: &mut StdRng) -> Plain {
        let backend = SampledBackend::new(cube(), sketch_config(), rng).expect("sampled backend");
        OnlinePmw::with_point_source(
            config(),
            &cube(),
            &self.dataset,
            OracleChoice::Auto,
            backend,
            rng,
        )
        .expect("mechanism")
    }

    fn traced(&self, rng: &mut StdRng, tracer: &Arc<Tracer>) -> Traced {
        let probe = TraceProbe::new(tracer, "sketch");
        let backend = SampledBackend::with_probe(cube(), sketch_config(), probe, rng)
            .expect("sampled backend");
        OnlinePmw::with_point_source(
            config(),
            &cube(),
            &self.dataset,
            TimedOracle::new(OracleChoice::Auto, tracer),
            TimedBackend::new(backend, tracer),
            rng,
        )
        .expect("mechanism")
    }
}

fn cube() -> BigBitCube {
    BigBitCube::new(BITS).expect("cube")
}

impl Workload for OnlineWrite {
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
        let risk = self
            .risk
            .get_or_insert_with(|| RiskEval::new(&self.dataset, &cube(), SOLVER_ITERS));
        score_answers(risk, &self.stream, out);
    }
}

/// Answer the whole stream in order — one closed-loop caller — through
/// `OnlinePmw::answer` (or, traced, `answer_with_probe` under a root span
/// per answer), close the memory window, then run the online output
/// checks.
pub fn drive_online<O: ErmOracle, B: StateBackend>(
    mech: &mut OnlinePmw<O, B>,
    stream: &[Arc<dyn CmLoss>],
    rng: &mut StdRng,
    tracer: Option<&Arc<Tracer>>,
    window: RssWindow,
    out: &mut Pass,
) {
    let probe = tracer.map(|t| (t, TraceProbe::new(t, "mechanism")));
    let start = Instant::now();
    for loss in stream {
        let t0 = Instant::now();
        let result = match &probe {
            Some((tracer, probe)) => {
                let _root = tracer.answer();
                mech.answer_with_probe(loss.as_ref(), rng, probe)
            }
            None => mech.answer(loss.as_ref(), rng),
        };
        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok(theta) => {
                out.answered += 1;
                out.answers.push(theta);
            }
            Err(_) => {
                out.failed += 1;
                out.answers.push(Vec::new());
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    window.close(out);
    out.updates = mech.updates_used() as u64;
    check_online(mech, out);
}

/// Excess risk of every released answer (failed requests have none).
pub fn score_answers(risk: &mut RiskEval, stream: &[Arc<dyn CmLoss>], out: &mut Pass) {
    for (i, (loss, theta)) in stream.iter().zip(&out.answers).enumerate() {
        if !theta.is_empty() {
            out.errors.push(risk.excess(i, loss.as_ref(), theta));
        }
    }
}
