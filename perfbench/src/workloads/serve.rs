//! `serve-read`: `PmwServer` over the sketched 2^20 construction, two
//! analyst threads sending linear conjunction queries back to back, each
//! request a fresh random conjunction of width 1 or 2. The
//! dataset is large and α loose, so the hypothesis learns the skewed
//! marginals within a few updates and almost every later answer is a
//! free ⊥ read: the screen path (hypothesis solve + error query on a
//! published snapshot), snapshot publication, batched sparse-vector
//! screening and the writer queue do the work.

use super::online::sketch_config;
use super::{
    check_online, conjunction, input_rng, pass_rng, random_coords, setup_rng, skewed_cube_rows,
    Pass, RiskEval, RssWindow, Workload,
};
use crate::timed::{TimedBackend, TimedOracle};
use crate::trace::{TraceProbe, Tracer};
use pmw_core::{OnlinePmw, PmwConfig, StateBackend};
use pmw_data::{BigBitCube, Dataset};
use pmw_erm::{ErmOracle, OracleChoice};
use pmw_losses::CmLoss;
use pmw_serve::{AnalystHandle, PmwServer, ServeConfig};
use pmw_sketch::SampledBackend;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const BITS: usize = 20;
const N: usize = 20_000;
const ANALYSTS: usize = 2;
const REQUESTS: usize = 800;
const EPSILON: f64 = 2.0;
const ALPHA: f64 = 0.5;
const ROUNDS: usize = 64;
const SOLVER_ITERS: usize = 60;

pub struct ServeRead {
    seed: u64,
    dataset: Dataset,
    /// The distinct conjunctions the requests ask, in order of first draw.
    queries: Vec<Arc<dyn CmLoss>>,
    /// Per analyst, the index into `queries` of each request.
    schedule: Vec<Vec<usize>>,
    /// Share of requests that ask a conjunction another request asks too:
    /// `1 − distinct / requests`.
    repeat_share: f64,
    /// Made on first use, after the first pass's memory window closed.
    risk: Option<RiskEval>,
}

impl ServeRead {
    /// The workload on input set `index` of `seed`. Every request draws a
    /// fresh conjunction: width 1 or 2 with equal odds, then uniform
    /// coordinates. There are only 20 + 190 such conjunctions, so requests
    /// repeat one another as often as that space makes them; the share is
    /// reported, not chosen.
    pub fn new(seed: u64, index: u64) -> Self {
        let dataset = skewed_cube_rows(BITS, &[0, 1, 2, 3], N, &mut input_rng(seed, index, 1));
        let mut rng = input_rng(seed, index, 2);
        let mut ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut queries: Vec<Arc<dyn CmLoss>> = Vec::new();
        let schedule = (0..ANALYSTS)
            .map(|_| {
                (0..REQUESTS)
                    .map(|_| {
                        let width = 1 + rng.random_range(0..2);
                        let coords = random_coords(BITS, width, &mut rng);
                        *ids.entry(coords.clone()).or_insert_with(|| {
                            queries.push(Arc::new(conjunction(BITS, coords)));
                            queries.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let repeat_share = 1.0 - queries.len() as f64 / (ANALYSTS * REQUESTS) as f64;
        Self {
            seed,
            dataset,
            queries,
            schedule,
            repeat_share,
            risk: None,
        }
    }
}

fn config() -> PmwConfig {
    PmwConfig::builder(EPSILON, 1e-6, ALPHA)
        .k(ANALYSTS * REQUESTS)
        .rounds_override(ROUNDS)
        .scale(1.0)
        .solver_iters(SOLVER_ITERS)
        .build()
        .expect("config")
}

/// One analyst's record: per request, in schedule order, the latency and
/// the result.
type AnalystLog = Vec<(f64, Option<Vec<f64>>)>;

type Server<O, B> = (PmwServer<O, B>, Vec<AnalystHandle>);

impl ServeRead {
    fn plain(&self, rng: &mut StdRng) -> Server<OracleChoice, SampledBackend<BigBitCube>> {
        let server_seed = rng.random::<u64>();
        let backend = SampledBackend::new(cube(), sketch_config(), rng).expect("sampled backend");
        let mech = OnlinePmw::with_point_source(
            config(),
            &cube(),
            &self.dataset,
            OracleChoice::Auto,
            backend,
            rng,
        )
        .expect("mechanism");
        PmwServer::spawn(mech, ServeConfig::new(ANALYSTS, server_seed)).expect("server")
    }

    fn traced(
        &self,
        rng: &mut StdRng,
        tracer: &Arc<Tracer>,
    ) -> Server<TimedOracle<OracleChoice>, TimedBackend<SampledBackend<BigBitCube, TraceProbe>>>
    {
        let server_seed = rng.random::<u64>();
        let probe = TraceProbe::new(tracer, "sketch");
        let backend = SampledBackend::with_probe(cube(), sketch_config(), probe, rng)
            .expect("sampled backend");
        let mech = OnlinePmw::with_point_source(
            config(),
            &cube(),
            &self.dataset,
            TimedOracle::new(OracleChoice::Auto, tracer),
            TimedBackend::new(backend, tracer),
            rng,
        )
        .expect("mechanism");
        let probe = TraceProbe::new(tracer, "mechanism");
        PmwServer::spawn_with_probe(mech, ServeConfig::new(ANALYSTS, server_seed), probe)
            .expect("server")
    }
}

fn cube() -> BigBitCube {
    BigBitCube::new(BITS).expect("cube")
}

impl Workload for ServeRead {
    fn sequential(&self) -> bool {
        false
    }

    fn setup(&mut self, rep: u64) -> f64 {
        let mut rng = setup_rng(self.seed, rep);
        let start = Instant::now();
        let (server, handles) = self.plain(&mut rng);
        let elapsed = start.elapsed().as_secs_f64();
        drop(handles);
        server.join().expect("serve writer");
        elapsed
    }

    fn pass(&mut self, pass: u64, tracer: Option<&Arc<Tracer>>) -> Pass {
        let mut rng = pass_rng(self.seed, pass);
        let mut out = Pass {
            repeat_share: Some(self.repeat_share),
            ..Pass::default()
        };
        let window = RssWindow::open();
        match tracer {
            None => {
                let (server, handles) = self.plain(&mut rng);
                self.drive(server, handles, None, window, &mut out);
            }
            Some(tracer) => {
                let (server, handles) = self.traced(&mut rng, tracer);
                self.drive(server, handles, Some(tracer), window, &mut out);
            }
        }
        out
    }

    /// `out.answers` runs analyst by analyst in schedule order (the server
    /// hands out handles in id order), so the flattened schedule names each
    /// answer's query.
    fn score(&mut self, _pass: u64, out: &mut Pass) {
        let risk = self
            .risk
            .get_or_insert_with(|| RiskEval::new(&self.dataset, &cube(), SOLVER_ITERS));
        for (&q, theta) in self.schedule.iter().flatten().zip(&out.answers) {
            if !theta.is_empty() {
                out.errors
                    .push(risk.excess(q, self.queries[q].as_ref(), theta));
            }
        }
    }
}

impl ServeRead {
    /// Every analyst on its own thread, each a closed loop over its
    /// schedule; then close the memory window, join the server and check.
    fn drive<O, B>(
        &self,
        server: PmwServer<O, B>,
        handles: Vec<AnalystHandle>,
        tracer: Option<&Arc<Tracer>>,
        window: RssWindow,
        out: &mut Pass,
    ) where
        O: ErmOracle + Send + 'static,
        B: StateBackend + Send + 'static,
    {
        let cell = Arc::clone(server.snapshot_cell());
        let start = Instant::now();
        let logs: Vec<AnalystLog> = std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .into_iter()
                .map(|mut handle| {
                    let schedule = &self.schedule[handle.id()];
                    let queries = &self.queries;
                    s.spawn(move || {
                        let mut log = Vec::with_capacity(schedule.len());
                        for &q in schedule {
                            let t0 = Instant::now();
                            let result = {
                                let _root = tracer.map(|t| t.answer());
                                handle.answer(queries[q].as_ref())
                            };
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            log.push((ms, result.ok().map(|a| a.values)));
                        }
                        log
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("analyst thread panicked"))
                .collect()
        });
        out.wall_s = start.elapsed().as_secs_f64();
        window.close(out);
        let join = server.join().expect("serve writer");

        for (ms, answer) in logs.into_iter().flatten() {
            out.attempted += 1;
            out.latencies_ms.push(ms);
            match answer {
                Some(theta) => {
                    out.answered += 1;
                    out.answers.push(theta);
                }
                None => {
                    out.failed += 1;
                    out.answers.push(Vec::new());
                }
            }
        }
        out.updates = join.mechanism.updates_used() as u64;
        check_online(&join.mechanism, out);

        let stats = &join.stats;
        let attempted = out.attempted;
        out.check(stats.requests == attempted, || {
            format!(
                "ServeStats counted {} requests for {attempted} attempts",
                stats.requests
            )
        });
        let served_updates: u64 = stats.per_analyst.iter().map(|a| a.updates + a.failed).sum();
        let used = out.updates;
        out.check(served_updates == used, || {
            format!("analysts saw {served_updates} ⊤ rounds, the mechanism used {used}")
        });
        out.check(join.sharding.audit().is_ok(), || {
            "tenant ledgers exceed the declared oracle budget".to_string()
        });

        let requests = stats.requests.max(1) as f64;
        let extra = &mut out.layer_extra;
        extra.insert("serve.queue_wait_p50_ms", stats.wait_p50_ns() as f64 / 1e6);
        extra.insert("serve.queue_wait_p99_ms", stats.wait_p99_ns() as f64 / 1e6);
        extra.insert("serve.batches", stats.batches as f64);
        extra.insert(
            "serve.batch_size_mean",
            stats.requests as f64 / stats.batches.max(1) as f64,
        );
        extra.insert("serve.rescreen_frac", stats.rescreens as f64 / requests);
        extra.insert("serve.snapshot_epochs", cell.epoch() as f64);
        extra.insert(
            "serve.updates",
            stats.per_analyst.iter().map(|a| a.updates).sum::<u64>() as f64,
        );
        extra.insert("serve.halted_replies", stats.halted_replies as f64);
        extra.insert(
            "serve.rejected",
            stats.per_analyst.iter().map(|a| a.rejected).sum::<u64>() as f64,
        );
    }
}
