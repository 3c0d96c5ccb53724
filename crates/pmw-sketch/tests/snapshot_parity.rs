//! Snapshot/commit split, read-side parity: a snapshot published mid-run
//! describes the backend's state at that round — bit-for-bit the live
//! state's exact expectation for the lazy backend — and stays immutable
//! and sane while the writer keeps updating, failing, and rolling back
//! around it.

use pmw_core::{OnlinePmw, PmwConfig, PmwError, ReadSnapshot, StateBackend};
use pmw_data::workload::ImplicitQuery;
use pmw_data::{BooleanCube, Dataset, PointQuery, Universe};
use pmw_erm::ExactOracle;
use pmw_losses::{CmLoss, LinearQueryLoss, PointPredicate};
use pmw_sketch::{
    FaultPlan, FaultyBackend, FaultyOracle, LazyLogBackend, RoundUpdate, SampledBackend,
    SampledConfig, SampledSnapshot, SketchError, UniversePoints,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 3;

/// A published snapshot plus the readings it gave at publication time
/// (`None` where the read honestly degraded).
type Published = (Vec<Option<u64>>, Arc<dyn ReadSnapshot>);

fn dataset() -> Dataset {
    let rows: Vec<usize> = (0..40).map(|i| [7usize, 7, 7, 1][i % 4]).collect();
    Dataset::from_indices(1 << DIM, rows).unwrap()
}

fn config(alpha: f64) -> PmwConfig {
    PmwConfig::builder(1.0, 1e-6, alpha)
        .k(10)
        .scale(1.0)
        .rounds_override(4)
        .solver_iters(60)
        .build()
        .unwrap()
}

fn bit_loss(bit: usize) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, DIM).unwrap()
}

fn bit_query(bit: usize) -> ImplicitQuery {
    ImplicitQuery::threshold(bit, 0.5, DIM).unwrap()
}

/// Publish a snapshot of a sampled backend and check it describes the
/// backend's current round.
fn publish_checked(backend: &SampledBackend<UniversePoints<BooleanCube>>) -> SampledSnapshot {
    let snapshot = backend.publish_snapshot().unwrap();
    assert_eq!(snapshot.updates_recorded(), backend.updates_recorded());
    assert_eq!(snapshot.universe_size(), backend.universe_size());
    assert_eq!(snapshot.pool_size(), backend.pool_size());
    snapshot
}

/// Every reading a sampled snapshot gives, per bit, as bit patterns: the
/// query mean and the certificate mean (value, radius, beta), the max
/// payoff (value, uncovered mass, beta) and the read margin. `None` where
/// a read honestly degraded (radius past the usable threshold).
fn sampled_readings(snapshot: &SampledSnapshot) -> Vec<Option<u64>> {
    let bits = |vals: [f64; 3]| vals.map(|v| Some(v.to_bits()));
    let mut out = Vec::new();
    for bit in 0..DIM {
        match snapshot.expected_query_value(&bit_query(bit) as &dyn PointQuery, None) {
            Ok(e) => out.extend(bits([e.value, e.radius, e.beta])),
            Err(PmwError::Degraded(_)) => out.push(None),
            Err(e) => panic!("bit {bit}: unexpected query-mean error {e:?}"),
        }
        let loss = bit_loss(bit);
        match snapshot.certificate_mean(&loss, &[0.8], &[0.3]) {
            Ok(e) => out.extend(bits([e.value, e.radius, e.beta])),
            Err(SketchError::Degraded(_)) => out.push(None),
            Err(e) => panic!("bit {bit}: unexpected certificate-mean error {e:?}"),
        }
        let max = snapshot.max_payoff(&loss, &[0.8], &[0.3]).unwrap();
        out.extend(bits([max.value, max.uncovered_mass, max.beta]));
        out.push(Some(snapshot.read_radius(loss.scale_bound()).to_bits()));
    }
    out
}

#[test]
fn sampled_snapshot_reads_are_bitwise_live_at_every_round() {
    let cube = BooleanCube::new(DIM).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SampledConfig {
        budget: 6,
        resample_every: 3,
        ..SampledConfig::default()
    };
    let backend = SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng).unwrap();
    let mut mech = OnlinePmw::with_backend(
        config(0.05),
        &cube,
        dataset(),
        ExactOracle::default(),
        backend,
        &mut rng,
    )
    .unwrap();

    // Round 0 (uniform state) and then mid-run after every answer: each
    // snapshot's readings are recorded the moment it is published.
    let publish = |mech: &OnlinePmw<_, SampledBackend<_>>| {
        let snapshot = publish_checked(mech.state());
        (mech.updates_used(), sampled_readings(&snapshot), snapshot)
    };
    let mut published = vec![publish(&mech)];
    for q in 0..8usize {
        let loss = bit_loss(q % DIM);
        match mech.answer(&loss, &mut rng) {
            Ok(_) | Err(PmwError::Halted) => {}
            Err(e) => panic!("unexpected error: {e:?}"),
        }
        published.push(publish(&mech));
        if mech.has_halted() {
            break;
        }
    }
    assert!(mech.updates_used() > 0, "no update ever committed");

    // Old snapshots are frozen bit-for-bit: each still reports the round it
    // was published at and gives exactly the readings it gave then, even
    // after later updates, resamples and copy-on-write moved the live pool
    // on.
    for (round, readings, snap) in &published {
        assert_eq!(snap.updates_recorded(), *round);
        assert_eq!(
            sampled_readings(snap),
            *readings,
            "the snapshot published at round {round} changed"
        );
    }
}

#[test]
fn lazy_snapshot_reads_are_bitwise_live_at_every_round() {
    let cube = BooleanCube::new(4).unwrap();
    let points = cube.materialize();
    let mut lazy = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
    let steps = [
        (0usize, 0.9, 0.4, 0.7),
        (1, 0.1, 0.6, 0.5),
        (2, 0.8, 0.2, 1.1),
    ];
    for (i, &(bit, t_o, t_h, eta)) in steps.iter().enumerate() {
        let loss =
            LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, 4).unwrap();
        lazy.record(
            RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta).unwrap(),
        )
        .unwrap();

        let snapshot = lazy.snapshot();
        assert_eq!(snapshot.rounds(), i + 1);
        assert_eq!(snapshot.universe_size(), cube.size());
        // The live state's exact expectation, from its per-point
        // log-weights in `x` order with the sweep's float order: shift by
        // the max, then accumulate numerator and normalizer.
        let log_w: Vec<f64> = (0..cube.size())
            .map(|x| lazy.log_weight_of(x).unwrap())
            .collect();
        let shift = log_w.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        for b in 0..4 {
            let query = ImplicitQuery::threshold(b, 0.5, 4).unwrap();
            let (mut num, mut den) = (0.0, 0.0);
            for (x, &lw) in log_w.iter().enumerate() {
                let w = (lw - shift).exp();
                num += w * query.evaluate(points.row(x));
                den += w;
            }
            let live: f64 = num / den;
            let snap = snapshot
                .expected_query_value(&query as &dyn PointQuery, None)
                .unwrap();
            assert_eq!(
                live.to_bits(),
                snap.value.to_bits(),
                "round {i} bit {b}: lazy snapshot diverged from live sweep"
            );
            assert_eq!(snap.radius, 0.0, "the lazy sweep is exact");
            assert_eq!(snap.beta, 0.0);
        }
        // Frozen prefix: log-weights agree element-wise with the live log
        // at publication time.
        for x in 0..cube.size() {
            assert_eq!(
                snapshot.log_weight_of(x).unwrap().to_bits(),
                lazy.log_weight_of(x).unwrap().to_bits()
            );
        }
    }

    // A snapshot taken at round 1 must not see later rounds.
    let mut lazy2 = LazyLogBackend::new(UniversePoints(cube.clone())).unwrap();
    let loss = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![0] }, 4).unwrap();
    lazy2
        .record(
            RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![0.9], vec![0.4], 0.7).unwrap(),
        )
        .unwrap();
    let early = lazy2.snapshot();
    let frozen: Vec<u64> = (0..cube.size())
        .map(|x| early.log_weight_of(x).unwrap().to_bits())
        .collect();
    let loss2 = LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![1] }, 4).unwrap();
    lazy2
        .record(
            RoundUpdate::new(
                Arc::new(loss2) as Arc<dyn CmLoss>,
                vec![0.2],
                vec![0.6],
                0.9,
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(early.rounds(), 1);
    for (x, want) in frozen.iter().enumerate() {
        assert_eq!(
            early.log_weight_of(x).unwrap().to_bits(),
            *want,
            "published lazy snapshot changed after a later record"
        );
    }
}

/// 25 seeded fault plans: whatever the faulty writer does — injected
/// estimate faults, NaN radii, oracle failures, rollbacks — snapshots
/// published from the *inner* (transactional) backend stay sane and
/// bitwise-consistent with the live state, and previously published
/// snapshots never change underneath their holders.
#[test]
fn writer_faults_never_corrupt_published_snapshots() {
    let cube = BooleanCube::new(DIM).unwrap();
    let data = dataset();
    let mut plans_exercised = 0;
    for seed in 0..25u64 {
        let plan = FaultPlan::seeded(seed);
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let sk = SampledConfig {
            budget: 5,
            resample_every: 2,
            ess_floor: 0.25,
            max_usable_radius: 0.75,
            growth_cap: 16,
            ..SampledConfig::default()
        };
        let backend = match SampledBackend::new(UniversePoints(cube.clone()), sk, &mut rng) {
            Ok(b) => b,
            Err(_) => continue,
        };
        let mut mech = OnlinePmw::with_backend(
            config(0.2),
            &cube,
            data.clone(),
            FaultyOracle::new(ExactOracle::default(), plan.oracle),
            FaultyBackend::new(backend, plan),
            &mut rng,
        )
        .unwrap();
        plans_exercised += 1;

        let mut published: Vec<Published> = Vec::new();
        for q in 0..10usize {
            match mech.answer(&bit_loss(q % DIM), &mut rng) {
                Ok(_) | Err(_) => {}
            }
            if mech.state().inner().is_poisoned() {
                break;
            }
            // Publish from the inner transactional backend: the rolled-
            // back, consistent state.
            publish_checked(mech.state().inner());
            let snap: Arc<dyn ReadSnapshot> = mech.state().inner().snapshot().unwrap();
            let readings: Vec<Option<u64>> = (0..DIM)
                .map(|b| {
                    match snap.expected_query_value(&bit_query(b) as &dyn PointQuery, None) {
                        Ok(est) => {
                            assert!(est.value.is_finite(), "seed {seed}: corrupted snapshot");
                            assert!(est.radius.is_finite() && est.radius >= 0.0);
                            Some(est.value.to_bits())
                        }
                        // An honestly degraded read is not corruption —
                        // the snapshot refused, it did not lie.
                        Err(PmwError::Degraded(_)) => None,
                        Err(e) => panic!("seed {seed}: unexpected snapshot error {e:?}"),
                    }
                })
                .collect();
            published.push((readings, snap));
            if mech.has_halted() {
                break;
            }
        }
        // Immutability under continued writer activity (including the
        // faults and rollbacks above): every published snapshot still
        // answers exactly what it answered at publication time.
        for (expected, snap) in &published {
            for (b, want) in expected.iter().enumerate() {
                let now = snap
                    .expected_query_value(&bit_query(b) as &dyn PointQuery, None)
                    .ok()
                    .map(|est| est.value.to_bits());
                assert_eq!(
                    now, *want,
                    "seed {seed}: a published snapshot changed after publication"
                );
            }
        }
    }
    assert!(
        plans_exercised >= 20,
        "only {plans_exercised} of 25 fault plans ran"
    );
}
