//! The four workloads and what they share: seeded input generation, the
//! per-pass record, the memory window, the answer-error evaluator and the
//! output checks.

pub mod dense;
pub mod mwem;
pub mod online;
pub mod serve;

use crate::trace::Tracer;
use pmw_convex::Objective;
use pmw_core::{OnlinePmw, StateBackend};
use pmw_data::{Dataset, PointMatrix, PointSource};
use pmw_dp::{Accountant, PrivacyBudget};
use pmw_erm::ErmOracle;
use pmw_losses::catalog::{random_classification_tasks, random_regression_tasks};
use pmw_losses::traits::minimize_weighted;
use pmw_losses::{CmLoss, LinearQueryLoss, LinkFn, PointPredicate, WeightedObjective};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One workload: everything it needs is generated from the seed when it is
/// made; each [`Workload::pass`] then builds the program from those inputs
/// and drives it once through the whole query stream.
pub trait Workload {
    /// Run pass `pass`, traced when `tracer` is given. Passes with the
    /// same index draw the same program randomness, traced or not.
    fn pass(&mut self, pass: u64, tracer: Option<&Arc<Tracer>>) -> Pass;

    /// Fill `out.errors` from the answers of pass `pass`. Kept apart from
    /// [`Workload::pass`] so that only the runs that report errors pay for
    /// the reference solves, and so that the evaluator's memory is
    /// allocated after the pass's memory window has closed.
    fn score(&mut self, pass: u64, out: &mut Pass);

    /// Build the program from the inputs once more, untraced, and tear it
    /// down again; returns the build time in seconds. `rep` picks the
    /// program's randomness.
    fn setup(&mut self, rep: u64) -> f64;

    /// True when one caller drives the program, so a traced pass must
    /// reproduce the untraced answers bit-for-bit.
    fn sequential(&self) -> bool;
}

/// Fresh inputs for every pass: pass `p` runs the workload made from
/// input set `p` of the seed, and a traced pass reuses the inputs of the
/// untraced pass with the same index. A run's medians then average over
/// as many input sets as it has passes instead of resting on one, so the
/// seed moves them less. Set-up is timed on whichever input set is
/// loaded. Only one input set is resident at a time: the old one is
/// dropped before the next is made.
pub struct FreshInputs<W> {
    seed: u64,
    make: fn(u64, u64) -> W,
    current: Option<(u64, W)>,
    sequential: bool,
}

impl<W: Workload> FreshInputs<W> {
    pub fn new(seed: u64, make: fn(u64, u64) -> W) -> Self {
        let first = make(seed, 0);
        Self {
            seed,
            make,
            sequential: first.sequential(),
            current: Some((0, first)),
        }
    }

    fn at(&mut self, index: u64) -> &mut W {
        if self.current.as_ref().map(|c| c.0) != Some(index) {
            self.current = None;
            self.current = Some((index, (self.make)(self.seed, index)));
        }
        &mut self.current.as_mut().expect("just made").1
    }
}

impl<W: Workload> Workload for FreshInputs<W> {
    fn pass(&mut self, pass: u64, tracer: Option<&Arc<Tracer>>) -> Pass {
        self.at(pass).pass(pass, tracer)
    }

    fn score(&mut self, pass: u64, out: &mut Pass) {
        self.at(pass).score(pass, out)
    }

    fn setup(&mut self, rep: u64) -> f64 {
        self.current
            .as_mut()
            .expect("an input set is loaded")
            .1
            .setup(rep)
    }

    fn sequential(&self) -> bool {
        self.sequential
    }
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the answer phase (setup excluded).
    pub wall_s: f64,
    /// Per-answer latency, one sample per answered or failed request.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Answers completed (⊥ and ⊤).
    pub answered: u64,
    /// ⊤ rounds: answers that cost an oracle call and an update slot.
    pub updates: u64,
    /// Peak resident memory of the process while the pass's program was
    /// built and answered, in MB (see [`RssWindow`]).
    pub peak_rss_mb: f64,
    /// Resident memory when the pass's window opened, before the program
    /// was built, in MB.
    pub base_rss_mb: f64,
    /// `serve-read` only: the share of requests that repeat a query.
    pub repeat_share: Option<f64>,
    /// Per-answer error, in loss units; filled by [`Workload::score`].
    pub errors: Vec<f64>,
    /// The released answers in request order, empty for a failed request.
    /// On `mwem-release` one entry holds the whole release.
    pub answers: Vec<Vec<f64>>,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Per-layer figures that come from the program's own records
    /// rather than from spans (serving stats, privacy spend).
    pub layer_extra: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// The memory window of one pass. [`RssWindow::open`] hands freed heap
/// back to the system and resets the kernel's resident-memory high-water
/// mark (`VmHWM`) to the current resident size; [`RssWindow::close`] reads
/// the mark. Opened before the program is built and closed right after the
/// answer phase, the window's peak is the resident inputs plus what the
/// program itself holds at its largest, and not what the benchmark
/// allocates before or after it.
pub struct RssWindow {
    base_mb: f64,
    reset: bool,
}

impl RssWindow {
    pub fn open() -> Self {
        crate::heap::trim();
        // `5` resets the high-water mark (proc(5), /proc/pid/clear_refs).
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        Self {
            base_mb: status_mb("VmRSS:"),
            reset,
        }
    }

    pub fn close(self, out: &mut Pass) {
        out.peak_rss_mb = status_mb("VmHWM:");
        out.base_rss_mb = self.base_mb;
        out.check(self.reset, || {
            "the memory high-water mark could not be reset: peak_rss_mb covers the whole process"
                .to_string()
        });
    }
}

/// A field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: a well-mixed 64-bit stream id from a few integers.
pub fn mix(parts: &[u64]) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        z ^= p;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// The generator of one named stream of the input set `index` of `seed`.
pub fn input_rng(seed: u64, index: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(&[seed, 0x1A9E, index, stream]))
}

/// The program's randomness for set-up repetition `rep` of `seed`.
pub fn setup_rng(seed: u64, rep: u64) -> StdRng {
    StdRng::seed_from_u64(mix(&[seed, 0x5E7, rep]))
}

/// The program's randomness for pass `pass` of `seed`: pool draws,
/// sparse-vector and oracle noise.
pub fn pass_rng(seed: u64, pass: u64) -> StdRng {
    StdRng::seed_from_u64(mix(&[seed, 0x9A55, pass]))
}

/// `n` rows of a `bits`-bit cube: uniform, except that each bit in
/// `skewed` is set with probability 0.9. Drawn through the row index, so
/// generation is `O(n)` at any `|X|`.
pub fn skewed_cube_rows(bits: usize, skewed: &[usize], n: usize, rng: &mut StdRng) -> Dataset {
    let size = 1usize << bits;
    let rows = (0..n)
        .map(|_| {
            let mut x = rng.random_range(0..size);
            for &b in skewed {
                if rng.random::<f64>() < 0.9 {
                    x |= 1 << b;
                } else {
                    x &= !(1 << b);
                }
            }
            x
        })
        .collect();
    Dataset::from_indices(size, rows).expect("rows lie in the cube")
}

/// A shuffled CM query stream over `dim`-dimensional points: a third
/// squared-loss regression tasks, a third logistic classification tasks,
/// a third linear queries built by `linear(j)`.
pub fn mixed_stream(
    dim: usize,
    k: usize,
    rng: &mut StdRng,
    mut linear: impl FnMut(usize, &mut StdRng) -> LinearQueryLoss,
) -> Vec<Arc<dyn CmLoss>> {
    let thirds = k / 3;
    let regression = random_regression_tasks(dim, thirds, LinkFn::Squared, rng).expect("tasks");
    let classification =
        random_classification_tasks(dim, thirds, LinkFn::Logistic, rng).expect("tasks");
    let mut stream: Vec<Arc<dyn CmLoss>> = Vec::with_capacity(k);
    stream.extend(
        regression
            .into_iter()
            .map(|l| Arc::new(l) as Arc<dyn CmLoss>),
    );
    stream.extend(
        classification
            .into_iter()
            .map(|l| Arc::new(l) as Arc<dyn CmLoss>),
    );
    for j in 0..k - 2 * thirds {
        stream.push(Arc::new(linear(j, rng)));
    }
    // Fisher–Yates, so the three kinds interleave.
    for i in (1..stream.len()).rev() {
        let j = rng.random_range(0..i + 1);
        stream.swap(i, j);
    }
    stream
}

/// `width` distinct random coordinates of a `dim`-bit cube, sorted.
pub fn random_coords(dim: usize, width: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut coords: Vec<usize> = Vec::with_capacity(width);
    while coords.len() < width {
        let c = rng.random_range(0..dim);
        if !coords.contains(&c) {
            coords.push(c);
        }
    }
    coords.sort_unstable();
    coords
}

/// The conjunction of `coords` of a `dim`-bit cube.
pub fn conjunction(dim: usize, coords: Vec<usize>) -> LinearQueryLoss {
    LinearQueryLoss::new(PointPredicate::Conjunction { coords }, dim).expect("valid conjunction")
}

/// A conjunction of `width` distinct random coordinates of a bit cube.
pub fn random_conjunction(dim: usize, width: usize, rng: &mut StdRng) -> LinearQueryLoss {
    conjunction(dim, random_coords(dim, width, rng))
}

/// Excess empirical risk `ℓ(θ; D) − min ℓ(·; D)` of released answers,
/// evaluated over the dataset's support rows. The minimum is solved once
/// per distinct query and the risk once per distinct (query, answer), so
/// a query asked again costs a lookup.
pub struct RiskEval {
    points: PointMatrix,
    weights: Vec<f64>,
    solver_iters: usize,
    minimum: HashMap<usize, f64>,
    seen: HashMap<(usize, Vec<u64>), f64>,
}

impl RiskEval {
    pub fn new(
        dataset: &Dataset,
        source: &(impl PointSource + ?Sized),
        solver_iters: usize,
    ) -> Self {
        let (points, weights) = dataset.support_points(source).expect("support rows");
        Self {
            points,
            weights,
            solver_iters,
            minimum: HashMap::new(),
            seen: HashMap::new(),
        }
    }

    /// Excess risk of `theta` on query number `index` of the stream.
    pub fn excess(&mut self, index: usize, loss: &dyn CmLoss, theta: &[f64]) -> f64 {
        let key = (index, theta.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        if let Some(&e) = self.seen.get(&key) {
            return e;
        }
        let objective =
            WeightedObjective::new(loss, &self.points, &self.weights).expect("support objective");
        let (points, weights, iters) = (&self.points, &self.weights, self.solver_iters);
        let minimum = *self.minimum.entry(index).or_insert_with(|| {
            let best = minimize_weighted(loss, points, weights, iters).expect("reference solve");
            objective.value(&best)
        });
        let excess = (objective.value(theta) - minimum).max(0.0);
        self.seen.insert(key, excess);
        excess
    }
}

/// Checks every online mechanism must pass after its stream: the ledger
/// stays within the declared (ε, δ), and the mechanism's update counter,
/// its transcript's ⊤ rounds and the ledger's oracle entries agree.
///
/// The ledger is composed the way Theorem 3.9 splits the budget: the
/// sparse-vector entry as recorded, plus the oracle entries under the
/// better of basic and strong composition at slack δ/4. (Strong
/// composition of the whole ledger at once would treat every oracle call
/// at the sparse vector's ε/2.)
pub fn check_online<O: ErmOracle, B: StateBackend>(mech: &OnlinePmw<O, B>, pass: &mut Pass) {
    let declared = mech.config().budget;
    let (mut oracle, mut rest) = (Accountant::new(), Accountant::new());
    for e in mech.accountant().entries() {
        let ledger = if e.label == "erm-oracle" {
            &mut oracle
        } else {
            &mut rest
        };
        ledger.spend(e.label.clone(), e.budget);
    }
    let part =
        |total: Result<PrivacyBudget, _>| total.map_or((0.0, 0.0), |b| (b.epsilon(), b.delta()));
    let (eps_rest, delta_rest) = part(rest.basic_total());
    let (eps_oracle, delta_oracle) = part(oracle.best_total(declared.delta() / 4.0));
    let (eps, delta) = (eps_rest + eps_oracle, delta_rest + delta_oracle);
    pass.check(
        eps <= declared.epsilon() * (1.0 + 1e-9) && delta <= declared.delta() * (1.0 + 1e-9),
        || format!("ledger spent (ε={eps}, δ={delta}), over the declared {declared:?}"),
    );
    let used = mech.updates_used();
    let transcript_tops = mech.transcript().updates();
    let oracle_entries = mech
        .accountant()
        .entries()
        .iter()
        .filter(|e| e.label == "erm-oracle")
        .count();
    pass.check(used == transcript_tops && used == oracle_entries, || {
        format!(
            "updates_used={used}, transcript ⊤ rounds={transcript_tops}, \
             ledger oracle entries={oracle_entries} disagree"
        )
    });
    pass.layer_extra.insert("dp.eps_spent", eps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_window_sees_what_the_pass_holds() {
        let mut out = Pass::default();
        let window = RssWindow::open();
        let held = std::hint::black_box(vec![1u8; 64 << 20]);
        window.close(&mut out);
        drop(std::hint::black_box(held));
        assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
        let grew = out.peak_rss_mb - out.base_rss_mb;
        assert!(grew >= 60.0, "a 64 MB buffer raised the peak by {grew} MB");

        // A new window starts from the current size, not the old peak.
        let mut next = Pass::default();
        RssWindow::open().close(&mut next);
        let grew = next.peak_rss_mb - next.base_rss_mb;
        assert!(grew < 8.0, "an empty window rose by {grew} MB");
    }

    #[test]
    fn fresh_inputs_load_one_set_per_index() {
        struct Probe(u64);
        impl Workload for Probe {
            fn pass(&mut self, _: u64, _: Option<&Arc<Tracer>>) -> Pass {
                Pass {
                    attempted: self.0,
                    ..Pass::default()
                }
            }
            fn score(&mut self, _: u64, out: &mut Pass) {
                out.errors.push(self.0 as f64);
            }
            fn setup(&mut self, _: u64) -> f64 {
                self.0 as f64
            }
            fn sequential(&self) -> bool {
                true
            }
        }
        let mut inputs = FreshInputs::new(7, |seed, index| Probe(seed * 100 + index));
        assert_eq!(inputs.setup(0), 700.0);
        let mut pass = inputs.pass(3, None);
        assert_eq!(pass.attempted, 703);
        inputs.score(3, &mut pass);
        assert_eq!(pass.errors, vec![703.0]);
        // Set-up runs on the loaded set.
        assert_eq!(inputs.setup(1), 703.0);
    }
}
