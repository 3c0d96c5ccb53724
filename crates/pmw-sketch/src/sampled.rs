//! [`SampledBackend`]: the Monte-Carlo sketch of the MW state — per-round
//! cost independent of `|X|`.
//!
//! The backend keeps a **pool** of `m` universe indices drawn uniformly
//! (i.i.d., with replacement) at construction, their points cached in one
//! flat matrix, and their unnormalized log-weights maintained
//! *incrementally*: recording a round updates `m` cached values in
//! `O(m·d)` — not `O(|X|)`, and not even `O(m·t)`, because the log-weight
//! of a pooled point never has to be recomputed from the log.
//!
//! The pool — indices, points, log-weights and the flags every read needs
//! — is declared once, in a crate-private struct shared through an `Arc`
//! by the backend, every published [`SampledSnapshot`] and the rollback
//! checkpoint of the round in flight. Publishing and checkpointing are
//! therefore `O(1)`; a recorded round copies the pool (copy on write) only
//! while another holder still reads it.
//!
//! Reads are importance-sampling estimates against the uniform proposal;
//! every estimate runs on a [`SampledSnapshot`], never on the live backend:
//!
//! * **certificate means** `⟨u, D̂_t⟩` via self-normalized importance
//!   sampling, certified by the **minimum of three** concentration bounds
//!   evaluated in the same `O(m)` pass (the configured `β` is split
//!   across the candidates, so claiming the minimum is still a valid
//!   `1 − β` claim, and the ledger records which bound won):
//!   1. the worst-case **drift-envelope Hoeffding** bound
//!      (`|log w(x)| ≤ Σ_t η_t·S_t`, so `w(x) ∈ [e^{−c}, e^{c}]` and
//!      Hoeffding applies to both the numerator and the normalizer) —
//!      computable before any sample is drawn, but measured orders of
//!      magnitude above the realized error once the log has drifted;
//!   2. the **effective-sample-size** bound: Hoeffding at the pool's
//!      realized `ESS = (Σw)²/Σw²` with the *integrand's* range `2·S`,
//!      replacing the worst-case envelope with the weight spread the pool
//!      actually exhibits;
//!   3. the **empirical-Bernstein** (Maurer–Pontil) bound on the
//!      delta-method variance `Σ ŵ_i²(u_i − û)²` of the self-normalized
//!      ratio — the realized variance of the read, which also collapses
//!      when the integrand barely varies over the pool;
//! * **max payoffs** `max_x u_t(x)` as the pool maximum plus the quantile
//!   coverage bound `(1−q)^m ≤ β` — the returned value misses at most a
//!   `q = ln(1/β)/m` *uniform-mass* fraction of the universe, with
//!   probability `≥ 1 − β`;
//! * **samples** from `D̂_t` by Gumbel-max over the cached pool
//!   log-weights (exact for the pool-conditioned distribution; exact for
//!   `D̂_t` itself when the pool is exhaustive).
//!
//! When `budget ≥ |X|` the pool silently becomes the whole universe
//! (each index once) and every "estimate" is exact with radius 0 — which is
//! also how the backend plugs into [`OnlinePmw`](pmw_core::OnlinePmw) as a
//! drop-in replacement for the dense backend in tests.
//!
//! Every estimate's claimed bound is recorded in a
//! [`SamplingAccountant`] ledger, alongside — not inside — the privacy
//! accountant: sampling public state is free in privacy but not in
//! accuracy.

use crate::error::SketchError;
use crate::health::PoolHealth;
use crate::log::{CompactionPolicy, RoundUpdate, UpdateLog};
use crate::source::PointSource;
use pmw_core::update::dual_certificate_at;
use pmw_core::{BackendEvent, MeanFn, PmwError, QueryEstimate, ReadSnapshot, StateBackend};
use pmw_data::par::{plan_fold, plan_fold_mut, plan_for_each_mut, ChunkPlan};
use pmw_data::{gumbel_max_index, PointMatrix, PointQuery};
use pmw_dp::{
    compaction_fold_radius, effective_sample_size, empirical_bernstein_radius, ess_radius,
    hoeffding_radius, uncovered_mass_bound, RadiusBound, SamplingAccountant,
};
use pmw_losses::traits::minimize_weighted;
use pmw_losses::CmLoss;
use pmw_obs::{Counter, Gauge, NoopProbe, Phase, Probe};
use rand::{Rng, RngExt};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock the shared sampling ledger, recovering from a poisoned mutex: the
/// ledger is append-only plain data, so a panic mid-`record` cannot leave
/// it logically inconsistent.
fn lock_ledger(ledger: &Mutex<SamplingAccountant>) -> MutexGuard<'_, SamplingAccountant> {
    ledger
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Configuration of the Monte-Carlo sketch.
#[derive(Debug, Clone, Copy)]
pub struct SampledConfig {
    /// Pool size `m` (Monte-Carlo sample budget). Budgets at or above the
    /// universe size degrade gracefully to exhaustive (exact) state.
    pub budget: usize,
    /// Per-estimate failure probability of the claimed confidence bounds.
    pub beta: f64,
    /// **Drift-aware pool refresh**: redraw the whole pool every this many
    /// recorded rounds (`0` = never, the default). A reused pool makes
    /// successive round estimates *correlated* — the same sampling noise
    /// appears in every round's estimate — and increasingly mismatched
    /// with the drifting hypothesis; refreshing re-draws `m` fresh
    /// candidates and re-evaluates each from the retained update log in
    /// `O(t·d)` (the `LazyLogBackend` evaluation engine), restoring
    /// independence at `O(m·t·d)` per refresh. Exhaustive pools never
    /// resample.
    pub resample_every: usize,
    /// **Health-aware pool refresh**: after each recorded round, refresh
    /// the pool whenever the measured effective-sample-size *fraction*
    /// `ESS/m` falls below this floor — degradation-triggered, not
    /// calendar-triggered like [`SampledConfig::resample_every`]. Must lie
    /// in `[0, 1)`.
    ///
    /// The default is `0.0` (**disabled**), deliberately: an adaptive
    /// refresh consumes `m` extra RNG draws at a data-dependent time, so
    /// any nonzero default would silently change the random stream — and
    /// therefore the answers — of every existing configuration. The
    /// workspace's dense/exhaustive parity suites pin that stream
    /// bit-for-bit; turning the floor on is an explicit per-run opt-in.
    /// `0.1`–`0.3` are sensible operating points (refresh once fewer than
    /// 10–30% of the pool still effectively contributes).
    pub ess_floor: f64,
    /// **Escalation threshold**: after each recorded round, if the
    /// backend's claimed read radius (at the round's payoff scale) exceeds
    /// this value, the escalation ladder runs — emergency resample, then
    /// pool growth up to [`SampledConfig::growth_cap`], then a loud
    /// [`SketchError::Degraded`] — instead of letting later reads serve
    /// silently useless answers. Must be positive; `f64::INFINITY`
    /// (the default) disables the ladder.
    pub max_usable_radius: f64,
    /// **Pool-growth cap** for escalation rung 2: the pool may double up
    /// to this many candidates (values at or below `budget` — including
    /// the default `0` — disable growth). Growing to the universe size
    /// degrades gracefully all the way to an exhaustive (exact) pool.
    pub growth_cap: usize,
    /// **Log compaction**: when to fold old rounds into a log-weight
    /// checkpoint ([`CompactionPolicy`]). [`CompactionPolicy::Never`]
    /// (the default) preserves the historical full-replay behavior
    /// bit-for-bit; `EveryK(k)` bounds every refresh replay to at most
    /// `k` retained rounds, making per-round cost flat in `t` for
    /// unbounded-round serving. A fold is lossless for pool points pinned
    /// in the checkpoint panel; fresh candidates drawn after a fold pay a
    /// deterministic, ledgered bias bound
    /// ([`pmw_dp::compaction_fold_radius`]) that widens every later read
    /// radius.
    pub compaction: CompactionPolicy,
}

impl Default for SampledConfig {
    fn default() -> Self {
        Self {
            budget: 1024,
            beta: 1e-6,
            resample_every: 0,
            ess_floor: 0.0,
            max_usable_radius: f64::INFINITY,
            growth_cap: 0,
            compaction: CompactionPolicy::Never,
        }
    }
}

/// A sketched mean estimate with its claimed confidence radius: the true
/// value lies within `value ± radius` except with probability `beta`
/// (radius 0 and beta 0 when the pool is exhaustive).
///
/// `radius` is the minimum over the three candidate bounds (see the
/// module docs) and is always finite on non-exhaustive pools — the
/// effective-sample-size candidate exists for every pool, even when the
/// drift envelope alone would certify nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Self-normalized importance-sampling estimate.
    pub value: f64,
    /// Claimed deviation bound: the minimum over the candidate bounds.
    pub radius: f64,
    /// Failure probability of the claim.
    pub beta: f64,
    /// Which concentration bound produced `radius`.
    pub bound: RadiusBound,
    /// The worst-case drift-envelope Hoeffding radius alone (the bound
    /// every estimate claimed before the variance-adaptive candidates
    /// existed; may be `f64::INFINITY` when the envelope certifies
    /// nothing) — kept alongside so calibration benches can report the
    /// envelope-vs-adaptive ratio. `0` on exhaustive pools.
    pub envelope_radius: f64,
}

/// A sketched maximum: `value` is the exact maximum over the pool, and the
/// universe's uniform-mass fraction with payoffs above `value` is at most
/// `uncovered_mass`, except with probability `beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxEstimate {
    /// Maximum payoff over the pool (a lower bound on the true maximum).
    pub value: f64,
    /// Uniform-mass fraction possibly exceeding `value`.
    pub uncovered_mass: f64,
    /// Failure probability of the coverage claim.
    pub beta: f64,
}

/// Chunk grain for pool-axis sweeps. It fixes the pool's reduction order:
/// 256 splits the default 2048-candidate pools eight ways while leaving
/// every ≤256-budget test pool a single chunk (whose accumulation order is
/// unchanged from the historical sequential sweep).
const POOL_GRAIN: usize = 256;

/// The SNIS accumulator of one moment sweep: the estimate Σŵ·f plus the
/// weight/value second moments (Σŵ², Σŵ²f, Σŵ²f²) the adaptive bounds read.
/// Merging is elementwise addition, applied strictly in chunk order.
#[derive(Debug, Clone, Copy, Default)]
struct MomentAcc {
    value: f64,
    w_sq: f64,
    w_sq_f: f64,
    w_sq_f_sq: f64,
}

impl MomentAcc {
    fn merge(self, other: Self) -> Self {
        Self {
            value: self.value + other.value,
            w_sq: self.w_sq + other.w_sq,
            w_sq_f: self.w_sq_f + other.w_sq_f,
            w_sq_f_sq: self.w_sq_f_sq + other.w_sq_f_sq,
        }
    }
}

/// One chunk of the SNIS moment sweep: evaluate `f` on every
/// positive-weight slot of the block (slots are global: `offset + i`) and
/// accumulate the four moments in slot order.
fn chunk_moments<E>(
    offset: usize,
    block: &[f64],
    dim: usize,
    w: &[f64],
    f: &mut impl FnMut(usize, &[f64]) -> Result<f64, E>,
) -> Result<MomentAcc, E> {
    let mut acc = MomentAcc::default();
    for (i, (point, wi)) in block.chunks_exact(dim).zip(w).enumerate() {
        if *wi > 0.0 {
            let fv = f(offset + i, point)?;
            acc.value += wi * fv;
            acc.w_sq += wi * wi;
            acc.w_sq_f += wi * wi * fv;
            acc.w_sq_f_sq += wi * wi * fv * fv;
        }
    }
    Ok(acc)
}

/// Replay the log at every candidate — universe index `indices[i]`, its
/// point in row `i` of the row-major `flat` — into `log_w`. Returns the
/// lossy-fold distortion bound the replayed values carry (see
/// [`Pool::missing_drift`]): the newest checkpoint's `missing_drift` when
/// every candidate hit the checkpoint panel, the full folded drift when any
/// replayed unseeded. On error the first failing candidate wins.
fn replay_candidates(
    log: &UpdateLog,
    flat: &[f64],
    dim: usize,
    indices: &[usize],
    log_w: &mut [f64],
) -> Result<f64, SketchError> {
    let mut grad = Vec::new();
    let mut any_unseeded = false;
    for ((slot, row), &idx) in log_w.iter_mut().zip(flat.chunks_exact(dim)).zip(indices) {
        let (lw, seeded) = log.log_weight_seeded(idx, row, &mut grad)?;
        *slot = lw;
        any_unseeded |= !seeded;
    }
    Ok(if any_unseeded {
        log.folded_drift()
    } else {
        log.checkpoint().map_or(0.0, |c| c.missing_drift())
    })
}

/// Materialize the points of the universe indices `indices` from `source`
/// into one validated row-major matrix, after the rows already in `prefix`
/// (empty for a fresh pool).
#[inline]
fn materialize<S: PointSource>(
    source: &S,
    prefix: &[f64],
    indices: &[usize],
) -> Result<PointMatrix, SketchError> {
    let dim = source.dim();
    let mut flat = vec![0.0; prefix.len() + indices.len() * dim];
    let (head, tail) = flat.split_at_mut(prefix.len());
    head.copy_from_slice(prefix);
    for (row, &idx) in tail.chunks_exact_mut(dim).zip(indices) {
        source.write_point(idx, row);
    }
    PointMatrix::from_flat(flat, dim)
        .map_err(|_| SketchError::NonFinite("point source produced invalid points"))
}

/// The sampled `D̂_t`: the pool of `m` candidates and everything a read
/// needs to know about them, declared once. The backend, every published
/// [`SampledSnapshot`] and the rollback checkpoint of the round in flight
/// share it through an `Arc`, so publishing and checkpointing are `O(1)`;
/// [`SampledBackend::record`] writes through [`Arc::make_mut`], which
/// copies the pool only while another holder still reads it, and resample,
/// growth and rollback replace it wholesale.
#[derive(Debug, Clone)]
struct Pool {
    /// Universe index of each candidate.
    indices: Vec<usize>,
    /// The candidates' points, row `i` for slot `i`. Shared (`Arc`) so the
    /// copy-on-write clone of a recorded round leaves them in place.
    points: Arc<PointMatrix>,
    /// Unnormalized log-weight of each candidate.
    log_w: Vec<f64>,
    /// True when the pool enumerates the whole universe (exact mode).
    exhaustive: bool,
    /// Distortion bound (log-weight) the cached values carry from lossy
    /// compaction folds: `0` until a fold happens, then the newest
    /// checkpoint's `missing_drift` when the pool replays from its own
    /// panel, or the full folded drift when any pool point missed the
    /// panel. Every estimate and read margin widens by
    /// [`compaction_fold_radius`] of it.
    missing_drift: f64,
    /// The pool's fixed chunk layout — a function of `(pool size,
    /// POOL_GRAIN)` only — shared by every reduction (SNIS normalizer,
    /// moments, read radius) so they all run in the same chunk order.
    plan: ChunkPlan,
}

impl Pool {
    fn new(
        indices: Vec<usize>,
        points: PointMatrix,
        log_w: Vec<f64>,
        exhaustive: bool,
        missing_drift: f64,
    ) -> Self {
        let plan = ChunkPlan::with_grain(indices.len(), POOL_GRAIN);
        Self {
            indices,
            points: Arc::new(points),
            log_w,
            exhaustive,
            missing_drift,
            plan,
        }
    }
}

/// A published, immutable read view of the sketched MW state — the
/// [`ReadSnapshot`] through which the mechanisms, concurrent readers and
/// the backend itself read a [`SampledBackend`], and the one place its
/// estimators live.
///
/// Publishing is `O(1)`: the snapshot shares the backend's pool (`Arc`),
/// and the backend copies the pool before writing to it while any
/// snapshot still holds it. Writer-side faults after publication (failed
/// rounds, rollbacks, poisoning, pool corruption) can therefore never
/// reach an already-published snapshot. The sampling ledger is **shared**
/// (`Arc`) with the backend too: concentration claims made by snapshot
/// reads land in the same union-bound record as the backend's own
/// maintenance entries, in arrival order, so the accuracy accounting stays
/// complete no matter which reader made the claim.
#[derive(Debug, Clone)]
pub struct SampledSnapshot {
    pool: Arc<Pool>,
    drift_bound: f64,
    beta: f64,
    max_usable_radius: f64,
    universe_size: usize,
    dim: usize,
    updates: usize,
    ledger: Arc<Mutex<SamplingAccountant>>,
}

impl SampledSnapshot {
    /// Pool size `m` at publish time.
    pub fn pool_size(&self) -> usize {
        self.pool.indices.len()
    }

    /// True when the frozen pool enumerates the whole universe.
    pub fn is_exhaustive(&self) -> bool {
        self.pool.exhaustive
    }

    /// Estimate the certificate expectation `⟨u, D̂_t⟩` for the payoff
    /// `u(x) = ⟨θ_oracle − θ_hyp, ∇ℓ_x(θ_hyp)⟩` (clamped to `±S`), with a
    /// concentration radius at the configured `beta`. Ledgered as
    /// `"certificate-mean"`.
    pub fn certificate_mean(
        &self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
    ) -> Result<Estimate, SketchError> {
        if loss.point_dim() != self.dim {
            return Err(SketchError::DimensionMismatch {
                got: loss.point_dim(),
                expected: self.dim,
            });
        }
        let scale = loss.scale_bound();
        let mut grad = vec![0.0; loss.dim()];
        self.estimate("certificate-mean", scale, |_slot, point| {
            dual_certificate_at(loss, point, theta_oracle, theta_hyp, &mut grad)
                .map_err(|_| SketchError::NonFinite("certificate payoff"))
        })
    }

    /// Sketch of `max_x u(x)`: the exact maximum over the pool, plus the
    /// uniform-mass coverage bound (see the module docs). Exhaustive pools
    /// return the true maximum with `uncovered_mass = 0`. Ledgered as
    /// `"max-payoff"`.
    pub fn max_payoff(
        &self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
    ) -> Result<MaxEstimate, SketchError> {
        if loss.point_dim() != self.dim {
            return Err(SketchError::DimensionMismatch {
                got: loss.point_dim(),
                expected: self.dim,
            });
        }
        // Max over the pool: payoffs are per-element and max is
        // associative, so no chunking is needed; the first error wins.
        let mut grad = vec![0.0; loss.dim()];
        let mut value = f64::NEG_INFINITY;
        for point in self.pool.points.iter() {
            let u = dual_certificate_at(loss, point, theta_oracle, theta_hyp, &mut grad)
                .map_err(|_| SketchError::NonFinite("certificate payoff"))?;
            value = value.max(u);
        }
        let (uncovered, beta, bound) = if self.pool.exhaustive {
            (0.0, 0.0, RadiusBound::Exact)
        } else {
            (
                uncovered_mass_bound(self.pool_size(), self.beta)
                    .map_err(|_| SketchError::InvalidParameter("beta"))?,
                self.beta,
                RadiusBound::Coverage,
            )
        };
        lock_ledger(&self.ledger).record("max-payoff", self.pool_size(), uncovered, beta, bound);
        Ok(MaxEstimate {
            value,
            uncovered_mass: uncovered,
            beta,
        })
    }

    /// Normalized self-normalized-importance-sampling weights of the pool
    /// (softmax of the cached log-weights) plus the shifted normalizer
    /// mean `B̂' = (1/m)Σ exp(log w_i − shift)` and the shift itself.
    fn snis(&self) -> (Vec<f64>, f64, f64) {
        let (plan, log_w) = (self.pool.plan, &self.pool.log_w);
        // Chunked max (associative, so chunking cannot change the result),
        // then a fused exp-and-sum pass whose partial sums combine in the
        // plan's fixed chunk order, then an elementwise normalize.
        let shift = plan_fold(
            plan,
            log_w,
            |_, chunk| chunk.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
            f64::max,
        );
        let mut w = vec![0.0; log_w.len()];
        let total = plan_fold_mut(
            plan,
            &mut w,
            |offset, chunk| {
                let mut sum = 0.0;
                for (v, &lw) in chunk.iter_mut().zip(&log_w[offset..]) {
                    *v = (lw - shift).exp();
                    sum += *v;
                }
                sum
            },
            |a, b| a + b,
        );
        debug_assert!(total > 0.0 && total.is_finite());
        let mean_shifted = total / w.len() as f64;
        plan_for_each_mut(plan, &mut w, |_, chunk| {
            for v in chunk {
                *v /= total;
            }
        });
        (w, mean_shifted, shift)
    }

    /// The drift-envelope ratio bound shared by every estimate and read
    /// margin, so the numerically delicate formula exists exactly once:
    /// `w(x) ∈ [e^{−c}, e^{c}]`, Hoeffding on the shifted numerator mean
    /// (range `2·scale·e^{c−shift}`) and the shifted normalizer mean
    /// (range `e^{c−shift}`), each at `beta_each`, combined through the
    /// standard ratio bound `(ε_A + scale·ε_B)/B̂` with `B̂ = e^shift·B̂'`.
    fn envelope_radius(&self, scale: f64, beta_each: f64, shift: f64, mean_shifted: f64) -> f64 {
        let m = self.pool_size();
        let c = self.drift_bound;
        match (
            hoeffding_radius(2.0 * scale, m, beta_each),
            hoeffding_radius(1.0, m, beta_each),
        ) {
            (Ok(ha), Ok(hb)) => {
                let scale_up = (c - shift).exp(); // e^c / e^shift
                (ha * scale_up + scale * hb * scale_up) / mean_shifted
            }
            _ => f64::INFINITY,
        }
    }

    /// Self-normalized importance-sampling estimate of
    /// `⟨f, D̂_t⟩ = Σ_x D̂_t(x)·f(x)` for a per-point function bounded by
    /// `|f| ≤ scale`, with its concentration radius, ledgered under
    /// `label`. The closure receives the pool **slot** alongside the
    /// point, so index-route evaluations (dense queries) can look up the
    /// slot's universe index. Generic over the error type so the public
    /// reads keep surfacing [`SketchError`] while [`ReadSnapshot`] reads
    /// surface [`PmwError`] directly.
    ///
    /// The radius is the minimum of the drift-envelope Hoeffding bound and
    /// the two variance-adaptive bounds (effective-sample-size and
    /// empirical-Bernstein), with the configured `β` split across the
    /// candidates (envelope `β/2`, each adaptive `β/4`), so the post-hoc
    /// minimum claims no more confidence than its weakest member. Honesty
    /// caveat, stated plainly: the envelope candidate is a finite-sample
    /// theorem, while the two adaptive candidates apply their bounds at a
    /// *realized* (data-driven) effective sample size and delta-method
    /// variance — standard practice for self-normalized importance
    /// sampling, but an approximation, not a theorem. Their calibration is
    /// what the workspace's drift-regime × budget coverage tests and the
    /// `exp_sublinear` claimed-vs-realized columns measure empirically.
    /// The weight and value second moments both adaptive bounds need are
    /// accumulated inside the single `O(m)` value pass — no extra sweep.
    /// The claimed radius is always finite on non-exhaustive pools (the
    /// ESS candidate exists even when the drift envelope certifies
    /// nothing) and provably never exceeds the envelope-only bound.
    ///
    /// The moment sweep walks the plan's chunks in chunk order and stops at
    /// the first error.
    fn estimate<E: From<SketchError>>(
        &self,
        label: &'static str,
        scale: f64,
        mut f: impl FnMut(usize, &[f64]) -> Result<f64, E>,
    ) -> Result<Estimate, E> {
        let (w, mean_shifted, shift) = self.snis();
        let (plan, points) = (self.pool.plan, &self.pool.points);
        let mut acc: Option<MomentAcc> = None;
        for i in 0..plan.n_chunks() {
            let (lo, hi) = plan.bounds(i);
            let block = points.row_block(lo, hi);
            let part = chunk_moments(lo, block, points.dim(), &w[lo..hi], &mut f)?;
            acc = Some(match acc {
                None => part,
                Some(prev) => prev.merge(part),
            });
        }
        let MomentAcc {
            value,
            w_sq,
            w_sq_f,
            w_sq_f_sq,
        } = acc.unwrap_or_default();
        // Deterministic fold bias: pool weights distorted by up to
        // `missing_drift` in log-space shift any bounded mean by at most
        // 2·scale·tanh(missing_drift) — a sure (β-free) claim added on top
        // of whichever concentration bound wins. Exactly 0 when no lossy
        // fold has touched the pool, leaving those paths bit-for-bit.
        let fold = compaction_fold_radius(scale, self.pool.missing_drift);
        let (radius, beta, bound, envelope) = if scale <= 0.0 {
            // |f| ≤ 0 pins the statistic (and hence the estimate and the
            // true value) to exactly zero — no manufactured numerator
            // range, no radius, no failure probability.
            (0.0, 0.0, RadiusBound::Exact, 0.0)
        } else if self.pool.exhaustive {
            // Exhaustive pools are exact in sampling, but a pool rebuilt
            // across a lossy fold still carries the fold bias — claiming
            // radius 0 there would be dishonest.
            if fold > 0.0 {
                (fold, 0.0, RadiusBound::Fold, 0.0)
            } else {
                (0.0, 0.0, RadiusBound::Exact, 0.0)
            }
        } else {
            let beta = self.beta;
            // Candidate 1 (β/2, split again over numerator/normalizer):
            // the worst-case drift-envelope ratio bound.
            let envelope = self.envelope_radius(scale, beta / 4.0, shift, mean_shifted);
            // Candidate 2 (β/4): Hoeffding at the realized effective
            // sample size with the integrand's own range — the drift
            // envelope replaced by the weight spread the pool exhibits.
            // ŵ sums to 1, so ESS = 1/Σŵ².
            let ess = effective_sample_size(1.0, w_sq);
            let r_ess = ess_radius(2.0 * scale, ess, beta / 4.0).unwrap_or(f64::INFINITY);
            // Candidate 3 (β/4): empirical Bernstein on the delta-method
            // variance of the self-normalized ratio,
            // S² = Σ ŵ_i²·(f_i − value)², treated as the variance of one
            // effective draw out of ESS.
            let delta_var = (w_sq_f_sq - 2.0 * value * w_sq_f + value * value * w_sq).max(0.0);
            let r_eb = if ess > 1.0 {
                empirical_bernstein_radius(2.0 * scale, delta_var * ess, ess, beta / 4.0)
                    .unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            let (mut radius, bound) = if r_eb <= r_ess && r_eb <= envelope {
                (r_eb, RadiusBound::Bernstein)
            } else if r_ess <= envelope {
                (r_ess, RadiusBound::EffectiveSample)
            } else {
                (envelope, RadiusBound::Hoeffding)
            };
            // The fold bias is deterministic, so it adds to whichever
            // stochastic bound won (guarded to keep the uncompacted path
            // bit-for-bit identical).
            if fold > 0.0 {
                radius += fold;
            }
            (radius, beta, bound, envelope)
        };
        lock_ledger(&self.ledger).record(label, self.pool_size(), radius, beta, bound);
        // Loud read failure: a claim wider than the configured usable
        // threshold must not be served as if it were an answer. Never
        // fires at the default threshold (infinity).
        if radius > self.max_usable_radius {
            return Err(SketchError::Degraded(
                "estimate's claimed radius exceeds the usable threshold",
            )
            .into());
        }
        Ok(Estimate {
            value,
            radius,
            beta,
            bound,
            envelope_radius: envelope,
        })
    }

    /// The read margin at `scale` as `(radius, beta, bound)`, without the
    /// ledger entry; `None` when there is nothing to claim (zero scale, or
    /// an exhaustive pool no lossy fold has touched). On pooled state it is
    /// the minimum of the drift-envelope and effective-sample-size bounds
    /// (`β/2` each; no integrand in hand means no variance candidate),
    /// widened by the deterministic lossy-fold bias when the pool carries
    /// one.
    fn margin(&self, scale: f64) -> Option<(f64, f64, RadiusBound)> {
        if scale <= 0.0 || scale.is_nan() {
            return None;
        }
        // Lossy-fold bias is deterministic, so it widens whichever
        // concentration candidate wins (exactly 0 under
        // [`CompactionPolicy::Never`]).
        let fold = compaction_fold_radius(scale, self.pool.missing_drift);
        if self.pool.exhaustive {
            // Exact in sampling, but an exhaustive pool rebuilt across a
            // lossy fold still carries the deterministic fold bias.
            return (fold > 0.0).then_some((fold, 0.0, RadiusBound::Fold));
        }
        let beta = self.beta;
        let (w, mean_shifted, shift) = self.snis();
        let w_sq: f64 = plan_fold(
            self.pool.plan,
            &w,
            |_, chunk| chunk.iter().map(|v| v * v).sum::<f64>(),
            |a, b| a + b,
        );
        let envelope = self.envelope_radius(scale, beta / 4.0, shift, mean_shifted);
        // ŵ sums to 1, so ESS = 1/Σŵ².
        let ess = effective_sample_size(1.0, w_sq);
        let r_ess = ess_radius(2.0 * scale, ess, beta / 2.0).unwrap_or(f64::INFINITY);
        Some(if r_ess <= envelope {
            (r_ess + fold, beta, RadiusBound::EffectiveSample)
        } else {
            (envelope + fold, beta, RadiusBound::Hoeffding)
        })
    }
}

impl ReadSnapshot for SampledSnapshot {
    fn universe_size(&self) -> usize {
        self.universe_size
    }

    fn updates_recorded(&self) -> usize {
        self.updates
    }

    fn hypothesis_minimizer(
        &self,
        loss: &dyn CmLoss,
        _points: &PointMatrix,
        solver_iters: usize,
    ) -> Result<Vec<f64>, PmwError> {
        if loss.point_dim() != self.dim {
            return Err(PmwError::LossMismatch(
                "loss point dimension does not match point source",
            ));
        }
        // Minimize over the frozen pooled hypothesis: SNIS weights on the
        // frozen pool points. Exhaustive pools make this the exact dense
        // solve.
        let (weights, _, _) = self.snis();
        Ok(minimize_weighted(
            loss,
            &self.pool.points,
            &weights,
            solver_iters,
        )?)
    }

    /// SNIS estimate of the expected query value `⟨q, D̂_t⟩` over the pool
    /// (ledgered as `"query-mean"`): implicit queries evaluate on the
    /// cached pool points, dense queries on the cached pool indices. Exact
    /// (radius 0) on exhaustive pools untouched by lossy folds.
    fn expected_query_value(
        &self,
        query: &dyn PointQuery,
        _points: Option<&PointMatrix>,
    ) -> Result<QueryEstimate, PmwError> {
        crate::log::validate_query_shape(query, self.universe_size, self.dim)?;
        let (lo, hi) = query.value_bounds();
        let scale = lo.abs().max(hi.abs());
        let est = self.estimate::<PmwError>("query-mean", scale, |slot, point| {
            crate::log::query_value_at(query, self.pool.indices[slot], point)
                .map_err(PmwError::from)
        })?;
        Ok(QueryEstimate {
            value: est.value,
            radius: est.radius,
            beta: est.beta,
        })
    }

    fn estimate_mean(
        &self,
        label: &'static str,
        scale: f64,
        f: &mut MeanFn<'_>,
    ) -> Result<QueryEstimate, PmwError> {
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(PmwError::InvalidConfig(
                "estimate_mean scale must be finite and non-negative",
            ));
        }
        // The trait closure receives the *universe* index; the pool sweep
        // hands out slots — translate through the frozen index map.
        let est = self.estimate::<PmwError>(label, scale, |slot, point| {
            f(self.pool.indices[slot], point)
        })?;
        Ok(QueryEstimate {
            value: est.value,
            radius: est.radius,
            beta: est.beta,
        })
    }

    /// `O(m)` over the frozen weights (see `margin`); `0` on exhaustive
    /// pools untouched by lossy folds. Each claim is ledgered as
    /// `"read-margin"`: a `⊥` screened against the widened margin rests on
    /// it holding (failure probability `β`), so the union-bound totals
    /// count it like any estimate.
    fn read_radius(&self, scale: f64) -> f64 {
        let Some((radius, beta, bound)) = self.margin(scale) else {
            return 0.0;
        };
        lock_ledger(&self.ledger).record("read-margin", self.pool_size(), radius, beta, bound);
        radius
    }
}

/// Monte-Carlo sketched MW state over a [`PointSource`].
///
/// The backend holds the writes: recording rounds, refreshing, growing
/// and compacting the pool, transactionally. Every read — certificate and
/// query means, maxima, read margins, hypothesis solves — runs on a
/// [`SampledSnapshot`] ([`SampledBackend::publish_snapshot`]), which
/// shares the pool in `O(1)`; the backend's own reads (the escalation
/// ladder's radius, the diagnostics gap of
/// [`StateBackend::apply_update`]) use an unpublished one.
///
/// The second type parameter is an observation [`Probe`] (default:
/// [`NoopProbe`], which compiles every hook away). A live probe sees the
/// backend's two cost regimes as separate timed spans —
/// [`Phase::PoolSweep`] for the `O(m·d)` per-round pool update,
/// [`Phase::LogReplay`] for the `O(m·t·d)` refresh replay — plus health
/// gauges/counters after every recorded round. Snapshot reads carry no
/// probe. Construct with [`SampledBackend::with_probe`] (typically handing
/// `&probe` so the same probe also observes the driving mechanism).
#[derive(Debug)]
pub struct SampledBackend<S: PointSource, P: Probe = NoopProbe> {
    source: S,
    probe: P,
    config: SampledConfig,
    log: UpdateLog,
    /// The sampled `D̂_t`, shared copy-on-write with published snapshots
    /// and the rollback checkpoint of the round in flight.
    pool: Arc<Pool>,
    resamples: usize,
    /// Health-triggered refreshes ([`SampledConfig::ess_floor`]), a subset
    /// of `resamples`.
    adaptive_resamples: usize,
    /// Escalation-ladder activations ([`SampledConfig::max_usable_radius`]).
    escalations: usize,
    /// Pool doublings performed by escalation rung 2.
    pool_growths: usize,
    /// Checkpointed log compactions committed so far (see
    /// [`SampledConfig::compaction`]).
    compactions: usize,
    /// Retained (non-folded) rounds replayed by the most recent full pool
    /// rebuild — the quantity compaction keeps flat in `t`.
    last_replay_depth: usize,
    /// Rounds recorded since the pool was last (re)drawn.
    rounds_since_refresh: usize,
    /// Drift envelope at the last pool (re)draw — `drift_bound() − this`
    /// is the drift the current pool has absorbed without refreshing.
    drift_at_refresh: f64,
    /// Minimum post-round effective sample size observed so far.
    min_ess: f64,
    /// Fail-closed guard: set when a failed round could not be rolled back
    /// to a consistent pre-round state; every operation then errors with
    /// [`SketchError::Poisoned`] instead of serving half-updated state.
    poisoned: bool,
    /// Health-maintenance events awaiting a [`StateBackend::take_events`]
    /// drain.
    pending_events: Vec<BackendEvent>,
    /// (point, gradient) scratch buffers; `RefCell` because reads are
    /// logically `&self`.
    bufs: RefCell<(Vec<f64>, Vec<f64>)>,
    /// The sampling-noise ledger, shared (`Arc`) with every published
    /// [`SampledSnapshot`] so concentration claims made by snapshot reads
    /// land in the same union-bound record as the backend's own entries,
    /// in arrival order.
    ledger: Arc<Mutex<SamplingAccountant>>,
    /// Round at which a read snapshot was last published (`None` before
    /// the first publication) — drives the `snapshot_age` health gauge.
    published_round: Cell<Option<usize>>,
}

/// Everything a failed round must restore: the pool, the log length and
/// every health counter. Taken before a round's first mutation, dropped on
/// success.
struct RoundCheckpoint {
    pool: Arc<Pool>,
    log_len: usize,
    resamples: usize,
    adaptive_resamples: usize,
    escalations: usize,
    pool_growths: usize,
    last_replay_depth: usize,
    rounds_since_refresh: usize,
    drift_at_refresh: f64,
    min_ess: f64,
    events_len: usize,
}

impl<S: PointSource> SampledBackend<S> {
    /// Draw the pool and cache its points. Consumes `min(budget, |X|)`
    /// uniform index draws from `rng` (none when exhaustive).
    pub fn new(source: S, config: SampledConfig, rng: &mut dyn Rng) -> Result<Self, SketchError> {
        Self::with_probe(source, config, NoopProbe, rng)
    }
}

impl<S: PointSource, P: Probe> SampledBackend<S, P> {
    /// [`SampledBackend::new`] with an observation probe. Identical pool
    /// draw and rng stream; the probe only listens.
    pub fn with_probe(
        source: S,
        config: SampledConfig,
        probe: P,
        rng: &mut dyn Rng,
    ) -> Result<Self, SketchError> {
        if source.is_empty() {
            return Err(SketchError::EmptyUniverse);
        }
        if config.budget == 0 {
            return Err(SketchError::InvalidParameter("budget must be >= 1"));
        }
        if !(config.beta > 0.0 && config.beta < 1.0) {
            return Err(SketchError::InvalidParameter("beta must be in (0, 1)"));
        }
        if !(config.ess_floor >= 0.0 && config.ess_floor < 1.0) {
            return Err(SketchError::InvalidParameter(
                "ess_floor must lie in [0, 1)",
            ));
        }
        if config.max_usable_radius <= 0.0 || config.max_usable_radius.is_nan() {
            return Err(SketchError::InvalidParameter(
                "max_usable_radius must be positive (infinity disables the ladder)",
            ));
        }
        let n = source.len();
        let exhaustive = config.budget >= n;
        let indices: Vec<usize> = if exhaustive {
            (0..n).collect()
        } else {
            (0..config.budget).map(|_| rng.random_range(0..n)).collect()
        };
        // The initial pool is written here rather than through
        // `materialize`: behind the helper, with or without `#[inline]`,
        // this set-up loop compiled ~30% slower (perfbench `mwem-release`
        // `setup_s`, 2^20 cube, budget 2048, x86-64).
        let dim = source.dim();
        let mut flat = vec![0.0; indices.len() * dim];
        for (row, &idx) in flat.chunks_exact_mut(dim).zip(&indices) {
            source.write_point(idx, row);
        }
        let points = PointMatrix::from_flat(flat, dim)
            .map_err(|_| SketchError::NonFinite("point source produced invalid points"))?;
        let m = indices.len();
        Ok(Self {
            source,
            probe,
            config,
            log: UpdateLog::new(),
            pool: Arc::new(Pool::new(indices, points, vec![0.0; m], exhaustive, 0.0)),
            resamples: 0,
            adaptive_resamples: 0,
            escalations: 0,
            pool_growths: 0,
            compactions: 0,
            last_replay_depth: 0,
            rounds_since_refresh: 0,
            drift_at_refresh: 0.0,
            // The fresh pool is uniform: ESS starts at m exactly.
            min_ess: m as f64,
            poisoned: false,
            pending_events: Vec::new(),
            bufs: RefCell::new((vec![0.0; dim], Vec::new())),
            ledger: Arc::new(Mutex::new(SamplingAccountant::new())),
            published_round: Cell::new(None),
        })
    }

    /// Universe size `|X|` (not the pool size).
    pub fn universe_size(&self) -> usize {
        self.source.len()
    }

    /// Pool size `m` (`min(budget, |X|)`).
    pub fn pool_size(&self) -> usize {
        self.pool.indices.len()
    }

    /// True when the pool enumerates the whole universe (exact mode).
    pub fn is_exhaustive(&self) -> bool {
        self.pool.exhaustive
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> usize {
        self.log.len()
    }

    /// The retained update log.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// The sampling-noise ledger: one entry per estimate issued by any
    /// snapshot published from this backend (the ledger is shared) and
    /// per maintenance action of the backend itself.
    pub fn ledger(&self) -> MutexGuard<'_, SamplingAccountant> {
        lock_ledger(&self.ledger)
    }

    /// Mutable ledger handle for recording (poison-recovering lock).
    fn ledger_mut(&self) -> MutexGuard<'_, SamplingAccountant> {
        lock_ledger(&self.ledger)
    }

    /// Publish an immutable [`SampledSnapshot`] of the current sketched
    /// state in `O(1)`: pool and sampling ledger shared, drift envelope
    /// frozen. Fails closed on poisoned backends — a snapshot must never
    /// freeze inconsistent state — and records the publish round so the
    /// post-round health gauges can report snapshot age.
    pub fn publish_snapshot(&self) -> Result<SampledSnapshot, SketchError> {
        self.ensure_usable()?;
        self.published_round.set(Some(self.log.len()));
        Ok(self.unpublished_snapshot())
    }

    /// The snapshot the backend reads its own state through: what
    /// [`Self::publish_snapshot`] returns, without the usability check or
    /// the publish-round mark.
    fn unpublished_snapshot(&self) -> SampledSnapshot {
        SampledSnapshot {
            pool: Arc::clone(&self.pool),
            drift_bound: self.log.drift_bound(),
            beta: self.config.beta,
            max_usable_radius: self.config.max_usable_radius,
            universe_size: self.source.len(),
            dim: self.source.dim(),
            updates: self.log.len(),
            ledger: Arc::clone(&self.ledger),
        }
    }

    /// Total pool refreshes so far — fixed-cadence
    /// ([`SampledConfig::resample_every`]), health-triggered
    /// ([`SampledConfig::ess_floor`]), emergency (escalation rung 1) and
    /// manual ones alike.
    pub fn resamples(&self) -> usize {
        self.resamples
    }

    /// Refreshes triggered by the measured ESS falling below
    /// [`SampledConfig::ess_floor`] (a subset of
    /// [`SampledBackend::resamples`]).
    pub fn adaptive_resamples(&self) -> usize {
        self.adaptive_resamples
    }

    /// Escalation-ladder activations: rounds whose claimed read radius
    /// exceeded [`SampledConfig::max_usable_radius`].
    pub fn escalations(&self) -> usize {
        self.escalations
    }

    /// Pool doublings performed by escalation rung 2.
    pub fn pool_growths(&self) -> usize {
        self.pool_growths
    }

    /// Checkpointed log compactions committed so far — policy-triggered
    /// ([`SampledConfig::compaction`]) and manual
    /// ([`SampledBackend::compact_now`]) alike.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// The log-weight distortion bound the current pool carries from lossy
    /// compaction folds (`0` until a fold happens; see
    /// [`LogCheckpoint::missing_drift`](crate::log::LogCheckpoint::missing_drift)). Every read radius widens by
    /// [`compaction_fold_radius`]`(scale, this)`.
    pub fn pool_missing_drift(&self) -> f64 {
        self.pool.missing_drift
    }

    /// Retained rounds replayed by the most recent full pool rebuild —
    /// the quantity compaction keeps flat in `t` (`0` before any rebuild).
    pub fn last_replay_depth(&self) -> usize {
        self.last_replay_depth
    }

    /// The minimum post-round effective sample size observed so far
    /// (`m` until a round has been recorded; exhaustive pools stay at `m`).
    pub fn min_ess(&self) -> f64 {
        self.min_ess
    }

    /// True once a failed round could not be rolled back and the backend
    /// fails closed (every operation errors with
    /// [`SketchError::Poisoned`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The current pool-health snapshot: ESS (fraction), max-weight share,
    /// drift absorbed since the last refresh, rounds since refresh — one
    /// `O(m)` pass, degenerate-pool safe (see [`PoolHealth`]).
    pub fn health(&self) -> PoolHealth {
        PoolHealth::from_log_weights(
            &self.pool.log_w,
            (self.log.drift_bound() - self.drift_at_refresh).max(0.0),
            self.rounds_since_refresh,
        )
    }

    /// The fail-closed guard every operation passes through.
    fn ensure_usable(&self) -> Result<(), SketchError> {
        if self.poisoned {
            Err(SketchError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Record one MW round (dual-certificate or linear-query): `O(m·d)` —
    /// update every cached pool log-weight, then retain the round in the
    /// log. The write goes through [`Arc::make_mut`]: while a published
    /// snapshot or the round's rollback checkpoint still holds the pool,
    /// the backend writes to its own `O(m)` copy and the holders keep the
    /// frozen one.
    pub fn record(&mut self, update: RoundUpdate) -> Result<(), SketchError> {
        self.ensure_usable()?;
        if update.point_dim() != self.source.dim() {
            return Err(SketchError::DimensionMismatch {
                got: update.point_dim(),
                expected: self.source.dim(),
            });
        }
        // Two passes (evaluate, then apply) so a failed evaluation leaves
        // the pool untouched — and uncopied.
        self.probe.span_begin(Phase::PoolSweep);
        let mut payoffs = vec![0.0; self.pool.log_w.len()];
        let mut grad = Vec::new();
        let evaluated = payoffs
            .iter_mut()
            .zip(self.pool.points.iter())
            .try_for_each(|(slot, point)| {
                *slot = update.payoff(point, &mut grad)?;
                Ok(())
            });
        if let Err(e) = evaluated {
            self.probe.span_end(Phase::PoolSweep);
            return Err(e);
        }
        let eta = update.eta();
        let pool = Arc::make_mut(&mut self.pool);
        for (lw, u) in pool.log_w.iter_mut().zip(&payoffs) {
            *lw -= eta * u;
        }
        self.probe.span_end(Phase::PoolSweep);
        self.log.push(update);
        // Health sampling: pure arithmetic over the cached log-weights —
        // no RNG, no ledger entry, so default-config runs stay bit-for-bit.
        self.rounds_since_refresh += 1;
        let ess = if self.pool.exhaustive {
            self.pool_size() as f64
        } else {
            self.health().ess
        };
        self.min_ess = self.min_ess.min(ess);
        Ok(())
    }

    /// [`SampledBackend::record`] from a borrowed loss (retained through
    /// [`CmLoss::clone_shared`]).
    pub fn record_borrowed(
        &mut self,
        loss: &dyn CmLoss,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
    ) -> Result<(), SketchError> {
        self.record(RoundUpdate::from_dyn(loss, theta_oracle, theta_hyp, eta)?)
    }

    /// Redraw the whole Monte-Carlo pool and re-evaluate every fresh
    /// candidate's log-weight from the newest checkpoint plus the retained
    /// update log ([`UpdateLog::log_weight_seeded`]) — `O(t_retained·d)`
    /// per candidate, `O(m·t_retained·d)` total. Under an active
    /// [`CompactionPolicy`] the retained suffix is bounded, so the rebuild
    /// cost is flat in the total round count `t` (this is the fix for the
    /// latent `O(t)`-per-refresh quadratic); with no checkpoint it is the
    /// historical full replay, bit-for-bit. Restores estimator
    /// independence after the pool has been reused across drifting
    /// rounds; a no-op on exhaustive pools. Consumes `m` uniform index
    /// draws from `rng`.
    ///
    /// Called automatically every [`SampledConfig::resample_every`]
    /// recorded rounds when the backend is driven through the
    /// [`StateBackend`] seam; direct `record`/`record_borrowed` drivers
    /// call it explicitly.
    pub fn resample(&mut self, rng: &mut dyn Rng) -> Result<(), SketchError> {
        self.ensure_usable()?;
        if self.pool.exhaustive {
            return Ok(());
        }
        let n = self.source.len();
        let indices: Vec<usize> = (0..self.pool_size())
            .map(|_| rng.random_range(0..n))
            .collect();
        self.probe.span_begin(Phase::LogReplay);
        let fresh = self.replayed_pool(None, indices, false);
        self.probe.span_end(Phase::LogReplay);
        // All fresh state computed; swap atomically so a failed
        // re-evaluation above leaves the old pool untouched.
        self.install(fresh?);
        self.resamples += 1;
        self.probe.counter(Counter::Resamples, 1);
        self.rounds_since_refresh = 0;
        self.drift_at_refresh = self.log.drift_bound();
        Ok(())
    }

    /// A pool of the slots of `base` (none when `None`) followed by the
    /// candidates `fresh`, each fresh candidate materialized from the
    /// source and replayed from the newest checkpoint plus the retained
    /// log. The kept slots keep their own distortion bound and the fresh
    /// ones carry theirs, so the pool-wide bound is the max. Nothing is
    /// swapped in here, so a failure leaves the backend untouched.
    fn replayed_pool(
        &self,
        base: Option<&Pool>,
        fresh: Vec<usize>,
        exhaustive: bool,
    ) -> Result<Pool, SketchError> {
        let (prefix, mut indices, mut log_w, base_drift) = match base {
            Some(pool) => (
                pool.points.as_flat(),
                pool.indices.clone(),
                pool.log_w.clone(),
                pool.missing_drift,
            ),
            None => (&[][..], Vec::new(), Vec::new(), 0.0),
        };
        let kept = indices.len();
        let points = materialize(&self.source, prefix, &fresh)?;
        indices.extend_from_slice(&fresh);
        log_w.resize(indices.len(), 0.0);
        let fresh_drift = replay_candidates(
            &self.log,
            points.row_block(kept, indices.len()),
            points.dim(),
            &fresh,
            &mut log_w[kept..],
        )?;
        Ok(Pool::new(
            indices,
            points,
            log_w,
            exhaustive,
            base_drift.max(fresh_drift),
        ))
    }

    /// Swap in a pool rebuilt by [`Self::replayed_pool`] and record the
    /// replay depth it paid.
    fn install(&mut self, pool: Pool) {
        self.pool = Arc::new(pool);
        self.last_replay_depth = self.log.retained_len();
        if P::ENABLED {
            self.probe
                .gauge(Gauge::ReplayRounds, self.last_replay_depth as f64);
        }
    }

    /// Escalation rung 2: double the pool (capped at `cap` and at `|X|`),
    /// re-evaluating every fresh candidate from the retained log. Growing
    /// to the whole universe degrades gracefully to an exhaustive (exact)
    /// pool. The grown pool is fully computed before it is swapped in.
    fn grow_pool(&mut self, cap: usize, rng: &mut dyn Rng) -> Result<(), SketchError> {
        let n = self.source.len();
        let m = self.pool_size();
        let target = m.saturating_mul(2).min(cap).min(n);
        if target <= m {
            return Ok(());
        }
        self.probe.span_begin(Phase::LogReplay);
        // Every RNG draw happens before the replay (which consumes none),
        // keeping the rng stream identical to the historical interleaved
        // loop.
        let grown = if target >= n {
            // The doubled pool would cover the universe: enumerate it once
            // and become exhaustive — every later estimate is exact in
            // sampling (any lossy-fold bias still applies).
            self.replayed_pool(None, (0..n).collect(), true)
        } else {
            let fresh = (m..target).map(|_| rng.random_range(0..n)).collect();
            self.replayed_pool(Some(&*self.pool), fresh, false)
        };
        self.probe.span_end(Phase::LogReplay);
        self.install(grown?);
        self.pool_growths += 1;
        self.probe.counter(Counter::PoolGrowths, 1);
        Ok(())
    }

    /// [`SampledBackend::resample`] when a refresh is due per
    /// [`SampledConfig::resample_every`].
    fn maybe_resample(&mut self, rng: &mut dyn Rng) -> Result<(), SketchError> {
        let every = self.config.resample_every;
        if every > 0 && !self.pool.exhaustive && self.log.len().is_multiple_of(every) {
            self.resample(rng)?;
        }
        Ok(())
    }

    /// [`SampledBackend::compact_now`] when [`SampledConfig::compaction`]
    /// says a fold is due. Runs strictly after a successful round (see
    /// [`Self::transactional_round`]), so it never moves a rollback
    /// boundary.
    fn maybe_compact(&mut self) -> Result<(), SketchError> {
        if self
            .config
            .compaction
            .due(self.log.retained_len(), self.log.retained_bytes())
        {
            self.compact_now()?;
        }
        Ok(())
    }

    /// Fold every retained round into a [`LogCheckpoint`](crate::log::LogCheckpoint) pinned on the
    /// current pool (the pool's cached log-weights become the checkpoint
    /// panel), so later rebuilds replay only rounds recorded *after* this
    /// fold. The pool's current distortion bound
    /// ([`SampledBackend::pool_missing_drift`]) is recorded as the
    /// checkpoint's [`LogCheckpoint::missing_drift`](crate::log::LogCheckpoint::missing_drift): a panel-seeded
    /// replay inherits exactly that bound, an unseeded one inherits the
    /// full folded drift, and either way the claim is charged as a sure
    /// (β = 0) fold entry in the sampling ledger and surfaced as a
    /// [`BackendEvent::Compaction`]. Validation happens before any
    /// mutation, so a failed fold leaves the log untouched. A no-op (no
    /// checkpoint, no event) when there is nothing retained to fold.
    pub fn compact_now(&mut self) -> Result<(), SketchError> {
        self.ensure_usable()?;
        let round = self.log.len();
        let receipt = self.log.compact(
            &self.pool.indices,
            &self.pool.log_w,
            self.pool.missing_drift,
        )?;
        if receipt.folded_rounds == 0 {
            return Ok(());
        }
        self.compactions += 1;
        self.probe.counter(Counter::Compactions, 1);
        if P::ENABLED {
            self.probe
                .gauge(Gauge::LogLen, self.log.retained_len() as f64);
            self.probe
                .gauge(Gauge::CheckpointCount, self.log.checkpoints_taken() as f64);
        }
        // Ledger the fold's error claim at unit scale: a reader at scale
        // `s` pays `compaction_fold_radius(s, folded_drift)`; recording
        // the unit-scale bound keeps the ledger entry scale-free and the
        // claim sure (β = 0 — it is a deterministic bias bound, not a
        // concentration failure probability).
        self.ledger_mut().record(
            "compaction-fold",
            receipt.checkpoint_points,
            compaction_fold_radius(1.0, receipt.folded_drift),
            0.0,
            RadiusBound::Fold,
        );
        self.pending_events.push(BackendEvent::Compaction {
            round,
            folded_rounds: receipt.folded_rounds,
            checkpoint_points: receipt.checkpoint_points,
            folded_drift: receipt.folded_drift,
        });
        Ok(())
    }

    /// Capture everything a failed round must restore. Taken before a
    /// round's first mutation, dropped on success. `O(1)`: the pool is
    /// shared through its `Arc`, and the round's first write
    /// ([`Self::record`]) copies it instead of mutating the checkpoint's.
    /// (Distinct from the *published* read snapshot,
    /// [`Self::publish_snapshot`]: this one is the rollback checkpoint of
    /// the transactional round.)
    fn pool_checkpoint(&self) -> RoundCheckpoint {
        RoundCheckpoint {
            pool: Arc::clone(&self.pool),
            log_len: self.log.len(),
            resamples: self.resamples,
            adaptive_resamples: self.adaptive_resamples,
            escalations: self.escalations,
            pool_growths: self.pool_growths,
            last_replay_depth: self.last_replay_depth,
            rounds_since_refresh: self.rounds_since_refresh,
            drift_at_refresh: self.drift_at_refresh,
            min_ess: self.min_ess,
            events_len: self.pending_events.len(),
        }
    }

    /// Roll the backend back to a checkpoint after a failed round, then
    /// verify the restored state is self-consistent. If it is not —
    /// rollback itself failed — the backend is poisoned and fails closed.
    ///
    /// Sampling-ledger entries issued by the failed round are deliberately
    /// *not* rolled back: the ledger is a conservative union-bound record
    /// of every claim ever made, and over-counting failed rounds only
    /// makes its totals more pessimistic.
    fn restore(&mut self, snap: RoundCheckpoint) {
        self.pool = snap.pool;
        self.resamples = snap.resamples;
        self.adaptive_resamples = snap.adaptive_resamples;
        self.escalations = snap.escalations;
        self.pool_growths = snap.pool_growths;
        self.last_replay_depth = snap.last_replay_depth;
        self.rounds_since_refresh = snap.rounds_since_refresh;
        self.drift_at_refresh = snap.drift_at_refresh;
        self.min_ess = snap.min_ess;
        // Compaction only ever folds rounds that were already committed
        // (it runs strictly after a successful round), so the snapshot's
        // log length can never fall inside the folded prefix — a truncate
        // failure here means the log itself is inconsistent.
        let truncated = self.log.truncate(snap.log_len);
        self.pending_events.truncate(snap.events_len);
        let m = self.pool_size();
        if truncated.is_err()
            || self.pool.log_w.len() != m
            || self.pool.points.len() != m
            || self.log.len() != snap.log_len
            || !self.log.drift_bound().is_finite()
        {
            self.poisoned = true;
        }
    }

    /// Run one full round — record, cadence refresh, health maintenance,
    /// escalation ladder — **transactionally**: either every step completes
    /// or the pool is rolled back to its exact pre-round state (and the
    /// error surfaces loudly). A rollback that cannot restore consistency
    /// poisons the backend (see [`SketchError::Poisoned`]).
    fn transactional_round(
        &mut self,
        update: RoundUpdate,
        rng: &mut dyn Rng,
    ) -> Result<(), SketchError> {
        self.ensure_usable()?;
        let snap = self.pool_checkpoint();
        let events_before = snap.events_len;
        // Compaction runs strictly *after* a fully successful round: a
        // fold can therefore never move the rollback boundary of the round
        // it rides on, and a failed fold (validation errors before any
        // mutation) rolls the round back like any other failure.
        match self
            .run_round(update, rng)
            .and_then(|()| self.maybe_compact())
        {
            Ok(()) => Ok(()),
            Err(e) => {
                // The failed round's events (the escalations that *caused*
                // the failure) must survive the rollback: carry them across
                // the restore (which truncates to the snapshot) and close
                // them with an explicit rollback marker, so the transcript
                // records why the round failed, not just that it did.
                let attempted: Vec<BackendEvent> =
                    self.pending_events.drain(events_before..).collect();
                let failed_round = snap.log_len + 1;
                self.restore(snap);
                self.pending_events.extend(attempted);
                self.pending_events.push(BackendEvent::RoundRolledBack {
                    round: failed_round,
                });
                Err(e)
            }
        }
    }

    fn run_round(&mut self, update: RoundUpdate, rng: &mut dyn Rng) -> Result<(), SketchError> {
        let scale = update.scale();
        self.record(update)?;
        self.maybe_resample(rng)?;
        self.post_round(scale, rng)
    }

    /// Post-round health maintenance: the adaptive refresh
    /// ([`SampledConfig::ess_floor`]) and the escalation ladder
    /// ([`SampledConfig::max_usable_radius`]) — emergency resample, pool
    /// growth up to [`SampledConfig::growth_cap`], then a loud
    /// [`SketchError::Degraded`]. Every action is ledgered and queued as a
    /// [`BackendEvent`] for the mechanism's transcript. A no-op under the
    /// default configuration (floor `0`, threshold `∞`): default runs stay
    /// bit-for-bit identical.
    fn post_round(&mut self, scale: f64, rng: &mut dyn Rng) -> Result<(), SketchError> {
        let round = self.log.len();
        // One `O(m)` health pass, and only when a live probe or the ESS
        // floor reads it: the noop default build must not pay for it.
        let health = (!self.pool.exhaustive && (P::ENABLED || self.config.ess_floor > 0.0))
            .then(|| self.health());
        if P::ENABLED {
            if let Some(health) = &health {
                self.probe.gauge(Gauge::Ess, health.ess);
                self.probe.gauge(Gauge::EssFraction, health.ess_fraction);
                self.probe
                    .gauge(Gauge::MaxWeightShare, health.max_weight_share);
                self.probe.gauge(Gauge::DriftBound, health.drift_bound);
                self.probe.gauge(Gauge::PoolSize, self.pool_size() as f64);
            }
            if let Some(at) = self.published_round.get() {
                self.probe
                    .gauge(Gauge::SnapshotAge, round.saturating_sub(at) as f64);
            }
            self.probe
                .gauge(Gauge::LogLen, self.log.retained_len() as f64);
            self.probe
                .gauge(Gauge::CheckpointCount, self.log.checkpoints_taken() as f64);
        }
        let floor = self.config.ess_floor;
        if let Some(health) = health.filter(|h| floor > 0.0 && h.ess_fraction < floor) {
            self.resample(rng)?;
            self.adaptive_resamples += 1;
            self.probe.counter(Counter::AdaptiveResamples, 1);
            self.ledger_mut().record(
                "adaptive-resample",
                self.pool_size(),
                0.0,
                0.0,
                RadiusBound::Exact,
            );
            self.pending_events.push(BackendEvent::AdaptiveResample {
                round,
                ess: health.ess,
                floor,
            });
        }
        if self.config.max_usable_radius.is_finite() && !self.pool.exhaustive && scale > 0.0 {
            let mut radius = self.claimed_read_radius(scale);
            if radius > self.config.max_usable_radius {
                self.escalations += 1;
                self.probe.counter(Counter::EmergencyResamples, 1);
                // Rung 1: emergency refresh — collapse-driven blow-ups
                // recover here.
                self.resample(rng)?;
                self.ledger_mut().record(
                    "emergency-resample",
                    self.pool_size(),
                    radius,
                    0.0,
                    RadiusBound::Exact,
                );
                self.pending_events
                    .push(BackendEvent::EmergencyResample { round, radius });
                radius = self.claimed_read_radius(scale);
                // Rung 2: double the pool toward the cap; reaching the
                // universe size degrades gracefully to exact state.
                let cap = self.config.growth_cap;
                while radius > self.config.max_usable_radius
                    && !self.pool.exhaustive
                    && self.pool_size() < cap
                {
                    let before = self.pool_size();
                    self.grow_pool(cap, rng)?;
                    if self.pool_size() == before {
                        break;
                    }
                    self.ledger_mut().record(
                        "pool-growth",
                        self.pool_size(),
                        radius,
                        0.0,
                        RadiusBound::Exact,
                    );
                    self.pending_events.push(BackendEvent::PoolGrowth {
                        round,
                        new_size: self.pool_size(),
                    });
                    radius = self.claimed_read_radius(scale);
                }
                // Rung 3: loud failure — the transactional wrapper rolls
                // the round back, so the caller sees a consistent
                // pre-round pool plus an explicit Degraded error.
                if radius > self.config.max_usable_radius && !self.pool.exhaustive {
                    return Err(SketchError::Degraded(
                        "claimed read radius exceeds the usable threshold \
                         after emergency resample and pool growth",
                    ));
                }
            }
        }
        Ok(())
    }

    /// The claimed read radius at `scale` for the backend's own escalation
    /// policy: the margin a snapshot's
    /// [`read_radius`](ReadSnapshot::read_radius) claims, read through an
    /// unpublished snapshot and *not* ledgered — internal control flow
    /// makes no β-claim a caller's answer rests on, so it must not inflate
    /// the union-bound totals.
    fn claimed_read_radius(&self, scale: f64) -> f64 {
        self.unpublished_snapshot()
            .margin(scale)
            .map_or(0.0, |(radius, ..)| radius)
    }

    /// Draw one universe index from the sketched `D̂_t` via Gumbel-max over
    /// the cached pool log-weights — exact for `D̂_t` conditioned on the
    /// pool (exact for `D̂_t` itself when exhaustive). `O(m)`.
    pub fn sample_index(&self, rng: &mut dyn Rng) -> usize {
        let slot = gumbel_max_index(self.pool.log_w.as_slice(), rng);
        self.pool.indices[slot]
    }

    /// Unnormalized log-weight of any universe element, re-evaluated from
    /// the newest checkpoint (panel hit: bit-for-bit the full replay for
    /// lossless folds) plus the retained log — `O(t_retained·d)`; exact
    /// full-history replay when no fold has happened. Used for spot checks
    /// and pool refreshes; the pooled fast path never calls this.
    pub fn log_weight_of(&self, x: usize) -> Result<f64, SketchError> {
        self.ensure_usable()?;
        let mut bufs = self.bufs.borrow_mut();
        let (point, grad) = &mut *bufs;
        self.source.write_point(x, point);
        Ok(self.log.log_weight_seeded(x, point, grad)?.0)
    }
}

impl<S: PointSource, P: Probe> StateBackend for SampledBackend<S, P> {
    fn universe_size(&self) -> usize {
        self.source.len()
    }

    fn updates_recorded(&self) -> usize {
        self.log.len()
    }

    fn apply_update(
        &mut self,
        loss: &dyn CmLoss,
        retained: Option<std::sync::Arc<dyn CmLoss>>,
        points: &PointMatrix,
        theta_oracle: &[f64],
        theta_hyp: &[f64],
        eta: f64,
        gap_weights: Option<&[f64]>,
        rng: &mut dyn Rng,
    ) -> Result<Option<f64>, PmwError> {
        // Diagnostics gap (pre-update, like the dense backend): sketched
        // hypothesis side through an unpublished snapshot, exact data side
        // over the nonzero data weights.
        let gap = match gap_weights {
            Some(data_w) => {
                self.ensure_usable()?;
                let u_hyp = self
                    .unpublished_snapshot()
                    .certificate_mean(loss, theta_oracle, theta_hyp)?
                    .value;
                let mut grad = vec![0.0; loss.dim()];
                let mut u_data = 0.0;
                for (x, &w) in points.iter().zip(data_w) {
                    if w > 0.0 {
                        u_data +=
                            w * dual_certificate_at(loss, x, theta_oracle, theta_hyp, &mut grad)?;
                    }
                }
                Some(u_hyp - u_data)
            }
            None => None,
        };
        // Reuse the caller's owned handle (one clone per round, made
        // before any budget was spent); fall back to cloning here only
        // when driven without one.
        let update = match retained {
            Some(shared) => {
                RoundUpdate::new(shared, theta_oracle.to_vec(), theta_hyp.to_vec(), eta)?
            }
            None => RoundUpdate::from_dyn(loss, theta_oracle, theta_hyp, eta)?,
        };
        self.transactional_round(update, rng)?;
        Ok(gap)
    }

    fn sample_indices(&self, m: usize, rng: &mut dyn Rng) -> Result<Vec<usize>, PmwError> {
        self.ensure_usable()?;
        Ok((0..m).map(|_| self.sample_index(rng)).collect())
    }

    fn apply_query_update(
        &mut self,
        query: &dyn PointQuery,
        retained: Option<std::sync::Arc<dyn PointQuery>>,
        coeff: f64,
        eta: f64,
        _points: Option<&PointMatrix>,
        rng: &mut dyn Rng,
    ) -> Result<(), PmwError> {
        // Reuse the caller's owned handle (cloned before any budget was
        // spent); fall back to cloning here only when driven without one.
        let update = match retained {
            Some(shared) => RoundUpdate::query(shared, coeff, eta)?,
            None => RoundUpdate::query_from_dyn(query, coeff, eta)?,
        };
        self.transactional_round(update, rng)?;
        Ok(())
    }

    fn take_events(&mut self) -> Vec<BackendEvent> {
        std::mem::take(&mut self.pending_events)
    }

    fn requires_shared_loss(&self) -> bool {
        true
    }

    fn snapshot(&self) -> Result<Arc<dyn ReadSnapshot>, PmwError> {
        Ok(Arc::new(self.publish_snapshot()?))
    }

    fn requires_materialized_universe(&self) -> bool {
        // The pool caches its own points; `points` is only ever zipped
        // against the caller's data-side weights for the diagnostics gap.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::UniversePoints;
    use pmw_core::update::dual_certificate;
    use pmw_data::{BooleanCube, Histogram, Universe};
    use pmw_losses::{LinearQueryLoss, PointPredicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn bit_loss(bit: usize, dim: usize) -> LinearQueryLoss {
        LinearQueryLoss::new(PointPredicate::Conjunction { coords: vec![bit] }, dim).unwrap()
    }

    /// The query mean a mechanism reads: `expected_query_value` on a
    /// freshly published snapshot.
    fn query_mean<S: PointSource, P: Probe>(
        sketch: &SampledBackend<S, P>,
        query: &dyn PointQuery,
    ) -> Result<QueryEstimate, PmwError> {
        sketch.publish_snapshot()?.expected_query_value(query, None)
    }

    fn driven_pair(
        dim: usize,
        budget: usize,
        seed: u64,
    ) -> (
        SampledBackend<UniversePoints<BooleanCube>>,
        Histogram,
        PointMatrix,
    ) {
        let cube = BooleanCube::new(dim).unwrap();
        let points = cube.materialize();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let mut dense = Histogram::uniform(cube.size()).unwrap();
        let steps = [
            (0usize, 0.9, 0.4, 0.7),
            (1, 0.2, 0.6, 0.5),
            (2, 0.7, 0.3, 0.9),
        ];
        for &(bit, t_o, t_h, eta) in &steps {
            let loss = bit_loss(bit, dim);
            let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
            dense.mw_update(&u, eta).unwrap();
            sketch
                .record(
                    RoundUpdate::new(Arc::new(loss) as Arc<dyn CmLoss>, vec![t_o], vec![t_h], eta)
                        .unwrap(),
                )
                .unwrap();
        }
        (sketch, dense, points)
    }

    #[test]
    fn construction_validates() {
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 4,
                beta: 0.0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 4,
                ess_floor: 1.0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        assert!(SampledBackend::new(
            UniversePoints(cube.clone()),
            SampledConfig {
                budget: 4,
                max_usable_radius: 0.0,
                ..SampledConfig::default()
            },
            &mut rng
        )
        .is_err());
        let b = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 100,
                beta: 0.5,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Budget over |X| = 8 degrades to exhaustive.
        assert!(b.is_exhaustive());
        assert_eq!(b.pool_size(), 8);
        assert_eq!(b.universe_size(), 8);
    }

    #[test]
    fn exhaustive_pool_is_exact() {
        let (sketch, dense, _) = driven_pair(4, usize::MAX, 2);
        assert!(sketch.is_exhaustive());
        let loss = bit_loss(0, 4);
        let (t_o, t_h) = ([0.8], [0.2]);
        let est = sketch
            .publish_snapshot()
            .unwrap()
            .certificate_mean(&loss, &t_o, &t_h)
            .unwrap();
        assert_eq!(est.radius, 0.0);
        assert_eq!(est.beta, 0.0);
        // Exact expectation under the dense hypothesis.
        let u = dual_certificate(&loss, &dense_points(4), &t_o, &t_h).unwrap();
        let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        assert!(
            (est.value - exact).abs() < 1e-12,
            "{} vs {exact}",
            est.value
        );

        // Max over an exhaustive pool is the true max with zero slack.
        let max = sketch
            .publish_snapshot()
            .unwrap()
            .max_payoff(&loss, &t_o, &t_h)
            .unwrap();
        let true_max = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max.value - true_max).abs() < 1e-12);
        assert_eq!(max.uncovered_mass, 0.0);
        // Ledger saw both estimates.
        assert_eq!(sketch.ledger().len(), 2);
    }

    fn dense_points(dim: usize) -> PointMatrix {
        BooleanCube::new(dim).unwrap().materialize()
    }

    #[test]
    fn sampled_estimate_stays_within_claimed_radius() {
        // Sub-universe budget: the SNIS estimate must land within its own
        // claimed radius of the exact value (the claim fails with
        // probability 1e-6; the seed is fixed, so this is deterministic).
        let (sketch, dense, points) = driven_pair(10, 256, 3);
        assert!(!sketch.is_exhaustive());
        let loss = bit_loss(3, 10);
        let (t_o, t_h) = ([0.9], [0.1]);
        let est = sketch
            .publish_snapshot()
            .unwrap()
            .certificate_mean(&loss, &t_o, &t_h)
            .unwrap();
        let u = dual_certificate(&loss, &points, &t_o, &t_h).unwrap();
        let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
        assert!(est.radius.is_finite() && est.radius > 0.0);
        assert!(
            (est.value - exact).abs() <= est.radius,
            "estimate {} vs exact {exact}, radius {}",
            est.value,
            est.radius
        );

        // The sampled max never exceeds the true max.
        let max = sketch
            .publish_snapshot()
            .unwrap()
            .max_payoff(&loss, &t_o, &t_h)
            .unwrap();
        let true_max = u.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max.value <= true_max + 1e-12);
        assert!(max.uncovered_mass > 0.0 && max.uncovered_mass < 0.1);
    }

    #[test]
    fn adaptive_radius_covers_exact_value_across_drift_regimes_and_budgets() {
        // The drift-regime × budget grid of the calibration claim: at
        // every combination the adaptive estimate still covers the dense
        // exact value at its claimed radius, while never exceeding the
        // drift-envelope bound it replaced. Heavy drift (eta_scale 1.5
        // over 8 rounds) pushes the envelope into the useless range
        // (e^c ≫ 1); the adaptive radius must stay calibrated there too.
        let dim = 10usize;
        let cube = BooleanCube::new(dim).unwrap();
        let points = cube.materialize();
        for &budget in &[128usize, 384, 768] {
            for (regime, &eta_scale) in [0.05f64, 0.4, 1.5].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(4000 + budget as u64 + regime as u64);
                let mut sketch = SampledBackend::new(
                    UniversePoints(cube.clone()),
                    SampledConfig {
                        budget,
                        ..SampledConfig::default()
                    },
                    &mut rng,
                )
                .unwrap();
                assert!(!sketch.is_exhaustive());
                let mut dense = Histogram::uniform(cube.size()).unwrap();
                let mut sched = StdRng::seed_from_u64(8000 + regime as u64);
                for t in 0..8usize {
                    let loss = bit_loss(t % dim, dim);
                    let (t_o, t_h) = (sched.random::<f64>(), sched.random::<f64>());
                    let eta = eta_scale / ((t + 1) as f64).sqrt();
                    let u = dual_certificate(&loss, &points, &[t_o], &[t_h]).unwrap();
                    dense.mw_update(&u, eta).unwrap();
                    sketch
                        .record(
                            RoundUpdate::new(
                                Arc::new(loss) as Arc<dyn CmLoss>,
                                vec![t_o],
                                vec![t_h],
                                eta,
                            )
                            .unwrap(),
                        )
                        .unwrap();
                }
                let loss = bit_loss(4, dim);
                let (t_o, t_h) = ([0.85], [0.15]);
                let est = sketch
                    .publish_snapshot()
                    .unwrap()
                    .certificate_mean(&loss, &t_o, &t_h)
                    .unwrap();
                let u = dual_certificate(&loss, &points, &t_o, &t_h).unwrap();
                let exact: f64 = dense.weights().iter().zip(&u).map(|(w, v)| w * v).sum();
                assert!(
                    est.radius.is_finite() && est.radius > 0.0,
                    "budget {budget} eta {eta_scale}: radius {}",
                    est.radius
                );
                assert!(
                    (est.value - exact).abs() <= est.radius,
                    "budget {budget} eta {eta_scale}: estimate {} vs exact {exact}, radius {}",
                    est.value,
                    est.radius
                );
                assert!(
                    est.radius <= est.envelope_radius,
                    "budget {budget} eta {eta_scale}: adaptive {} above envelope {}",
                    est.radius,
                    est.envelope_radius
                );
            }
        }
    }

    #[test]
    fn adaptive_radius_never_exceeds_the_drift_envelope_bound() {
        // Across drift regimes (mild to heavy) and pool budgets, the
        // claimed radius is the minimum over the candidate bounds: finite,
        // positive, never above the envelope-only bound, and won by one of
        // the adaptive candidates (the envelope provably cannot win).
        for &budget in &[64usize, 256, 512] {
            for &eta_scale in &[0.05f64, 0.4, 1.5] {
                let cube = BooleanCube::new(10).unwrap();
                let mut rng = StdRng::seed_from_u64(900 + budget as u64);
                let mut sketch = SampledBackend::new(
                    UniversePoints(cube),
                    SampledConfig {
                        budget,
                        ..SampledConfig::default()
                    },
                    &mut rng,
                )
                .unwrap();
                for t in 0..6usize {
                    let loss = bit_loss(t % 10, 10);
                    sketch
                        .record(
                            RoundUpdate::new(
                                Arc::new(loss) as Arc<dyn CmLoss>,
                                vec![0.9],
                                vec![0.1],
                                eta_scale / (t + 1) as f64,
                            )
                            .unwrap(),
                        )
                        .unwrap();
                }
                let loss = bit_loss(2, 10);
                let est = sketch
                    .publish_snapshot()
                    .unwrap()
                    .certificate_mean(&loss, &[0.8], &[0.3])
                    .unwrap();
                assert!(est.radius.is_finite() && est.radius > 0.0);
                assert!(
                    est.radius <= est.envelope_radius,
                    "budget {budget} eta {eta_scale}: adaptive {} > envelope {}",
                    est.radius,
                    est.envelope_radius
                );
                assert!(matches!(
                    est.bound,
                    pmw_dp::RadiusBound::EffectiveSample | pmw_dp::RadiusBound::Bernstein
                ));
                // The ledger entry carries the same winner.
                let ledger = sketch.ledger();
                let rec = ledger.records().last().unwrap();
                assert_eq!(rec.bound, est.bound);
                assert_eq!(rec.radius, est.radius);
            }
        }
    }

    #[test]
    fn read_radius_is_zero_when_exhaustive_and_positive_when_pooled() {
        let (sketch, _, _) = driven_pair(10, 256, 8);
        assert!(!sketch.is_exhaustive());
        let snap = sketch.publish_snapshot().unwrap();
        let r = snap.read_radius(1.0);
        assert!(r.is_finite() && r > 0.0, "{r}");
        // The margin claim is a real β-claim the mechanisms' ⊥ answers
        // rest on, so it is ledgered like every estimate.
        {
            let ledger = sketch.ledger();
            let rec = ledger.records().last().unwrap();
            assert_eq!(rec.label, "read-margin");
            assert_eq!(rec.radius, r);
            assert!(matches!(
                rec.bound,
                pmw_dp::RadiusBound::EffectiveSample | pmw_dp::RadiusBound::Hoeffding
            ));
        }
        // Zero/negative scale pins the statistic: no margin, no claim.
        assert_eq!(snap.read_radius(0.0), 0.0);
        assert_eq!(sketch.ledger().len(), 1);

        let (exhaustive, _, _) = driven_pair(4, usize::MAX, 9);
        assert!(exhaustive.is_exhaustive());
        assert_eq!(exhaustive.publish_snapshot().unwrap().read_radius(1.0), 0.0);
    }

    /// A query that is identically zero, with honest `(0, 0)` bounds: the
    /// zero-scale regression case.
    struct ZeroQuery(usize);

    impl PointQuery for ZeroQuery {
        fn value_bounds(&self) -> (f64, f64) {
            (0.0, 0.0)
        }
        fn value_at_index(&self, _index: usize) -> Option<f64> {
            None
        }
        fn value_at_point(&self, _point: &[f64]) -> Option<f64> {
            Some(0.0)
        }
        fn point_dim(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    #[test]
    fn zero_scale_estimate_claims_zero_radius() {
        // Regression: the old path fed `2·scale.max(f64::MIN_POSITIVE)`
        // into the Hoeffding numerator, manufacturing a nonzero range (and
        // hence a nonzero radius at nonzero beta) for a statistic that is
        // identically zero. A zero-scale estimate is exact: value 0,
        // radius 0, beta 0.
        let (sketch, _, _) = driven_pair(10, 256, 10);
        assert!(!sketch.is_exhaustive());
        let est = query_mean(&sketch, &ZeroQuery(10)).unwrap();
        assert_eq!(est.value, 0.0);
        assert_eq!((est.radius, est.beta), (0.0, 0.0));
        let ledger = sketch.ledger();
        let rec = ledger.records().last().unwrap();
        assert_eq!(rec.radius, 0.0);
        assert_eq!(rec.bound, pmw_dp::RadiusBound::Exact);
    }

    #[test]
    fn pool_log_weights_match_exact_log_lookups() {
        // The incrementally maintained pool cache must agree with the
        // O(t·d) from-scratch evaluation of the same indices.
        let (sketch, _, _) = driven_pair(8, 64, 4);
        for (slot, &idx) in sketch.pool.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool.log_w[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
    }

    #[test]
    fn exhaustive_sampling_matches_dense_masses() {
        let (sketch, dense, _) = driven_pair(3, usize::MAX, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[sketch.sample_index(&mut rng)] += 1;
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

    #[test]
    fn query_mean_matches_dense_expectation() {
        use pmw_data::workload::ImplicitQuery;
        // Exhaustive pool: the SNIS query mean is exact, both for an
        // implicit marginal (point route) and the equivalent dense query
        // (index route).
        let (sketch, dense, points) = driven_pair(4, usize::MAX, 21);
        let q = ImplicitQuery::marginal(vec![1, 3], 4).unwrap();
        let dense_vals: Vec<f64> = points.iter().map(|p| q.evaluate(p)).collect();
        let exact: f64 = dense
            .weights()
            .iter()
            .zip(&dense_vals)
            .map(|(w, v)| w * v)
            .sum();
        let est = query_mean(&sketch, &q).unwrap();
        assert_eq!((est.radius, est.beta), (0.0, 0.0));
        assert!(
            (est.value - exact).abs() < 1e-12,
            "{} vs {exact}",
            est.value
        );
        let dense_q = pmw_data::LinearQuery::new(dense_vals).unwrap();
        let est_idx = query_mean(&sketch, &dense_q).unwrap();
        assert!((est_idx.value - exact).abs() < 1e-12);
        // Ledger records query estimates like every other read.
        assert!(sketch
            .ledger()
            .records()
            .iter()
            .any(|r| r.label == "query-mean"));

        // Sub-universe pool: the estimate carries a positive radius and
        // lands within it (deterministic under the fixed seed).
        let (sub, dense2, points2) = driven_pair(10, 256, 22);
        let q2 = ImplicitQuery::marginal(vec![0], 10).unwrap();
        let exact2: f64 = dense2
            .weights()
            .iter()
            .zip(points2.iter())
            .map(|(w, p)| w * q2.evaluate(p))
            .sum();
        let est2 = query_mean(&sub, &q2).unwrap();
        assert!(est2.radius.is_finite() && est2.radius > 0.0);
        assert!(
            (est2.value - exact2).abs() <= est2.radius,
            "estimate {} vs exact {exact2}, radius {}",
            est2.value,
            est2.radius
        );

        // Dimension / length mismatches are rejected.
        assert!(query_mean(&sketch, &ImplicitQuery::marginal(vec![0], 9).unwrap()).is_err());
        assert!(query_mean(&sketch, &pmw_data::LinearQuery::new(vec![1.0; 3]).unwrap()).is_err());
    }

    #[test]
    fn query_updates_track_the_dense_histogram() {
        use pmw_data::workload::ImplicitQuery;
        // Drive certificate + query rounds through the sketch; the cached
        // pool log-weights must match a dense histogram driven by the
        // same schedule.
        let (mut sketch, mut dense, points) = driven_pair(5, usize::MAX, 23);
        let q = ImplicitQuery::parity(vec![0, 2], 5).unwrap();
        let u: Vec<f64> = points.iter().map(|p| -0.3 * q.evaluate(p)).collect();
        dense.mw_update(&u, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        StateBackend::apply_query_update(&mut sketch, &q, None, -0.3, 1.0, None, &mut rng).unwrap();
        assert_eq!(sketch.rounds(), 4);
        for (slot, &idx) in sketch.pool.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool.log_w[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
            assert!((dense.log_weight(idx) - exact).abs() < 1e-12, "idx {idx}");
        }
        // Dense queries cannot be retained in the update log.
        let dense_q = pmw_data::LinearQuery::new(vec![1.0; 32]).unwrap();
        assert!(StateBackend::apply_query_update(
            &mut sketch,
            &dense_q,
            None,
            1.0,
            1.0,
            None,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn resample_refreshes_the_pool_consistently() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 128,
                resample_every: 2,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(!sketch.is_exhaustive());
        let before: Vec<usize> = sketch.pool.indices.clone();
        // Two query rounds: the second triggers the drift-aware refresh.
        let q = ImplicitQuery::marginal(vec![0], 10).unwrap();
        StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 0);
        StateBackend::apply_query_update(&mut sketch, &q, None, -1.0, 0.4, None, &mut rng).unwrap();
        assert_eq!(sketch.resamples(), 1);
        assert_ne!(before, sketch.pool.indices, "pool must be redrawn");
        // Every fresh candidate's cached log-weight equals the exact
        // from-scratch (LazyLogBackend-engine) evaluation.
        for (slot, &idx) in sketch.pool.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool.log_w[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
        // Manual resample keeps working and counts.
        sketch.resample(&mut rng).unwrap();
        assert_eq!(sketch.resamples(), 2);

        // Exhaustive pools never resample.
        let cube4 = BooleanCube::new(4).unwrap();
        let mut exhaustive = SampledBackend::new(
            UniversePoints(cube4),
            SampledConfig {
                budget: usize::MAX,
                resample_every: 1,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let q4 = ImplicitQuery::marginal(vec![0], 4).unwrap();
        StateBackend::apply_query_update(&mut exhaustive, &q4, None, 1.0, 0.4, None, &mut rng)
            .unwrap();
        exhaustive.resample(&mut rng).unwrap();
        assert_eq!(exhaustive.resamples(), 0);
    }

    #[test]
    fn record_validates_dimension() {
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sketch =
            SampledBackend::new(UniversePoints(cube), SampledConfig::default(), &mut rng).unwrap();
        let wrong = RoundUpdate::new(
            Arc::new(bit_loss(0, 5)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        assert!(sketch.record(wrong).is_err());
        assert_eq!(sketch.rounds(), 0);
        let ok = RoundUpdate::new(
            Arc::new(bit_loss(1, 3)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        sketch.record(ok).unwrap();
        assert_eq!(sketch.rounds(), 1);
        assert!((sketch.log().drift_bound() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn poisoned_backend_fails_closed_on_every_operation() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(3).unwrap();
        let points = cube.materialize();
        let mut rng = StdRng::seed_from_u64(41);
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 4,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        sketch.poisoned = true;
        assert!(sketch.is_poisoned());
        let loss = bit_loss(0, 3);
        let upd = RoundUpdate::new(
            Arc::new(bit_loss(0, 3)) as Arc<dyn CmLoss>,
            vec![0.5],
            vec![0.2],
            0.1,
        )
        .unwrap();
        assert_eq!(sketch.record(upd), Err(SketchError::Poisoned));
        assert_eq!(sketch.resample(&mut rng), Err(SketchError::Poisoned));
        // Every read goes through a published snapshot, and a poisoned
        // backend publishes none.
        assert_eq!(sketch.publish_snapshot().err(), Some(SketchError::Poisoned));
        assert_eq!(sketch.log_weight_of(0), Err(SketchError::Poisoned));
        assert!(matches!(
            StateBackend::sample_indices(&sketch, 2, &mut rng),
            Err(PmwError::Degraded(_))
        ));
        assert!(matches!(
            StateBackend::hypothesis_minimizer(&sketch, &loss, &points, 8, &mut rng),
            Err(PmwError::Degraded(_))
        ));
        let q = ImplicitQuery::marginal(vec![0], 3).unwrap();
        assert!(matches!(
            StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng),
            Err(PmwError::Degraded(_))
        ));
        // The health snapshot itself stays readable (pure arithmetic).
        assert!(sketch.health().ess >= 1.0);
    }

    #[test]
    fn ess_collapse_triggers_adaptive_resample_before_cadence() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        // Fixed cadence far away (every 100 rounds); the ESS floor alone
        // must trigger the refresh.
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 128,
                resample_every: 100,
                ess_floor: 0.9,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(!sketch.is_exhaustive());
        // One violent round: eta 8 on a marginal crushes half the pool's
        // weight by e^{-8}, dropping ESS/m to ~0.5 < 0.9.
        let q = ImplicitQuery::marginal(vec![0], 10).unwrap();
        StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 8.0, None, &mut rng).unwrap();
        assert_eq!(sketch.adaptive_resamples(), 1);
        assert_eq!(sketch.resamples(), 1, "triggered refresh, not cadence");
        assert!(sketch.min_ess() < 0.9 * 128.0);
        // The refresh is ledgered and reported as a backend event.
        assert!(sketch
            .ledger()
            .records()
            .iter()
            .any(|r| r.label == "adaptive-resample"));
        let events = StateBackend::take_events(&mut sketch);
        assert!(matches!(
            events.as_slice(),
            [BackendEvent::AdaptiveResample { round: 1, ess, floor }]
                if *ess < 0.9 * 128.0 && *floor == 0.9
        ));
        // Drained: a second take returns nothing.
        assert!(StateBackend::take_events(&mut sketch).is_empty());
        // Refreshed candidates match the exact from-scratch evaluation.
        for (slot, &idx) in sketch.pool.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool.log_w[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
    }

    #[test]
    fn escalation_ladder_degrades_loudly_and_rolls_back_at_the_cap() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        // Unusably tight threshold, growth disabled: the ladder must run
        // out of rungs and surface Degraded.
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 32,
                max_usable_radius: 1e-9,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let q = ImplicitQuery::marginal(vec![0], 10).unwrap();
        let before_indices = sketch.pool.indices.clone();
        let before_log_w = sketch.pool.log_w.clone();
        let err = StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng)
            .unwrap_err();
        assert!(matches!(err, PmwError::Degraded(_)), "{err:?}");
        // The failed round rolled back completely: no recorded round, the
        // original pool, and the backend stays usable — but the events
        // explaining the failure survive the rollback, closed by an
        // explicit rollback marker.
        assert_eq!(sketch.rounds(), 0);
        assert_eq!(sketch.pool.indices, before_indices);
        assert_eq!(sketch.pool.log_w, before_log_w);
        assert!(!sketch.is_poisoned());
        let events = StateBackend::take_events(&mut sketch);
        assert!(
            matches!(
                events.as_slice(),
                [
                    BackendEvent::EmergencyResample { round: 1, radius },
                    BackendEvent::RoundRolledBack { round: 1 },
                ] if *radius > 1e-9
            ),
            "{events:?}"
        );
        // Drained: a second take returns nothing.
        assert!(StateBackend::take_events(&mut sketch).is_empty());
        assert_eq!(sketch.log().drift_bound(), 0.0);
        // The next (feasible) round still works after loosening nothing:
        // reads with a finite threshold keep erroring loudly instead.
        assert!(matches!(
            query_mean(&sketch, &q),
            Err(PmwError::Degraded(_))
        ));
    }

    #[test]
    fn escalation_ladder_grows_the_pool_to_exhaustive_and_recovers() {
        use pmw_data::workload::ImplicitQuery;
        let cube = BooleanCube::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(59);
        // |X| = 8, pool 4: one doubling reaches the universe, flips the
        // pool to exhaustive (radius 0) and the round succeeds.
        let mut sketch = SampledBackend::new(
            UniversePoints(cube),
            SampledConfig {
                budget: 4,
                max_usable_radius: 1e-9,
                growth_cap: 64,
                ..SampledConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(!sketch.is_exhaustive());
        let q = ImplicitQuery::marginal(vec![0], 3).unwrap();
        StateBackend::apply_query_update(&mut sketch, &q, None, 1.0, 0.4, None, &mut rng).unwrap();
        assert!(sketch.is_exhaustive());
        assert_eq!(sketch.pool_size(), 8);
        assert_eq!(sketch.escalations(), 1);
        assert_eq!(sketch.pool_growths(), 1);
        assert_eq!(sketch.rounds(), 1);
        let events = StateBackend::take_events(&mut sketch);
        assert!(matches!(
            events.as_slice(),
            [
                BackendEvent::EmergencyResample { round: 1, .. },
                BackendEvent::PoolGrowth {
                    round: 1,
                    new_size: 8
                }
            ]
        ));
        // The grown (now exhaustive) pool agrees with the exact log.
        for (slot, &idx) in sketch.pool.indices.iter().enumerate() {
            let exact = sketch.log_weight_of(idx).unwrap();
            assert!(
                (sketch.pool.log_w[slot] - exact).abs() < 1e-12,
                "slot {slot}"
            );
        }
        // Exact state: reads succeed with zero radius under the same
        // tight threshold.
        let est = query_mean(&sketch, &q).unwrap();
        assert_eq!((est.radius, est.beta), (0.0, 0.0));
        // Ledger recorded the ladder's actions.
        let ledger = sketch.ledger();
        assert!(ledger
            .records()
            .iter()
            .any(|r| r.label == "emergency-resample"));
        assert!(ledger.records().iter().any(|r| r.label == "pool-growth"));
    }

    #[test]
    fn published_snapshots_stay_frozen_under_direct_writes() {
        use pmw_data::workload::ImplicitQuery;
        // Driven directly — record, resample, compact_now, growth — no
        // rollback checkpoint ever holds the pool, so copy-on-write in
        // `record` is the only guard between a published snapshot and the
        // backend's writes.
        let cube = BooleanCube::new(6).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let config = SampledConfig {
            budget: 16,
            ..SampledConfig::default()
        };
        let mut sketch = SampledBackend::new(UniversePoints(cube), config, &mut rng).unwrap();
        let readings = |snap: &SampledSnapshot| -> Vec<u64> {
            let loss = bit_loss(1, 6);
            let q = ImplicitQuery::marginal(vec![0, 2], 6).unwrap();
            let est = snap.expected_query_value(&q, None).unwrap();
            let cert = snap.certificate_mean(&loss, &[0.8], &[0.3]).unwrap();
            let max = snap.max_payoff(&loss, &[0.8], &[0.3]).unwrap();
            [
                est.value,
                est.radius,
                cert.value,
                cert.radius,
                max.value,
                max.uncovered_mass,
                snap.read_radius(1.0),
            ]
            .map(f64::to_bits)
            .to_vec()
        };
        let round = |t: usize| {
            let loss = Arc::new(bit_loss(t % 6, 6)) as Arc<dyn CmLoss>;
            RoundUpdate::new(loss, vec![0.9], vec![0.2], 0.5).unwrap()
        };
        let mut published = Vec::new();
        let mut publish = |sketch: &SampledBackend<_>| {
            let snap = sketch.publish_snapshot().unwrap();
            published.push((readings(&snap), snap));
        };
        publish(&sketch);
        for t in 0..3 {
            sketch.record(round(t)).unwrap();
            publish(&sketch);
        }
        sketch.resample(&mut rng).unwrap();
        publish(&sketch);
        sketch.record(round(3)).unwrap();
        publish(&sketch);
        sketch.compact_now().unwrap();
        assert_eq!(sketch.compactions(), 1);
        publish(&sketch);
        sketch.record(round(4)).unwrap();
        publish(&sketch);
        sketch.grow_pool(64, &mut rng).unwrap();
        assert_eq!(sketch.pool_size(), 32);
        publish(&sketch);
        sketch.record(round(5)).unwrap();
        publish(&sketch);
        for (i, (want, snap)) in published.iter().enumerate() {
            assert_eq!(readings(snap), *want, "snapshot {i} changed");
        }
        // Publication is O(1): back-to-back snapshots share the backend's
        // pool instead of copying it.
        let (a, b) = (
            sketch.publish_snapshot().unwrap(),
            sketch.publish_snapshot().unwrap(),
        );
        assert!(Arc::ptr_eq(&a.pool, &b.pool) && Arc::ptr_eq(&a.pool, &sketch.pool));
    }

    #[test]
    fn health_snapshot_tracks_refreshes_and_drift() {
        let (mut sketch, _, _) = driven_pair(10, 256, 61);
        let h = sketch.health();
        assert_eq!(h.pool_size, 256);
        assert_eq!(h.rounds_since_refresh, 3);
        assert!(h.ess >= 1.0 && h.ess <= 256.0);
        assert!((h.drift_bound - sketch.log().drift_bound()).abs() < 1e-12);
        assert!(sketch.min_ess() >= 1.0 && sketch.min_ess() <= 256.0);
        // A refresh resets the since-refresh counters and re-bases drift.
        let mut rng = StdRng::seed_from_u64(62);
        sketch.resample(&mut rng).unwrap();
        let h = sketch.health();
        assert_eq!(h.rounds_since_refresh, 0);
        assert_eq!(h.drift_bound, 0.0);
    }
}
