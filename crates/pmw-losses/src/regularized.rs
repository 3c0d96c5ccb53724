//! L2 regularization: manufacturing strong convexity.
//!
//! Theorem 4.5's setting requires `σ`-strongly convex losses. The standard
//! way to obtain them is Tikhonov regularization:
//! `ℓ'(θ; x) = ℓ(θ; x) + (σ/2)·‖θ‖₂²`, which is `σ`-strongly convex whenever
//! `ℓ` is convex, at the cost of `σ·R` extra Lipschitz constant on a radius-R
//! domain. [`L2Regularized`] wraps any [`CmLoss`] this way and updates all
//! the metadata consistently.

use crate::error::LossError;
use crate::traits::CmLoss;
use pmw_convex::{vecmath, Domain};

/// `ℓ(θ; x) + (σ/2)‖θ‖₂²` for an inner loss `ℓ`.
#[derive(Debug, Clone)]
pub struct L2Regularized<L: CmLoss> {
    inner: L,
    sigma: f64,
}

impl<L: CmLoss> L2Regularized<L> {
    /// Regularize `inner` with modulus `σ > 0`.
    pub fn new(inner: L, sigma: f64) -> Result<Self, LossError> {
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(LossError::InvalidParameter("sigma must be positive"));
        }
        Ok(Self { inner, sigma })
    }

    /// The regularization modulus.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The wrapped loss.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Radius bound of the domain (largest `‖θ‖` over `Θ`), used for the
    /// Lipschitz metadata of the regularizer term.
    fn radius_bound(&self) -> f64 {
        let c = self.inner.domain().center();
        self.inner.domain().diameter() / 2.0 + vecmath::norm2(&c)
    }
}

// The `Clone + 'static` bounds (beyond what the wrapper itself needs) let
// the `clone_shared` retention hook produce an owned `Arc<dyn CmLoss>`;
// every concrete loss in this crate satisfies them.
impl<L: CmLoss + Clone + 'static> CmLoss for L2Regularized<L> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn domain(&self) -> &Domain {
        self.inner.domain()
    }

    fn point_dim(&self) -> usize {
        self.inner.point_dim()
    }

    fn loss(&self, theta: &[f64], x: &[f64]) -> f64 {
        self.inner.loss(theta, x) + 0.5 * self.sigma * vecmath::norm2_sq(theta)
    }

    fn gradient(&self, theta: &[f64], x: &[f64], out: &mut [f64]) {
        self.inner.gradient(theta, x, out);
        vecmath::axpy(self.sigma, theta, out);
    }

    /// The ridge term contributes the point-independent constant
    /// `σ·⟨direction, θ_hyp⟩` to every payoff, so the sweep is the inner
    /// loss's (possibly fused) sweep plus one shifted pass.
    fn certificate_batch(
        &self,
        theta_hyp: &[f64],
        direction: &[f64],
        points: &pmw_data::PointMatrix,
        out: &mut [f64],
    ) {
        self.inner
            .certificate_batch(theta_hyp, direction, points, out);
        let shift = self.sigma * vecmath::dot(direction, theta_hyp);
        pmw_data::par::for_each_chunk_mut(out, |_, chunk| {
            // Elementwise constant shift: split into exact 4-lanes so the
            // add vectorizes; the remainder loop handles the ragged tail.
            let mut lanes = chunk.chunks_exact_mut(4);
            for s4 in lanes.by_ref() {
                for slot in s4 {
                    *slot += shift;
                }
            }
            for slot in lanes.into_remainder() {
                *slot += shift;
            }
        });
    }

    fn lipschitz(&self) -> f64 {
        self.inner.lipschitz() + self.sigma * self.radius_bound()
    }

    fn strong_convexity(&self) -> f64 {
        self.inner.strong_convexity() + self.sigma
    }

    fn smoothness(&self) -> Option<f64> {
        self.inner.smoothness().map(|s| s + self.sigma)
    }

    fn is_glm(&self) -> bool {
        // The regularizer breaks the pure inner-product structure.
        false
    }

    fn clone_shared(&self) -> Option<std::sync::Arc<dyn CmLoss>> {
        Some(std::sync::Arc::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "l2-regularized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glm::{HingeLoss, SquaredLoss};

    #[test]
    fn construction_validates() {
        assert!(L2Regularized::new(SquaredLoss::new(2).unwrap(), 0.0).is_err());
        assert!(L2Regularized::new(SquaredLoss::new(2).unwrap(), -0.5).is_err());
        let r = L2Regularized::new(SquaredLoss::new(2).unwrap(), 0.5).unwrap();
        assert_eq!(r.sigma(), 0.5);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.point_dim(), 3);
        assert_eq!(r.name(), "l2-regularized");
    }

    #[test]
    fn value_adds_ridge_term() {
        let base = SquaredLoss::new(2).unwrap();
        let r = L2Regularized::new(SquaredLoss::new(2).unwrap(), 1.0).unwrap();
        let theta = [0.6, 0.8];
        let x = [0.5, 0.5, 0.2];
        let expect = base.loss(&theta, &x) + 0.5 * 1.0;
        assert!((r.loss(&theta, &x) - expect).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let r = L2Regularized::new(HingeLoss::new(2).unwrap(), 0.7).unwrap();
        let theta = [0.3, -0.2];
        let x = [0.9, 0.1, 1.0];
        let mut g = vec![0.0; 2];
        r.gradient(&theta, &x, &mut g);
        let h = 1e-6;
        for i in 0..2 {
            let mut plus = theta;
            plus[i] += h;
            let mut minus = theta;
            minus[i] -= h;
            let fd = (r.loss(&plus, &x) - r.loss(&minus, &x)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-5);
        }
    }

    #[test]
    fn metadata_updates_consistently() {
        let r = L2Regularized::new(SquaredLoss::new(3).unwrap(), 0.25).unwrap();
        assert!((r.strong_convexity() - 0.25).abs() < 1e-12);
        // Lipschitz grows by sigma * radius (= 1 on the unit ball).
        let base_l = SquaredLoss::new(3).unwrap().lipschitz();
        assert!((r.lipschitz() - (base_l + 0.25)).abs() < 1e-9);
        assert_eq!(r.smoothness(), Some(0.5 + 0.25));
        assert!(!r.is_glm());
    }

    #[test]
    fn strong_convexity_inequality_holds() {
        // l(b) >= l(a) + <grad(a), b-a> + sigma/2 ||b-a||^2
        let sigma = 0.8;
        let r = L2Regularized::new(SquaredLoss::new(2).unwrap(), sigma).unwrap();
        let x = [0.5, -0.5, 0.3];
        let pairs = [([0.1, 0.2], [-0.4, 0.6]), ([0.9, 0.0], [0.0, 0.9])];
        for (a, b) in pairs {
            let mut g = vec![0.0; 2];
            r.gradient(&a, &x, &mut g);
            let lin: f64 = g[0] * (b[0] - a[0]) + g[1] * (b[1] - a[1]);
            let dist2 = (b[0] - a[0]).powi(2) + (b[1] - a[1]).powi(2);
            let lhs = r.loss(&b, &x);
            let rhs = r.loss(&a, &x) + lin + sigma / 2.0 * dist2;
            assert!(lhs >= rhs - 1e-9, "{lhs} < {rhs}");
        }
    }
}
