//! A ledger-style privacy accountant.
//!
//! The Figure-3 mechanism spends privacy in two streams — the sparse vector
//! run and up to `T` oracle calls — and its privacy proof (Theorem 3.9) is a
//! bookkeeping argument over those events. [`Accountant`] records every
//! `(ε₀, δ₀)` event and reports the total under basic or strong composition,
//! letting tests assert that a mechanism's *actual* spend stays within its
//! declared budget.

use crate::composition::{strong_composition, PrivacyBudget};
use crate::error::DpError;

/// One recorded privacy expenditure.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Human-readable label ("sparse-vector", "erm-oracle", ...).
    pub label: String,
    /// The budget this event consumed.
    pub budget: PrivacyBudget,
}

/// Records `(ε, δ)` events and reports composed totals.
#[derive(Debug, Clone, Default)]
pub struct Accountant {
    entries: Vec<LedgerEntry>,
}

impl Accountant {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn spend(&mut self, label: impl Into<String>, budget: PrivacyBudget) {
        self.entries.push(LedgerEntry {
            label: label.into(),
            budget,
        });
    }

    /// All recorded events.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been spent.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append every entry of `other`, in order, to this ledger — the fold
    /// used by tenant-sharded accounting
    /// ([`ShardedAccountant`](crate::ShardedAccountant)) to audit the
    /// union spend: merging per-tenant ledgers must yield the same
    /// [`Accountant::basic_total`] as recording every event in one ledger,
    /// because basic composition is a plain sum.
    pub fn merge(&mut self, other: &Accountant) {
        self.entries.extend(other.entries.iter().cloned());
    }

    /// Total under **basic composition**: `(Σεᵢ, Σδᵢ)`.
    pub fn basic_total(&self) -> Result<PrivacyBudget, DpError> {
        basic_of(self.entries.iter())
    }

    /// Total under **strong composition** at slack `δ'`, treating the ledger
    /// as a homogeneous composition at the *largest* recorded per-event ε
    /// (a sound upper bound for heterogeneous ledgers).
    pub fn strong_total(&self, delta_slack: f64) -> Result<PrivacyBudget, DpError> {
        strong_of(self.entries.iter(), delta_slack)
    }

    /// The total a mechanism should compare against its declared budget,
    /// split the way Theorem 3.9 splits it: entries are grouped by label,
    /// each group is composed under the tighter of basic and strong
    /// composition (strong at slack `δ'`, charged only to groups that use
    /// it), and the groups add up under basic composition.
    ///
    /// Strong composition of the whole ledger at once would price every
    /// entry at the largest per-entry ε — every oracle call at the sparse
    /// vector's ε/2.
    pub fn best_total(&self, delta_slack: f64) -> Result<PrivacyBudget, DpError> {
        if self.entries.is_empty() {
            return Err(DpError::InvalidParameter("empty ledger"));
        }
        let mut labels: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !labels.contains(&e.label.as_str()) {
                labels.push(&e.label);
            }
        }
        let (mut eps, mut delta) = (0.0, 0.0);
        for label in labels {
            let group = self.entries.iter().filter(|e| e.label == label);
            let basic = basic_of(group.clone())?;
            let strong = strong_of(group, delta_slack)?;
            let best = if strong.epsilon() < basic.epsilon() {
                strong
            } else {
                basic
            };
            eps += best.epsilon();
            delta += best.delta();
        }
        PrivacyBudget::new(eps, delta.min(1.0 - f64::EPSILON))
    }
}

/// Basic composition of `entries`: `(Σεᵢ, Σδᵢ)`.
fn basic_of<'a>(
    entries: impl Iterator<Item = &'a LedgerEntry> + Clone,
) -> Result<PrivacyBudget, DpError> {
    if entries.clone().next().is_none() {
        return Err(DpError::InvalidParameter("empty ledger"));
    }
    let eps: f64 = entries.clone().map(|e| e.budget.epsilon()).sum();
    let delta: f64 = entries.map(|e| e.budget.delta()).sum();
    PrivacyBudget::new(eps, delta.min(1.0 - f64::EPSILON))
}

/// Strong composition of `entries` at slack `δ'`, every entry priced at
/// the largest per-entry ε.
fn strong_of<'a>(
    entries: impl Iterator<Item = &'a LedgerEntry> + Clone,
    delta_slack: f64,
) -> Result<PrivacyBudget, DpError> {
    let count = entries.clone().count();
    if count == 0 {
        return Err(DpError::InvalidParameter("empty ledger"));
    }
    let worst_eps = entries
        .clone()
        .map(|e| e.budget.epsilon())
        .fold(0.0f64, f64::max);
    let sum_delta: f64 = entries.map(|e| e.budget.delta()).sum();
    let per_step = PrivacyBudget::new(worst_eps, 0.0)?;
    let composed = strong_composition(per_step, count, delta_slack)?;
    PrivacyBudget::new(
        composed.epsilon(),
        (composed.delta() + sum_delta).min(1.0 - f64::EPSILON),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_errors() {
        let a = Accountant::new();
        assert!(a.is_empty());
        assert!(a.basic_total().is_err());
        assert!(a.strong_total(1e-6).is_err());
    }

    #[test]
    fn basic_total_sums() {
        let mut a = Accountant::new();
        a.spend("sv", PrivacyBudget::new(0.5, 1e-7).unwrap());
        a.spend("oracle", PrivacyBudget::new(0.25, 2e-7).unwrap());
        let t = a.basic_total().unwrap();
        assert!((t.epsilon() - 0.75).abs() < 1e-12);
        assert!((t.delta() - 3e-7).abs() < 1e-18);
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[0].label, "sv");
    }

    #[test]
    fn strong_total_beats_basic_for_many_small_events() {
        let mut a = Accountant::new();
        for _ in 0..1000 {
            a.spend("step", PrivacyBudget::new(0.01, 0.0).unwrap());
        }
        let basic = a.basic_total().unwrap();
        let strong = a.strong_total(1e-6).unwrap();
        assert!(strong.epsilon() < basic.epsilon());
        let best = a.best_total(1e-6).unwrap();
        assert!((best.epsilon() - strong.epsilon()).abs() < 1e-12);
    }

    #[test]
    fn basic_beats_strong_for_few_events() {
        let mut a = Accountant::new();
        a.spend("one", PrivacyBudget::new(0.1, 0.0).unwrap());
        let best = a.best_total(1e-6).unwrap();
        assert!((best.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn best_total_composes_oracle_calls_apart_from_the_sparse_vector() {
        // Theorem 3.9's split at ε = 2, T = 256: the sparse vector takes
        // (ε/2, δ/2), and each of T oracle calls takes
        // ε₀ = ε / (2·√(8T·ln(4/δ))), δ₀ = δ/(4T), so that the calls'
        // strong composition at slack δ/4 fits in the other half.
        let (eps, delta, t) = (2.0, 1e-6, 256usize);
        let mut a = Accountant::new();
        a.spend(
            "sparse-vector",
            PrivacyBudget::new(eps / 2.0, delta / 2.0).unwrap(),
        );
        let tf = t as f64;
        let eps0 = eps / (2.0 * (8.0 * tf * (4.0 / delta).ln()).sqrt());
        let oracle = PrivacyBudget::new(eps0, delta / (4.0 * tf)).unwrap();
        for _ in 0..t {
            a.spend("erm-oracle", oracle);
        }
        // Basic composition alone overspends once more than ~176 calls
        // are made.
        assert!(a.basic_total().unwrap().epsilon() > eps);
        let best = a.best_total(delta / 4.0).unwrap();
        assert!(best.epsilon() <= eps, "spent ε = {}", best.epsilon());
        assert!(
            best.delta() <= delta * (1.0 + 1e-9),
            "spent δ = {}",
            best.delta()
        );
    }
}
