//! The private input every mechanism reads: the dataset `D` as a weighted
//! point set. Figure 3's error query `err_ℓ(D, D̂_t)`, the single-query
//! oracle `A′`, the true linear answers `q(D)` of \[HR10\]/\[HLM12\] and the
//! naive composition baseline all sweep this one representation.

use crate::error::PmwError;
use crate::state::{eval_query_on_histogram, StateBackend};
use pmw_data::workload::{query_value, PointQuery};
use pmw_data::{Dataset, Histogram, PointMatrix, PointSource, Universe};

/// The dataset as the weighted point set every data-touching step sweeps.
/// Built only through its constructors, which own the input checks.
pub(crate) struct PrivateData {
    universe_size: usize,
    n: usize,
    shape: Shape,
}

enum Shape {
    /// Universe-indexed: the Θ(|X|) data histogram, plus the materialized
    /// universe points when the construction had a [`Universe`] in hand.
    Dense {
        histogram: Histogram,
        points: Option<PointMatrix>,
    },
    /// Row-indexed: only the dataset's ≤ n distinct support rows, with
    /// their universe indices and empirical weights — `O(n·d)` per sweep,
    /// independent of `|X|` (the Fast-MWEM data side).
    Rows {
        indices: Vec<usize>,
        points: PointMatrix,
        weights: Vec<f64>,
    },
}

impl PrivateData {
    /// The dense data side over a materialized universe.
    pub(crate) fn from_universe<U: Universe>(
        universe: &U,
        dataset: &Dataset,
    ) -> Result<Self, PmwError> {
        if dataset.universe_size() != universe.size() {
            return Err(PmwError::LossMismatch(
                "dataset universe size does not match universe",
            ));
        }
        Ok(Self {
            universe_size: universe.size(),
            n: dataset.len(),
            shape: Shape::Dense {
                histogram: dataset.histogram(),
                points: Some(universe.materialize()),
            },
        })
    }

    /// The row data side: only the dataset's support rows, fetched on
    /// demand through `source`. `state` must hold its own point
    /// representation — a backend sweeping a materialized universe is
    /// refused, since nothing here enumerates `X`.
    pub(crate) fn from_source<S: PointSource + ?Sized>(
        source: &S,
        dataset: &Dataset,
        state: &dyn StateBackend,
    ) -> Result<Self, PmwError> {
        if state.requires_materialized_universe() {
            return Err(PmwError::InvalidConfig(
                "this state backend sweeps a materialized universe; point-source construction needs a sketching backend",
            ));
        }
        if dataset.universe_size() != source.len() {
            return Err(PmwError::LossMismatch(
                "dataset universe size does not match point source",
            ));
        }
        let (indices, points, weights) = dataset.support_points_indexed(source)?;
        Ok(Self {
            universe_size: source.len(),
            n: dataset.len(),
            shape: Shape::Rows {
                indices,
                points,
                weights,
            },
        })
    }

    /// The dense data side without universe points, over the dataset's
    /// own universe: dense [`pmw_data::LinearQuery`] workloads only.
    pub(crate) fn histogram_only(dataset: &Dataset) -> Self {
        Self {
            universe_size: dataset.universe_size(),
            n: dataset.len(),
            shape: Shape::Dense {
                histogram: dataset.histogram(),
                points: None,
            },
        }
    }

    /// `|X|`, however the universe is represented.
    pub(crate) fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// The number of dataset rows `n`.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Refuse a state backend over a different universe.
    pub(crate) fn check_backend(&self, state: &dyn StateBackend) -> Result<(), PmwError> {
        if state.universe_size() != self.universe_size {
            return Err(PmwError::LossMismatch(
                "state backend universe size does not match universe",
            ));
        }
        Ok(())
    }

    /// The weighted point set: the universe matrix on the dense side, the
    /// support rows on the row side. Every CM construction builds its data
    /// side with points; only [`PrivateData::histogram_only`] has none.
    pub(crate) fn points(&self) -> &PointMatrix {
        match &self.shape {
            Shape::Dense { points, .. } => points
                .as_ref()
                .expect("CM data sides are built from a universe or point source"),
            Shape::Rows { points, .. } => points,
        }
    }

    /// The weights paired with [`PrivateData::points`] (they sum to 1).
    pub(crate) fn weights(&self) -> &[f64] {
        match &self.shape {
            Shape::Dense { histogram, .. } => histogram.weights(),
            Shape::Rows { weights, .. } => weights,
        }
    }

    /// The Θ(|X|) data histogram (dense side only).
    pub(crate) fn histogram(&self) -> Option<&Histogram> {
        match &self.shape {
            Shape::Dense { histogram, .. } => Some(histogram),
            Shape::Rows { .. } => None,
        }
    }

    /// The materialized universe points (dense side built from a
    /// [`Universe`] only).
    pub(crate) fn universe_points(&self) -> Option<&PointMatrix> {
        match &self.shape {
            Shape::Dense { points, .. } => points.as_ref(),
            Shape::Rows { .. } => None,
        }
    }

    /// Validate that `q` is evaluable against this data side (and against
    /// the hypothesis state, which shares the universe).
    pub(crate) fn check_query(&self, q: &dyn PointQuery) -> Result<(), PmwError> {
        if let Some(len) = q.universe_len() {
            if len != self.universe_size {
                return Err(PmwError::LossMismatch("query length != universe size"));
            }
            return Ok(());
        }
        if let Some(d) = q.point_dim() {
            let points = match &self.shape {
                Shape::Dense { points, .. } => points.as_ref(),
                Shape::Rows { points, .. } => Some(points),
            };
            return match points {
                Some(p) if p.dim() != d => Err(PmwError::LossMismatch(
                    "query point dimension does not match universe points",
                )),
                Some(_) => Ok(()),
                None => Err(PmwError::LossMismatch(
                    "implicit queries need universe points; construct with a universe or point source",
                )),
            };
        }
        Err(PmwError::LossMismatch(
            "query supports neither index nor point evaluation",
        ))
    }

    /// The true answer `q(D)`.
    pub(crate) fn evaluate(&self, q: &dyn PointQuery) -> Result<f64, PmwError> {
        match &self.shape {
            Shape::Dense { histogram, points } => {
                eval_query_on_histogram(q, histogram, points.as_ref())
            }
            Shape::Rows {
                indices,
                points,
                weights,
            } => {
                let mut value = 0.0;
                for ((&idx, point), &w) in indices.iter().zip(points.iter()).zip(weights) {
                    value += w * query_value(q, idx, point)?;
                }
                Ok(value)
            }
        }
    }
}
