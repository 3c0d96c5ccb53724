//! The materialized universe as one contiguous row-major matrix.
//!
//! Every Θ(|X|) sweep of the Figure-3 mechanism — the dual-certificate
//! evaluation, the error-query objective, the MW update — walks all universe
//! points in index order. The seed representation, `Vec<Vec<f64>>`, put
//! every point behind its own heap allocation, so those sweeps paid a
//! pointer chase plus a likely cache miss per point. [`PointMatrix`] stores
//! the same `|X| × p` data as a single flat `Vec<f64>` with stride `p`:
//! rows are `chunks_exact(p)` views, sweeps are linear scans, and block
//! decomposition for the chunked kernels is free.

use crate::error::DataError;
use crate::universe::Universe;

/// A dense row-major `rows × dim` matrix of universe points.
///
/// Invariants: `data.len() == rows * dim`, `dim >= 1`, and every entry is
/// finite (constructors validate).
#[derive(Debug, Clone, PartialEq)]
pub struct PointMatrix {
    data: Vec<f64>,
    rows: usize,
    dim: usize,
}

impl PointMatrix {
    /// Materialize every point of `universe`, in index order.
    pub fn from_universe<U: Universe + ?Sized>(universe: &U) -> Self {
        let (rows, dim) = (universe.size(), universe.point_dim());
        let mut data = vec![0.0; rows * dim];
        for (index, row) in data.chunks_exact_mut(dim).enumerate() {
            universe.write_point(index, row);
        }
        debug_assert!(
            data.iter().all(|v| v.is_finite()),
            "universe produced a non-finite point coordinate"
        );
        Self { data, rows, dim }
    }

    /// Build from explicit rows (test and workload construction); all rows
    /// must share one nonzero dimension and contain only finite values.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        let first = rows.first().ok_or(DataError::EmptyUniverse)?;
        let dim = first.len();
        if dim == 0 {
            return Err(DataError::InvalidParameter(
                "points must have dimension >= 1",
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in &rows {
            if row.len() != dim {
                return Err(DataError::DimensionMismatch {
                    got: row.len(),
                    expected: dim,
                });
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(DataError::InvalidParameter("points must be finite"));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            data,
            dim,
        })
    }

    /// Build from an existing flat row-major buffer.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::InvalidParameter(
                "points must have dimension >= 1",
            ));
        }
        if data.is_empty() {
            return Err(DataError::EmptyUniverse);
        }
        if !data.len().is_multiple_of(dim) {
            return Err(DataError::DimensionMismatch {
                got: data.len(),
                expected: dim,
            });
        }
        // A branch-free fold rather than a short-circuiting `any`: it
        // vectorizes, so validating a large pool costs a fraction of the
        // scalar loop, whose speed also swung ~30% with code alignment.
        if !data.iter().fold(true, |finite, v| finite & v.is_finite()) {
            return Err(DataError::InvalidParameter("points must be finite"));
        }
        Ok(Self {
            rows: data.len() / dim,
            data,
            dim,
        })
    }

    /// Number of points `|X|`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the matrix holds no points (cannot happen for constructed
    /// values; kept for API symmetry with slices).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Point dimension `p` (the row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `index` as a slice view.
    ///
    /// # Panics
    /// Panics when `index >= len()`.
    pub fn row(&self, index: usize) -> &[f64] {
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Iterate rows in index order (a linear scan of the backing buffer).
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim)
    }

    /// The flat row-major backing buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The rows in `[start, end)` as one contiguous sub-matrix view
    /// (`(end - start) * dim` flat values) — the unit the chunked sweeps
    /// walk.
    ///
    /// # Panics
    /// Panics when `start > end` or `end > len()`.
    pub fn row_block(&self, start: usize, end: usize) -> &[f64] {
        &self.data[start * self.dim..end * self.dim]
    }

    /// Copy the rows out as a `Vec<Vec<f64>>` (compatibility/tests only —
    /// hot paths should stay on the flat layout).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.iter().map(<[f64]>::to_vec).collect()
    }
}

impl std::ops::Index<usize> for PointMatrix {
    type Output = [f64];

    fn index(&self, index: usize) -> &[f64] {
        self.row(index)
    }
}

impl<'a> IntoIterator for &'a PointMatrix {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{BooleanCube, GridUniverse};

    #[test]
    fn from_universe_matches_write_point() {
        let g = GridUniverse::symmetric_unit(2, 4).unwrap();
        let m = PointMatrix::from_universe(&g);
        assert_eq!(m.len(), 16);
        assert_eq!(m.dim(), 2);
        for i in 0..m.len() {
            assert_eq!(m.row(i), g.point(i).as_slice());
        }
    }

    #[test]
    fn from_rows_validates() {
        assert!(PointMatrix::from_rows(vec![]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![]]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(PointMatrix::from_rows(vec![vec![f64::NAN]]).is_err());
        let m = PointMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(&m[1], &[3.0, 4.0]);
    }

    #[test]
    fn from_flat_round_trips() {
        assert!(PointMatrix::from_flat(vec![], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0; 5], 2).is_err());
        assert!(PointMatrix::from_flat(vec![1.0; 4], 0).is_err());
        let m = PointMatrix::from_flat(vec![0.0, 1.0, 2.0, 3.0], 2).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.as_flat(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn iteration_is_row_order() {
        let cube = BooleanCube::new(3).unwrap();
        let m = PointMatrix::from_universe(&cube);
        let collected: Vec<Vec<f64>> = m.iter().map(<[f64]>::to_vec).collect();
        assert_eq!(collected, m.to_rows());
        assert_eq!(collected.len(), 8);
        assert_eq!(collected[5], cube.point(5));
        // IntoIterator for &PointMatrix supports `for row in &m`.
        let mut count = 0;
        for row in &m {
            assert_eq!(row.len(), 3);
            count += 1;
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn row_blocks_partition_the_buffer() {
        let cube = BooleanCube::new(4).unwrap();
        let m = PointMatrix::from_universe(&cube);
        let block = m.row_block(4, 8);
        assert_eq!(block.len(), 4 * m.dim());
        assert_eq!(&block[..m.dim()], m.row(4));
    }
}
