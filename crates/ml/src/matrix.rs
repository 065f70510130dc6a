//! Dense row-major matrices and a linear solver.
//!
//! Sized for the reproduction's needs: profile-weight learning solves
//! `l × l` systems with `l ≤ ~100` (Lemma 4), and ridge regression solves
//! feature-count-sized systems. Gaussian elimination with partial pivoting
//! is exactly right at this scale.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from nested rows; panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged matrix rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// In-place add at an element.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] += v;
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch in matvec");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum())
            .collect()
    }

    /// Gram matrix `Xᵀ X`, exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self.get(r, i) * self.get(r, j);
                }
                g.set(i, j, s);
                g.set(j, i, s);
            }
        }
        g
    }

    /// Solve `A x = b` by Gaussian elimination with partial pivoting.
    /// Returns `None` for (near-)singular systems.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(self.rows, b.len(), "rhs length mismatch");
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot * n + c);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut v = x[col];
            for c in (col + 1)..n {
                v -= a[col * n + c] * x[c];
            }
            x[col] = v / a[col * n + col];
        }
        Some(x)
    }
}

/// Ridge solution `(XᵀX + λI)⁻¹ Xᵀ y` — the closed form Lemma 4 analyzes for
/// profile-importance estimation. Returns `None` on singular systems (which
/// λ > 0 prevents in practice).
pub fn ridge_solve(x: &Matrix, y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(x.rows(), y.len(), "target length mismatch");
    let mut gram = x.gram();
    for i in 0..gram.rows() {
        gram.add_at(i, i, lambda);
    }
    let xty = x.transpose().matvec(y);
    gram.solve(&xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1  →  x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]);
        let x = a.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_is_xtx() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let xt = x.transpose();
        let mut xtx = Matrix::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                xtx.set(r, c, (0..3).map(|k| xt.get(r, k) * x.get(k, c)).sum());
            }
        }
        assert_eq!(x.gram(), xtx);
    }

    #[test]
    fn ridge_recovers_exact_weights_at_zero_noise() {
        // y = 3*x1 - 2*x2, well-conditioned design.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i as f64) * 0.1 + 1.0, ((i * 7 % 13) as f64) * 0.2])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let w = ridge_solve(&x, &y, 1e-9).unwrap();
        assert!((w[0] - 3.0).abs() < 1e-4, "w0={}", w[0]);
        assert!((w[1] + 2.0).abs() < 1e-4, "w1={}", w[1]);
    }

    #[test]
    fn ridge_shrinks_with_large_lambda() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = [2.0, 4.0, 6.0];
        let w_small = ridge_solve(&x, &y, 1e-9).unwrap()[0];
        let w_big = ridge_solve(&x, &y, 1e6).unwrap()[0];
        assert!(w_big.abs() < w_small.abs());
    }
}
