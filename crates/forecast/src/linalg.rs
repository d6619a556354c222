//! Minimal dense linear algebra for the ARIMA fits.
//!
//! The systems solved here are tiny (order ≤ a few dozen), so a plain
//! Gaussian elimination with partial pivoting is entirely adequate — a
//! LAPACK binding would be unjustified (see DESIGN.md §6).

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// Returns `None` if the matrix is numerically singular.
///
/// # Panics
///
/// Panics if `a` is not square or `b`'s length does not match.
///
/// # Examples
///
/// ```
/// let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
/// let x = ntc_forecast::linalg::solve(a, vec![3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
#[allow(clippy::needless_range_loop)] // indexed loops mirror the matrix algebra
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match");

    for col in 0..n {
        // partial pivot
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite matrix entries")
            })
            .expect("non-empty column");
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);

        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }

    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in row + 1..n {
            sum -= a[row][k] * x[k];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

/// Ridge-regularized least squares: minimizes
/// `‖X β − y‖² + λ‖β‖²` via the normal equations.
///
/// Test-only: the ARIMA fit accumulates the same normal equations
/// straight from its series, and checks itself bit for bit against this
/// row-matrix form.
///
/// Returns `None` only if the regularized system is still singular
/// (which cannot happen for `λ > 0` unless inputs are non-finite).
///
/// # Panics
///
/// Panics if rows of `x` have inconsistent lengths or `y` does not
/// match, or if `lambda` is negative.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexed loops mirror the matrix algebra
pub fn least_squares(x: &[Vec<f64>], y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert!(lambda >= 0.0, "ridge parameter must be non-negative");
    assert_eq!(x.len(), y.len(), "row count must match rhs");
    if x.is_empty() {
        return Some(Vec::new());
    }
    let p = x[0].len();
    assert!(
        x.iter().all(|row| row.len() == p),
        "design-matrix rows must have equal length"
    );
    if p == 0 {
        return Some(Vec::new());
    }

    // Normal equations: (XᵀX + λI) β = Xᵀy.
    let mut xtx = vec![vec![0.0; p]; p];
    let mut xty = vec![0.0; p];
    for (row, &yi) in x.iter().zip(y) {
        for i in 0..p {
            xty[i] += row[i] * yi;
            for j in i..p {
                xtx[i][j] += row[i] * row[j];
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            xtx[i][j] = xtx[j][i];
        }
        xtx[i][i] += lambda;
    }
    solve(xtx, xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero forces a row swap
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 3x + 1 with exact data
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let y: Vec<f64> = (0..10).map(|i| 3.0 * i as f64 + 1.0).collect();
        let beta = least_squares(&x, &y, 0.0).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-9);
        assert!((beta[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let free = least_squares(&x, &y, 0.0).unwrap()[0];
        let ridged = least_squares(&x, &y, 100.0).unwrap()[0];
        assert!(ridged < free);
        assert!(ridged > 0.0);
    }

    #[test]
    fn empty_design_is_ok() {
        assert_eq!(least_squares(&[], &[], 1.0), Some(vec![]));
    }
}
