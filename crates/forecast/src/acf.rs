//! Autocorrelation (ACF) and partial autocorrelation (PACF) functions.

use ntc_trace::stats;

/// Sample autocorrelation at lags `0..=max_lag`.
///
/// Returns 1.0 at lag 0 by definition; a constant series yields zeros at
/// all positive lags.
///
/// Exact op order: every lag is summed in one pass over the series,
/// each into its own accumulator that starts at −0.0 (the neutral
/// element of `Iterator::sum` for f64) and takes its products in
/// increasing `t` — the rounding of a separate `sum` per lag. Lag 0 is
/// the variance sum, so `c0` is that accumulator over `n` and
/// `rho[k] = (acc[k]/n)/c0` bit for bit.
///
/// # Panics
///
/// Panics if `max_lag >= y.len()`.
///
/// # Examples
///
/// ```
/// let y: Vec<f64> = (0..32).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let r = ntc_forecast::acf::acf(&y, 2);
/// assert!((r[1] + 1.0).abs() < 0.1); // alternating series: lag-1 ~ -1
/// assert!((r[2] - 1.0).abs() < 0.1);
/// ```
pub fn acf(y: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(
        max_lag < y.len(),
        "max lag {max_lag} must be below series length {}",
        y.len()
    );
    let n = y.len() as f64;
    let m = stats::mean(y);
    let centered: Vec<f64> = y.iter().map(|v| v - m).collect();
    // acc[k] = Σ_{t ≥ k} (y[t]−m)(y[t−k]−m), every lag in one pass.
    let mut acc = vec![-0.0; max_lag + 1];
    for (t, &dt) in centered.iter().enumerate() {
        for (a, &ds) in acc.iter_mut().zip(centered[..=t].iter().rev()) {
            *a += dt * ds;
        }
    }
    let c0 = acc[0] / n;
    acc.iter()
        .enumerate()
        .map(|(k, &ck)| {
            if c0 < 1e-12 {
                if k == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                (ck / n) / c0
            }
        })
        .collect()
}

/// The per-lag [`acf`] (one pass over the series per lag) that the
/// one-pass version replaced, kept as the bit-identity oracle.
#[cfg(test)]
pub(crate) fn acf_per_lag(y: &[f64], max_lag: usize) -> Vec<f64> {
    let n = y.len() as f64;
    let m = stats::mean(y);
    let c0: f64 = y.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n;
    (0..=max_lag)
        .map(|k| {
            if c0 < 1e-12 {
                if k == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                let ck: f64 = (k..y.len())
                    .map(|t| (y[t] - m) * (y[t - k] - m))
                    .sum::<f64>()
                    / n;
                ck / c0
            }
        })
        .collect()
}

/// Sample partial autocorrelation at lags `1..=max_lag` via the
/// Durbin–Levinson recursion (index 0 of the result is lag 1).
///
/// # Panics
///
/// Panics if `max_lag == 0` or `max_lag >= y.len()`.
pub fn pacf(y: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(max_lag > 0, "PACF needs at least lag 1");
    let rho = acf(y, max_lag);
    // Durbin-Levinson: phi[k][j] coefficients of the order-k AR fit.
    let mut phi_prev: Vec<f64> = Vec::new();
    let mut out = Vec::with_capacity(max_lag);
    for k in 1..=max_lag {
        let num = rho[k]
            - phi_prev
                .iter()
                .enumerate()
                .map(|(j, &p)| p * rho[k - 1 - j])
                .sum::<f64>();
        let den = 1.0
            - phi_prev
                .iter()
                .enumerate()
                .map(|(j, &p)| p * rho[j + 1])
                .sum::<f64>();
        let phi_kk = if den.abs() < 1e-12 { 0.0 } else { num / den };
        let mut phi_new = vec![0.0; k];
        phi_new[k - 1] = phi_kk;
        for j in 0..k - 1 {
            phi_new[j] = phi_prev[j] - phi_kk * phi_prev[k - 2 - j];
        }
        out.push(phi_kk);
        phi_prev = phi_new;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ar1_series(phi: f64, n: usize) -> Vec<f64> {
        // deterministic pseudo-noise so the test is reproducible
        let mut y = vec![0.0; n];
        let mut state = 0x2545F4914F6CDD1Du64;
        for t in 1..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let e = (state as f64 / u64::MAX as f64) - 0.5;
            y[t] = phi * y[t - 1] + e;
        }
        y
    }

    #[test]
    fn acf_lag0_is_one() {
        let y = ar1_series(0.5, 500);
        let r = acf(&y, 5);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let y = ar1_series(0.8, 5000);
        let r = acf(&y, 3);
        assert!((r[1] - 0.8).abs() < 0.07, "lag-1 acf {r:?}");
        assert!((r[2] - 0.64).abs() < 0.1);
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag1() {
        let y = ar1_series(0.7, 5000);
        let p = pacf(&y, 4);
        assert!((p[0] - 0.7).abs() < 0.07, "lag-1 pacf {p:?}");
        for &later in &p[1..] {
            assert!(later.abs() < 0.12, "higher-lag PACF must vanish: {p:?}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_acf_matches_per_lag_sums_bit_for_bit(
            raw in prop::collection::vec(-50.0f64..50.0, 2..160),
            lag_frac in 0.0f64..1.0,
            shape in 0usize..3,
        ) {
            // Raw noise, a constant series (the c0 < 1e-12 branch) and
            // a coarsely quantized one (exact zeros among the products).
            let y: Vec<f64> = match shape {
                0 => raw,
                1 => vec![raw[0]; raw.len()],
                _ => raw.iter().map(|v| (v / 20.0).round()).collect(),
            };
            let max_lag = ((y.len() - 1) as f64 * lag_frac) as usize;
            prop_assert_eq!(bits(&acf(&y, max_lag)), bits(&acf_per_lag(&y, max_lag)));
        }
    }

    #[test]
    fn negative_zero_lag_sum_keeps_its_sign() {
        // The only lag-2 product is 0·(−1) = −0.0: summed from −0.0 it
        // stays −0.0, as the per-lag `sum` leaves it.
        let y = [-1.0, 1.0, 0.0];
        let r = acf(&y, 2);
        assert!(r[2] == 0.0 && r[2].is_sign_negative(), "{r:?}");
        assert_eq!(bits(&r), bits(&acf_per_lag(&y, 2)));
    }

    #[test]
    fn constant_series_has_zero_acf() {
        let y = vec![5.0; 100];
        let r = acf(&y, 3);
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], 0.0);
    }
}
