//! Order statistics and the error function used by the checks.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The Harrell–Davis estimate of the `q`-quantile (0 < q < 1): a weighted
/// mean of all order statistics, with the weights of a Beta(q(n+1),
/// (1−q)(n+1)) distribution over their ranks. It varies less between
/// samples than the one or two order statistics `quantile` reads.
/// `NaN` for an empty slice.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    if v.is_empty() {
        f64::NAN
    } else {
        sum
    }
}

/// Regularized incomplete beta function I_x(a, b) (Numerical Recipes'
/// continued fraction).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..1000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for num in [
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (its default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |j: usize| {
        let m = n + 1;
        let pos = (j * m) as f64 / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - i as f64;
        v[i - 1] + (v[i] - v[i - 1]) * delta
    };
    (at(1), at(3))
}

/// Complementary error function (Numerical Recipes' Chebyshev fit, relative
/// error below 1.2e-7).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let r = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// The two-sided z score that `comparisons` simultaneous tests may exceed
/// with total probability `alpha` (Bonferroni).
pub fn bonferroni_z(alpha: f64, comparisons: usize) -> f64 {
    let target = alpha / comparisons.max(1) as f64;
    // P(|Z| > z) = erfc(z / √2); bisect for the z where it equals target.
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if erfc(mid / std::f64::consts::SQRT_2) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn harrell_davis_quantiles() {
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((beta_cdf(0.3, 1.0, 1.0) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(0.3, 2.0, 1.0) - 0.09).abs() < 1e-12);
        assert!((beta_cdf(0.5, 207.5, 207.5) - 0.5).abs() < 1e-9);
        // Symmetric samples have their centre as the median estimate.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((hd_quantile(&v, 0.5) - 5.5).abs() < 1e-9);
        let p90 = hd_quantile(&v, 0.9);
        assert!(p90 > 8.0 && p90 < 10.0, "{p90}");
        assert_eq!(hd_quantile(&[4.0], 0.5), 4.0);
        assert!(hd_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn z_scores_are_textbook() {
        assert!((bonferroni_z(0.05, 1) - 1.96).abs() < 0.01);
        assert!((bonferroni_z(0.05, 10) - 2.807).abs() < 0.01);
    }
}
