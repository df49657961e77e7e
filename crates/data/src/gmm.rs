//! Univariate Gaussian mixture models fitted by expectation–
//! maximization, powering the paper's GMM-based (mode-specific)
//! normalization of numerical attributes (§4).

use crate::error::DataError;
use std::convert::Infallible;

/// A fitted univariate Gaussian mixture.
#[derive(Debug, Clone)]
pub struct Gmm1d {
    weights: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Floor on component standard deviations, preventing collapse onto a
/// single repeated value.
const STD_FLOOR: f64 = 1e-4;

impl Gmm1d {
    /// Fits a mixture with `s` components (the paper uses small `s`,
    /// e.g. 5) by EM. Components are initialized at evenly spaced
    /// quantiles, which is deterministic and robust for 1-D data.
    /// Degenerate inputs (constant columns, fewer distinct values than
    /// components) are handled by dropping empty components.
    pub fn fit(values: &[f64], s: usize, iterations: usize) -> Gmm1d {
        assert!(s > 0, "need at least one component");
        assert!(!values.is_empty(), "cannot fit a GMM on no data");
        let n = values.len();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

        // Exact quantile initialization.
        let means: Vec<f64> = (0..s)
            .map(|i| sorted[(i * (n - 1)) / s.max(1)])
            .collect();
        let global_std = std_dev(values).max(STD_FLOOR);
        let pass = |f: &mut dyn FnMut(f64)| -> Result<(), Infallible> {
            values.iter().for_each(|&x| f(x));
            Ok(())
        };
        let Ok(gmm) = em(pass, n, means, global_std, iterations);
        gmm
    }

    /// Fits a mixture over data that is only reachable pass-by-pass —
    /// the out-of-core analogue of [`Gmm1d::fit`] for chunked stores
    /// that do not fit in memory. `for_each` must stream every value
    /// (in a fixed order) to the callback each time it is called; it
    /// is invoked `2 + iterations` times: one pass for count/range/
    /// variance, one histogram pass for quantile initialization, and
    /// one per EM iteration.
    ///
    /// Both fits run the same EM routine, so everything after
    /// initialization is shared arithmetic. Initialization is
    /// intentionally different: exact sorted quantiles would require
    /// materializing the column, so component means start at
    /// approximate quantiles from a 1024-bin histogram, and the global
    /// standard deviation comes from Welford's one-pass update rather
    /// than two passes. Both are deterministic; a streaming fit is
    /// bit-identical across chunk backends and thread counts, but not
    /// to [`Gmm1d::fit`] on the same data.
    pub fn fit_streaming<F>(
        mut for_each: F,
        s: usize,
        iterations: usize,
    ) -> Result<Gmm1d, DataError>
    where
        F: FnMut(&mut dyn FnMut(f64)) -> Result<(), DataError>,
    {
        assert!(s > 0, "need at least one component");

        // Pass 1: count, range, and global variance (Welford).
        let mut n = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        for_each(&mut |x| {
            n += 1;
            min = min.min(x);
            max = max.max(x);
            let d = x - mean;
            mean += d / n as f64;
            m2 += d * (x - mean);
        })?;
        assert!(n > 0, "cannot fit a GMM on no data");
        let global_std = (m2 / n as f64).sqrt().max(STD_FLOOR);

        // Pass 2: histogram → approximate quantile initialization.
        const BINS: usize = 1024;
        let width = (max - min) / BINS as f64;
        let mut hist = vec![0u64; BINS];
        for_each(&mut |x| {
            let b = if width > 0.0 {
                (((x - min) / width) as usize).min(BINS - 1)
            } else {
                0
            };
            hist[b] += 1;
        })?;
        let mut means = Vec::with_capacity(s);
        let mut bin = 0usize;
        let mut cum = hist[0];
        for i in 0..s {
            let rank = ((i * (n - 1)) / s) as u64;
            while cum <= rank && bin + 1 < BINS {
                bin += 1;
                cum += hist[bin];
            }
            means.push(min + (bin as f64 + 0.5) * width);
        }
        em(for_each, n, means, global_std, iterations)
    }

    /// Reassembles a fitted mixture from its parameters (for model
    /// persistence). Panics on inconsistent arities or non-positive
    /// standard deviations.
    pub fn from_parts(weights: Vec<f64>, means: Vec<f64>, stds: Vec<f64>) -> Gmm1d {
        assert!(!means.is_empty(), "mixture needs at least one component");
        assert_eq!(weights.len(), means.len(), "weight arity mismatch");
        assert_eq!(stds.len(), means.len(), "std arity mismatch");
        assert!(stds.iter().all(|&s| s > 0.0), "stds must be positive");
        Gmm1d {
            weights,
            means,
            stds,
        }
    }

    /// Number of surviving components.
    pub fn n_components(&self) -> usize {
        self.means.len()
    }

    /// Component means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Component standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Component weights (sum to ~1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Index of the most responsible component for `x`
    /// (`argmax_i π_i(x)` in the paper's notation).
    pub fn most_likely_component(&self, x: f64) -> usize {
        let mut best = 0;
        let mut best_p = f64::NEG_INFINITY;
        for k in 0..self.n_components() {
            let p = self.weights[k] * gauss_pdf(x, self.means[k], self.stds[k]);
            if p > best_p {
                best_p = p;
                best = k;
            }
        }
        if best_p <= 0.0 {
            nearest(&self.means, x)
        } else {
            best
        }
    }

    /// Mode-specific normalization: `v_gmm = (v - µ_k) / (2 σ_k)` with
    /// `k` the most likely component, clamped to `[-1, 1]` so tanh
    /// outputs can reproduce it. Returns `(v_gmm, k)`.
    pub fn normalize(&self, x: f64) -> (f64, usize) {
        let k = self.most_likely_component(x);
        let v = (x - self.means[k]) / (2.0 * self.stds[k]);
        (v.clamp(-1.0, 1.0), k)
    }

    /// Inverse of [`Gmm1d::normalize`].
    pub fn denormalize(&self, v_gmm: f64, k: usize) -> f64 {
        assert!(k < self.n_components(), "component index out of range");
        v_gmm * 2.0 * self.stds[k] + self.means[k]
    }
}

/// EM from the given initial means, with uniform weights and
/// `global_std` for every component: one pass over the `n` values
/// (streamed by `for_each`) per iteration, then dead components are
/// dropped. Both fits end here.
fn em<F, E>(
    mut for_each: F,
    n: usize,
    mut means: Vec<f64>,
    global_std: f64,
    iterations: usize,
) -> Result<Gmm1d, E>
where
    F: FnMut(&mut dyn FnMut(f64)) -> Result<(), E>,
{
    let s = means.len();
    let mut stds = vec![global_std; s];
    let mut weights = vec![1.0 / s as f64; s];
    let mut resp = vec![0.0f64; s];
    for _ in 0..iterations {
        // Accumulators for the M step.
        let mut wsum = vec![0.0f64; s];
        let mut msum = vec![0.0f64; s];
        let mut vsum = vec![0.0f64; s];
        for_each(&mut |x| {
            // E step for one point.
            let mut total = 0.0;
            for k in 0..s {
                resp[k] = weights[k] * gauss_pdf(x, means[k], stds[k]);
                total += resp[k];
            }
            if total <= 0.0 {
                // All densities underflowed; assign to nearest mean.
                let k = nearest(&means, x);
                resp.fill(0.0);
                resp[k] = 1.0;
                total = 1.0;
            }
            for k in 0..s {
                let r = resp[k] / total;
                wsum[k] += r;
                msum[k] += r * x;
                vsum[k] += r * x * x;
            }
        })?;
        // M step.
        for k in 0..s {
            if wsum[k] < 1e-10 {
                weights[k] = 0.0;
                continue;
            }
            weights[k] = wsum[k] / n as f64;
            means[k] = msum[k] / wsum[k];
            let var = (vsum[k] / wsum[k] - means[k] * means[k]).max(STD_FLOOR * STD_FLOOR);
            stds[k] = var.sqrt();
        }
    }

    // Drop dead components.
    let alive: Vec<usize> = (0..s).filter(|&k| weights[k] > 1e-9).collect();
    assert!(!alive.is_empty(), "EM lost all components");
    Ok(Gmm1d {
        weights: alive.iter().map(|&k| weights[k]).collect(),
        means: alive.iter().map(|&k| means[k]).collect(),
        stds: alive.iter().map(|&k| stds[k]).collect(),
    })
}

fn gauss_pdf(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    (-0.5 * z * z).exp() / (std * (2.0 * std::f64::consts::PI).sqrt())
}

fn std_dev(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
}

fn nearest(means: &[f64], x: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (k, &m) in means.iter().enumerate() {
        let d = (x - m).abs();
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_tensor::Rng;

    fn bimodal_sample(n: usize, seed: u64) -> Vec<f64> {
        // The paper's running example: "young generation" N(20, 10) and
        // "old generation" N(50, 5).
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    rng.normal_ms(20.0, 10.0)
                } else {
                    rng.normal_ms(50.0, 5.0)
                }
            })
            .collect()
    }

    #[test]
    fn recovers_two_modes() {
        let data = bimodal_sample(4000, 0);
        let gmm = Gmm1d::fit(&data, 2, 50);
        let mut means = gmm.means().to_vec();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 20.0).abs() < 2.0, "means = {means:?}");
        assert!((means[1] - 50.0).abs() < 2.0, "means = {means:?}");
    }

    #[test]
    fn paper_example_age_43_is_old_generation() {
        let data = bimodal_sample(4000, 1);
        let gmm = Gmm1d::fit(&data, 2, 50);
        let old = (0..2)
            .max_by(|&a, &b| gmm.means()[a].partial_cmp(&gmm.means()[b]).unwrap())
            .unwrap();
        let (_v, k) = gmm.normalize(43.0);
        assert_eq!(k, old, "43 should belong to the ~N(50, 5) mode");
    }

    #[test]
    fn normalize_denormalize_roundtrip() {
        let data = bimodal_sample(2000, 2);
        let gmm = Gmm1d::fit(&data, 2, 40);
        for &x in &[15.0, 25.0, 48.0, 55.0] {
            let (v, k) = gmm.normalize(x);
            let back = gmm.denormalize(v, k);
            assert!((back - x).abs() < 1e-9, "{x} -> {v} -> {back}");
        }
    }

    #[test]
    fn clamps_outliers() {
        let data = bimodal_sample(2000, 3);
        let gmm = Gmm1d::fit(&data, 2, 40);
        let (v, _) = gmm.normalize(1e6);
        assert_eq!(v, 1.0);
        let (v, _) = gmm.normalize(-1e6);
        assert_eq!(v, -1.0);
    }

    #[test]
    fn constant_column_survives() {
        let data = vec![7.0; 100];
        let gmm = Gmm1d::fit(&data, 3, 20);
        assert!(gmm.n_components() >= 1);
        let (v, k) = gmm.normalize(7.0);
        assert!(v.abs() < 1e-6);
        assert!((gmm.denormalize(v, k) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn weights_sum_to_one() {
        let data = bimodal_sample(1000, 4);
        let gmm = Gmm1d::fit(&data, 4, 30);
        let total: f64 = gmm.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    /// Drives `fit_streaming` from an in-memory slice split into
    /// chunks, mimicking how a chunk source feeds it.
    fn stream_fit(values: &[f64], chunk: usize, s: usize, iters: usize) -> Gmm1d {
        Gmm1d::fit_streaming(
            |f| {
                for part in values.chunks(chunk) {
                    for &x in part {
                        f(x);
                    }
                }
                Ok(())
            },
            s,
            iters,
        )
        .unwrap()
    }

    #[test]
    fn streaming_fit_recovers_two_modes() {
        let data = bimodal_sample(4000, 5);
        let gmm = stream_fit(&data, 64, 2, 50);
        let mut means = gmm.means().to_vec();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 20.0).abs() < 2.0, "means = {means:?}");
        assert!((means[1] - 50.0).abs() < 2.0, "means = {means:?}");
    }

    #[test]
    fn streaming_fit_is_chunking_invariant() {
        // The fit must depend only on the value sequence, not on how it
        // is cut into chunks — the guarantee that makes in-memory and
        // store-backed sources interchangeable.
        let data = bimodal_sample(1000, 6);
        let a = stream_fit(&data, 7, 3, 25);
        let b = stream_fit(&data, 1000, 3, 25);
        assert_eq!(a.means(), b.means());
        assert_eq!(a.stds(), b.stds());
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn streaming_fit_constant_column() {
        let data = vec![7.0; 64];
        let gmm = stream_fit(&data, 16, 3, 20);
        assert!(gmm.n_components() >= 1);
        let (v, k) = gmm.normalize(7.0);
        assert!(v.abs() < 1e-6);
        assert!((gmm.denormalize(v, k) - 7.0).abs() < 1e-6);
    }

    /// Both fits, pinned to the bit on a fixed bimodal sample. They run
    /// one EM routine from different initializations (exact quantiles
    /// and a two-pass deviation against histogram quantiles and a
    /// Welford deviation), so their results differ from each other.
    #[test]
    fn fits_are_pinned_to_the_bit() {
        let data = bimodal_sample(500, 7);
        let bits = |g: &Gmm1d| -> [Vec<u64>; 3] {
            [g.weights(), g.means(), g.stds()].map(|v| v.iter().map(|x| x.to_bits()).collect())
        };
        assert_eq!(
            bits(&Gmm1d::fit(&data, 3, 20)),
            [
                vec![0x3fcae24f4ac960a6, 0x3fd32555d2d7a571, 0x3fdf698287c3aa39],
                vec![0x4031148d058e782a, 0x403760c8046eea88, 0x4048f6965528b5b0],
                vec![0x4020355df5e2fd46, 0x4026d7aa1676d33f, 0x40149b756564f0c0],
            ]
        );
        assert_eq!(
            bits(&stream_fit(&data, 64, 3, 20)),
            [
                vec![0x3fcae4d3f2e5e9bc, 0x3fd323a594e4860f, 0x3fdf69f071a88509],
                vec![0x403114cb46ad235c, 0x40376089f48c02fc, 0x4048f68dc77c9501],
                vec![0x4020365f270ba5b6, 0x4026d6c2c3d3cbdf, 0x40149ba27d570b9c],
            ]
        );
    }

    #[test]
    fn more_components_than_values() {
        let data = vec![1.0, 2.0];
        let gmm = Gmm1d::fit(&data, 5, 20);
        assert!(gmm.n_components() <= 5);
        let (v, k) = gmm.normalize(1.0);
        assert!((gmm.denormalize(v, k) - 1.0).abs() < 0.5);
    }
}
