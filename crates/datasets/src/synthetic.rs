//! A seeded latent-factor table generator, used to build structural
//! stand-ins for the paper's real datasets (see `real.rs`).
//!
//! Each record draws a label `y` from a configurable distribution and a
//! latent vector `z ~ N(0, I)`. Attributes are functions of `(y, z,
//! noise)`:
//! - numerical attributes are affine in `z` with a label offset and an
//!   optional discrete mode shift (multi-modality for GMM
//!   normalization to exploit);
//! - categorical attributes sample from a softmax over per-category
//!   scores that are affine in `z` with a label-dependent boost.
//!
//! Shared latent factors plant attribute↔attribute correlation; label
//! terms plant attribute↔label dependence. Both are exactly the
//! properties the paper's experiments measure synthesizers on.

use daisy_data::{Attribute, Column, Schema, Table};
use daisy_tensor::Rng;

/// Declarative spec of a synthetic table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Dataset display name.
    pub name: &'static str,
    /// Row count of the full-size dataset.
    pub default_rows: usize,
    /// Number of numerical attributes.
    pub numerical: usize,
    /// Domain size per categorical attribute (excluding the label).
    pub categorical_domains: Vec<usize>,
    /// Label distribution (`None` for unlabeled AQP-only tables).
    pub label_probs: Option<Vec<f64>>,
    /// Latent dimensionality (attribute correlation strength scales
    /// with fewer factors shared by more attributes).
    pub latent_dim: usize,
    /// Scale of the label's effect on attributes (0 = labels carry no
    /// signal; ~2 = easily learnable).
    pub label_effect: f64,
    /// Give numerical attributes 2–3 modes (exercises GMM-based
    /// normalization).
    pub multimodal: bool,
}

impl TableSpec {
    /// Number of attributes including the label.
    pub fn n_attrs(&self) -> usize {
        self.numerical
            + self.categorical_domains.len()
            + usize::from(self.label_probs.is_some())
    }

    /// Generates `n` rows. All structural parameters (factor loadings,
    /// category scores, mode offsets) derive deterministically from
    /// `seed`, so two tables from the same seed share one underlying
    /// population.
    pub fn generate(&self, n: usize, seed: u64) -> Table {
        assert!(n > 0, "need at least one row");
        let k_label = self.label_probs.as_ref().map(Vec::len).unwrap_or(0);
        if let Some(probs) = &self.label_probs {
            assert!(
                (probs.iter().sum::<f64>() - 1.0).abs() < 1e-6,
                "label probabilities must sum to 1"
            );
        }
        // Structure RNG: fixed per dataset so that different row counts
        // sample the same population.
        const STRUCTURE_SALT: u64 = 0x5eed_5717;
        let mut srng = Rng::seed_from_u64(seed ^ STRUCTURE_SALT);
        let l = self.latent_dim;

        // Numerical attribute parameters.
        struct NumParams {
            loadings: Vec<f64>,
            label_shift: Vec<f64>,
            noise: f64,
            scale: f64,
            offset: f64,
            mode_offsets: Vec<f64>,
        }
        let num_params: Vec<NumParams> = (0..self.numerical)
            .map(|_| NumParams {
                loadings: (0..l).map(|_| srng.normal()).collect(),
                label_shift: (0..k_label.max(1))
                    .map(|_| srng.normal() * self.label_effect)
                    .collect(),
                noise: srng.uniform(0.2, 0.6),
                scale: srng.uniform(0.5, 20.0),
                offset: srng.uniform(-10.0, 50.0),
                mode_offsets: if self.multimodal {
                    let m = 2 + srng.usize(2);
                    (0..m).map(|i| i as f64 * srng.uniform(2.5, 5.0)).collect()
                } else {
                    vec![0.0]
                },
            })
            .collect();

        // Categorical attribute parameters: [k][l] loadings + [y][k]
        // label boosts.
        struct CatParams {
            loadings: Vec<Vec<f64>>,
            label_boost: Vec<Vec<f64>>,
        }
        let cat_params: Vec<CatParams> = self
            .categorical_domains
            .iter()
            .map(|&k| CatParams {
                loadings: (0..k)
                    .map(|_| (0..l).map(|_| srng.normal() * 1.5).collect())
                    .collect(),
                label_boost: (0..k_label.max(1))
                    .map(|_| (0..k).map(|_| srng.normal() * self.label_effect).collect())
                    .collect(),
            })
            .collect();

        // Row RNG: varies with seed but independent of structure.
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let mut num_cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n); self.numerical];
        let mut cat_cols: Vec<Vec<u32>> =
            vec![Vec::with_capacity(n); self.categorical_domains.len()];
        let mut labels: Vec<u32> = Vec::with_capacity(n);

        let mut z = vec![0.0f64; l];
        for _ in 0..n {
            let y = match &self.label_probs {
                Some(probs) => rng.weighted(probs),
                None => 0,
            };
            for zi in &mut z {
                *zi = rng.normal();
            }
            for (col, p) in num_cols.iter_mut().zip(&num_params) {
                let mut v: f64 = p.loadings.iter().zip(&z).map(|(w, zi)| w * zi).sum();
                v += p.label_shift[y.min(p.label_shift.len() - 1)];
                v += p.mode_offsets[rng.usize(p.mode_offsets.len())];
                v += rng.normal() * p.noise;
                col.push(p.offset + p.scale * v);
            }
            for ((col, p), &k) in cat_cols
                .iter_mut()
                .zip(&cat_params)
                .zip(&self.categorical_domains)
            {
                let mut weights = Vec::with_capacity(k);
                let mut max_score = f64::NEG_INFINITY;
                let mut scores = Vec::with_capacity(k);
                for c in 0..k {
                    let s: f64 = p.loadings[c].iter().zip(&z).map(|(w, zi)| w * zi).sum::<f64>()
                        + p.label_boost[y.min(p.label_boost.len() - 1)][c];
                    max_score = max_score.max(s);
                    scores.push(s);
                }
                for s in scores {
                    weights.push((s - max_score).exp());
                }
                col.push(rng.weighted(&weights) as u32);
            }
            if k_label > 0 {
                labels.push(y as u32);
            }
        }

        // Assemble schema and columns: numerics, categoricals, label.
        let mut attrs = Vec::with_capacity(self.n_attrs());
        let mut columns = Vec::with_capacity(self.n_attrs());
        for (j, col) in num_cols.into_iter().enumerate() {
            attrs.push(Attribute::numerical(format!("num{j}")));
            columns.push(Column::Num(col));
        }
        for ((j, col), &k) in cat_cols.into_iter().enumerate().zip(&self.categorical_domains) {
            attrs.push(Attribute::categorical(format!("cat{j}")));
            columns.push(Column::cat_with_domain(col, k));
        }
        if k_label > 0 {
            let label_idx = attrs.len();
            attrs.push(Attribute::categorical("label"));
            columns.push(Column::cat_with_domain(labels, k_label));
            Table::new(Schema::with_label(attrs, label_idx), columns)
        } else {
            Table::new(Schema::new(attrs), columns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> TableSpec {
        TableSpec {
            name: "demo",
            default_rows: 1000,
            numerical: 3,
            categorical_domains: vec![4, 2],
            label_probs: Some(vec![0.7, 0.3]),
            latent_dim: 2,
            label_effect: 1.5,
            multimodal: true,
        }
    }

    #[test]
    fn shape_matches_spec() {
        let t = demo_spec().generate(500, 0);
        assert_eq!(t.n_rows(), 500);
        assert_eq!(t.n_attrs(), 6);
        assert_eq!(t.schema().n_numerical(), 3);
        assert_eq!(t.schema().n_categorical(), 3);
        assert_eq!(t.n_classes(), 2);
    }

    #[test]
    fn label_distribution_matches() {
        let t = demo_spec().generate(20_000, 1);
        let p1 = t.labels().iter().filter(|&&y| y == 1).count() as f64 / 20_000.0;
        assert!((p1 - 0.3).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn attributes_carry_label_signal() {
        // A depth-10 tree must beat the majority baseline clearly.
        use daisy_eval::classifiers::{Classifier, DecisionTree};
        use daisy_eval::FeatureSpace;
        let t = demo_spec().generate(3000, 2);
        let space = FeatureSpace::fit(&t);
        let x = space.transform(&t);
        let y = FeatureSpace::labels(&t);
        let mut tree = DecisionTree::new(10);
        let mut rng = daisy_tensor::Rng::seed_from_u64(3);
        tree.fit(&x, &y, 2, &mut rng);
        let t2 = demo_spec().generate(1000, 2_000_002);
        // NB: different seed = different population; evaluate in-sample
        // train accuracy against majority instead.
        let _ = t2;
        let acc = daisy_eval::accuracy(&y, &tree.predict(&x));
        let majority = y.iter().filter(|&&v| v == 0).count() as f64 / y.len() as f64;
        assert!(acc > majority + 0.1, "acc {acc} vs majority {majority}");
    }

    #[test]
    fn latent_factors_correlate_attributes() {
        let t = TableSpec {
            latent_dim: 1, // single shared factor = strong correlation
            multimodal: false,
            ..demo_spec()
        }
        .generate(5000, 4);
        let a = t.column(0).as_num();
        let b = t.column(1).as_num();
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(&x, &y)| (x - ma) * (y - mb)).sum::<f64>() / n;
        let sa = (a.iter().map(|&x| (x - ma) * (x - ma)).sum::<f64>() / n).sqrt();
        let sb = (b.iter().map(|&y| (y - mb) * (y - mb)).sum::<f64>() / n).sqrt();
        assert!(
            (cov / (sa * sb)).abs() > 0.3,
            "correlation too weak: {}",
            cov / (sa * sb)
        );
    }

    #[test]
    fn unlabeled_spec_has_no_label() {
        let t = TableSpec {
            label_probs: None,
            ..demo_spec()
        }
        .generate(100, 5);
        assert_eq!(t.schema().label(), None);
        assert_eq!(t.n_attrs(), 5);
    }

    #[test]
    fn same_seed_same_population_different_rows() {
        let spec = demo_spec();
        let small = spec.generate(100, 6);
        let large = spec.generate(200, 6);
        // First rows of both draws agree (same row stream).
        assert_eq!(small.row(0), large.row(0));
        assert_eq!(small.row(99), large.row(99));
    }
}
