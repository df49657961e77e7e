//! Hyper-parameter candidates (paper §6.4, Figures 4 and 16–18). The
//! robustness experiments train every candidate and report F1 per
//! epoch; the paper draws such settings at random and rates them on the
//! validation set, after Lucic et al.'s large-scale GAN study.

use crate::config::SynthesizerConfig;

/// One candidate hyper-parameter setting (the `param-1 … param-6` of
/// the paper's Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperParams {
    /// Generator learning rate.
    pub lr_g: f32,
    /// Discriminator learning rate.
    pub lr_d: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Generator hidden widths.
    pub g_hidden: Vec<usize>,
    /// Prior noise dimension.
    pub noise_dim: usize,
}

impl HyperParams {
    /// Applies the setting onto a base configuration.
    pub fn apply(&self, base: &SynthesizerConfig) -> SynthesizerConfig {
        let mut cfg = base.clone();
        cfg.train.lr_g = self.lr_g;
        cfg.train.lr_d = self.lr_d;
        cfg.train.batch_size = self.batch_size;
        cfg.g_hidden = self.g_hidden.clone();
        cfg.noise_dim = self.noise_dim;
        cfg
    }
}

/// The six canonical candidate settings used by the robustness
/// experiments (Figures 4, 16–18): learning rates spanning two orders
/// of magnitude, two batch sizes, two capacities.
pub fn default_candidates() -> Vec<HyperParams> {
    vec![
        HyperParams {
            lr_g: 2e-3,
            lr_d: 2e-3,
            batch_size: 64,
            g_hidden: vec![128, 128],
            noise_dim: 32,
        },
        HyperParams {
            lr_g: 1e-2,
            lr_d: 1e-2,
            batch_size: 64,
            g_hidden: vec![128, 128],
            noise_dim: 32,
        },
        HyperParams {
            lr_g: 5e-4,
            lr_d: 5e-4,
            batch_size: 32,
            g_hidden: vec![64],
            noise_dim: 16,
        },
        HyperParams {
            lr_g: 2e-2,
            lr_d: 2e-3,
            batch_size: 128,
            g_hidden: vec![256, 256],
            noise_dim: 64,
        },
        HyperParams {
            lr_g: 2e-3,
            lr_d: 2e-2,
            batch_size: 32,
            g_hidden: vec![64, 64],
            noise_dim: 32,
        },
        HyperParams {
            lr_g: 5e-2,
            lr_d: 5e-2,
            batch_size: 64,
            g_hidden: vec![128],
            noise_dim: 32,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkKind, TrainConfig};

    #[test]
    fn candidates_are_distinct() {
        let c = default_candidates();
        assert_eq!(c.len(), 6);
        for i in 0..c.len() {
            for j in i + 1..c.len() {
                assert_ne!(c[i], c[j]);
            }
        }
    }

    #[test]
    fn apply_overrides_base() {
        let base = SynthesizerConfig::new(NetworkKind::Mlp, TrainConfig::vtrain(10));
        let hp = &default_candidates()[1];
        let cfg = hp.apply(&base);
        assert_eq!(cfg.train.lr_g, 1e-2);
        assert_eq!(cfg.noise_dim, 32);
        assert_eq!(cfg.network, NetworkKind::Mlp);
    }
}
