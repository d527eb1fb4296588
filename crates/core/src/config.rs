//! Model configurations reproducing the paper's Table III.
//!
//! The notation `C{K}×1_{f}-P{p}-…-FC{n}` maps to a sequence of
//! [`ConvLayer`]s (Chebyshev order `K`, `f` filters, pooling size `p`)
//! followed by a per-bucket fully connected decoder to `n` outputs.

use gcwc_nn::OptimConfig;

/// One graph-convolution + pooling stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvLayer {
    /// Chebyshev order `K` (the `C{K}×1` part).
    pub cheb_order: usize,
    /// Number of filters `f`.
    pub filters: usize,
    /// Graph pooling size after the convolution (must be a power of two;
    /// 1 disables pooling).
    pub pool: usize,
}

/// Output head: speed histograms (softmax) or average speeds (sigmoid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// HIST functionality: `n × m` histogram matrix, row-wise softmax,
    /// KL loss (Eq. 3).
    Histogram,
    /// AVG functionality: `n × 1` normalised speeds, sigmoid, masked MSE.
    Average,
}

/// The CP-CNN context sub-network of A-GCWC (§V-B3):
/// `C2×2_4-P2-C2×2_8-P2-FC1` in Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpCnnConfig {
    /// Filters in the first 2×2 convolution.
    pub filters1: usize,
    /// Filters in the second 2×2 convolution.
    pub filters2: usize,
}

impl Default for CpCnnConfig {
    fn default() -> Self {
        Self { filters1: 4, filters2: 8 }
    }
}

/// Full model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Graph convolution stack.
    pub conv_layers: Vec<ConvLayer>,
    /// Output head.
    pub output: OutputKind,
    /// Optimiser settings (LR / Decay / Regul columns of Table III).
    pub optim: OptimConfig,
    /// Dropout probability on the penultimate representation.
    pub dropout: f64,
    /// Denoising augmentation: probability of re-masking an observed
    /// input row during training (the row stays in the loss mask), which
    /// is what turns the auto-encoder (§IV-A) into a *completion* model —
    /// without it the decoder is never supervised on rows absent from
    /// its input.
    pub row_dropout: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (20 in the paper's timing experiments).
    pub batch_size: usize,
    /// Context embedding dimensionality β (A-GCWC; 4 in the paper).
    pub context_dim: usize,
    /// CP-CNN architecture (A-GCWC).
    pub cp_cnn: CpCnnConfig,
    /// Which contexts A-GCWC uses: `[time, day, row-flag]`. All enabled
    /// in the paper; subsets drive the context ablation benches.
    pub context_mask: [bool; 3],
}

impl ModelConfig {
    /// GCWC for the HW dataset, HIST type:
    /// `C8×1_16-P4-C8×1_16-P2-FC24` with Table III's hyper-parameters.
    pub fn hw_hist() -> Self {
        Self {
            conv_layers: vec![
                ConvLayer { cheb_order: 8, filters: 16, pool: 4 },
                ConvLayer { cheb_order: 8, filters: 16, pool: 2 },
            ],
            output: OutputKind::Histogram,
            optim: OptimConfig {
                learning_rate: 5.0e-3,
                lr_decay: 0.995,
                weight_decay: 0.001,
                grad_clip: 5.0,
            },
            dropout: 0.17,
            row_dropout: 0.25,
            epochs: 30,
            batch_size: 20,
            context_dim: 4,
            cp_cnn: CpCnnConfig::default(),
            context_mask: [true; 3],
        }
    }

    /// GCWC for the CI dataset, HIST type:
    /// `C8×1_8-P2-C4×1_8-P2-FC172`.
    pub fn ci_hist() -> Self {
        Self {
            conv_layers: vec![
                ConvLayer { cheb_order: 8, filters: 8, pool: 2 },
                ConvLayer { cheb_order: 4, filters: 8, pool: 2 },
            ],
            output: OutputKind::Histogram,
            optim: OptimConfig {
                learning_rate: 3.0e-3,
                lr_decay: 0.995,
                weight_decay: 0.002,
                grad_clip: 5.0,
            },
            dropout: 0.13,
            row_dropout: 0.25,
            epochs: 30,
            batch_size: 20,
            context_dim: 4,
            cp_cnn: CpCnnConfig::default(),
            context_mask: [true; 3],
        }
    }

    /// GCWC for HW, AVG type (same encoder, sigmoid head).
    pub fn hw_avg() -> Self {
        Self { output: OutputKind::Average, ..Self::hw_hist() }
    }

    /// GCWC for CI, AVG type.
    pub fn ci_avg() -> Self {
        Self { output: OutputKind::Average, ..Self::ci_hist() }
    }

    /// Scales down epochs for quick runs (the experiment harness's fast
    /// profile); keeps everything else.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Table III-style architecture signature of the conv stack + head,
    /// e.g. `C8x1_16-P4-C8x1_16-P2-hist`. Whitespace-free, so it can be
    /// embedded in a checkpoint header's architecture token.
    pub fn arch_signature(&self) -> String {
        let mut s = String::new();
        for l in &self.conv_layers {
            s.push_str(&format!("C{}x1_{}-", l.cheb_order, l.filters));
            if l.pool > 1 {
                s.push_str(&format!("P{}-", l.pool));
            }
        }
        s.push_str(match self.output {
            OutputKind::Histogram => "hist",
            OutputKind::Average => "avg",
        });
        s
    }

    /// Total pooling factor of the conv stack.
    pub fn total_pool(&self) -> usize {
        self.conv_layers.iter().map(|l| l.pool).product()
    }

    /// Number of coarsening levels needed (`log2` of each pool size).
    pub fn coarsen_levels(&self) -> usize {
        self.conv_layers.iter().map(|l| log2_exact(l.pool)).sum()
    }
}

/// `log2` for exact powers of two (re-exported from `gcwc-graph`, the
/// single definition shared with [`gcwc_graph::ConvPlan`]).
pub use gcwc_graph::log2_exact;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_architectures() {
        let hw = ModelConfig::hw_hist();
        assert_eq!(hw.conv_layers.len(), 2);
        assert_eq!(hw.conv_layers[0].cheb_order, 8);
        assert_eq!(hw.conv_layers[0].filters, 16);
        assert_eq!(hw.total_pool(), 8);
        assert_eq!(hw.coarsen_levels(), 3);

        let ci = ModelConfig::ci_hist();
        assert_eq!(ci.conv_layers[1].cheb_order, 4);
        assert_eq!(ci.total_pool(), 4);
        assert_eq!(ci.coarsen_levels(), 2);
    }

    #[test]
    fn avg_variants_change_head_only() {
        let hist = ModelConfig::hw_hist();
        let avg = ModelConfig::hw_avg();
        assert_eq!(avg.output, OutputKind::Average);
        assert_eq!(avg.conv_layers, hist.conv_layers);
        assert_eq!(avg.optim.learning_rate, hist.optim.learning_rate);
    }

    #[test]
    fn log2_exact_values() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(4), 2);
        assert_eq!(log2_exact(8), 3);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_rejects_non_powers() {
        log2_exact(6);
    }

    #[test]
    fn with_epochs_overrides() {
        assert_eq!(ModelConfig::ci_hist().with_epochs(3).epochs, 3);
    }
}
