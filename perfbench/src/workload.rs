//! The benchmark's workloads and what a run derives from its seed.

use cq_bench::{Protocol, Regime, Scale};
use cq_core::{Pipeline, PretrainConfig};
use cq_data::{AugmentConfig, AugmentPipeline, Dataset, TwoViewLoader};
use cq_models::{Arch, EncoderConfig};
use cq_nn::CosineSchedule;
use cq_quant::PrecisionSet;

/// What a workload's timed loop drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Contrastive pre-training steps.
    Pretrain,
    /// f32 eval and int8 inference batches of a freshly pretrained
    /// encoder.
    Infer,
}

/// One benchmark workload. The reasons each exists are in
/// `BENCHMARK.json` and `perfbench/README.md`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name the driver passes as `--workload`.
    pub name: &'static str,
    /// What the timed loop drives.
    pub kind: Kind,
    /// Dataset regime of the quick protocol.
    pub regime: Regime,
    /// Backbone.
    pub arch: Arch,
    /// Pre-training pipeline.
    pub pipeline: Pipeline,
    /// Precision set `lo..=hi` for quantized pipelines.
    pub precisions: Option<(u8, u8)>,
    /// `CQ_THREADS` for the run.
    pub threads: usize,
    /// Seconds one unit of the timed loop (an epoch, or a pass over the
    /// test split) took on the reference machine. The run length in
    /// units is derived from `--seconds` with this constant, so both
    /// sides of a comparison do identical work.
    pub unit_s: f64,
    /// Fewest units a run measures, so the step-latency tail has
    /// enough samples.
    pub min_units: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "pretrain_cqc_r18",
        kind: Kind::Pretrain,
        regime: Regime::CifarLike,
        arch: Arch::ResNet18,
        pipeline: Pipeline::CqC,
        precisions: Some((8, 16)),
        threads: 2,
        unit_s: 5.1,
        min_units: 3,
    },
    Workload {
        name: "infer_int8_r18",
        kind: Kind::Infer,
        regime: Regime::CifarLike,
        arch: Arch::ResNet18,
        pipeline: Pipeline::Baseline,
        precisions: None,
        threads: 1,
        unit_s: 0.78,
        min_units: 4,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Units of the timed loop a run of `seconds` measures.
    pub fn units(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.unit_s).round() as usize).max(self.min_units)
    }
}

/// Everything a run derives from `(workload, seed)`: the quick protocol
/// of the paper's tables with the seed as its master and dataset seed.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload.
    pub workload: &'static Workload,
    /// The quick protocol, re-seeded.
    pub proto: Protocol,
    /// Encoder configuration.
    pub enc_cfg: EncoderConfig,
    /// Pre-training configuration.
    pub cfg: PretrainConfig,
}

/// Batch size of the infer workload's eval batches: the quick test split
/// (192 images) splits into equal batches, so batch latencies compare.
pub const EVAL_BATCH: usize = 64;

impl Job {
    /// The job for `workload` at `seed`.
    pub fn new(workload: &'static Workload, seed: u64) -> Job {
        let mut proto = Protocol::new(workload.regime, Scale::Quick);
        proto.seed = seed;
        proto.data = proto.data.with_seed(seed);
        let pset = workload.precisions.map(|(lo, hi)| {
            PrecisionSet::range(lo, hi).expect("workload precision range is valid")
        });
        let mut cfg = proto.pretrain_cfg(workload.pipeline, pset);
        if workload.kind == Kind::Infer {
            // The deployed encoder is a 1-epoch SimCLR pretrain.
            cfg.epochs = 1;
        }
        let enc_cfg = proto.encoder_cfg(workload.arch);
        Job {
            workload,
            proto,
            enc_cfg,
            cfg,
        }
    }

    /// Generates the train and test splits.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        self.proto.datasets()
    }

    /// The two-view loader `SimclrTrainer::train` would build for this
    /// configuration, so the measured trajectory is the one `train` runs.
    pub fn loader(&self) -> TwoViewLoader {
        TwoViewLoader::new(
            AugmentPipeline::new(AugmentConfig::simclr()),
            self.cfg.batch_size,
            self.cfg.seed ^ 0xA5A5,
        )
    }

    /// The cosine schedule `SimclrTrainer::train` uses over `cfg.epochs`.
    pub fn schedule(&self, batches_per_epoch: usize) -> CosineSchedule {
        let total = (self.cfg.epochs * batches_per_epoch).max(1);
        CosineSchedule::new(self.cfg.lr, total, total / 20)
    }

    /// Largest loss a finite step can report: each NT-Xent term is at
    /// most `ln(2B - 1) + 2 / tau` (cosine similarities lie in [-1, 1]).
    pub fn max_loss(&self) -> f32 {
        let terms = if self.cfg.pipeline == Pipeline::CqC {
            4.0
        } else {
            1.0
        };
        let b = self.cfg.batch_size as f32;
        terms * ((2.0 * b - 1.0).ln() + 2.0 / self.cfg.temperature)
    }

    /// Input shape of one training batch, `[B, 3, s, s]`.
    pub fn train_input(&self) -> [usize; 4] {
        let s = self.proto.data.image_size;
        [self.cfg.batch_size, 3, s, s]
    }
}
