//! Trace attribution inside residual blocks: a 1-step CQ-A run must show
//! the `Conv2d` and `BatchNorm2d` backward spans nested inside the
//! `Residual` block's backward span, so block time is attributed to the
//! layers that spend it rather than showing up as block self-time.
//!
//! Single `#[test]` in its own file: the sink is process-global.

use std::sync::Arc;

use cq_core::{Pipeline, PretrainConfig, SimclrTrainer};
use cq_data::{Dataset, DatasetConfig};
use cq_models::{Arch, Encoder, EncoderConfig};
use cq_obs::sink::MemorySink;
use cq_obs::Event;
use cq_quant::PrecisionSet;

#[test]
fn residual_backward_spans_nest_their_layers() {
    let sink = Arc::new(MemorySink::new());
    cq_obs::reset();
    cq_obs::install(sink.clone());

    let encoder = Encoder::new(&EncoderConfig::new(Arch::ResNet18, 2).with_proj(16, 8), 7)
        .expect("encoder construction");
    let cfg = PretrainConfig {
        pipeline: Pipeline::CqA,
        precision_set: Some(PrecisionSet::range(6, 16).expect("valid range")),
        epochs: 1,
        batch_size: 8,
        lr: 0.02,
        seed: 7,
        ..Default::default()
    };
    let (train, _test) = Dataset::generate(&DatasetConfig::cifarlike().with_sizes(8, 8));
    let mut trainer = SimclrTrainer::new(encoder, cfg).expect("trainer construction");
    trainer.train(&train).expect("1-step pretrain");
    assert_eq!(trainer.history().steps, 1);

    cq_obs::flush();
    cq_obs::uninstall();

    // Span events come from the training thread only (kernels open no
    // spans), so one stack reconstructs the nesting.
    let mut stack: Vec<&'static str> = Vec::new();
    let (mut conv, mut bn) = (0usize, 0usize);
    for e in sink.take() {
        match e {
            Event::SpanStart { name, .. } => {
                if stack.contains(&"encoder.backward") && stack.last() == Some(&"Residual") {
                    match name {
                        "Conv2d" => conv += 1,
                        "BatchNorm2d" => bn += 1,
                        _ => {}
                    }
                }
                stack.push(name);
            }
            Event::SpanEnd { name, .. } => {
                assert_eq!(stack.pop(), Some(name), "unbalanced span stack");
            }
            _ => {}
        }
    }
    // ResNet-18: 8 blocks × 2 convs + 3 projection skips, per branch
    // (a CQ-A step backpropagates two quantized views).
    assert_eq!(
        conv,
        2 * (8 * 2 + 3),
        "Conv2d backward spans inside Residual"
    );
    assert_eq!(
        bn,
        2 * (8 * 2 + 3),
        "BatchNorm2d backward spans inside Residual"
    );
}
