//! The architecture of every backbone and head this crate builds, as
//! symbolic [`Plan`]s.
//!
//! A plan is the only description of a network: [`crate::Encoder::new`]
//! and the BYOL/SimSiam predictors instantiate their layers from it
//! ([`Plan::instantiate`]), [`Plan::infer`], [`Plan::param_count`] and
//! [`Plan::flops`] analyse it without allocating a tensor, the `cq-check`
//! binary validates it for every built-in experiment configuration, and
//! `cq-infer` walks it to convert a trained encoder to an integer
//! program. Layer names are the parameter-name prefixes of the runtime
//! network.

use cq_nn::spec::{LayerKind, Plan, SpecError};
use cq_tensor::Conv2dSpec;

use crate::EncoderConfig;

/// Backbone architecture identifiers (the paper's six networks).
///
/// ResNet-18/34 use the 4-stage BasicBlock layout of the ImageNet family
/// (block counts [2,2,2,2] / [3,4,6,3]) with a 3×3 stem (no stem pooling —
/// inputs here are small). ResNet-74/110/152 use the classic 3-stage CIFAR
/// layout `6n+2` with `n` = 12 / 18 / 25. MobileNetV2 uses inverted
/// residual blocks with a CIFAR-style stem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// 4-stage BasicBlock ResNet, blocks [2,2,2,2].
    ResNet18,
    /// 4-stage BasicBlock ResNet, blocks [3,4,6,3].
    ResNet34,
    /// 3-stage CIFAR ResNet, 6·12+2 layers.
    ResNet74,
    /// 3-stage CIFAR ResNet, 6·18+2 layers.
    ResNet110,
    /// 3-stage CIFAR ResNet, 6·25+2 layers.
    ResNet152,
    /// MobileNetV2 with inverted residual blocks.
    MobileNetV2,
}

impl Arch {
    /// All architectures evaluated in the paper, in table order.
    pub fn all() -> [Arch; 6] {
        [
            Arch::ResNet18,
            Arch::ResNet34,
            Arch::ResNet74,
            Arch::ResNet110,
            Arch::ResNet152,
            Arch::MobileNetV2,
        ]
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ResNet18 => "ResNet-18",
            Arch::ResNet34 => "ResNet-34",
            Arch::ResNet74 => "ResNet-74",
            Arch::ResNet110 => "ResNet-110",
            Arch::ResNet152 => "ResNet-152",
            Arch::MobileNetV2 => "MobileNetV2",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an MLP projection or prediction head.
///
/// SimCLR (§3.4: "adding a projection head after the encoder") uses a
/// 2-layer MLP; BYOL additionally uses a prediction head on the online
/// network. Both are the same shape: `Linear → [BN] → ReLU → Linear`
/// (see [`mlp_head_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// Insert BatchNorm1d after the first linear (BYOL-style head).
    pub batch_norm: bool,
}

impl HeadConfig {
    /// SimCLR-style head (no batch norm).
    pub fn simclr(in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        HeadConfig {
            in_dim,
            hidden,
            out_dim,
            batch_norm: false,
        }
    }

    /// BYOL-style head (batch norm after the first linear).
    pub fn byol(in_dim: usize, hidden: usize, out_dim: usize) -> Self {
        HeadConfig {
            in_dim,
            hidden,
            out_dim,
            batch_norm: true,
        }
    }
}

/// Nominal input shape used when validating encoder configurations
/// (CIFAR-sized, batch 2 so BatchNorm statistics are well defined).
pub const NOMINAL_INPUT: [usize; 4] = [2, 3, 32, 32];

/// The standard two-conv residual block with an identity skip, or a 1×1
/// projection skip when the shape changes, followed by the output ReLU
/// (which fuses with the residual join).
fn basic_block_plan(name: &str, in_ch: usize, out_ch: usize, stride: usize) -> LayerKind {
    let mut main = Plan::new();
    main.push(
        format!("{name}.conv1"),
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            spec: Conv2dSpec::new(3, stride, 1),
            bias: false,
        },
    );
    main.push(
        format!("{name}.bn1"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    main.push(format!("{name}.relu1"), LayerKind::Relu);
    main.push(
        format!("{name}.conv2"),
        LayerKind::Conv2d {
            in_ch: out_ch,
            out_ch,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    main.push(
        format!("{name}.bn2"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    let skip = (stride != 1 || in_ch != out_ch).then(|| {
        let mut s = Plan::new();
        s.push(
            format!("{name}.down.conv"),
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                spec: Conv2dSpec::new(1, stride, 0),
                bias: false,
            },
        );
        s.push(
            format!("{name}.down.bn"),
            LayerKind::BatchNorm2d { channels: out_ch },
        );
        s
    });
    let mut block = Plan::new();
    block.push(format!("{name}.res"), LayerKind::Residual { main, skip });
    block.push(format!("{name}.relu_out"), LayerKind::Relu);
    LayerKind::Block(block)
}

/// MobileNetV2 inverted residual block: `expand 1×1 conv (t×) → BN →
/// ReLU6 → depthwise 3×3 → BN → ReLU6 → project 1×1 conv → BN`, with an
/// identity residual when the stride is 1 and the channel count is
/// unchanged. The expansion stage is omitted when `t == 1` (the first
/// block), exactly as in the reference network.
fn inverted_residual_plan(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    t: usize,
    stride: usize,
) -> LayerKind {
    let hidden = in_ch * t;
    let mut main = Plan::new();
    if t != 1 {
        main.push(
            format!("{name}.expand.conv"),
            LayerKind::Conv2d {
                in_ch,
                out_ch: hidden,
                spec: Conv2dSpec::new(1, 1, 0),
                bias: false,
            },
        );
        main.push(
            format!("{name}.expand.bn"),
            LayerKind::BatchNorm2d { channels: hidden },
        );
        main.push(format!("{name}.expand.relu6"), LayerKind::Relu6);
    }
    main.push(
        format!("{name}.dw"),
        LayerKind::DepthwiseConv2d {
            channels: hidden,
            spec: Conv2dSpec::new(3, stride, 1),
        },
    );
    main.push(
        format!("{name}.dw.bn"),
        LayerKind::BatchNorm2d { channels: hidden },
    );
    main.push(format!("{name}.dw.relu6"), LayerKind::Relu6);
    main.push(
        format!("{name}.project.conv"),
        LayerKind::Conv2d {
            in_ch: hidden,
            out_ch,
            spec: Conv2dSpec::new(1, 1, 0),
            bias: false,
        },
    );
    main.push(
        format!("{name}.project.bn"),
        LayerKind::BatchNorm2d { channels: out_ch },
    );
    if stride == 1 && in_ch == out_ch {
        LayerKind::Residual { main, skip: None }
    } else {
        LayerKind::Block(main)
    }
}

/// Plan of a ResNet backbone `[N, 3, H, W] -> [N, feat_dim]`, returning
/// `(plan, feat_dim)`.
///
/// `width` is the first-stage channel count (the paper's full-scale models
/// correspond to width 64 / 16; the scaled protocol uses 4–16).
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for `width == 0` or
/// [`Arch::MobileNetV2`] (use [`mobilenet_v2_plan`]).
pub fn resnet_plan(arch: Arch, width: usize) -> Result<(Plan, usize), SpecError> {
    if width == 0 {
        return Err(SpecError::config("backbone", "width must be positive"));
    }
    let (stage_blocks, stage_mults): (Vec<usize>, Vec<usize>) = match arch {
        Arch::ResNet18 => (vec![2, 2, 2, 2], vec![1, 2, 4, 8]),
        Arch::ResNet34 => (vec![3, 4, 6, 3], vec![1, 2, 4, 8]),
        Arch::ResNet74 => (vec![12, 12, 12], vec![1, 2, 4]),
        Arch::ResNet110 => (vec![18, 18, 18], vec![1, 2, 4]),
        Arch::ResNet152 => (vec![25, 25, 25], vec![1, 2, 4]),
        Arch::MobileNetV2 => {
            return Err(SpecError::config(
                "backbone",
                "use mobilenet_v2_plan for MobileNetV2",
            ));
        }
    };
    let mut plan = Plan::new();
    plan.push(
        "stem.conv",
        LayerKind::Conv2d {
            in_ch: 3,
            out_ch: width,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    plan.push("stem.bn", LayerKind::BatchNorm2d { channels: width });
    plan.push("stem.relu", LayerKind::Relu);
    let mut in_ch = width;
    for (si, (&n_blocks, &mult)) in stage_blocks.iter().zip(&stage_mults).enumerate() {
        let out_ch = width * mult;
        for bi in 0..n_blocks {
            let stride = if si > 0 && bi == 0 { 2 } else { 1 };
            let name = format!("s{si}.b{bi}");
            plan.push(&name, basic_block_plan(&name, in_ch, out_ch, stride));
            in_ch = out_ch;
        }
    }
    plan.push("gap", LayerKind::GlobalAvgPool);
    Ok((plan, in_ch))
}

/// Plan of a width-scaled MobileNetV2 backbone
/// `[N, 3, H, W] -> [N, feat_dim]`, returning `(plan, feat_dim)`.
///
/// Stage table (scaled-down version of the reference network, preserving
/// the expansion-factor pattern): stem 3×3 conv, then inverted residuals
/// `(t, c, n, s)` = (1, w, 1, 1), (6, 2w, 2, 2), (6, 4w, 2, 2), followed by
/// a 1×1 conv to `8w` features and global average pooling.
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for `width == 0`.
pub fn mobilenet_v2_plan(width: usize) -> Result<(Plan, usize), SpecError> {
    if width == 0 {
        return Err(SpecError::config("backbone", "width must be positive"));
    }
    let mut plan = Plan::new();
    plan.push(
        "stem.conv",
        LayerKind::Conv2d {
            in_ch: 3,
            out_ch: width,
            spec: Conv2dSpec::new(3, 1, 1),
            bias: false,
        },
    );
    plan.push("stem.bn", LayerKind::BatchNorm2d { channels: width });
    plan.push("stem.relu6", LayerKind::Relu6);
    let stages: [(usize, usize, usize, usize); 3] =
        [(1, width, 1, 1), (6, 2 * width, 2, 2), (6, 4 * width, 2, 2)];
    let mut in_ch = width;
    for (si, &(t, c, n, s)) in stages.iter().enumerate() {
        for bi in 0..n {
            let stride = if bi == 0 { s } else { 1 };
            let name = format!("ir{si}.{bi}");
            plan.push(&name, inverted_residual_plan(&name, in_ch, c, t, stride));
            in_ch = c;
        }
    }
    let feat = 8 * width;
    plan.push(
        "head.conv",
        LayerKind::Conv2d {
            in_ch,
            out_ch: feat,
            spec: Conv2dSpec::new(1, 1, 0),
            bias: false,
        },
    );
    plan.push("head.bn", LayerKind::BatchNorm2d { channels: feat });
    plan.push("head.relu6", LayerKind::Relu6);
    plan.push("gap", LayerKind::GlobalAvgPool);
    Ok((plan, feat))
}

/// Plan of any backbone architecture, returning `(plan, feat_dim)`.
///
/// # Errors
///
/// Returns a config-attributed [`SpecError`] for `width == 0`.
pub fn backbone_plan(arch: Arch, width: usize) -> Result<(Plan, usize), SpecError> {
    match arch {
        Arch::MobileNetV2 => mobilenet_v2_plan(width),
        _ => resnet_plan(arch, width),
    }
}

/// Plan of the `Linear → [BN] → ReLU → Linear` head described by `cfg`,
/// with layers named `<name>.fc1`, `<name>.bn`, `<name>.relu`, `<name>.fc2`.
pub fn mlp_head_plan(cfg: &HeadConfig, name: &str) -> Plan {
    let mut plan = Plan::new();
    plan.push(
        format!("{name}.fc1"),
        LayerKind::Linear {
            in_features: cfg.in_dim,
            out_features: cfg.hidden,
            bias: !cfg.batch_norm,
        },
    );
    if cfg.batch_norm {
        plan.push(
            format!("{name}.bn"),
            LayerKind::BatchNorm1d {
                features: cfg.hidden,
            },
        );
    }
    plan.push(format!("{name}.relu"), LayerKind::Relu);
    plan.push(
        format!("{name}.fc2"),
        LayerKind::Linear {
            in_features: cfg.hidden,
            out_features: cfg.out_dim,
            bias: true,
        },
    );
    plan
}

/// Plan of a full [`crate::Encoder`] (backbone + optional projector),
/// returning `(plan, feat_dim, proj_dim)`.
///
/// # Errors
///
/// Returns a layer- or config-attributed [`SpecError`] for invalid widths
/// or projector dimensions.
pub fn encoder_plan(cfg: &EncoderConfig) -> Result<(Plan, usize, usize), SpecError> {
    let (mut plan, feat) = backbone_plan(cfg.arch, cfg.width)?;
    let proj_dim = match cfg.proj {
        Some((hidden, out)) => {
            if hidden == 0 || out == 0 {
                return Err(SpecError::config(
                    "proj",
                    format!("projector dims must be positive, got ({hidden}, {out})"),
                ));
            }
            let hc = if cfg.proj_bn {
                HeadConfig::byol(feat, hidden, out)
            } else {
                HeadConfig::simclr(feat, hidden, out)
            };
            for l in mlp_head_plan(&hc, "proj").layers() {
                plan.push(l.name.clone(), l.kind.clone());
            }
            out
        }
        None => feat,
    };
    Ok((plan, feat, proj_dim))
}

/// Statically validates an encoder configuration: builds its plan with
/// [`encoder_plan`] and interprets it on [`NOMINAL_INPUT`], returning the
/// validated `(plan, feat_dim, proj_dim)`.
///
/// # Errors
///
/// Returns the first layer-attributed [`SpecError`] — this is what makes
/// [`crate::Encoder::new`] reject invalid configurations before touching
/// any weights.
pub fn validate_encoder(cfg: &EncoderConfig) -> Result<(Plan, usize, usize), SpecError> {
    let (plan, feat, proj) = encoder_plan(cfg)?;
    plan.infer(&NOMINAL_INPUT)?;
    Ok((plan, feat, proj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;
    use cq_nn::{ForwardCtx, Layer, ParamSet, Sequential};
    use cq_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instantiate(plan: &Plan, seed: u64) -> (Sequential, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = plan.instantiate(&mut ps, &mut rng);
        (net, ps)
    }

    /// A one-layer plan holding `kind` under the name `b`.
    fn single(kind: LayerKind) -> Plan {
        let mut p = Plan::new();
        p.push("b", kind);
        p
    }

    #[test]
    fn arch_names_match_paper() {
        assert_eq!(Arch::ResNet18.name(), "ResNet-18");
        assert_eq!(Arch::all().len(), 6);
        assert_eq!(Arch::MobileNetV2.to_string(), "MobileNetV2");
    }

    #[test]
    fn basic_block_identity_skip_shapes() {
        let (mut blk, ps) = instantiate(&single(basic_block_plan("b", 4, 4, 1)), 0);
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let (y, _) = blk.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4, 6, 6]);
        assert_eq!(blk.state_tensors().len(), 4); // 2 BNs x (mean, var)
    }

    #[test]
    fn basic_block_projection_skip_shapes() {
        let (mut blk, ps) = instantiate(&single(basic_block_plan("b", 4, 8, 2)), 1);
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let (y, _) = blk.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 8, 3, 3]);
        assert_eq!(blk.state_tensors().len(), 6); // 3 BNs
    }

    #[test]
    fn basic_block_gradcheck_identity() {
        let (blk, ps) = instantiate(&single(basic_block_plan("b", 3, 3, 1)), 2);
        cq_nn::gradcheck::check_layer_soft(blk, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn basic_block_gradcheck_projection() {
        let (blk, ps) = instantiate(&single(basic_block_plan("b", 3, 4, 2)), 3);
        cq_nn::gradcheck::check_layer_soft(blk, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn inverted_residual_shapes() {
        let kind = inverted_residual_plan("b", 4, 4, 6, 1);
        assert!(matches!(kind, LayerKind::Residual { skip: None, .. }));
        let (mut ir, ps) = instantiate(&single(kind), 0);
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let (y, _) = ir.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4, 6, 6]);

        let kind = inverted_residual_plan("b", 4, 8, 6, 2);
        assert!(matches!(kind, LayerKind::Block(_)));
        let (mut ir2, ps) = instantiate(&single(kind), 0);
        let (y2, _) = ir2.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y2.dims(), &[2, 8, 3, 3]);
    }

    #[test]
    fn t1_block_has_no_expand_stage() {
        let (_, ps) = instantiate(&single(inverted_residual_plan("b", 4, 4, 1, 1)), 1);
        // dw weight + 2 bn(gamma,beta) + project + bn = 1 + 2 + 1 + 2
        assert_eq!(ps.len(), 6);
        assert!(ps.iter().all(|(_, name, _)| !name.contains("expand")));
    }

    #[test]
    fn inverted_residual_gradcheck() {
        let (ir, ps) = instantiate(&single(inverted_residual_plan("b", 3, 3, 2, 1)), 2);
        cq_nn::gradcheck::check_layer_soft(ir, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn inverted_residual_gradcheck_strided_no_res() {
        let (ir, ps) = instantiate(&single(inverted_residual_plan("b", 3, 4, 2, 2)), 3);
        cq_nn::gradcheck::check_layer_soft(ir, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn resnet18_shapes_and_feat_dim() {
        let (plan, dim) = backbone_plan(Arch::ResNet18, 4).unwrap();
        assert_eq!(dim, 32);
        let (mut net, ps) = instantiate(&plan, 4);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let (y, _) = net.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y.dims(), &[2, 32]);
    }

    #[test]
    fn cifar_resnet_depth_counts() {
        // ResNet-74 = 6*12+2: stem conv + 36 blocks*2 convs + fc (not here)
        let (plan, dim) = backbone_plan(Arch::ResNet74, 4).unwrap();
        assert_eq!(dim, 16);
        let (_, ps) = instantiate(&plan, 5);
        // weight params: stem conv + stem bn(2) + blocks
        // 36 blocks, each 2 convs + 2 bns(2 each) = 6 params, plus 2
        // projection blocks with 1x1 conv + bn = +3 each.
        let expected = 1 + 2 + 36 * 6 + 2 * 3;
        assert_eq!(ps.len(), expected);
    }

    #[test]
    fn backbones_backward_run_and_produce_finite_grads() {
        for arch in [Arch::ResNet18, Arch::MobileNetV2] {
            let (plan, dim) = backbone_plan(arch, 2).unwrap();
            let (mut net, ps) = instantiate(&plan, 6);
            let mut rng = StdRng::seed_from_u64(6);
            let x = Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
            let (_y, cache) = net.forward(&ps, &x, &ForwardCtx::train()).unwrap();
            let mut gs = ps.zero_grads();
            let dy = Tensor::ones(&[2, dim]);
            let dx = net.backward(&ps, &cache, &dy, &mut gs).unwrap();
            assert_eq!(dx.dims(), x.dims(), "{arch}");
            assert!(gs.is_finite(), "{arch}");
            assert!(gs.global_norm() > 0.0, "{arch}");
        }
    }

    #[test]
    fn mobilenet_shapes() {
        let (plan, dim) = mobilenet_v2_plan(4).unwrap();
        assert_eq!(dim, 32);
        let (mut net, ps) = instantiate(&plan, 4);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let (y, _) = net.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y.dims(), &[2, 32]);
    }

    #[test]
    fn simclr_head_shapes() {
        let (mut head, ps) = instantiate(&mlp_head_plan(&HeadConfig::simclr(8, 16, 4), "proj"), 0);
        let (z, _) = head
            .forward(&ps, &Tensor::ones(&[3, 8]), &ForwardCtx::eval())
            .unwrap();
        assert_eq!(z.dims(), &[3, 4]);
        assert!(head.state_tensors().is_empty());
    }

    #[test]
    fn byol_head_has_bn_state() {
        let (mut head, ps) = instantiate(&mlp_head_plan(&HeadConfig::byol(8, 16, 4), "proj"), 1);
        assert_eq!(head.state_tensors().len(), 2);
        let (z, _) = head
            .forward(&ps, &Tensor::ones(&[3, 8]), &ForwardCtx::eval())
            .unwrap();
        assert_eq!(z.dims(), &[3, 4]);
    }

    #[test]
    fn head_gradcheck() {
        let (head, ps) = instantiate(&mlp_head_plan(&HeadConfig::simclr(5, 7, 3), "proj"), 2);
        cq_nn::gradcheck::check_layer(head, ps, &[4, 5], &ForwardCtx::train(), 5e-2);
    }

    /// Instantiated networks agree with their plans on parameter count and
    /// output shape — for every architecture the paper evaluates.
    #[test]
    fn instantiated_networks_match_plans_for_every_arch() {
        for arch in Arch::all() {
            let (plan, _) = backbone_plan(arch, 2).unwrap();
            let (mut net, ps) = instantiate(&plan, 0);
            assert_eq!(plan.param_count(), ps.num_scalars(), "{arch}: param count");
            let x = Tensor::zeros(&[2, 3, 16, 16]);
            let (y, _) = net.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
            assert_eq!(
                plan.infer(&[2, 3, 16, 16]).unwrap(),
                y.dims(),
                "{arch}: shape"
            );
            assert!(plan.flops(&[2, 3, 16, 16]).unwrap() > 0, "{arch}: flops");
        }
    }

    /// Parameter names in walk order, and the channel count of each
    /// BatchNorm in walk order.
    fn walk(plan: &Plan, names: &mut Vec<String>, bns: &mut Vec<usize>) {
        for l in plan.layers() {
            let n = &l.name;
            match &l.kind {
                LayerKind::Conv2d { bias, .. } | LayerKind::Linear { bias, .. } => {
                    names.push(format!("{n}.weight"));
                    if *bias {
                        names.push(format!("{n}.bias"));
                    }
                }
                LayerKind::DepthwiseConv2d { .. } => names.push(format!("{n}.weight")),
                LayerKind::BatchNorm2d { channels: c } | LayerKind::BatchNorm1d { features: c } => {
                    names.push(format!("{n}.gamma"));
                    names.push(format!("{n}.beta"));
                    bns.push(*c);
                }
                LayerKind::Residual { main, skip } => {
                    walk(main, names, bns);
                    if let Some(s) = skip {
                        walk(s, names, bns);
                    }
                }
                LayerKind::Block(p) => walk(p, names, bns),
                LayerKind::Relu
                | LayerKind::Relu6
                | LayerKind::MaxPool2d { .. }
                | LayerKind::AvgPool2d { .. }
                | LayerKind::GlobalAvgPool => {}
            }
        }
    }

    /// The invariant cq-infer's positional batch-norm consumption relies
    /// on: parameters register in plan walk order, and state tensors are
    /// the (running mean, running var) pair of each BatchNorm in the same
    /// order.
    #[test]
    fn params_and_state_follow_plan_walk_order() {
        for arch in Arch::all() {
            for cfg in [
                EncoderConfig::new(arch, 2),
                EncoderConfig::new(arch, 2).with_proj(8, 4),
                EncoderConfig::new(arch, 2).with_byol_proj(8, 4),
            ] {
                let enc = Encoder::new(&cfg, 1).unwrap();
                let (plan, _, _) = encoder_plan(&cfg).unwrap();
                let (mut names, mut bns) = (Vec::new(), Vec::new());
                walk(&plan, &mut names, &mut bns);
                let got: Vec<&str> = enc.params().iter().map(|(_, n, _)| n).collect();
                assert_eq!(got, names, "{cfg:?}: parameter names");
                let state = enc.state_tensors();
                assert_eq!(state.len(), 2 * bns.len(), "{cfg:?}: state count");
                for (pair, &c) in state.chunks(2).zip(&bns) {
                    assert!(pair.iter().all(|t| t.dims() == [c]), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn encoder_plan_matches_encoder_for_every_arch() {
        for arch in Arch::all() {
            let cfg = EncoderConfig::new(arch, 2).with_proj(8, 4);
            let mut enc = Encoder::new(&cfg, 1).unwrap();
            let (plan, feat, proj) = encoder_plan(&cfg).unwrap();
            assert_eq!(feat, enc.feat_dim(), "{arch}: feat dim");
            assert_eq!(proj, enc.proj_dim(), "{arch}: proj dim");
            assert_eq!(plan.param_count(), enc.num_params(), "{arch}: params");
            let x = Tensor::zeros(&[2, 3, 16, 16]);
            let out = enc.forward(&x, &ForwardCtx::eval()).unwrap();
            assert_eq!(
                plan.infer(&[2, 3, 16, 16]).unwrap(),
                out.projection.dims(),
                "{arch}"
            );
        }
    }

    #[test]
    fn byol_encoder_plan_counts_bn_head() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_byol_proj(8, 4);
        let enc = Encoder::new(&cfg, 1).unwrap();
        let (plan, _, _) = encoder_plan(&cfg).unwrap();
        assert_eq!(plan.param_count(), enc.num_params());
    }

    #[test]
    fn resnet_plan_rejects_mobilenet() {
        let err = resnet_plan(Arch::MobileNetV2, 4).unwrap_err();
        assert!(err.to_string().contains("mobilenet_v2_plan"));
    }

    #[test]
    fn zero_width_rejected_before_any_allocation() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 0);
        let err = validate_encoder(&cfg).unwrap_err();
        assert!(err.to_string().contains("width"));
        assert!(Encoder::new(&cfg, 0).is_err());
    }

    #[test]
    fn zero_projector_dims_rejected() {
        let cfg = EncoderConfig::new(Arch::ResNet18, 2).with_proj(0, 4);
        let err = validate_encoder(&cfg).unwrap_err();
        assert_eq!(err.layer, "proj");
        assert!(Encoder::new(&cfg, 0).is_err());
    }

    #[test]
    fn off_by_one_projector_input_is_layer_attributed() {
        // A hand-built head whose input dim misses the backbone features
        // by one — the canonical wiring mistake cq-check exists to catch.
        let (mut plan, feat) = backbone_plan(Arch::ResNet18, 2).unwrap();
        let head = mlp_head_plan(&HeadConfig::simclr(feat + 1, 8, 4), "proj");
        for l in head.layers() {
            plan.push(l.name.clone(), l.kind.clone());
        }
        let err = plan.infer(&NOMINAL_INPUT).unwrap_err();
        assert_eq!(err.layer, "proj.fc1");
        assert!(err
            .to_string()
            .contains(&format!("expected {} input features", feat + 1)));
    }
}
