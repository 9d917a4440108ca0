//! The model zoo: every network the paper evaluates.
//!
//! All CNN constructors take `(batch, height, width)` so the §6.4.1
//! resolution sweep and the batch-size sweeps come for free. Aggregate
//! arithmetic intensities of these reconstructions are validated against
//! the values printed in the paper's figures (see each module's tests and
//! `tests/zoo_intensities.rs`).

mod alexnet;
mod densenet;
mod dlrm;
mod noscope;
mod resnet;
mod shufflenet;
mod squeezenet;
mod vgg;

pub use alexnet::alexnet;
pub use densenet::densenet161;
pub use dlrm::{dlrm_mlp_bottom, dlrm_mlp_top, dlrm_net};
pub use noscope::{amsterdam, coral, roundabout, taipei};
pub use resnet::{resnet50, resnet_block_net, resnext50_nogroup, wide_resnet50};
pub use shufflenet::shufflenet_v2;
pub use squeezenet::{squeezenet, squeezenet_net, squeezenet_v11_net};
pub use vgg::{vgg11_net, vgg16};

use crate::model::Model;

/// HD resolution used for the paper's main CNN results (1080 × 1920).
pub const HD: (u64, u64) = (1080, 1920);
/// ImageNet resolution used in the §6.4.1 sweep (224 × 224).
pub const IMAGENET: (u64, u64) = (224, 224);

/// The eight general-purpose CNNs of Figures 4/8/9, at a given input.
pub fn general_cnns(batch: u64, h: u64, w: u64) -> Vec<Model> {
    vec![
        squeezenet(batch, h, w),
        shufflenet_v2(batch, h, w),
        densenet161(batch, h, w),
        resnet50(batch, h, w),
        alexnet(batch, h, w),
        vgg16(batch, h, w),
        resnext50_nogroup(batch, h, w),
        wide_resnet50(batch, h, w),
    ]
}

/// The four NoScope-style specialized CNNs of Figure 11 (batch 64 in the
/// paper).
pub fn specialized_cnns(batch: u64) -> Vec<Model> {
    vec![
        coral(batch),
        roundabout(batch),
        taipei(batch),
        amsterdam(batch),
    ]
}

/// All fourteen evaluated NNs in Figure 8's order (increasing aggregate
/// arithmetic intensity), with the paper's workload settings: CNNs at HD
/// batch 1, DLRM at batch 1, specialized CNNs at batch 64.
pub fn figure8_models() -> Vec<Model> {
    let (h, w) = HD;
    vec![
        dlrm_mlp_bottom(1),
        dlrm_mlp_top(1),
        coral(64),
        roundabout(64),
        taipei(64),
        amsterdam(64),
        squeezenet(1, h, w),
        shufflenet_v2(1, h, w),
        densenet161(1, h, w),
        resnet50(1, h, w),
        alexnet(1, h, w),
        vgg16(1, h, w),
        resnext50_nogroup(1, h, w),
        wide_resnet50(1, h, w),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_models_are_ordered_by_aggregate_intensity() {
        let models = figure8_models();
        let ais: Vec<f64> = models.iter().map(|m| m.aggregate_intensity()).collect();
        for pair in ais.windows(2) {
            assert!(
                pair[0] <= pair[1] * 1.02, // allow tiny reconstruction slack
                "figure 8 ordering violated: {pair:?}"
            );
        }
    }

    #[test]
    fn executable_families_hold_the_same_weights_at_every_batch() {
        use crate::graph::{Network, NodeOp};
        // Every weight and table code a network holds, in node order.
        fn codes(net: &Network) -> Vec<u16> {
            let bits = |data: &[aiga_dtype::F16]| data.iter().map(|v| v.to_bits()).collect();
            let per_node = net.nodes.iter().map(|node| match &node.op {
                NodeOp::Conv { weights, .. } => bits(&weights.data),
                NodeOp::Fc { weights, .. } => bits(&weights.data),
                NodeOp::EmbeddingBag { tables } => {
                    tables.iter().flat_map(|t| bits(&t.data)).collect()
                }
                _ => Vec::new(),
            });
            per_node.flatten().collect()
        }
        type Family = fn(u64) -> Network;
        let families: [(&str, Family); 6] = [
            ("squeezenet_net", |b| squeezenet_net(b, 32, 32, 7)),
            ("squeezenet_v11_net", |b| squeezenet_v11_net(b, 64, 64, 7)),
            ("resnet_block_net", |b| resnet_block_net(b, 8, 8, 7)),
            ("dlrm_net", |b| dlrm_net(b, 8, 100, 64, 11)),
            ("dlrm_mlp_bottom", |b| {
                Network::from_mlp(&dlrm_mlp_bottom(b), 0)
            }),
            ("dlrm_mlp_top", |b| Network::from_mlp(&dlrm_mlp_top(b), 0)),
        ];
        for (name, family) in families {
            let one = family(1);
            for batch in [1, 8, 32] {
                let net = family(batch);
                assert_eq!(codes(&net), codes(&one), "{name} weights at batch {batch}");
                // The batch-1 network projected to `batch` is the
                // batch-`batch` network's own analytic view.
                let (at, own) = (one.to_model_at(batch as usize), net.to_model());
                assert_eq!(at.name, own.name);
                assert_eq!(at.layers.len(), own.layers.len(), "{name}");
                for (a, o) in at.layers.iter().zip(&own.layers) {
                    let ctx = format!("{name} {} at batch {batch}", o.name);
                    assert_eq!(
                        (&a.name, a.kind, a.shape),
                        (&o.name, o.kind, o.shape),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_models_have_nonempty_layer_lists() {
        for m in figure8_models() {
            assert!(!m.layers.is_empty(), "{}", m.name);
            for l in &m.layers {
                assert!(l.shape.flops() > 0);
            }
        }
    }
}
