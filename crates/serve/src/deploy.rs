//! Training-spec → deploy-spec transform.
//!
//! Caffe ships two prototxts per model (`train_val` and `deploy`); this
//! repo keeps one and derives the deploy form mechanically:
//!
//! - the `Data` layer is removed; its first top becomes the externally-fed
//!   *input* blob, its remaining tops (the label) become *aux* blobs that
//!   no deploy layer may consume;
//! - `SoftmaxWithLoss` becomes a plain `Softmax` over its first bottom,
//!   keeping the same top name.
//!
//! Neither carries learnable parameters, so the deploy net has exactly
//! the training net's parameter list and `CGDN` snapshots load unchanged.

use crate::ServeError;
use net::NetSpec;

/// A deploy-transformed spec plus the names the engine needs to wire I/O.
#[derive(Debug, Clone)]
pub struct DeploySpec {
    /// The forward-only network specification.
    pub spec: NetSpec,
    /// Name of the input blob (the `Data` layer's first top).
    pub input: String,
}

/// Rewrite a training spec into its forward-only deploy twin.
///
/// # Errors
/// Fails when the spec has no `Data` layer (there is then no way to know
/// the input blob), or when a surviving layer consumes the label.
pub fn deploy_spec(train: &NetSpec) -> Result<DeploySpec, ServeError> {
    let data = train
        .layers
        .iter()
        .find(|l| l.layer_type == "Data")
        .ok_or_else(|| {
            ServeError::Build(format!(
                "spec '{}' has no Data layer to derive the input blob from",
                train.name
            ))
        })?;
    let input = data
        .tops
        .first()
        .ok_or_else(|| ServeError::Build(format!("Data layer '{}' declares no tops", data.name)))?
        .clone();
    // Label and any further Data tops are unavailable at inference time.
    let aux: Vec<&String> = data.tops.iter().skip(1).collect();

    let mut layers = Vec::with_capacity(train.layers.len());
    for l in &train.layers {
        if l.layer_type == "Data" {
            continue;
        }
        let mut out = l.clone();
        if l.layer_type == "SoftmaxWithLoss" {
            out.layer_type = "Softmax".to_string();
            out.bottoms.truncate(1);
        }
        if let Some(bad) = out.bottoms.iter().find(|b| aux.contains(b)) {
            return Err(ServeError::Build(format!(
                "layer '{}' consumes label blob '{bad}', which does not exist \
                 at inference time",
                out.name
            )));
        }
        layers.push(out);
    }
    if layers.is_empty() {
        return Err(ServeError::Build(format!(
            "spec '{}' has no layers left after the deploy transform",
            train.name
        )));
    }
    Ok(DeploySpec {
        spec: NetSpec {
            name: format!("{}-deploy", train.name),
            layers,
        },
        input,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIN: &str = r#"
name: t
layer {
  name: d
  type: Data
  batch: 8
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  num_output: 4
  bottom: data
  top: ip
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: prob
}
"#;

    #[test]
    fn transforms_lenet_style_spec() {
        let train = NetSpec::parse(TRAIN).unwrap();
        let d = deploy_spec(&train).unwrap();
        assert_eq!(d.input, "data");
        assert_eq!(d.spec.name, "t-deploy");
        let types: Vec<&str> = d
            .spec
            .layers
            .iter()
            .map(|l| l.layer_type.as_str())
            .collect();
        assert_eq!(types, vec!["InnerProduct", "Softmax"]);
        let softmax = &d.spec.layers[1];
        assert_eq!(softmax.bottoms, vec!["ip"]);
        assert_eq!(softmax.tops, vec!["prob"]);
    }

    #[test]
    fn rejects_spec_without_data_layer() {
        let spec = NetSpec::parse(
            "layer {\n name: ip\n type: InnerProduct\n num_output: 2\n bottom: x\n top: ip\n}",
        )
        .unwrap();
        let e = deploy_spec(&spec).unwrap_err();
        assert!(matches!(e, ServeError::Build(_)));
    }

    #[test]
    fn rejects_surviving_label_consumer() {
        let spec = NetSpec::parse(
            "layer {\n name: d\n type: Data\n batch: 2\n top: data\n top: label\n}\n\
             layer {\n name: ip\n type: InnerProduct\n num_output: 2\n bottom: label\n top: ip\n}",
        )
        .unwrap();
        let e = deploy_spec(&spec).unwrap_err();
        assert!(e.to_string().contains("label"));
    }
}
