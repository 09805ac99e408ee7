//! Layer registry: constructs layer objects from [`LayerSpec`] blocks.

use crate::spec::{LayerSpec, SpecError};
use layers::conv::{ConvConfig, ConvolutionLayer};
use layers::data::BatchSource;
use layers::inner_product::{InnerProductConfig, InnerProductLayer};
use layers::lrn::{LrnConfig, LrnLayer};
use layers::pooling::{PoolConfig, PoolMethod, PoolingLayer};
use layers::{
    DataLayer, DropoutLayer, Filler, FlattenLayer, Layer, ReluLayer, SigmoidLayer, SoftmaxLayer,
    SoftmaxLossLayer, TanhLayer,
};
use mmblas::Scalar;
use std::cell::RefCell;

/// A layer block's keys as the builder reads them. Each key asked for is
/// marked, and [`Keys::finish`] refuses a block that sets any other: a key
/// no reader asks for would otherwise be dropped without a word.
struct Keys<'a> {
    ls: &'a LayerSpec,
    asked: RefCell<Vec<&'static str>>,
}

impl<'a> Keys<'a> {
    fn ask(&self, key: &'static str) -> &'a LayerSpec {
        self.asked.borrow_mut().push(key);
        self.ls
    }

    fn get(&self, key: &'static str) -> Option<&'a str> {
        self.ask(key).get(key)
    }

    fn usize(&self, key: &'static str) -> Result<usize, SpecError> {
        self.ask(key).get_usize(key)
    }

    fn usize_or(&self, key: &'static str, default: usize) -> Result<usize, SpecError> {
        self.ask(key).get_usize_or(key, default)
    }

    fn f64_or(&self, key: &'static str, default: f64) -> Result<f64, SpecError> {
        self.ask(key).get_f64_or(key, default)
    }

    fn reject<T>(&self, what: &str) -> Result<T, SpecError> {
        Err(SpecError::new(format!("layer '{}': {what}", self.ls.name)))
    }

    /// Refuse the first key of the block that nothing asked for.
    fn finish(&self) -> Result<(), SpecError> {
        let asked = self.asked.borrow();
        match self.ls.params.keys().find(|k| !asked.contains(&k.as_str())) {
            Some(key) => self.reject(&format!("unused key '{key}'")),
            None => Ok(()),
        }
    }
}

fn parse_filler(keys: &Keys) -> Result<Filler, SpecError> {
    match keys.get("weight_filler") {
        None | Some("xavier") => Ok(Filler::Xavier),
        Some("gaussian") => Ok(Filler::Gaussian {
            std: keys.f64_or("weight_filler_std", 0.01)?,
        }),
        Some(other) => keys.reject(&format!("unknown filler '{other}'")),
    }
}

/// `(kernel, pad, stride)` of a `Convolution` or `Pooling` block, held to
/// Caffe's `CHECK_GT(kernel, 0)`, `CHECK_GT(stride, 0)` and
/// `CHECK_LT(pad, kernel)`: past this point the layers divide by the stride
/// and take every window to cover at least one pixel.
fn window_params(keys: &Keys) -> Result<(usize, usize, usize), SpecError> {
    let kernel = keys.usize("kernel")?;
    let pad = keys.usize_or("pad", 0)?;
    let stride = keys.usize_or("stride", 1)?;
    if kernel == 0 {
        return keys.reject("kernel must be at least 1");
    }
    if stride == 0 {
        return keys.reject("stride must be at least 1");
    }
    if pad >= kernel {
        return keys.reject(&format!("pad {pad} must be smaller than kernel {kernel}"));
    }
    Ok((kernel, pad, stride))
}

/// An `LRN` block's parameters, held to what the layer needs: an odd window
/// (centred on its channel, so never empty) and `k + alpha/n * sum x^2 > 0`
/// for every input, since `s^-beta` of a zero or negative scale is inf or
/// NaN.
fn lrn_config(keys: &Keys) -> Result<LrnConfig, SpecError> {
    let cfg = LrnConfig {
        local_size: keys.usize_or("local_size", 5)?,
        alpha: keys.f64_or("alpha", 1e-4)?,
        beta: keys.f64_or("beta", 0.75)?,
        k: keys.f64_or("k", 1.0)?,
    };
    if cfg.local_size.is_multiple_of(2) {
        return keys.reject(&format!("local_size {} must be odd", cfg.local_size));
    }
    for (key, v) in [("alpha", cfg.alpha), ("beta", cfg.beta), ("k", cfg.k)] {
        if !v.is_finite() {
            return keys.reject(&format!("{key} {v} must be finite"));
        }
    }
    if cfg.alpha < 0.0 {
        return keys.reject(&format!("alpha {} must not be negative", cfg.alpha));
    }
    if cfg.k <= 0.0 {
        return keys.reject(&format!("k {} must be positive", cfg.k));
    }
    Ok(cfg)
}

/// Construct a layer object from its spec block.
///
/// `data_source` is consumed by the first `Data` layer. `after_data` tells
/// learnable layers to skip their bottom-diff computation (Caffe's
/// `propagate_down = false` for layers sitting directly on data). A key the
/// layer type does not read is an error.
pub fn build_layer<S: Scalar>(
    ls: &LayerSpec,
    data_source: &mut Option<Box<dyn BatchSource<S>>>,
    after_data: bool,
) -> Result<Box<dyn Layer<S>>, SpecError> {
    let name = ls.name.clone();
    let keys = Keys {
        ls,
        asked: RefCell::default(),
    };
    let layer: Box<dyn Layer<S>> = match ls.layer_type.as_str() {
        "Data" => {
            let source = data_source.take().ok_or_else(|| {
                SpecError::new(format!(
                    "layer '{name}': spec has a Data layer but no data source was provided \
                     (or a second Data layer appeared)"
                ))
            })?;
            let batch = keys.usize("batch")?;
            Box::new(DataLayer::new(name, source, batch))
        }
        "Convolution" => {
            let num_output = keys.usize("num_output")?;
            let (kernel, pad, stride) = window_params(&keys)?;
            let mut cfg = ConvConfig::new(num_output, kernel, pad, stride);
            cfg.weight_filler = parse_filler(&keys)?;
            cfg.seed = keys.usize_or("seed", cfg.seed as usize)? as u64;
            let mut l = ConvolutionLayer::new(name, cfg);
            if after_data {
                l.set_propagate_down(false);
            }
            Box::new(l)
        }
        "Pooling" => {
            let method = match keys.get("method") {
                Some("MAX") | None => PoolMethod::Max,
                Some("AVE") => PoolMethod::Ave,
                Some(other) => return keys.reject(&format!("unknown pooling method '{other}'")),
            };
            let (kernel, pad, stride) = window_params(&keys)?;
            let cfg = PoolConfig {
                method,
                kernel,
                pad,
                stride,
            };
            Box::new(PoolingLayer::new(name, cfg))
        }
        "InnerProduct" => {
            let mut cfg = InnerProductConfig::new(keys.usize("num_output")?);
            cfg.weight_filler = parse_filler(&keys)?;
            cfg.seed = keys.usize_or("seed", cfg.seed as usize)? as u64;
            let mut l = InnerProductLayer::new(name, cfg);
            if after_data {
                l.set_propagate_down(false);
            }
            Box::new(l)
        }
        "ReLU" => Box::new(ReluLayer::new(name)),
        "Sigmoid" => Box::new(SigmoidLayer::new(name)),
        "TanH" => Box::new(TanhLayer::new(name)),
        "Softmax" => Box::new(SoftmaxLayer::new(name)),
        "Flatten" => Box::new(FlattenLayer::new(name)),
        "LRN" => Box::new(LrnLayer::new(name, lrn_config(&keys)?)),
        "Dropout" => {
            let ratio = keys.f64_or("dropout_ratio", 0.5)?;
            let seed = keys.usize_or("seed", 0x0d0d)? as u64;
            Box::new(DropoutLayer::new(name, ratio, seed))
        }
        "SoftmaxWithLoss" => Box::new(SoftmaxLossLayer::new(name)),
        other => return keys.reject(&format!("unknown layer type '{other}'")),
    };
    keys.finish()?;
    Ok(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetSpec;

    fn spec_of(body: &str) -> LayerSpec {
        NetSpec::parse(body).unwrap().layers[0].clone()
    }

    struct Zeros;
    impl BatchSource<f32> for Zeros {
        fn num_samples(&self) -> usize {
            2
        }
        fn sample_shape(&self) -> blob::Shape {
            blob::Shape::from([4usize])
        }
        fn fill(&self, _i: usize, _out: &mut [f32]) -> f32 {
            0.0
        }
    }

    /// The two paper nets' types, the deploy transform's `Softmax`, and the
    /// four the custom-network example adds.
    const TYPES: [(&str, &str); 12] = [
        ("Data", "batch: 2"),
        ("Convolution", "num_output: 2\n kernel: 1"),
        ("Pooling", "kernel: 2"),
        ("InnerProduct", "num_output: 2"),
        ("ReLU", ""),
        ("LRN", ""),
        ("SoftmaxWithLoss", ""),
        ("Softmax", ""),
        ("Flatten", ""),
        ("Sigmoid", ""),
        ("TanH", ""),
        ("Dropout", ""),
    ];

    #[test]
    fn builds_exactly_the_twelve_types() {
        for (ty, params) in TYPES {
            let ls = spec_of(&format!("layer {{\n name: x\n type: {ty}\n {params}\n}}"));
            let mut source: Option<Box<dyn BatchSource<f32>>> = Some(Box::new(Zeros));
            let l = build_layer::<f32>(&ls, &mut source, false).unwrap();
            assert_eq!(l.layer_type(), ty);
        }
        for ty in [
            "Concat",
            "Eltwise",
            "Power",
            "AbsVal",
            "EuclideanLoss",
            "Split",
            "Accuracy",
        ] {
            let ls = spec_of(&format!("layer {{\n name: x\n type: {ty}\n}}"));
            let mut source: Option<Box<dyn BatchSource<f32>>> = Some(Box::new(Zeros));
            let e = build_layer::<f32>(&ls, &mut source, false)
                .err()
                .unwrap_or_else(|| panic!("{ty} must not build"));
            assert_eq!(
                e.to_string(),
                format!("layer 'x': unknown layer type '{ty}'")
            );
        }
    }

    #[test]
    fn conv_requires_num_output() {
        let ls = spec_of("layer {\n name: c\n type: Convolution\n kernel: 5\n}");
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        let e = build_layer::<f32>(&ls, &mut none, false)
            .err()
            .expect("expected error");
        assert!(e.to_string().contains("num_output"));
    }

    #[test]
    fn unknown_type_is_error() {
        let ls = spec_of("layer {\n name: z\n type: Warp\n}");
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        assert!(build_layer::<f32>(&ls, &mut none, false).is_err());
    }

    #[test]
    fn data_without_source_is_error() {
        let ls = spec_of("layer {\n name: d\n type: Data\n batch: 4\n}");
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        let e = build_layer::<f32>(&ls, &mut none, false)
            .err()
            .expect("expected error");
        assert!(e.to_string().contains("data source"));
    }

    #[test]
    fn pooling_method_parsing() {
        let ls =
            spec_of("layer {\n name: p\n type: Pooling\n method: AVE\n kernel: 3\n stride: 2\n}");
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        assert!(build_layer::<f32>(&ls, &mut none, false).is_ok());
        let bad = spec_of("layer {\n name: p\n type: Pooling\n method: MED\n kernel: 3\n}");
        assert!(build_layer::<f32>(&bad, &mut none, false).is_err());
    }

    #[test]
    fn degenerate_windows_are_spec_errors() {
        // From a spec file these used to reach a division by zero in
        // `pooled_dim`, the assert in `Conv2dGeometry::validate`, or a read
        // outside an empty pooling window.
        let cases = [
            ("kernel: 0", "kernel must be at least 1"),
            ("kernel: 3\n stride: 0", "stride must be at least 1"),
            ("kernel: 3\n pad: 3", "pad 3 must be smaller than kernel 3"),
            (
                "kernel: 2\n pad: 5\n stride: 2",
                "pad 5 must be smaller than kernel 2",
            ),
        ];
        for head in ["type: Pooling", "type: Convolution\n num_output: 4"] {
            for (params, want) in cases {
                let ls = spec_of(&format!("layer {{\n name: edge\n {head}\n {params}\n}}"));
                let mut none: Option<Box<dyn BatchSource<f32>>> = None;
                let e = build_layer::<f32>(&ls, &mut none, false)
                    .err()
                    .unwrap_or_else(|| panic!("{head} with {params} must not build"));
                assert_eq!(e.to_string(), format!("layer 'edge': {want}"));
            }
        }
        // The largest legal padding still builds.
        let ls = spec_of("layer {\n name: p\n type: Pooling\n kernel: 3\n pad: 2\n}");
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        assert!(build_layer::<f32>(&ls, &mut none, false).is_ok());
    }

    #[test]
    fn degenerate_lrn_specs_are_spec_errors() {
        // From a spec file an even or zero window used to reach the assert
        // in `LrnLayer::new`, and the others a scale whose power is inf or
        // NaN.
        let cases = [
            ("local_size: 4", "local_size 4 must be odd"),
            ("local_size: 0", "local_size 0 must be odd"),
            ("alpha: nan", "alpha NaN must be finite"),
            ("beta: inf", "beta inf must be finite"),
            ("k: -inf", "k -inf must be finite"),
            ("alpha: -0.001", "alpha -0.001 must not be negative"),
            ("k: 0", "k 0 must be positive"),
            ("k: -1", "k -1 must be positive"),
        ];
        for (params, want) in cases {
            let ls = spec_of(&format!("layer {{\n name: edge\n type: LRN\n {params}\n}}"));
            let mut none: Option<Box<dyn BatchSource<f32>>> = None;
            let e = build_layer::<f32>(&ls, &mut none, false)
                .err()
                .unwrap_or_else(|| panic!("LRN with {params} must not build"));
            assert_eq!(e.to_string(), format!("layer 'edge': {want}"));
        }
        // The boundaries themselves still build: a one-channel window, no
        // scaling, and any finite exponent.
        let ls = spec_of(
            "layer {\n name: n\n type: LRN\n local_size: 1\n alpha: 0\n beta: -2\n k: 0.5\n}",
        );
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        assert!(build_layer::<f32>(&ls, &mut none, false).is_ok());
    }

    #[test]
    fn filler_parsing() {
        let ls = spec_of(
            "layer {\n name: c\n type: Convolution\n num_output: 2\n kernel: 1\n \
             weight_filler: gaussian\n weight_filler_std: 0.05\n}",
        );
        let mut none: Option<Box<dyn BatchSource<f32>>> = None;
        assert!(build_layer::<f32>(&ls, &mut none, false).is_ok());
        let bad = spec_of(
            "layer {\n name: c\n type: Convolution\n num_output: 2\n kernel: 1\n \
             weight_filler: fancy\n}",
        );
        assert!(build_layer::<f32>(&bad, &mut none, false).is_err());
    }

    /// The error a Convolution and an InnerProduct block with `line` added
    /// give, which must be the same.
    fn learnable_error(line: &str) -> String {
        let mut errors = ["Convolution\n kernel: 1", "InnerProduct"].map(|ty| {
            let ls = spec_of(&format!(
                "layer {{\n name: p\n type: {ty}\n num_output: 2\n {line}\n}}"
            ));
            let mut none: Option<Box<dyn BatchSource<f32>>> = None;
            build_layer::<f32>(&ls, &mut none, false)
                .err()
                .unwrap_or_else(|| panic!("{ty} with '{line}' must not build"))
                .to_string()
        });
        assert_eq!(errors[0], errors[1]);
        std::mem::take(&mut errors[0])
    }

    // Every learnable layer learns a seeded weight at lr 1 and a zero bias
    // at lr 2; a spec that asks otherwise is refused, not trained on the
    // defaults.

    #[test]
    fn weight_lr_mult_is_refused() {
        assert_eq!(
            learnable_error("w_lr_mult: 0.5"),
            "layer 'p': unused key 'w_lr_mult'"
        );
    }

    #[test]
    fn bias_lr_mult_is_refused() {
        assert_eq!(
            learnable_error("b_lr_mult: 1"),
            "layer 'p': unused key 'b_lr_mult'"
        );
    }

    #[test]
    fn bias_filler_is_refused() {
        assert_eq!(
            learnable_error("bias_filler: constant"),
            "layer 'p': unused key 'bias_filler'"
        );
    }

    #[test]
    fn bias_filler_value_is_refused() {
        assert_eq!(
            learnable_error("bias_filler_value: 0.1"),
            "layer 'p': unused key 'bias_filler_value'"
        );
    }

    #[test]
    fn bias_filler_std_is_refused() {
        assert_eq!(
            learnable_error("bias_filler_std: 0.1"),
            "layer 'p': unused key 'bias_filler_std'"
        );
    }

    #[test]
    fn constant_weight_filler_is_refused() {
        assert_eq!(
            learnable_error("weight_filler: constant"),
            "layer 'p': unknown filler 'constant'"
        );
    }

    #[test]
    fn a_key_the_type_does_not_read_is_refused() {
        // Another type's key, and a filler's width under xavier.
        let cases = [
            ("type: ReLU\n kernel: 3", "unused key 'kernel'"),
            ("type: Data\n batch: 2\n seed: 4", "unused key 'seed'"),
            (
                "type: InnerProduct\n num_output: 2\n weight_filler_std: 0.1",
                "unused key 'weight_filler_std'",
            ),
        ];
        for (body, want) in cases {
            let ls = spec_of(&format!("layer {{\n name: x\n {body}\n}}"));
            let mut source: Option<Box<dyn BatchSource<f32>>> = Some(Box::new(Zeros));
            let e = build_layer::<f32>(&ls, &mut source, false)
                .err()
                .unwrap_or_else(|| panic!("'{body}' must not build"));
            assert_eq!(e.to_string(), format!("layer 'x': {want}"));
        }
    }
}
