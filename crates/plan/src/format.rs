//! The versioned, human-readable `.plan` schedule artifact.
//!
//! A plan is a line-oriented text file:
//!
//! ```text
//! CGPLAN v1
//! net lenet
//! threads 128
//! model cores=128
//! layer conv1 Convolution 20 channel:5
//! layer ip1 InnerProduct 0 sample
//! crc 7c9a0b1d
//! ```
//!
//! The trailing `crc` line carries the IEEE CRC32 of every preceding byte
//! (the same checksum the checkpoint format uses), so a truncated or
//! hand-mangled plan is rejected with a typed error instead of silently
//! executing a wrong schedule. Layer lines record the layer's type and
//! split extent at planning time; loading validates both against the live
//! net and names the offending layer on mismatch — a stale plan can never
//! panic the trainer. A strategy token outside `sample | channel:N` is a
//! [`PlanError::Parse`] naming its line.

use layers::strategy::LayerStrategy;
use mmblas::Scalar;
use net::Net;
use std::fmt;
use std::path::Path;
use wire::crc32;

/// Format version emitted and accepted by this build.
pub const PLAN_VERSION: &str = "v1";

/// One layer's planned strategy plus the shape facts needed to detect a
/// stale plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanEntry {
    /// Layer instance name.
    pub name: String,
    /// Layer type string at planning time.
    pub layer_type: String,
    /// Within-sample split extent at planning time (0 = none).
    pub extent: usize,
    /// The chosen strategy.
    pub strategy: LayerStrategy,
}

/// A parsed (or freshly searched) per-layer parallelization schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Network name the plan was searched for.
    pub net_name: String,
    /// Thread count the projection assumed.
    pub threads: usize,
    /// Free-text description of the cost model used.
    pub model: String,
    /// Per-layer strategies in execution order.
    pub entries: Vec<PlanEntry>,
}

/// Typed error for plan parsing, validation and application.
#[derive(Debug)]
pub enum PlanError {
    /// Filesystem error reading or writing a plan file.
    Io(std::io::Error),
    /// Missing or unsupported `CGPLAN` version header.
    Version {
        /// What the first line actually said.
        found: String,
    },
    /// A malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The trailing checksum does not match the plan body.
    Crc {
        /// Checksum recorded in the file.
        expected: u32,
        /// Checksum of the actual body.
        found: u32,
    },
    /// The plan names a layer the net does not have.
    UnknownLayer {
        /// The offending layer name.
        layer: String,
    },
    /// A named layer exists but its type or extent changed since planning.
    LayerMismatch {
        /// The offending layer name.
        layer: String,
        /// Which fact disagrees (`"type"` or `"extent"`).
        field: &'static str,
        /// Value recorded in the plan.
        plan: String,
        /// Value in the live net.
        net: String,
    },
    /// The strategy is outside the layer's executable space.
    Unsupported {
        /// The offending layer name.
        layer: String,
        /// The strategy the plan asked for.
        strategy: LayerStrategy,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "plan io error: {e}"),
            PlanError::Version { found } => write!(
                f,
                "not a CGPLAN {PLAN_VERSION} file (first line: `{found}`)"
            ),
            PlanError::Parse { line, msg } => write!(f, "plan line {line}: {msg}"),
            PlanError::Crc { expected, found } => write!(
                f,
                "plan checksum mismatch: file says {expected:08x}, body is {found:08x}"
            ),
            PlanError::UnknownLayer { layer } => {
                write!(f, "plan names layer '{layer}' which the net does not have")
            }
            PlanError::LayerMismatch {
                layer,
                field,
                plan,
                net,
            } => write!(
                f,
                "plan is stale: layer '{layer}' {field} was '{plan}' at planning time \
                 but the net has '{net}'"
            ),
            PlanError::Unsupported { layer, strategy } => {
                write!(f, "layer '{layer}' cannot execute strategy '{strategy}'")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<std::io::Error> for PlanError {
    fn from(e: std::io::Error) -> Self {
        PlanError::Io(e)
    }
}

impl Plan {
    /// Render the plan in the `.plan` text format, checksum included.
    pub fn emit(&self) -> String {
        let mut body = format!("CGPLAN {PLAN_VERSION}\n");
        body.push_str(&format!("net {}\n", self.net_name));
        body.push_str(&format!("threads {}\n", self.threads));
        body.push_str(&format!("model {}\n", self.model));
        for e in &self.entries {
            body.push_str(&format!(
                "layer {} {} {} {}\n",
                e.name, e.layer_type, e.extent, e.strategy
            ));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body
    }

    /// Parse a plan from its text form, verifying version and checksum.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let mut plan = Plan {
            net_name: String::new(),
            threads: 0,
            model: String::new(),
            entries: Vec::new(),
        };
        let mut seen_crc = false;
        let mut body_len = 0usize;
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let parse_err = |msg: String| PlanError::Parse { line: lineno, msg };
            if idx == 0 {
                if line.trim() != format!("CGPLAN {PLAN_VERSION}") {
                    return Err(PlanError::Version {
                        found: line.trim().to_string(),
                    });
                }
                body_len += line.len() + 1;
                continue;
            }
            if seen_crc && !line.trim().is_empty() {
                return Err(parse_err("content after crc line".into()));
            }
            let mut words = line.split_whitespace();
            match words.next() {
                None => body_len += line.len() + 1,
                Some("net") => {
                    plan.net_name = words.collect::<Vec<_>>().join(" ");
                    body_len += line.len() + 1;
                }
                Some("threads") => {
                    let t = words
                        .next()
                        .ok_or_else(|| parse_err("threads: missing count".into()))?;
                    plan.threads = t
                        .parse()
                        .map_err(|_| parse_err(format!("threads: `{t}` is not a number")))?;
                    body_len += line.len() + 1;
                }
                Some("model") => {
                    plan.model = words.collect::<Vec<_>>().join(" ");
                    body_len += line.len() + 1;
                }
                Some("layer") => {
                    let (name, ty, extent, strat) =
                        match (words.next(), words.next(), words.next(), words.next()) {
                            (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
                            _ => {
                                return Err(parse_err(
                                    "layer: expected `layer NAME TYPE EXTENT STRATEGY`".into(),
                                ))
                            }
                        };
                    let extent: usize = extent.parse().map_err(|_| {
                        parse_err(format!("layer {name}: extent `{extent}` is not a number"))
                    })?;
                    let strategy: LayerStrategy = strat
                        .parse()
                        .map_err(|e| parse_err(format!("layer {name}: {e}")))?;
                    plan.entries.push(PlanEntry {
                        name: name.to_string(),
                        layer_type: ty.to_string(),
                        extent,
                        strategy,
                    });
                    body_len += line.len() + 1;
                }
                Some("crc") => {
                    let hex = words
                        .next()
                        .ok_or_else(|| parse_err("crc: missing checksum".into()))?;
                    let expected = u32::from_str_radix(hex, 16)
                        .map_err(|_| parse_err(format!("crc: `{hex}` is not hex")))?;
                    let found = crc32(&text.as_bytes()[..body_len.min(text.len())]);
                    if expected != found {
                        return Err(PlanError::Crc { expected, found });
                    }
                    seen_crc = true;
                }
                Some(tok) => {
                    return Err(parse_err(format!("unknown directive `{tok}`")));
                }
            }
        }
        if !seen_crc {
            return Err(PlanError::Parse {
                line: text.lines().count(),
                msg: "missing crc line".into(),
            });
        }
        Ok(plan)
    }

    /// Read and parse a `.plan` file.
    pub fn load(path: &Path) -> Result<Self, PlanError> {
        Self::parse(&std::fs::read_to_string(path)?)
    }

    /// Write the plan to a file.
    pub fn save(&self, path: &Path) -> Result<(), PlanError> {
        Ok(std::fs::write(path, self.emit())?)
    }

    /// Layers with a non-default (non-sample-split) strategy.
    pub fn non_sample_layers(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.strategy.is_sample())
            .count()
    }
}

/// Build a plan describing `strategies` for `net`'s layers, recording each
/// layer's type and split extent for staleness detection.
pub fn plan_for_net<S: Scalar>(
    net: &Net<S>,
    strategies: &[LayerStrategy],
    threads: usize,
    model: &str,
) -> Plan {
    let names = net.layer_names();
    let types = net.layer_types();
    let extents = net.split_extents();
    assert_eq!(strategies.len(), names.len(), "one strategy per layer");
    Plan {
        net_name: net.name().to_string(),
        threads,
        model: model.to_string(),
        entries: names
            .iter()
            .zip(&types)
            .zip(&extents)
            .zip(strategies)
            .map(|(((n, t), &e), &s)| PlanEntry {
                name: n.to_string(),
                layer_type: t.to_string(),
                extent: e,
                strategy: s,
            })
            .collect(),
    }
}

/// Validate `plan` against `net` and apply every entry. Every entry must
/// name an existing layer whose type and extent still match; unmatched
/// layers in the net keep their current strategy.
pub fn apply_to_net<S: Scalar>(plan: &Plan, net: &mut Net<S>) -> Result<(), PlanError> {
    apply_inner(plan, net, false).map(|_| ())
}

/// Like [`apply_to_net`] but entries the net cannot host are skipped
/// instead of rejected — the serving path, whose deploy nets drop the data
/// and eval layers a training-time plan still names and rewrite layer
/// types (`SoftmaxWithLoss` → `Softmax`). An entry is skipped when its
/// layer name is gone or its layer type changed; an entry whose layer
/// still exists unchanged but whose extent differs is a genuinely stale
/// plan and stays a hard [`PlanError::LayerMismatch`]. Returns the
/// `(layer, strategy)` pairs actually applied.
pub fn apply_to_net_lenient<S: Scalar>(
    plan: &Plan,
    net: &mut Net<S>,
) -> Result<Vec<(String, LayerStrategy)>, PlanError> {
    apply_inner(plan, net, true)
}

fn apply_inner<S: Scalar>(
    plan: &Plan,
    net: &mut Net<S>,
    skip_unknown: bool,
) -> Result<Vec<(String, LayerStrategy)>, PlanError> {
    let names: Vec<String> = net.layer_names().iter().map(|s| s.to_string()).collect();
    let types: Vec<String> = net.layer_types().iter().map(|s| s.to_string()).collect();
    let extents = net.split_extents();
    let spaces = net.layer_strategy_spaces();

    // Validate every entry before mutating anything: a stale plan must not
    // leave the net half-applied.
    let mut to_apply: Vec<(String, LayerStrategy)> = Vec::new();
    for e in &plan.entries {
        let Some(i) = names.iter().position(|n| *n == e.name) else {
            if skip_unknown {
                continue;
            }
            return Err(PlanError::UnknownLayer {
                layer: e.name.clone(),
            });
        };
        if types[i] != e.layer_type {
            // Deploy-spec transforms rewrite types in place (e.g.
            // SoftmaxWithLoss -> Softmax): in lenient mode such an entry
            // simply has no host layer anymore.
            if skip_unknown {
                continue;
            }
            return Err(PlanError::LayerMismatch {
                layer: e.name.clone(),
                field: "type",
                plan: e.layer_type.clone(),
                net: types[i].clone(),
            });
        }
        if extents[i] != e.extent {
            return Err(PlanError::LayerMismatch {
                layer: e.name.clone(),
                field: "extent",
                plan: e.extent.to_string(),
                net: extents[i].to_string(),
            });
        }
        if !spaces[i].contains(&e.strategy) {
            return Err(PlanError::Unsupported {
                layer: e.name.clone(),
                strategy: e.strategy,
            });
        }
        to_apply.push((e.name.clone(), e.strategy));
    }
    for (layer, strategy) in &to_apply {
        net.set_layer_strategy(layer, *strategy)
            .expect("validated above");
    }
    Ok(to_apply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        Plan {
            net_name: "lenet".into(),
            threads: 128,
            model: "cores=128".into(),
            entries: vec![
                PlanEntry {
                    name: "conv1".into(),
                    layer_type: "Convolution".into(),
                    extent: 20,
                    strategy: LayerStrategy::ChannelSplit { ways: 5 },
                },
                PlanEntry {
                    name: "relu1".into(),
                    layer_type: "ReLU".into(),
                    extent: 0,
                    strategy: LayerStrategy::SampleSplit,
                },
                PlanEntry {
                    name: "ip2".into(),
                    layer_type: "InnerProduct".into(),
                    extent: 10,
                    strategy: LayerStrategy::SampleSplit,
                },
            ],
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let p = sample_plan();
        let text = p.emit();
        assert!(text.starts_with("CGPLAN v1\n"), "{text}");
        assert!(text.contains("layer conv1 Convolution 20 channel:5\n"));
        let q = Plan::parse(&text).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.non_sample_layers(), 1);
    }

    #[test]
    fn corrupt_byte_is_a_crc_error() {
        let text = sample_plan().emit();
        let bad = text.replace("channel:5", "channel:4");
        match Plan::parse(&bad) {
            Err(PlanError::Crc { expected, found }) => assert_ne!(expected, found),
            other => panic!("want Crc error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_and_malformed_lines_are_typed() {
        assert!(matches!(
            Plan::parse("CGPLAN v9\n"),
            Err(PlanError::Version { .. })
        ));
        assert!(matches!(
            Plan::parse("garbage\n"),
            Err(PlanError::Version { .. })
        ));
        let no_crc = "CGPLAN v1\nnet x\n";
        assert!(matches!(Plan::parse(no_crc), Err(PlanError::Parse { .. })));
        let bad_layer = "CGPLAN v1\nlayer conv1 Convolution twenty sample\n";
        match Plan::parse(bad_layer) {
            Err(PlanError::Parse { line, msg }) => {
                assert_eq!(line, 2);
                assert!(msg.contains("extent"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        let bad_strategy = "CGPLAN v1\nlayer conv1 Convolution 20 diagonal:2\n";
        match Plan::parse(bad_strategy) {
            Err(PlanError::Parse { msg, .. }) => assert!(msg.contains("diagonal"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_display_names_the_layer() {
        let e = PlanError::LayerMismatch {
            layer: "conv2".into(),
            field: "extent",
            plan: "50".into(),
            net: "32".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("conv2") && s.contains("50") && s.contains("32"),
            "{s}"
        );
        let u = PlanError::Unsupported {
            layer: "pool1".into(),
            strategy: LayerStrategy::ChannelSplit { ways: 2 },
        };
        assert!(u.to_string().contains("pool1"));
    }
}
