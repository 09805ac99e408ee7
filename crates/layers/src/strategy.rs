//! Per-layer parallelization strategies ("hidden dimensions").
//!
//! The paper parallelizes every layer over the sample dimension; Jia et al.
//! (PAPERS.md) show that is one point in a per-layer space. A
//! [`LayerStrategy`] names which coalesced dimension a layer's drivers split:
//!
//! * [`SampleSplit`](LayerStrategy::SampleSplit) — the paper's scheme, one
//!   coalesced iteration per sample.
//! * [`ChannelSplit`](LayerStrategy::ChannelSplit) — forward output channels
//!   are divided into `ways` contiguous blocks, so the coalesced loop runs
//!   over `batch × ways` units; used by convolution layers whose batch
//!   dimension is starved relative to the team.
//!
//! The split applies to the **forward** pass only; the backward pass always
//! reduces at sample granularity, so executing either strategy is
//! bit-identical to batch-only execution (see `drivers.rs` and DESIGN.md for
//! the argument).

use std::fmt;
use std::str::FromStr;

/// How one layer's coalesced parallel loop is split across the team.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LayerStrategy {
    /// One coalesced iteration per sample (the paper's scheme; default).
    #[default]
    SampleSplit,
    /// Forward output channels split into `ways` contiguous blocks per
    /// sample (`ways` must divide the layer's channel extent).
    ChannelSplit {
        /// Number of contiguous channel blocks per sample.
        ways: usize,
    },
}

impl LayerStrategy {
    /// Number of sub-units each sample's output segment is split into
    /// (1 for the sample split).
    pub fn split_ways(&self) -> usize {
        match *self {
            LayerStrategy::SampleSplit => 1,
            LayerStrategy::ChannelSplit { ways } => ways,
        }
    }

    /// `true` for the default sample-dimension split.
    pub fn is_sample(&self) -> bool {
        matches!(self, LayerStrategy::SampleSplit)
    }
}

impl fmt::Display for LayerStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayerStrategy::SampleSplit => write!(f, "sample"),
            LayerStrategy::ChannelSplit { ways } => write!(f, "channel:{ways}"),
        }
    }
}

/// Error parsing a [`LayerStrategy`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    /// The token that failed to parse.
    pub token: String,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid strategy `{}`: {}", self.token, self.msg)
    }
}

impl std::error::Error for ParseStrategyError {}

impl FromStr for LayerStrategy {
    type Err = ParseStrategyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |msg: &str| ParseStrategyError {
            token: s.to_string(),
            msg: msg.to_string(),
        };
        if s == "sample" {
            return Ok(LayerStrategy::SampleSplit);
        }
        let ways = s
            .strip_prefix("channel:")
            .ok_or_else(|| err("expected sample | channel:N"))?;
        let ways: usize = ways
            .parse()
            .map_err(|_| err("split count is not a number"))?;
        if ways < 2 {
            return Err(err("split count must be >= 2"));
        }
        Ok(LayerStrategy::ChannelSplit { ways })
    }
}

/// Split candidates for a layer whose split dimension has `extent`
/// channels: every divisor `d >= 2` of `extent`, capped at
/// [`MAX_SPLIT_WAYS`] so the search space stays small for wide layers.
pub fn split_divisors(extent: usize) -> Vec<usize> {
    (2..=extent.min(MAX_SPLIT_WAYS))
        .filter(|d| extent.is_multiple_of(*d))
        .collect()
}

/// Largest within-sample split the strategy space enumerates.
pub const MAX_SPLIT_WAYS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        for s in [
            LayerStrategy::SampleSplit,
            LayerStrategy::ChannelSplit { ways: 4 },
        ] {
            assert_eq!(s.to_string().parse::<LayerStrategy>().unwrap(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "",
            "chan",
            "channel",
            "channel:",
            "channel:x",
            "channel:1",
            "output:0",
            "output:2",
            "replicate",
        ] {
            let e = bad.parse::<LayerStrategy>().unwrap_err();
            assert_eq!(e.token, bad);
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn ways_and_predicates() {
        assert_eq!(LayerStrategy::SampleSplit.split_ways(), 1);
        assert_eq!(LayerStrategy::ChannelSplit { ways: 5 }.split_ways(), 5);
        assert!(LayerStrategy::default().is_sample());
        assert!(!LayerStrategy::ChannelSplit { ways: 2 }.is_sample());
    }

    #[test]
    fn divisors_enumerate_and_cap() {
        assert_eq!(split_divisors(20), vec![2, 4, 5, 10, 20]);
        assert_eq!(split_divisors(1), Vec::<usize>::new());
        assert!(split_divisors(500).iter().all(|&d| d <= MAX_SPLIT_WAYS));
        assert!(split_divisors(500).contains(&50));
    }
}
