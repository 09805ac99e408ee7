//! `serve` — a forward-only inference subsystem on top of `net`, `omprt`,
//! and the `CGDN` snapshot format.
//!
//! The training side of this repo parallelizes *within* a batch (the
//! paper's coarse-grain scheme); serving adds the missing outer loop: where
//! do batches come from when clients submit one sample at a time? The
//! answer is dynamic micro-batching — a worker takes whatever requests are
//! already waiting in a bounded queue, up to the engine's `max_batch`, runs
//! them through a persistent [`Engine`], and demultiplexes the answers back
//! to their submitters; requests that arrive during that run are the next
//! batch.
//!
//! The pieces:
//!
//! - [`deploy::deploy_spec`] — rewrites a training prototxt into its
//!   forward-only twin (Caffe's deploy-net transform): the `Data` layer
//!   becomes an input blob and `SoftmaxWithLoss` becomes `Softmax` over
//!   its scores. Learnable parameters are untouched, so training snapshots
//!   load unchanged.
//! - [`Engine`] — a deploy net + persistent [`omprt::ThreadTeam`] with a
//!   pre-sized workspace; [`Engine::infer_batch`] seats the samples it was
//!   sent as the net's active batch (`max_batch` is only the capacity), so
//!   a call computes exactly those rows and returns them.
//! - [`Server`] — admission control (bounded queue, [`ServeError::Rejected`]
//!   on overload), per-request deadlines ([`ServeError::TimedOut`]), one
//!   worker thread per engine replica, and [`metrics::ServingMetrics`]
//!   (live `serve.*` handles: latency percentiles, batch-size
//!   distribution, queue depth, throughput). Each answer is an owned `Vec`
//!   handed to the request's one completion callback
//!   ([`Client::submit_async`]); the blocking [`Client::infer`] is that
//!   callback sending on a channel it waits on.
//! - [`EngineFactory`] — decodes a snapshot once and stamps out replicas
//!   whose parameter blobs share that one decoded copy (`Arc`-backed
//!   copy-on-write inside [`blob::Blob`]), so replica count does not
//!   multiply weight memory.
//! - [`Server::start_supervised`] — a worker whose engine panics rebuilds
//!   it in place from the factory, bounded by a [`RestartBudget`] of
//!   restarts per sliding window (the budget distributed training also
//!   charges per worker death).
//!
//! ```
//! use serve::{BatchPolicy, Engine, EngineConfig, Server};
//!
//! let spec = net::NetSpec::parse(
//!     "layer {\n name: d\n type: Data\n batch: 4\n top: data\n top: label\n}\n\
//!      layer {\n name: ip\n type: InnerProduct\n num_output: 3\n seed: 7\n bottom: data\n top: ip\n}\n\
//!      layer {\n name: loss\n type: SoftmaxWithLoss\n bottom: ip\n bottom: label\n top: loss\n}",
//! )
//! .unwrap();
//! let sample = blob::Shape::from(vec![5usize]);
//! let cfg = EngineConfig { max_batch: 4, n_threads: 2 };
//! let engine = Engine::<f32>::build(&spec, &sample, &cfg).unwrap();
//! let server = Server::start(vec![engine], BatchPolicy::default()).unwrap();
//! let probs = server.infer(&[0.5; 5]).unwrap();
//! assert_eq!(probs.len(), 3);
//! let report = server.shutdown();
//! assert_eq!(report.completed, 1);
//! ```

pub mod batcher;
pub mod deploy;
pub mod engine;
pub mod metrics;

pub use batcher::{BatchPolicy, Client, RestartBudget, Server};
pub use deploy::{deploy_spec, DeploySpec};
pub use engine::{Engine, EngineConfig, EngineFactory};
pub use metrics::{ServingMetrics, ServingReport};

use std::fmt;

/// Everything that can go wrong while building an engine or serving a
/// request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full — the request was never enqueued.
    /// Clients should back off and retry; this is the backpressure signal.
    Rejected,
    /// The request's deadline expired while it waited in the queue.
    TimedOut,
    /// The server shut down before the request completed.
    Closed,
    /// The request payload does not match the engine's sample shape.
    BadInput(String),
    /// Spec / deploy-transform / net-construction failure.
    Build(String),
    /// Snapshot loading failure.
    Weights(String),
    /// The replica executing the request's batch failed (e.g. panicked).
    /// The request was consumed; the caller decides whether to retry on
    /// the surviving replicas.
    Replica(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected => write!(f, "request rejected: admission queue full"),
            ServeError::TimedOut => write!(f, "request timed out before execution"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::BadInput(m) => write!(f, "bad input: {m}"),
            ServeError::Build(m) => write!(f, "engine build failed: {m}"),
            ServeError::Weights(m) => write!(f, "weight loading failed: {m}"),
            ServeError::Replica(m) => write!(f, "replica failure: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
