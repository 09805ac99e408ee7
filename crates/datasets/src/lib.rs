//! `datasets` — data substrates for the reproduction.
//!
//! The paper evaluates on MNIST and CIFAR-10. Since the original archives
//! are not redistributable here, this crate provides:
//!
//! * [`SyntheticMnist`] / [`SyntheticCifar`] — deterministic *procedural*
//!   generators producing images with the exact shapes of the real datasets
//!   (`1x28x28` grayscale digits, `3x32x32` color textures, 10 classes).
//!   Samples are pure functions of `(seed, index)`, so no storage is needed
//!   and every run sees identical data. The classes are genuinely learnable:
//!   the integration tests train the paper's networks to high accuracy on
//!   them.
//! * [`idx`] / [`cifar_bin`] — readers for the real MNIST IDX and CIFAR-10
//!   binary formats, so the same experiments run on the genuine data when
//!   the files are present.
//! * [`InMemoryDataset`] — a [`BatchSource`] over decoded samples.

pub mod cifar_bin;
pub mod idx;
pub mod memory;
pub mod sampler;
pub mod synthetic;

pub use cifar_bin::read_cifar_bin;
pub use idx::{read_idx_images, read_idx_labels};
pub use layers::data::BatchSource;
pub use memory::InMemoryDataset;
pub use sampler::{permutation, train_test_split, ShardedSource, ShuffledSource, SliceSource};
pub use synthetic::{SyntheticCifar, SyntheticMnist};
