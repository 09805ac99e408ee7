//! Reader for the CIFAR-10 binary format (`data_batch_*.bin`).
//!
//! Each record is `1 + 3072` bytes: a label byte followed by a `3 x 32 x 32`
//! image in channel-major order — exactly the blob layout the networks use.

use std::fmt;
use std::io::Read;

/// Bytes per CIFAR-10 image (3 x 32 x 32).
pub const CIFAR_IMAGE_BYTES: usize = 3 * 32 * 32;

/// CIFAR binary parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CifarError(String);

impl fmt::Display for CifarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CIFAR: {}", self.0)
    }
}

impl std::error::Error for CifarError {}

/// Read a CIFAR-10 binary batch: returns `(images, labels)` with pixels
/// divided by 255, so 0..=255 maps onto `[0, 1]`.
pub fn read_cifar_bin(mut r: impl Read) -> Result<(Vec<Vec<f32>>, Vec<u8>), CifarError> {
    let mut images = Vec::new();
    let mut labels = Vec::new();
    let mut rec = vec![0u8; 1 + CIFAR_IMAGE_BYTES];
    loop {
        match r.read_exact(&mut rec) {
            Ok(()) => {
                let label = rec[0];
                if label > 9 {
                    return Err(CifarError(format!(
                        "record {}: label {label} out of range",
                        labels.len()
                    )));
                }
                labels.push(label);
                images.push(rec[1..].iter().map(|&b| b as f32 / 255.0).collect());
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(CifarError(format!("read: {e}"))),
        }
    }
    if images.is_empty() {
        return Err(CifarError("no records".to_string()));
    }
    Ok((images, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_records() {
        let mut raw = vec![3u8];
        raw.extend(std::iter::repeat_n(255u8, CIFAR_IMAGE_BYTES));
        raw.push(9);
        raw.extend(std::iter::repeat_n(0u8, CIFAR_IMAGE_BYTES));
        let (imgs, labels) = read_cifar_bin(&raw[..]).unwrap();
        assert_eq!(labels, vec![3, 9]);
        assert_eq!(imgs[0][0], 1.0);
        assert_eq!(imgs[1][100], 0.0);
    }

    #[test]
    fn bad_label_is_error() {
        let mut raw = vec![10u8];
        raw.extend(std::iter::repeat_n(0u8, CIFAR_IMAGE_BYTES));
        assert!(read_cifar_bin(&raw[..]).is_err());
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_cifar_bin(&[][..]).is_err());
    }

    #[test]
    fn truncated_record_is_error_only_if_partial() {
        // One full record then a partial one: the partial tail is treated as
        // EOF by read_exact and surfaces as UnexpectedEof -> stop cleanly.
        let mut raw = vec![1u8];
        raw.extend(std::iter::repeat_n(7u8, CIFAR_IMAGE_BYTES));
        raw.extend_from_slice(&[2, 3, 4]); // garbage tail
        let (imgs, labels) = read_cifar_bin(&raw[..]).unwrap();
        assert_eq!(labels, vec![1]);
        assert_eq!(imgs.len(), 1);
    }
}
