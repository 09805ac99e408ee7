//! Reader for the MNIST IDX file format (<http://yann.lecun.com/exdb/mnist/>).
//!
//! IDX layout: magic `[0, 0, dtype, ndim]`, then `ndim` big-endian u32
//! dimensions, then the raw data. MNIST uses dtype `0x08` (unsigned byte).

use std::fmt;
use std::io::Read;

/// IDX parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdxError(String);

impl fmt::Display for IdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IDX: {}", self.0)
    }
}

impl std::error::Error for IdxError {}

fn read_u32(r: &mut impl Read) -> Result<u32, IdxError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|e| IdxError(format!("short read: {e}")))?;
    Ok(u32::from_be_bytes(b))
}

fn read_header(r: &mut impl Read, expect_ndim: u8) -> Result<Vec<usize>, IdxError> {
    let magic = read_u32(r)?;
    let dtype = ((magic >> 8) & 0xff) as u8;
    let ndim = (magic & 0xff) as u8;
    if magic >> 16 != 0 {
        return Err(IdxError(format!("bad magic 0x{magic:08x}")));
    }
    if dtype != 0x08 {
        return Err(IdxError(format!(
            "unsupported dtype 0x{dtype:02x} (want ubyte)"
        )));
    }
    if ndim != expect_ndim {
        return Err(IdxError(format!("expected {expect_ndim} dims, got {ndim}")));
    }
    (0..ndim).map(|_| read_u32(r).map(|d| d as usize)).collect()
}

/// Read an IDX3 image file: returns `(images, rows, cols)` with pixels
/// divided by 255, so 0..=255 maps onto `[0, 1]` (not Caffe's
/// `scale: 0.00390625`, which is 1/256).
pub fn read_idx_images(mut r: impl Read) -> Result<(Vec<Vec<f32>>, usize, usize), IdxError> {
    let dims = read_header(&mut r, 3)?;
    let (n, rows, cols) = (dims[0], dims[1], dims[2]);
    let mut images = Vec::with_capacity(n);
    let mut buf = vec![0u8; rows * cols];
    for i in 0..n {
        r.read_exact(&mut buf)
            .map_err(|e| IdxError(format!("image {i}: {e}")))?;
        images.push(buf.iter().map(|&b| b as f32 / 255.0).collect());
    }
    Ok((images, rows, cols))
}

/// Read an IDX1 label file.
pub fn read_idx_labels(mut r: impl Read) -> Result<Vec<u8>, IdxError> {
    let dims = read_header(&mut r, 1)?;
    let mut labels = vec![0u8; dims[0]];
    r.read_exact(&mut labels)
        .map_err(|e| IdxError(format!("labels: {e}")))?;
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx3(n: u32, rows: u32, cols: u32, data: &[u8]) -> Vec<u8> {
        let mut v = vec![0, 0, 0x08, 3];
        v.extend_from_slice(&n.to_be_bytes());
        v.extend_from_slice(&rows.to_be_bytes());
        v.extend_from_slice(&cols.to_be_bytes());
        v.extend_from_slice(data);
        v
    }

    #[test]
    fn round_trip_images() {
        let raw = idx3(2, 2, 2, &[0, 51, 102, 255, 255, 0, 0, 0]);
        let (imgs, rows, cols) = read_idx_images(&raw[..]).unwrap();
        assert_eq!((rows, cols), (2, 2));
        assert_eq!(imgs.len(), 2);
        assert!((imgs[0][1] - 0.2).abs() < 1e-6);
        assert_eq!(imgs[0][3], 1.0);
        assert_eq!(imgs[1], vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn round_trip_labels() {
        let mut raw = vec![0, 0, 0x08, 1];
        raw.extend_from_slice(&3u32.to_be_bytes());
        raw.extend_from_slice(&[7, 0, 9]);
        assert_eq!(read_idx_labels(&raw[..]).unwrap(), vec![7, 0, 9]);
    }

    #[test]
    fn rejects_bad_magic_and_dtype() {
        assert!(read_idx_labels(&[1, 0, 0x08, 1, 0, 0, 0, 0][..]).is_err());
        assert!(read_idx_labels(&[0, 0, 0x0d, 1, 0, 0, 0, 0][..]).is_err());
        // Wrong ndim for images.
        assert!(read_idx_images(&[0, 0, 0x08, 1, 0, 0, 0, 0][..]).is_err());
    }

    #[test]
    fn truncated_data_is_error() {
        let raw = idx3(2, 2, 2, &[1, 2, 3]); // needs 8 bytes
        assert!(read_idx_images(&raw[..]).is_err());
    }
}
