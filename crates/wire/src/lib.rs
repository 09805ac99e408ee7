//! `wire` — the one binary codec under every file and socket format in
//! this workspace: `CGDN` snapshots and checkpoints, `CGSS` solver state,
//! metric snapshots, the `CGRP` hellos and frame header, and the
//! distributed-training payloads.
//!
//! Everything is little-endian. [`Reader`] is a cursor over `&[u8]` that
//! never indexes past the end and never allocates: a count read from the
//! input is checked against the bytes that remain *before* a caller can
//! size anything by it ([`Reader::f32s`] and friends hand back an iterator
//! over already-bounded bytes), so a lying length costs an [`Error`], not
//! memory. [`Put`] is the matching writer; [`crc32`] is the checksum the
//! snapshot trailer and the frame header share.
//!
//! Callers map [`Error`] into their own error type; for the file formats
//! that is `io::ErrorKind::InvalidData` via the `From` impl here.

#![forbid(unsafe_code)]

use std::fmt;

/// Why a byte sequence was rejected. Offsets are from the start of the
/// slice the [`Reader`] was built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A read of `need` bytes at offset `at` runs past the end.
    Truncated { at: usize, need: usize },
    /// [`Reader::finish`] found `extra` unread bytes at offset `at`.
    Trailing { at: usize, extra: usize },
    /// A length-prefixed string at offset `at` is not UTF-8.
    Utf8 { at: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Error::Truncated { at, need } => {
                write!(f, "truncated: {need} bytes wanted at offset {at}")
            }
            Error::Trailing { at, extra } => write!(f, "{extra} trailing bytes at offset {at}"),
            Error::Utf8 { at } => write!(f, "string at offset {at} is not UTF-8"),
        }
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// `fn name(&mut self) -> Result<ty, Error>` for a fixed-width number.
macro_rules! read_le {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Read one little-endian `", stringify!($ty), "`.")]
        pub fn $name(&mut self) -> Result<$ty, Error> {
            Ok(<$ty>::from_le_bytes(self.array()?))
        }
    )*};
}

/// `fn name(&mut self, n) -> Result<impl Iterator<Item = ty>, Error>`.
macro_rules! read_le_run {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Read `n` little-endian `", stringify!($ty), "` values. ")]
        /// `n · size` is checked against the remaining bytes first, so
        /// collecting the result allocates no more than the input holds.
        pub fn $name(
            &mut self,
            n: usize,
        ) -> Result<impl ExactSizeIterator<Item = $ty> + 'a, Error> {
            const SIZE: usize = std::mem::size_of::<$ty>();
            let raw = self.bytes(n.checked_mul(SIZE).unwrap_or(usize::MAX))?;
            Ok(raw
                .chunks_exact(SIZE)
                .map(|c| <$ty>::from_le_bytes(c.try_into().expect("chunks_exact(SIZE)"))))
        }
    )*};
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(Error::Truncated {
                at: self.pos,
                need: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array (magics, tags).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N long"))
    }

    read_le!(u8: u8, u16: u16, u32: u32, u64: u64, f64: f64);
    read_le_run!(f32s: f32, f64s: f64, u64s: u64);

    /// A string behind a `u16` byte-length prefix.
    pub fn str(&mut self) -> Result<&'a str, Error> {
        let n = self.u16()? as usize;
        let at = self.pos;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| Error::Utf8 { at })
    }

    /// Done reading: unread bytes are an error.
    pub fn finish(self) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(Error::Trailing {
                at: self.pos,
                extra,
            }),
        }
    }
}

/// `fn name(&mut self, v: ty)` for a fixed-width number.
macro_rules! put_le {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Append one little-endian `", stringify!($ty), "`.")]
        fn $name(&mut self, v: $ty) {
            self.put(&v.to_le_bytes());
        }
    )*};
}

/// Little-endian writer. Implemented for `Vec<u8>` (appends) and for
/// `&mut [u8]` (fills a fixed-size header in place and advances; writing
/// past its end is a caller bug and panics).
pub trait Put {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    put_le!(put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64, put_f64: f64);

    /// Append `s` behind a `u16` byte-length prefix, cut to `u16::MAX` bytes.
    fn put_str(&mut self, s: &str) {
        let b = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
        self.put_u16(b.len() as u16);
        self.put(b);
    }
}

impl Put for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Put for &mut [u8] {
    fn put(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(self).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        *self = tail;
    }
}

/// `fn name(out, vals)`: bulk append — one resize, then fixed-width stores.
macro_rules! put_le_run {
    ($($name:ident: $ty:ty),*) => {$(
        #[doc = concat!("Append every `", stringify!($ty), "` of `vals`, little-endian.")]
        pub fn $name(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = $ty>) {
            const SIZE: usize = std::mem::size_of::<$ty>();
            let start = out.len();
            out.resize(start + vals.len() * SIZE, 0);
            for (dst, v) in out[start..].chunks_exact_mut(SIZE).zip(vals) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
    )*};
}

put_le_run!(put_f32s: f32, put_f64s: f64);

/// Slicing-by-8 tables of the IEEE polynomial: `CRC_TABLES[0][b]` is the
/// CRC of byte `b` (the classic byte-at-a-time table), and
/// `CRC_TABLES[k][b]` that of `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven: eight bytes per
/// step through the slicing-by-8 tables, the tail one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let at = |k: usize, v: u32, shift: u32| t[k][((v >> shift) & 0xFF) as usize];
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = at(7, lo, 0) ^ at(6, lo, 8) ^ at(5, lo, 16) ^ at(4, lo, 24);
        c ^= at(3, hi, 0) ^ at(2, hi, 8) ^ at(1, hi, 16) ^ at(0, hi, 24);
    }
    for &b in words.remainder() {
        c = at(0, c ^ b as u32, 0) ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop over `CRC_TABLES[0]`: the oracle of the
    /// slicing-by-8 kernel.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_slicing_by_8_matches_the_byte_loop() {
        // Every length 0..=64 (so every tail 0..8 after 0..8 whole steps)
        // from every start 0..8 of one buffer, so that no alignment is
        // assumed.
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{start}+{len}");
            }
        }
    }

    #[test]
    fn every_field_round_trips() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u16(0xBEEF);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(u64::MAX - 1);
        out.put_f64(-0.1);
        out.put_str("naïve");
        out.put(b"CGDN");
        put_f32s(&mut out, [1.5f32, -2.0].into_iter());
        put_f64s(&mut out, [0.1f64].into_iter());
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.str().unwrap(), "naïve");
        assert_eq!(&r.array::<4>().unwrap(), b"CGDN");
        assert_eq!(r.f32s(2).unwrap().collect::<Vec<_>>(), [1.5, -2.0]);
        assert_eq!(r.f64s(1).unwrap().collect::<Vec<_>>(), [0.1]);
        r.finish().unwrap();
    }

    #[test]
    fn numbers_are_little_endian() {
        let mut out = Vec::new();
        out.put_u32(0x0403_0201);
        put_f32s(&mut out, [1.0f32].into_iter());
        assert_eq!(out, [1, 2, 3, 4, 0, 0, 0x80, 0x3f]);
    }

    #[test]
    fn fixed_headers_fill_in_place() {
        let mut head = [0xAAu8; 8];
        let mut w = &mut head[..];
        w.put(b"CG");
        w.put_u16(1);
        w.put_u32(9);
        assert!(w.is_empty());
        assert_eq!(head, [b'C', b'G', 1, 0, 9, 0, 0, 0]);
    }

    #[test]
    fn short_input_is_truncated_at_the_failing_field() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.u32().unwrap(), 0x0403_0201);
        assert_eq!(r.u32(), Err(Error::Truncated { at: 4, need: 4 }));
        // A failed read consumes nothing.
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.u8(), Err(Error::Truncated { at: 5, need: 1 }));
    }

    #[test]
    fn lying_counts_fail_before_any_allocation() {
        let mut r = Reader::new(&[0u8; 16]);
        // 2^61 f64s would overflow `n * 8`; u32::MAX f32s is 16 GiB.
        assert!(matches!(r.f64s(1 << 61), Err(Error::Truncated { .. })));
        assert!(matches!(
            r.f32s(u32::MAX as usize),
            Err(Error::Truncated { .. })
        ));
        assert!(matches!(r.u64s(3), Err(Error::Truncated { .. })));
        assert_eq!(r.u64s(2).unwrap().len(), 2);
    }

    #[test]
    fn finish_rejects_trailing_bytes_and_str_rejects_bad_utf8() {
        let mut r = Reader::new(&[9, 8, 7]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(Error::Trailing { at: 1, extra: 2 }));
        assert_eq!(
            Reader::new(&[2, 0, 0xFF, 0xFE]).str(),
            Err(Error::Utf8 { at: 2 })
        );
        assert!(matches!(
            Reader::new(&[9, 0, b'x']).str(),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn long_strings_are_cut_to_the_prefix_width() {
        let mut out = Vec::new();
        out.put_str(&"x".repeat(70_000));
        assert_eq!(out.len(), 2 + u16::MAX as usize);
        assert_eq!(Reader::new(&out).str().unwrap().len(), u16::MAX as usize);
    }

    #[test]
    fn io_error_mapping_is_invalid_data() {
        let e: std::io::Error = Error::Truncated { at: 0, need: 4 }.into();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("truncated"));
    }
}
