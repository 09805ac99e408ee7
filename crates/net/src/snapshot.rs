//! Parameter snapshots and the v2 checkpoint container — the Caffe
//! `snapshot` / `--weights` feature, hardened for crash-safe training.
//!
//! The file is a `CGDN` v2 section container with an integrity trailer:
//!
//! ```text
//! magic "CGDN" | version u32 = 2 | n_sections u32
//! per section: tag [u8;4] | len u64 | payload bytes
//! crc32 u32   (IEEE, over every preceding byte)
//! ```
//!
//! Known section tags: [`SEC_PARAMS`] holds the blobs,
//!
//! ```text
//! n_blobs u32 | per blob: ndim u32 | dims u32 x ndim | values f64 x count
//! ```
//!
//! and higher layers add their own tags (solver state, iteration counter,
//! sampler cursor — see `cgdnn::checkpoint`). Any other version — the
//! pre-container v1 layout included — is refused. Unknown tags are
//! ignored on load, so the format is forward-extensible. The CRC
//! trailer means truncation, bit flips, and torn writes all surface as a
//! clean [`std::io::ErrorKind::InvalidData`] instead of garbage weights.
//!
//! Values are stored as `f64` regardless of the in-memory scalar so
//! snapshots round-trip losslessly for both `f32` and `f64` models.
//!
//! [`write_atomic`] is the only sanctioned way to put a snapshot on disk:
//! temp file + fsync + rename (+ best-effort directory fsync), so a crash
//! mid-write can never clobber an existing good copy.

use crate::Net;
use mmblas::Scalar;
use std::io::{self, Read, Write};
use std::path::Path;
use wire::{Put, Reader};

const MAGIC: &[u8; 4] = b"CGDN";
const VERSION: u32 = 2;

/// Section tag of the learnable-parameter payload.
pub const SEC_PARAMS: [u8; 4] = *b"PRMS";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialize the learnable parameters of `net` as a [`SEC_PARAMS`] payload
/// (no header, no trailer).
pub fn params_to_bytes<S: Scalar>(net: &Net<S>) -> Vec<u8> {
    let params = net.learnable_params();
    let mut w = Vec::new();
    w.put_u32(params.len() as u32);
    for p in params {
        let dims = p.shape().dims();
        w.put_u32(dims.len() as u32);
        for &d in dims {
            w.put_u32(d as u32);
        }
        wire::put_f64s(&mut w, p.data().iter().map(|v| v.to_f64()));
    }
    w
}

/// Restore parameters from a [`SEC_PARAMS`] payload into an
/// identically-shaped network. Shapes are validated blob by blob, before
/// anything is sized by what the file announces. Bytes past the promised
/// blob count are ignored: the section length and the container's CRC
/// already bound the payload.
pub fn params_from_bytes<S: Scalar>(net: &mut Net<S>, bytes: &[u8]) -> io::Result<()> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut params = net.learnable_params_mut();
    if n != params.len() {
        return Err(bad(format!(
            "snapshot: {n} blobs in file, network has {}",
            params.len()
        )));
    }
    for (i, p) in params.iter_mut().enumerate() {
        let want = p.shape().dims();
        let ndim = r.u32()? as usize;
        if ndim != want.len() {
            return Err(bad(format!(
                "snapshot: blob {i} has {ndim} dims, network shape is {want:?}"
            )));
        }
        let dims = (0..ndim)
            .map(|_| r.u32().map(|d| d as usize))
            .collect::<Result<Vec<_>, _>>()?;
        if dims != want {
            return Err(bad(format!(
                "snapshot: blob {i} shape {dims:?} does not match network {want:?}"
            )));
        }
        let values = r.f64s(p.count())?;
        for (v, f) in p.data_mut().iter_mut().zip(values) {
            *v = S::from_f64(f);
        }
    }
    Ok(())
}

/// Serialize `sections` as a v2 container (header, tagged sections, CRC32
/// trailer).
pub fn save_sections(sections: &[([u8; 4], &[u8])], mut w: impl Write) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.put(MAGIC);
    buf.put_u32(VERSION);
    buf.put_u32(sections.len() as u32);
    for (tag, payload) in sections {
        buf.put(tag);
        buf.put_u64(payload.len() as u64);
        buf.put(payload);
    }
    let crc = wire::crc32(&buf);
    buf.put_u32(crc);
    w.write_all(&buf)
}

/// Read a `CGDN` container into `(tag, payload)` pairs.
///
/// The file is CRC-validated end to end; any corruption, truncation,
/// trailing garbage or other version is an [`io::ErrorKind::InvalidData`]
/// error.
pub fn read_sections(mut r: impl Read) -> io::Result<Vec<([u8; 4], Vec<u8>)>> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let sections = parse_sections(&buf)?;
    Ok(sections.into_iter().map(|(t, p)| (t, p.to_vec())).collect())
}

/// [`read_sections`] over bytes already in memory, borrowing the payloads.
fn parse_sections(buf: &[u8]) -> io::Result<Vec<([u8; 4], &[u8])>> {
    let mut head = Reader::new(buf);
    if head.array::<4>()? != *MAGIC {
        return Err(bad("snapshot: bad magic"));
    }
    let version = head.u32()?;
    if version != VERSION {
        return Err(bad(format!("snapshot: unsupported version {version}")));
    }
    let body_len = head
        .remaining()
        .checked_sub(4)
        .ok_or_else(|| bad("snapshot: truncated before the crc trailer"))?;
    let mut body = Reader::new(head.bytes(body_len)?);
    let stored = head.u32()?;
    let computed = wire::crc32(&buf[..buf.len() - 4]);
    if stored != computed {
        return Err(bad(format!(
            "snapshot: crc mismatch (stored {stored:08x}, computed {computed:08x}) — \
             file is corrupt or truncated"
        )));
    }
    let n = body.u32()?;
    let mut sections = Vec::new();
    for _ in 0..n {
        let tag = body.array::<4>()?;
        let len = usize::try_from(body.u64()?).unwrap_or(usize::MAX);
        sections.push((tag, body.bytes(len)?));
    }
    body.finish()?;
    Ok(sections)
}

/// Serialize every learnable parameter blob of `net` (in layer order) as a
/// params-only snapshot.
pub fn save_params<S: Scalar>(net: &Net<S>, w: impl Write) -> io::Result<()> {
    let _span = obs::trace::span("snapshot_save", "ckpt");
    let t0 = std::time::Instant::now();
    let params = params_to_bytes(net);
    let r = save_sections(&[(SEC_PARAMS, &params)], w);
    let reg = obs::registry::global();
    reg.counter("ckpt.saves").inc();
    reg.histogram("ckpt.save_seconds", &obs::registry::DURATION_BOUNDS_SECS)
        .observe(t0.elapsed().as_secs_f64());
    r
}

/// Restore parameters saved by [`save_params`] into an identically-shaped
/// network. Shapes are validated blob by blob.
pub fn load_params<S: Scalar>(net: &mut Net<S>, mut r: impl Read) -> io::Result<()> {
    let _span = obs::trace::span("snapshot_load", "ckpt");
    let t0 = std::time::Instant::now();
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let sections = parse_sections(&buf)?;
    let params = sections
        .iter()
        .find(|(tag, _)| *tag == SEC_PARAMS)
        .ok_or_else(|| bad("snapshot: no parameter section"))?;
    let out = params_from_bytes(net, params.1);
    let reg = obs::registry::global();
    reg.counter("ckpt.loads").inc();
    reg.histogram("ckpt.load_seconds", &obs::registry::DURATION_BOUNDS_SECS)
        .observe(t0.elapsed().as_secs_f64());
    out
}

/// Durably write `bytes` to `path`: temp file in the same directory, fsync,
/// atomic rename over the destination, best-effort directory fsync. A crash
/// at any point leaves either the old file or the new one — never a torn
/// mix. Fault-injection points: `checkpoint.partial` fires mid-write (the
/// temp file is left half-written and the destination untouched).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let _span = obs::trace::span("write_atomic", "ckpt");
    let t0 = std::time::Instant::now();
    let out = write_atomic_inner(path, bytes);
    let reg = obs::registry::global();
    reg.counter("ckpt.write_bytes").add(bytes.len() as u64);
    reg.histogram("ckpt.write_seconds", &obs::registry::DURATION_BOUNDS_SECS)
        .observe(t0.elapsed().as_secs_f64());
    out
}

fn write_atomic_inner(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| bad(format!("write_atomic: no file name in {}", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        let mid = bytes.len() / 2;
        f.write_all(&bytes[..mid])?;
        f.flush()?;
        crate::faults::hit("checkpoint.partial")?;
        f.write_all(&bytes[mid..])?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetSpec;

    const SPEC: &str = r#"
name: t
layer {
  name: d
  type: Data
  batch: 2
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 3
  seed: 4
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}
"#;

    struct OneSource;
    impl layers::data::BatchSource<f32> for OneSource {
        fn num_samples(&self) -> usize {
            4
        }
        fn sample_shape(&self) -> blob::Shape {
            blob::Shape::from([2usize])
        }
        fn fill(&self, index: usize, out: &mut [f32]) -> f32 {
            mmblas::set(index as f32, out);
            (index % 3) as f32
        }
    }

    fn make() -> Net<f32> {
        Net::from_spec(&NetSpec::parse(SPEC).unwrap(), Some(Box::new(OneSource))).unwrap()
    }

    #[test]
    fn round_trip_preserves_parameters() {
        let src = make();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();

        let mut dst = make();
        // Scramble dst first so the test is meaningful.
        for p in dst.learnable_params_mut() {
            mmblas::set(9.0f32, p.data_mut());
        }
        load_params(&mut dst, buf.as_slice()).unwrap();
        for (a, b) in src.learnable_params().iter().zip(dst.learnable_params()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn v1_files_are_an_unsupported_version() {
        // The pre-container layout: header, then the bare PRMS payload.
        let mut buf = MAGIC.to_vec();
        buf.put_u32(1);
        buf.put(&params_to_bytes(&make()));
        let e = load_params(&mut make(), buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert!(e.to_string().contains("unsupported version 1"), "{e}");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut net = make();
        assert!(load_params(&mut net, &b"XXXX"[..]).is_err());
        let src = make();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(load_params(&mut net, buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_any_single_bit_flip() {
        let src = make();
        let mut clean = Vec::new();
        save_params(&src, &mut clean).unwrap();
        // Flip one bit in the header, mid-payload, and in the trailer.
        for pos in [9, clean.len() / 2, clean.len() - 2] {
            let mut buf = clean.clone();
            buf[pos] ^= 0x10;
            let mut net = make();
            let e = load_params(&mut net, buf.as_slice()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "flip at {pos}: {e}");
        }
    }

    #[test]
    fn params_announcing_u32_max_dims_are_invalid_data_not_an_allocation() {
        // A CRC-valid container whose PRMS payload says 2 blobs, ndim
        // u32::MAX, then nothing: `params_from_bytes` used to size a Vec by
        // that ndim (32 GiB) before reading one dim.
        let load = |payload: &[u8]| {
            let mut buf = Vec::new();
            save_sections(&[(SEC_PARAMS, payload)], &mut buf).unwrap();
            load_params(&mut make(), buf.as_slice()).unwrap_err()
        };
        let mut payload = Vec::new();
        payload.put_u32(2);
        payload.put_u32(u32::MAX);
        let e = load(&payload);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        // Right ndim, but the values are not there.
        let mut payload = Vec::new();
        for v in [2, 2, 3, 2] {
            payload.put_u32(v);
        }
        let e = load(&payload);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn rejects_shape_mismatch() {
        const OTHER: &str = r#"
name: o
layer {
  name: d
  type: Data
  batch: 2
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  bottom: data
  top: ip
  num_output: 5
  seed: 4
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: loss
}
"#;
        let src = make();
        let mut buf = Vec::new();
        save_params(&src, &mut buf).unwrap();
        let mut other =
            Net::<f32>::from_spec(&NetSpec::parse(OTHER).unwrap(), Some(Box::new(OneSource)))
                .unwrap();
        let e = load_params(&mut other, buf.as_slice()).unwrap_err();
        assert!(e.to_string().contains("shape"));
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let src = make();
        let params = params_to_bytes(&src);
        let mut buf = Vec::new();
        save_sections(&[(*b"ZZZZ", &[1, 2, 3]), (SEC_PARAMS, &params)], &mut buf).unwrap();
        let mut dst = make();
        load_params(&mut dst, buf.as_slice()).unwrap();
        for (a, b) in src.learnable_params().iter().zip(dst.learnable_params()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn write_atomic_replaces_and_survives_partial_failure() {
        let dir = std::env::temp_dir().join(format!("cgdnn-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.cgdn");
        write_atomic(&path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        // A failed overwrite must leave the old content intact.
        crate::faults::arm("checkpoint.partial", crate::faults::FaultMode::Error, 0);
        assert!(write_atomic(&path, b"second version, longer").is_err());
        crate::faults::disarm_all();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        // And a clean retry goes through.
        write_atomic(&path, b"second version, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version, longer");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
