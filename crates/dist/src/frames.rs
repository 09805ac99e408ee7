//! Framing for the distributed step: chunked tensor transfer and the
//! small fixed-layout control payloads, all over the CGRP frame header
//! (`rpc::proto`), all CRC-protected.
//!
//! Gradients and parameters are flat `f32` vectors in the net's learnable
//! parameter order, sent as one `rpc::proto` chunk run: frames of at most
//! [`MAX_CHUNK_BYTES`] carrying the step in `id` and `(chunk_idx,
//! n_chunks)` in `aux`, so the receiver detects reordering, truncation,
//! and length lies with typed [`DistError`]s. Everything here is
//! `proto::{read_frame, write_run, read_run}` plus what only `dist` has:
//! the `net::faults` chaos points on both directions, the
//! `rpc.decode_errors` bump on every decode failure (mirroring the serving
//! tier), and `FRAME_DONE` turning into the peer's reason.

use crate::DistError;
use net::Net;
use rpc::proto::{self, DecodeError, FrameError};
use std::io::{Read, Write};
use wire::{Put, Reader};

pub use rpc::proto::{Frame, MAX_BLOB_BYTES, MAX_CHUNK_BYTES};

fn decode_err(e: DecodeError) -> DistError {
    obs::registry::global().counter("rpc.decode_errors").inc();
    DistError::Decode(e)
}

/// Every rejected byte sequence is counted, whichever layer rejected it.
impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => DistError::Io(e.to_string()),
            FrameError::Decode(e) => decode_err(e),
            FrameError::Protocol(m) => DistError::Protocol(m),
        }
    }
}

/// Write one frame: header (with CRC) then payload.
///
/// Chaos points: `dist.frame.send` accepts `error`/`delay`/`kill` faults
/// before the write, and a `corrupt` fault flips a byte *after* the CRC is
/// stamped — the receiver sees `BadCrc`, exactly what a wire bit-flip
/// would produce.
pub fn send_frame(
    w: &mut impl Write,
    kind: u8,
    id: u64,
    aux: u32,
    payload: &[u8],
) -> Result<(), DistError> {
    net::faults::hit("dist.frame.send")?;
    let mut buf = proto::encode_frame(kind, id, aux, payload);
    net::faults::corrupt("dist.frame.send", &mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// The `dist.frame.recv` corrupt point: flips a byte in the first bytes a
/// frame read delivers — the header, before its CRC is verified — so the
/// decode must reject it as `BadCrc`, never trust it.
struct CorruptHeader<'a, R> {
    inner: &'a mut R,
    armed: bool,
}

impl<R: Read> Read for CorruptHeader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 && std::mem::take(&mut self.armed) {
            net::faults::corrupt("dist.frame.recv", &mut buf[..n]);
        }
        Ok(n)
    }
}

/// Read and validate one frame. CRC failures, oversized announcements
/// (checked *before* the payload is allocated) and mid-frame EOF all come
/// back as [`DistError::Decode`] and bump `rpc.decode_errors`.
pub fn recv_frame(r: &mut impl Read) -> Result<Frame, DistError> {
    net::faults::hit("dist.frame.recv")?;
    let mut r = CorruptHeader {
        inner: r,
        armed: true,
    };
    Ok(proto::read_frame(&mut r)?)
}

/// The next frame of a run: `first` if the caller already pulled one off
/// the stream, else a fresh read. A `FRAME_DONE` arriving instead surfaces
/// as the peer's reason — its abort reaches the waiter directly.
fn next_frame(r: &mut impl Read, first: &mut Option<Frame>) -> Result<Frame, DistError> {
    let f = match first.take() {
        Some(f) => f,
        None => recv_frame(r)?,
    };
    if f.kind == proto::FRAME_DONE {
        return Err(done_to_err(&f));
    }
    Ok(f)
}

/// Read the next frame, which must be of `kind` and, when `id` is given,
/// carry it. A `FRAME_DONE` instead surfaces as the peer's reason.
pub(crate) fn expect_frame(
    r: &mut impl Read,
    kind: u8,
    id: Option<u64>,
) -> Result<Frame, DistError> {
    let f = next_frame(r, &mut None)?;
    if f.kind != kind || id.is_some_and(|id| f.id != id) {
        return Err(DistError::Protocol(format!(
            "expected frame kind {kind} (id {id:?}), got kind {} id {}",
            f.kind, f.id
        )));
    }
    Ok(f)
}

/// Send `vals` as a run of chunk frames of `kind` for step `step`.
pub fn send_tensor(w: &mut impl Write, kind: u8, step: u64, vals: &[f32]) -> Result<(), DistError> {
    let mut payload = Vec::new();
    proto::write_run(std::mem::size_of_val(vals), |aux, part| {
        payload.clear();
        proto::write_f32s(&mut payload, &vals[part.start / 4..part.end / 4]);
        send_frame(w, kind, step, aux, &payload)
    })
}

/// Receive a chunked tensor of exactly `want_len` values: frames of
/// `want_kind` for step `want_step`, chunk indices strictly in order.
/// `first` is a frame the caller already pulled off the stream (the
/// worker's dispatch loop reads one frame to decide what is happening).
///
/// A `FRAME_DONE(error)` arriving instead surfaces as
/// [`DistError::Remote`] — the peer's abort reaches the waiter directly.
pub fn recv_tensor(
    r: &mut impl Read,
    want_kind: u8,
    want_step: u64,
    want_len: usize,
    mut first: Option<Frame>,
) -> Result<Vec<f32>, DistError> {
    let mut vals = Vec::with_capacity(want_len);
    proto::read_run(
        want_kind,
        want_step,
        want_len * 4,
        || next_frame(r, &mut first),
        |part| {
            vals.extend(proto::read_f32s(part).map_err(decode_err)?);
            Ok(())
        },
    )?;
    if vals.len() != want_len {
        return Err(DistError::Protocol(format!(
            "tensor has {} values, expected {want_len}",
            vals.len()
        )));
    }
    Ok(vals)
}

/// Convert a received `FRAME_DONE` into the corresponding result.
pub fn done_to_err(f: &Frame) -> DistError {
    if f.aux == 1 {
        DistError::Remote(String::from_utf8_lossy(&f.payload).into_owned())
    } else {
        DistError::Protocol("unexpected clean FRAME_DONE mid-step".into())
    }
}

/// `Welcome.flags` bit 0: the coordinator is tracing — workers should
/// buffer trace events and flush them at teardown.
pub const WELCOME_FLAG_TRACING: u32 = 1;

/// The `FRAME_WELCOME` payload: session shape plus the
/// observability handshake (feature flags and the coordinator's
/// monotonic clock, µs, sampled just before the payload was encoded —
/// the worker pins its own clock against it so both sides' trace
/// timestamps land on one timeline, within a one-way network delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// Ranks in the session, coordinator included.
    pub world: u32,
    /// Total samples per step across all ranks.
    pub effective_batch: u32,
    /// Steps the session will run.
    pub iters: u32,
    /// Feature bits ([`WELCOME_FLAG_TRACING`], rest reserved zero).
    pub flags: u32,
    /// Coordinator trace-clock sample, µs since its trace epoch.
    pub coord_clock_us: u64,
}

/// Encode the `FRAME_WELCOME` payload:
/// world | effective batch | iters | flags | coordinator clock (µs).
pub fn encode_welcome(w: &Welcome) -> [u8; 24] {
    let mut b = [0u8; 24];
    let mut out = &mut b[..];
    out.put_u32(w.world);
    out.put_u32(w.effective_batch);
    out.put_u32(w.iters);
    out.put_u32(w.flags);
    out.put_u64(w.coord_clock_us);
    b
}

/// Decode a `FRAME_WELCOME` payload into a [`Welcome`]. Anything but the
/// exact 24 bytes is rejected, not half-read.
pub fn decode_welcome(b: &[u8]) -> Result<Welcome, DistError> {
    let parse = || -> Result<_, wire::Error> {
        let mut r = Reader::new(b);
        let w = Welcome {
            world: r.u32()?,
            effective_batch: r.u32()?,
            iters: r.u32()?,
            flags: r.u32()?,
            coord_clock_us: r.u64()?,
        };
        r.finish()?;
        Ok(w)
    };
    parse().map_err(|_| decode_err(DecodeError::BadPayload("welcome payload is not 24 bytes")))
}

/// Send an opaque byte blob (registry snapshot, trace flush) as a run of
/// chunk frames of `kind` with the given `id`. An empty blob still sends
/// one empty chunk so the receiver always sees the run.
pub fn send_blob(w: &mut impl Write, kind: u8, id: u64, bytes: &[u8]) -> Result<(), DistError> {
    proto::write_run(bytes.len(), |aux, part| {
        send_frame(w, kind, id, aux, &bytes[part])
    })
}

/// Receive a chunked byte blob of `want_kind` / `want_id`: strict chunk
/// order, stable chunk count, total size capped at [`MAX_BLOB_BYTES`].
/// `first` is a frame the caller already pulled off the stream.
pub fn recv_blob(
    r: &mut impl Read,
    want_kind: u8,
    want_id: u64,
    mut first: Option<Frame>,
) -> Result<Vec<u8>, DistError> {
    proto::read_blob(want_kind, want_id, || next_frame(r, &mut first))
}

/// Trace categories this workspace emits. Wire-decoded events intern
/// their category against this list (the [`obs::trace::Event`] field is
/// `&'static str`); anything unknown lands in `"wire"` rather than
/// leaking memory per distinct string a peer invents.
const KNOWN_CATS: [&str; 9] = [
    "ckpt", "data", "dist", "driver", "layer", "omprt", "rpc", "solver", "wire",
];

fn intern_cat(s: &str) -> &'static str {
    KNOWN_CATS
        .iter()
        .find(|c| **c == s)
        .copied()
        .unwrap_or("wire")
}

/// Serialize trace events for a `FRAME_TRACE` flush. Per event:
/// `u16` name length + name, `u16` category length + category, `f64`
/// start and duration (µs), `u64` tid and pid — all little-endian,
/// prefixed by a `u32` event count.
pub fn encode_trace_events(events: &[obs::trace::Event]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + events.len() * 48);
    b.put_u32(events.len() as u32);
    for e in events {
        b.put_str(&e.name);
        b.put_str(e.cat);
        b.put_f64(e.ts_us);
        b.put_f64(e.dur_us);
        b.put_u64(e.tid);
        b.put_u64(e.pid);
    }
    b
}

/// Decode a `FRAME_TRACE` payload back into events. Every read is
/// bounds-checked; a short or lying payload is a typed decode error.
pub fn decode_trace_events(b: &[u8]) -> Result<Vec<obs::trace::Event>, DistError> {
    let parse = || -> Result<_, wire::Error> {
        let mut r = Reader::new(b);
        let mut out = Vec::new();
        for _ in 0..r.u32()? {
            out.push(obs::trace::Event {
                name: std::borrow::Cow::Owned(r.str()?.to_string()),
                cat: intern_cat(r.str()?),
                ts_us: r.f64()?,
                dur_us: r.f64()?,
                tid: r.u64()?,
                pid: r.u64()?,
            });
        }
        r.finish()?;
        Ok(out)
    };
    parse().map_err(|_| decode_err(DecodeError::BadPayload("malformed trace flush")))
}

/// Flatten the net's learnable parameter *data* in parameter order.
pub fn flatten_params(net: &Net<f32>) -> Vec<f32> {
    let mut out = Vec::with_capacity(net.num_params());
    for p in net.learnable_params() {
        out.extend_from_slice(p.data());
    }
    out
}

/// Flatten the net's learnable parameter *diffs* in parameter order.
pub fn flatten_diffs(net: &Net<f32>) -> Vec<f32> {
    let mut out = Vec::with_capacity(net.num_params());
    for p in net.learnable_params() {
        out.extend_from_slice(p.diff());
    }
    out
}

/// Overwrite the net's learnable parameter data from a flat vector.
pub fn load_params(net: &mut Net<f32>, vals: &[f32]) -> Result<(), DistError> {
    if vals.len() != net.num_params() {
        return Err(DistError::Protocol(format!(
            "parameter vector has {} values, net has {}",
            vals.len(),
            net.num_params()
        )));
    }
    let mut off = 0;
    for p in net.learnable_params_mut() {
        let n = p.count();
        p.data_mut().copy_from_slice(&vals[off..off + n]);
        off += n;
    }
    Ok(())
}

/// `diffs += scale * grad`, parameter by parameter in order — one rank's
/// contribution to the coordinator's reduction, applied with the same
/// `mmblas::axpy` the in-process canonical merge uses.
pub fn accumulate_scaled_into_diffs(
    net: &mut Net<f32>,
    grad: &[f32],
    scale: f32,
) -> Result<(), DistError> {
    if grad.len() != net.num_params() {
        return Err(DistError::Protocol(format!(
            "gradient vector has {} values, net has {}",
            grad.len(),
            net.num_params()
        )));
    }
    let mut off = 0;
    for p in net.learnable_params_mut() {
        let n = p.count();
        mmblas::axpy(scale, &grad[off..off + n], p.diff_mut());
        off += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn decode_errors() -> u64 {
        obs::registry::global().counter("rpc.decode_errors").get()
    }

    fn encode_tensor(kind: u8, step: u64, vals: &[f32]) -> Vec<u8> {
        let mut buf = Vec::new();
        send_tensor(&mut buf, kind, step, vals).unwrap();
        buf
    }

    #[test]
    fn tensor_round_trips_across_chunks() {
        // 3 chunks: MAX + MAX + 5 values.
        let n = proto::MAX_CHUNK_F32S * 2 + 5;
        let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 17.0).collect();
        let buf = encode_tensor(proto::FRAME_GRAD, 9, &vals);
        let mut r = Cursor::new(buf);
        let back = recv_tensor(&mut r, proto::FRAME_GRAD, 9, n, None).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn corrupt_crc_is_typed_and_counted() {
        let before = decode_errors();
        let mut buf = encode_tensor(proto::FRAME_GRAD, 1, &[1.0, 2.0]);
        buf[5] ^= 0xFF; // inside the header's id field
        let got = recv_tensor(&mut Cursor::new(buf), proto::FRAME_GRAD, 1, 2, None);
        assert!(
            matches!(got, Err(DistError::Decode(DecodeError::BadCrc { .. }))),
            "{got:?}"
        );
        assert!(decode_errors() > before);
    }

    #[test]
    fn truncated_chunk_is_typed_and_counted() {
        let before = decode_errors();
        let mut buf = encode_tensor(proto::FRAME_GRAD, 1, &[1.0, 2.0, 3.0]);
        buf.truncate(buf.len() - 5); // cut into the payload
        let got = recv_tensor(&mut Cursor::new(buf), proto::FRAME_GRAD, 1, 3, None);
        assert!(
            matches!(
                got,
                Err(DistError::Decode(DecodeError::Truncated("frame payload")))
            ),
            "{got:?}"
        );
        assert!(decode_errors() > before);
    }

    #[test]
    fn out_of_order_chunk_is_typed_and_counted() {
        let before = decode_errors();
        // Hand-build chunk 1-of-2 arriving first.
        let mut payload = Vec::new();
        proto::write_f32s(&mut payload, &[4.0f32]);
        let mut buf = Vec::new();
        send_frame(
            &mut buf,
            proto::FRAME_GRAD,
            3,
            proto::encode_chunk_aux(1, 2),
            &payload,
        )
        .unwrap();
        let got = recv_tensor(&mut Cursor::new(buf), proto::FRAME_GRAD, 3, 2, None);
        assert!(
            matches!(
                got,
                Err(DistError::Decode(DecodeError::BadChunk {
                    expected: 0,
                    got: 1
                }))
            ),
            "{got:?}"
        );
        assert!(decode_errors() > before);
    }

    #[test]
    fn oversized_announcement_is_rejected_before_allocation() {
        let before = decode_errors();
        // A header honestly announcing 2 MiB — over MAX_PAYLOAD.
        let hdr =
            proto::encode_header(proto::FRAME_GRAD, 0, proto::encode_chunk_aux(0, 1), 2 << 20);
        let got = recv_frame(&mut Cursor::new(hdr.to_vec()));
        assert!(
            matches!(got, Err(DistError::Decode(DecodeError::Oversize { .. }))),
            "{got:?}"
        );
        assert!(decode_errors() > before);
    }

    #[test]
    fn oversized_chunk_payload_is_rejected() {
        let before = decode_errors();
        // Between the chunk cap (256 KiB) and the frame cap (1 MiB):
        // recv_frame accepts it, recv_tensor must reject it.
        let payload = vec![0u8; (MAX_CHUNK_BYTES + 4) as usize];
        let mut buf = Vec::new();
        send_frame(
            &mut buf,
            proto::FRAME_GRAD,
            0,
            proto::encode_chunk_aux(0, 1),
            &payload,
        )
        .unwrap();
        let got = recv_tensor(
            &mut Cursor::new(buf),
            proto::FRAME_GRAD,
            0,
            proto::MAX_CHUNK_F32S + 1,
            None,
        );
        assert!(
            matches!(
                got,
                Err(DistError::Decode(DecodeError::Oversize { max, .. })) if max == MAX_CHUNK_BYTES
            ),
            "{got:?}"
        );
        assert!(decode_errors() > before);
    }

    #[test]
    fn wrong_kind_step_and_length_are_protocol_errors() {
        let buf = encode_tensor(proto::FRAME_GRAD, 7, &[1.0, 2.0]);
        let wrong_kind = recv_tensor(
            &mut Cursor::new(buf.clone()),
            proto::FRAME_PARAMS,
            7,
            2,
            None,
        );
        assert!(matches!(wrong_kind, Err(DistError::Protocol(_))));
        let wrong_step = recv_tensor(&mut Cursor::new(buf.clone()), proto::FRAME_GRAD, 8, 2, None);
        assert!(matches!(wrong_step, Err(DistError::Protocol(_))));
        let wrong_len = recv_tensor(&mut Cursor::new(buf), proto::FRAME_GRAD, 7, 3, None);
        assert!(matches!(wrong_len, Err(DistError::Protocol(_))));
    }

    #[test]
    fn done_error_frame_surfaces_the_reason() {
        let mut buf = Vec::new();
        send_frame(&mut buf, proto::FRAME_DONE, 0, 1, b"worker 1 died: eof").unwrap();
        let got = recv_tensor(&mut Cursor::new(buf), proto::FRAME_PARAMS, 0, 4, None);
        assert_eq!(
            got,
            Err(DistError::Remote("worker 1 died: eof".to_string()))
        );
    }

    #[test]
    fn welcome_round_trips_and_rejects_bad_length() {
        let w = Welcome {
            world: 4,
            effective_batch: 64,
            iters: 1000,
            flags: WELCOME_FLAG_TRACING,
            coord_clock_us: 987_654_321,
        };
        let b = encode_welcome(&w);
        assert_eq!(decode_welcome(&b).unwrap(), w);
        // The pre-observability 12-byte layout must be rejected, not
        // half-read: the two sides would disagree about flags and clock.
        assert!(matches!(
            decode_welcome(&b[..12]),
            Err(DistError::Decode(DecodeError::BadPayload(_)))
        ));
        assert!(matches!(
            decode_welcome(&b[..23]),
            Err(DistError::Decode(DecodeError::BadPayload(_)))
        ));
    }

    #[test]
    fn blob_round_trips_across_chunks_and_empty() {
        // 2.5 chunks of deterministic bytes.
        let n = MAX_CHUNK_BYTES as usize * 2 + MAX_CHUNK_BYTES as usize / 2;
        let blob: Vec<u8> = (0..n).map(|i| (i * 131 % 251) as u8).collect();
        let mut buf = Vec::new();
        send_blob(&mut buf, proto::FRAME_STATS, 7, &blob).unwrap();
        let back = recv_blob(&mut Cursor::new(buf), proto::FRAME_STATS, 7, None).unwrap();
        assert_eq!(back, blob);
        // Empty blob: one empty chunk, round-trips to empty.
        let mut buf = Vec::new();
        send_blob(&mut buf, proto::FRAME_TRACE, 0, &[]).unwrap();
        let back = recv_blob(&mut Cursor::new(buf), proto::FRAME_TRACE, 0, None).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn blob_rejects_wrong_id_and_reordered_chunks() {
        let mut buf = Vec::new();
        send_blob(&mut buf, proto::FRAME_STATS, 3, &[1, 2, 3]).unwrap();
        let wrong_id = recv_blob(&mut Cursor::new(buf), proto::FRAME_STATS, 4, None);
        assert!(matches!(wrong_id, Err(DistError::Protocol(_))));
        // Chunk 1-of-2 arriving first.
        let mut buf = Vec::new();
        send_frame(
            &mut buf,
            proto::FRAME_TRACE,
            0,
            proto::encode_chunk_aux(1, 2),
            &[9],
        )
        .unwrap();
        let got = recv_blob(&mut Cursor::new(buf), proto::FRAME_TRACE, 0, None);
        assert!(matches!(
            got,
            Err(DistError::Decode(DecodeError::BadChunk {
                expected: 0,
                got: 1
            }))
        ));
    }

    #[test]
    fn trace_events_round_trip_and_intern_cats() {
        let events = vec![
            obs::trace::Event {
                name: std::borrow::Cow::Borrowed("dist_worker_step"),
                cat: "dist",
                ts_us: 1234.5,
                dur_us: 67.25,
                tid: 3,
                pid: 2,
            },
            obs::trace::Event {
                name: std::borrow::Cow::Owned("region".to_string()),
                cat: "omprt",
                ts_us: 0.0,
                dur_us: 0.5,
                tid: 1,
                pid: 3,
            },
        ];
        let b = encode_trace_events(&events);
        let back = decode_trace_events(&b).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "dist_worker_step");
        assert_eq!(back[0].cat, "dist");
        assert_eq!(back[0].ts_us.to_bits(), 1234.5f64.to_bits());
        assert_eq!(back[0].dur_us.to_bits(), 67.25f64.to_bits());
        assert_eq!((back[0].tid, back[0].pid), (3, 2));
        assert_eq!((back[1].tid, back[1].pid), (1, 3));
    }

    #[test]
    fn trace_decode_rejects_truncation_lies_and_unknown_cats() {
        let events = vec![obs::trace::Event {
            name: std::borrow::Cow::Borrowed("x"),
            cat: "nonsense-category",
            ts_us: 1.0,
            dur_us: 2.0,
            tid: 1,
            pid: 1,
        }];
        let b = encode_trace_events(&events);
        // Unknown category interns to the "wire" bucket, never leaks.
        assert_eq!(decode_trace_events(&b).unwrap()[0].cat, "wire");
        // Truncated payload.
        assert!(decode_trace_events(&b[..b.len() - 3]).is_err());
        // Trailing garbage.
        let mut long = b.clone();
        long.push(0);
        assert!(decode_trace_events(&long).is_err());
        // Count word lying high.
        let mut lie = b.clone();
        lie[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_trace_events(&lie).is_err());
    }
}
