//! The `CGRP` wire protocol: versioned handshake and CRC-protected,
//! length-prefixed binary frames.
//!
//! Everything on the wire is little-endian and fixed-layout (encoded and
//! decoded through the `wire` crate), so both ends can encode/decode with
//! no allocation beyond the payload itself.
//!
//! **Handshake** — the server speaks first, so a client learns the sample
//! and output shapes (and whether the server is full or draining) before
//! it sends a byte:
//!
//! ```text
//! ServerHello (16 bytes): magic "CGRP" | version u16 | status u8 | pad u8
//!                         | sample_len u32 | output_len u32
//! ClientHello ( 8 bytes): magic "CGRP" | version u16 | pad u16
//! ```
//!
//! **Frames** — one 24-byte header, then `payload_len` bytes of payload:
//!
//! ```text
//! FrameHeader (24 bytes): kind u8 | pad [u8;3] | id u64 | aux u32
//!                         | payload_len u32 | crc u32
//! ```
//!
//! `aux` carries the request's deadline budget in microseconds (0 = no
//! deadline); in responses it is 0. `crc` is IEEE CRC-32 (the snapshot
//! format's [`wire::crc32`]) over the first 20 header bytes, so a
//! corrupted or misaligned header is detected before
//! `payload_len` is trusted. Request payloads are `f32` little-endian
//! samples; [`RESP_PROBS`] payloads are `f32` outputs; [`RESP_ERROR`]
//! payloads are UTF-8 diagnostics.
//!
//! **Pipelining** — the `id` field exists so a connection can have many
//! requests in flight at once. The contract:
//!
//! - a client must keep `id` unique among its own in-flight requests on
//!   one connection (monotonically increasing is the easy way);
//! - the server echoes the request's `id` on every response frame, and
//!   may deliver responses in **any order** — completion order is the
//!   micro-batcher's business, not the socket's.
//!
//! The only ordering guarantee is per-request: each request gets its
//! response exactly once. Clients that need FIFO behavior simply keep one
//! request in flight.
//!
//! **Blocking I/O** — [`read_frame`] / [`write_frame`] are the one blocking
//! frame path (the client, `fetch_stats` and every `dist` socket; the
//! server's event loop parses incrementally out of its own buffers), and
//! [`write_run`] / [`read_run`] the one chunk-run: anything larger than a
//! frame — a gradient, a parameter vector, a metric snapshot, a trace
//! flush — travels as frames of one kind and id whose `aux` counts
//! `(chunk_idx, n_chunks)`.

use std::fmt;
use std::io::{self, Read, Write};
use wire::{Put, Reader};

/// Protocol magic, first bytes of both hello messages.
pub const MAGIC: [u8; 4] = *b"CGRP";
/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;
/// Size of the server's hello (sent first, on accept).
pub const SERVER_HELLO_LEN: usize = 16;
/// Size of the client's hello reply.
pub const CLIENT_HELLO_LEN: usize = 8;
/// Size of every frame header.
pub const FRAME_HEADER_LEN: usize = 24;
/// Default cap on a single frame's payload; a header announcing more is a
/// decode error, rejected *before* any allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// ServerHello status: accepting requests.
pub const HELLO_OK: u8 = 0;
/// ServerHello status: connection limit reached; the server closes after
/// this hello and the client should back off and retry.
pub const HELLO_BUSY: u8 = 1;
/// ServerHello status: the server is draining; no requests will be served.
pub const HELLO_DRAINING: u8 = 2;

/// Request frame: one `f32` sample, answered by exactly one response.
pub const REQ_INFER: u8 = 1;
/// Request frame: ask the server to drain and shut down. Acknowledged with
/// [`RESP_SHUTDOWN`].
pub const REQ_DRAIN: u8 = 2;

/// Response frame: softmax outputs (`f32` payload).
pub const RESP_PROBS: u8 = 1;
/// Response frame: admission queue full — back off and retry.
pub const RESP_REJECTED: u8 = 2;
/// Response frame: the request's deadline budget expired in the queue.
pub const RESP_TIMED_OUT: u8 = 3;
/// Response frame: the server is shutting down (also the [`REQ_DRAIN`]
/// acknowledgement). No further responses follow on this connection.
pub const RESP_SHUTDOWN: u8 = 4;
/// Response frame: typed failure; the payload is a UTF-8 message.
pub const RESP_ERROR: u8 = 5;

// --- Distributed-training frame kinds (crates/dist) -------------------
//
// Same 24-byte header, same CRC. Large tensors (gradients, parameters)
// are *chunked*: `id` carries the step number, `aux` packs
// `(chunk_idx << 16) | n_chunks` (see [`encode_chunk_aux`]) and each
// chunk payload is at most [`MAX_CHUNK_F32S`] `f32` values — comfortably
// under [`MAX_PAYLOAD`].

/// Worker → coordinator: join the training group. `aux` = worker rank.
pub const FRAME_JOIN: u8 = 16;
/// Coordinator → worker: admission, at the start of the run or at any
/// step boundary after (a returning worker joins like a new one). `id` is
/// the step the worker's first broadcast will carry (0 at the start).
/// Payload: world `u32` | effective batch `u32` | total iterations `u32`
/// (little-endian), then the observability block.
pub const FRAME_WELCOME: u8 = 17;
/// Worker → coordinator: one chunk of the flattened local gradient for
/// step `id`. Chunked `f32` payload.
pub const FRAME_GRAD: u8 = 18;
/// Worker → coordinator: the local loss for step `id` (4-byte `f32`
/// payload). Doubles as the worker's step-done marker.
pub const FRAME_LOSS: u8 = 19;
/// Coordinator → worker: one chunk of the flattened updated parameters
/// for step `id`. Chunked `f32` payload.
pub const FRAME_PARAMS: u8 = 20;
/// Coordinator → worker: barrier release — compute step `id` now.
pub const FRAME_STEP: u8 = 21;
/// Either direction: the run is over. `aux` 0 = clean finish, 1 = error;
/// payload is an optional UTF-8 reason.
pub const FRAME_DONE: u8 = 22;
/// Either direction: a registry-snapshot exchange. As a request (client →
/// server, `aux` 0, empty payload) it asks the serving process for a
/// read-only [`obs`] registry snapshot; the response frames carry the
/// snapshot's binary form (`obs::Snapshot::to_bytes`), chunked like a
/// tensor with [`encode_chunk_aux`]. Worker → coordinator at teardown, the
/// same chunked payload carries the worker's registry *delta* for
/// cross-rank aggregation.
pub const FRAME_STATS: u8 = 24;
/// Worker → coordinator at teardown: the worker's trace events (already
/// shifted onto the coordinator clock), serialized and chunked like
/// `FRAME_STATS`, for the coordinator's single merged Chrome trace.
pub const FRAME_TRACE: u8 = 25;

/// Maximum `f32` values per gradient/parameter chunk (256 KiB payload).
pub const MAX_CHUNK_F32S: usize = 65_536;
/// The same cap in bytes: no frame of a chunk run carries more.
pub const MAX_CHUNK_BYTES: u32 = (MAX_CHUNK_F32S * 4) as u32;
/// Cap on a reassembled byte blob (metric snapshot, trace flush): 16 MiB.
/// The chunk-count word could announce far more; this keeps a lying peer
/// from making the receiver hold it.
pub const MAX_BLOB_BYTES: usize = 16 << 20;

/// Pack a chunk position into a frame's `aux` field.
///
/// # Panics
/// Panics if either value exceeds `u16::MAX` (a tensor needing more than
/// 65 535 chunks of 256 KiB would be > 16 GiB — far past any net here).
pub fn encode_chunk_aux(chunk_idx: usize, n_chunks: usize) -> u32 {
    assert!(chunk_idx <= u16::MAX as usize && n_chunks <= u16::MAX as usize);
    ((chunk_idx as u32) << 16) | (n_chunks as u32)
}

/// Unpack a chunk `aux` field into `(chunk_idx, n_chunks)`.
pub fn decode_chunk_aux(aux: u32) -> (usize, usize) {
    ((aux >> 16) as usize, (aux & 0xFFFF) as usize)
}

/// Why a received byte sequence was rejected. Every variant maps to a
/// `rpc.decode_errors` metric bump on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Hello did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Hello spoke an unsupported protocol version.
    BadVersion(u16),
    /// Frame-header CRC mismatch: the header bytes are corrupt (or the
    /// stream is misaligned), so `payload_len` cannot be trusted.
    BadCrc { stored: u32, computed: u32 },
    /// Header announced a payload larger than the negotiated cap.
    Oversize { len: u32, max: u32 },
    /// The peer disconnected mid-hello, mid-header, or mid-payload.
    Truncated(&'static str),
    /// Payload bytes are not a whole number of `f32` values.
    BadPayload(&'static str),
    /// A chunked tensor frame arrived out of order.
    BadChunk { expected: usize, got: usize },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?} (expected \"CGRP\")"),
            DecodeError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this end speaks {VERSION})"
                )
            }
            DecodeError::BadCrc { stored, computed } => write!(
                f,
                "frame header crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte cap")
            }
            DecodeError::Truncated(what) => write!(f, "stream truncated mid-{what}"),
            DecodeError::BadPayload(m) => write!(f, "bad payload: {m}"),
            DecodeError::BadChunk { expected, got } => {
                write!(
                    f,
                    "out-of-order chunk: expected index {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<wire::Error> for DecodeError {
    fn from(_: wire::Error) -> Self {
        DecodeError::BadPayload("fields run past the end or leave bytes over")
    }
}

/// Decoded server hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// One of [`HELLO_OK`] / [`HELLO_BUSY`] / [`HELLO_DRAINING`].
    pub status: u8,
    /// Values per request sample.
    pub sample_len: u32,
    /// Values per [`RESP_PROBS`] payload.
    pub output_len: u32,
}

/// Encode the server's opening message.
pub fn encode_server_hello(status: u8, sample_len: u32, output_len: u32) -> [u8; SERVER_HELLO_LEN] {
    let mut b = [0u8; SERVER_HELLO_LEN];
    let mut w = &mut b[..];
    w.put(&MAGIC);
    w.put_u16(VERSION);
    w.put_u8(status);
    w.put_u8(0);
    w.put_u32(sample_len);
    w.put_u32(output_len);
    b
}

/// Read and validate the `magic | version` start of either hello.
fn hello_prefix(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    let magic = r.array()?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    match r.u16()? {
        VERSION => Ok(()),
        v => Err(DecodeError::BadVersion(v)),
    }
}

/// Decode and validate a server hello.
pub fn decode_server_hello(b: &[u8; SERVER_HELLO_LEN]) -> Result<ServerHello, DecodeError> {
    let mut r = Reader::new(b);
    hello_prefix(&mut r)?;
    let status = r.u8()?;
    r.u8()?;
    Ok(ServerHello {
        status,
        sample_len: r.u32()?,
        output_len: r.u32()?,
    })
}

/// Encode the client's hello reply.
pub fn encode_client_hello() -> [u8; CLIENT_HELLO_LEN] {
    let mut b = [0u8; CLIENT_HELLO_LEN];
    let mut w = &mut b[..];
    w.put(&MAGIC);
    w.put_u16(VERSION);
    b
}

/// Decode and validate a client hello.
pub fn decode_client_hello(b: &[u8; CLIENT_HELLO_LEN]) -> Result<(), DecodeError> {
    hello_prefix(&mut Reader::new(b))
}

/// Decoded frame header. `kind` is direction-dependent (`REQ_*` on the
/// way in, `RESP_*` on the way out); unknown kinds are the *receiver's*
/// business, since an intact CRC proves the framing can be trusted to skip
/// the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame kind (`REQ_*` / `RESP_*`).
    pub kind: u8,
    /// Request id; echoed verbatim in the response.
    pub id: u64,
    /// Requests: deadline budget in µs (0 = none). Responses: 0.
    pub aux: u32,
    /// Payload bytes following this header.
    pub payload_len: u32,
}

/// Encode a frame header, computing the CRC over the first 20 bytes.
pub fn encode_header(kind: u8, id: u64, aux: u32, payload_len: u32) -> [u8; FRAME_HEADER_LEN] {
    let mut b = [0u8; FRAME_HEADER_LEN];
    let mut w = &mut b[..];
    w.put(&[kind, 0, 0, 0]);
    w.put_u64(id);
    w.put_u32(aux);
    w.put_u32(payload_len);
    let crc = wire::crc32(&b[..20]);
    (&mut b[20..]).put_u32(crc);
    b
}

/// Decode a frame header, verifying its CRC. The payload-length cap is the
/// caller's to enforce (it is configurable server-side).
pub fn decode_header(b: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader, DecodeError> {
    let mut r = Reader::new(b);
    let [kind, ..] = r.array::<4>()?;
    let (id, aux, payload_len, stored) = (r.u64()?, r.u32()?, r.u32()?, r.u32()?);
    let computed = wire::crc32(&b[..20]);
    if stored != computed {
        return Err(DecodeError::BadCrc { stored, computed });
    }
    Ok(FrameHeader {
        kind,
        id,
        aux,
        payload_len,
    })
}

/// Append `vals` to `out` as little-endian `f32` bytes.
pub fn write_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    wire::put_f32s(out, vals.iter().copied());
}

/// Decode a little-endian `f32` payload.
pub fn read_f32s(bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(DecodeError::BadPayload("length is not a multiple of 4"));
    }
    Ok(Reader::new(bytes).f32s(bytes.len() / 4)?.collect())
}

/// One received frame: validated header fields plus its payload.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame kind (`REQ_*` / `RESP_*` / `FRAME_*`).
    pub kind: u8,
    /// Request id, or the step number on `dist` sockets.
    pub id: u64,
    /// Kind-specific auxiliary word.
    pub aux: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Why a blocking frame read, or a chunk run over it, failed. Each caller
/// maps the three cases into its own error type.
#[derive(Debug)]
pub enum FrameError {
    /// The socket failed (anything but end-of-stream).
    Io(io::Error),
    /// The bytes were rejected; end-of-stream inside a frame is
    /// [`DecodeError::Truncated`].
    Decode(DecodeError),
    /// Well-formed frames that break the chunk-run rules.
    Protocol(String),
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Encode a complete frame (header + payload) into one buffer.
pub fn encode_frame(kind: u8, id: u64, aux: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.put(&encode_header(kind, id, aux, payload.len() as u32));
    frame.put(payload);
    frame
}

/// Write one frame with a single `write_all`.
pub fn write_frame(
    w: &mut impl Write,
    kind: u8,
    id: u64,
    aux: u32,
    payload: &[u8],
) -> io::Result<()> {
    w.write_all(&encode_frame(kind, id, aux, payload))
}

/// Block for one frame: header, CRC, then the [`MAX_PAYLOAD`] check
/// *before* the payload is allocated, then the payload.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    read_exact_or(r, &mut head, "frame header")?;
    let h = decode_header(&head)?;
    if h.payload_len > MAX_PAYLOAD {
        return Err(FrameError::Decode(DecodeError::Oversize {
            len: h.payload_len,
            max: MAX_PAYLOAD,
        }));
    }
    let mut payload = vec![0u8; h.payload_len as usize];
    read_exact_or(r, &mut payload, "frame payload")?;
    Ok(Frame {
        kind: h.kind,
        id: h.id,
        aux: h.aux,
        payload,
    })
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Decode(DecodeError::Truncated(what)),
        _ => FrameError::Io(e),
    })
}

/// Send a run of `len` bytes: `send(aux, range)` once per chunk, `range`
/// being that chunk's part of the run (at most [`MAX_CHUNK_BYTES`] long, so
/// chunk boundaries fall on whole `f32`s) and `aux` packing `(chunk_idx,
/// n_chunks)`. An empty run is one empty chunk, so the receiver always
/// sees it.
pub fn write_run<E>(
    len: usize,
    mut send: impl FnMut(u32, std::ops::Range<usize>) -> Result<(), E>,
) -> Result<(), E> {
    let chunk = MAX_CHUNK_BYTES as usize;
    let n_chunks = len.div_ceil(chunk).max(1);
    for i in 0..n_chunks {
        send(
            encode_chunk_aux(i, n_chunks),
            i * chunk..len.min((i + 1) * chunk),
        )?;
    }
    Ok(())
}

/// Receive the chunk run of `kind` / `id` from the frames `next` yields,
/// handing each chunk's bytes to `keep` in order: chunk indices strictly
/// ascending from 0, a chunk count that never changes, no chunk over
/// [`MAX_CHUNK_BYTES`], and at most `max_bytes` in all — checked before a
/// chunk is kept, so what a peer announces never sizes anything.
pub fn read_run<E: From<FrameError>>(
    kind: u8,
    id: u64,
    max_bytes: usize,
    mut next: impl FnMut() -> Result<Frame, E>,
    mut keep: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let protocol = |m: String| E::from(FrameError::Protocol(m));
    let decode = |e: DecodeError| E::from(FrameError::Decode(e));
    let (mut n_chunks, mut total) = (0, 0);
    for expected in 0.. {
        let f = next()?;
        if f.kind != kind {
            return Err(protocol(format!(
                "expected frame kind {kind}, got {}",
                f.kind
            )));
        }
        if f.id != id {
            return Err(protocol(format!(
                "chunk frame with id {}, expected {id}",
                f.id
            )));
        }
        if f.payload.len() > MAX_CHUNK_BYTES as usize {
            return Err(decode(DecodeError::Oversize {
                len: f.payload.len() as u32,
                max: MAX_CHUNK_BYTES,
            }));
        }
        let (got, n) = decode_chunk_aux(f.aux);
        if n == 0 {
            return Err(protocol("chunk run announces zero chunks".into()));
        }
        if expected > 0 && n != n_chunks {
            return Err(protocol(format!(
                "chunk count changed mid-run: {n_chunks} then {n}"
            )));
        }
        n_chunks = n;
        if got != expected {
            return Err(decode(DecodeError::BadChunk { expected, got }));
        }
        total += f.payload.len();
        if total > max_bytes {
            return Err(protocol(format!("chunk run exceeds {max_bytes} byte cap")));
        }
        keep(&f.payload)?;
        if expected + 1 == n_chunks {
            break;
        }
    }
    Ok(())
}

/// [`read_run`] into one buffer — a metric snapshot or a trace flush.
pub fn read_blob<E: From<FrameError>>(
    kind: u8,
    id: u64,
    next: impl FnMut() -> Result<Frame, E>,
) -> Result<Vec<u8>, E> {
    let mut bytes = Vec::new();
    read_run(kind, id, MAX_BLOB_BYTES, next, |part| {
        bytes.extend_from_slice(part);
        Ok(())
    })?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let b = encode_header(REQ_INFER, 0xDEAD_BEEF_u64, 1500, 96);
        let h = decode_header(&b).unwrap();
        assert_eq!(h.kind, REQ_INFER);
        assert_eq!(h.id, 0xDEAD_BEEF);
        assert_eq!(h.aux, 1500);
        assert_eq!(h.payload_len, 96);
    }

    #[test]
    fn corrupting_any_header_byte_fails_the_crc() {
        let good = encode_header(RESP_PROBS, 7, 0, 12);
        for i in 0..FRAME_HEADER_LEN {
            let mut bad = good;
            bad[i] ^= 0x40;
            assert!(
                matches!(decode_header(&bad), Err(DecodeError::BadCrc { .. })),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn hellos_round_trip_and_reject_bad_magic_and_version() {
        let h = decode_server_hello(&encode_server_hello(HELLO_OK, 784, 10)).unwrap();
        assert_eq!(
            h,
            ServerHello {
                status: HELLO_OK,
                sample_len: 784,
                output_len: 10
            }
        );
        decode_client_hello(&encode_client_hello()).unwrap();

        let mut bad = encode_client_hello();
        bad[0] = b'X';
        assert!(matches!(
            decode_client_hello(&bad),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad = encode_server_hello(HELLO_OK, 1, 1);
        bad[4..6].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(decode_server_hello(&bad), Err(DecodeError::BadVersion(999)));
    }

    #[test]
    fn chunk_aux_round_trips() {
        for (idx, n) in [(0usize, 1usize), (3, 7), (65_535, 65_535)] {
            assert_eq!(decode_chunk_aux(encode_chunk_aux(idx, n)), (idx, n));
        }
    }

    #[test]
    #[should_panic]
    fn chunk_aux_rejects_overflow() {
        encode_chunk_aux(65_536, 1);
    }

    #[test]
    fn dist_frame_kinds_are_distinct() {
        let kinds = [
            FRAME_JOIN,
            FRAME_WELCOME,
            FRAME_GRAD,
            FRAME_LOSS,
            FRAME_PARAMS,
            FRAME_STEP,
            FRAME_DONE,
            FRAME_STATS,
            FRAME_TRACE,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
            // Disjoint from the serving request/response kinds
            // (RESP_ERROR is the largest of them).
            assert!(*a > RESP_ERROR);
        }
        // Chunk cap stays under the payload cap with headroom.
        assert!((MAX_CHUNK_F32S * 4) as u32 <= MAX_PAYLOAD / 4);
    }

    #[test]
    fn dist_frame_headers_round_trip() {
        let aux = encode_chunk_aux(2, 5);
        let b = encode_header(FRAME_GRAD, 31, aux, (MAX_CHUNK_F32S * 4) as u32);
        let h = decode_header(&b).unwrap();
        assert_eq!(h.kind, FRAME_GRAD);
        assert_eq!(h.id, 31);
        assert_eq!(decode_chunk_aux(h.aux), (2, 5));
    }

    #[test]
    fn f32_payloads_round_trip() {
        let vals = [0.0f32, -1.5, f32::MIN_POSITIVE, 3.25e7];
        let mut bytes = Vec::new();
        write_f32s(&mut bytes, &vals);
        assert_eq!(bytes.len(), 16);
        let back = read_f32s(&bytes).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(read_f32s(&bytes[..=6]).is_err());
    }
}
