//! Framing for the live TCP runtime and the durable store.
//!
//! A network frame is a header and a JSON body. The header is a 4-byte
//! big-endian word — the body length in its low 30 bits, two flag bits
//! on top — and, depending on the flags, up to 13 more bytes:
//!
//! | shape      | header                                                            | sent by                                            |
//! |------------|-------------------------------------------------------------------|----------------------------------------------------|
//! | bare       | `[len]` (4 bytes)                                                 | gossip conversations, `scrape_stats`, their replies |
//! | correlated | `[len\|C][corr_id u64]` (12 bytes)                                | replies on a multiplexed RPC stream                |
//! | meta       | `[len\|C\|M][corr_id u64][deadline_ms u32][class u8]` (17 bytes) | requests on a multiplexed RPC stream               |
//!
//! One private codec (`encode_header` / `read_header`) writes and
//! reads all three; [`write_frame`], [`write_correlated_frame`] and
//! [`write_meta_frame`] only pick the shape, and
//! [`read_any_frame_meta_sized`] is the one reader — every stream may
//! carry every shape. JSON is verbose on the wire, but the live runtime
//! exists to *validate* protocol behaviour over real sockets (the
//! analog of the paper's 8-machine cluster run), where its
//! debuggability outweighs compactness; the simulator models wire sizes
//! with the paper's Table 2 constants regardless.
//!
//! Fault injection ([`crate::faults`]) has no framing code of its own:
//! [`send_frame`] builds the frame exactly as production does and asks
//! the injector what becomes of the finished bytes.
//!
//! The durable store ([`crate::durable`]) frames its records as
//! `[len u32][crc32 u32][body]` ([`crc_frame_bytes`] /
//! [`read_crc_frame`]): a torn or bit-flipped record on disk must be
//! *detected*, not parsed into garbage, because recovery truncates the
//! log at the first bad frame instead of erroring out.

use crate::faults::{Direction, FaultInjector, FrameFate};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{self, Read, Write};

/// Refuse frames bigger than this (64 MiB) — corrupt or hostile input.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bit 31 of the length word: a correlation id follows.
const CORRELATED_FLAG: u32 = 1 << 31;

/// Bit 30 of the length word: request metadata follows the correlation
/// id. Never set without [`CORRELATED_FLAG`].
const META_FLAG: u32 = 1 << 30;

/// On-wire sentinel in the deadline field meaning "no deadline
/// propagated" (the sender runs on plain timeouts).
const NO_DEADLINE: u32 = u32::MAX;

// A header is the first one, two or three of these fields.
/// Bytes of the length word.
const LEN_BYTES: usize = 4;
/// Bytes of the correlation id.
const CORR_BYTES: usize = 8;
/// Bytes of request metadata (deadline `u32` + class byte).
const META_BYTES: usize = 5;

/// Where a correlated or meta frame keeps its correlation id.
pub(crate) const CORR_ID_RANGE: std::ops::Range<usize> = LEN_BYTES..LEN_BYTES + CORR_BYTES;

/// Initial buffer reservation when reading a frame body. Bounds the
/// allocation a lying length prefix can force before any body byte
/// arrives; honest frames larger than this grow the buffer as data
/// streams in.
const READ_CHUNK_BYTES: usize = 64 << 10;

/// Largest serialization scratch buffer a thread keeps between frames.
/// An occasional outsized frame (a big anti-entropy reply) still
/// serializes fine; its buffer just is not retained.
const SCRATCH_RETAIN_BYTES: usize = 1 << 20;

thread_local! {
    /// Per-thread scratch for whole frames, reused across writes so the
    /// hot senders — the gossip loop batching a whole exchange into one
    /// frame, the connection readers answering it — stop allocating and
    /// freeing a vector for every message.
    static SCRATCH: std::cell::RefCell<Vec<u8>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn truncated(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what)
}

// ----------------------------------------------------------------------
// The header codec
// ----------------------------------------------------------------------

const fn header_len(correlated: bool, has_meta: bool) -> usize {
    LEN_BYTES + if correlated { CORR_BYTES } else { 0 } + if has_meta { META_BYTES } else { 0 }
}

/// Fill `out` — exactly `header_len` bytes — with the header of a
/// `body_len`-byte frame (the caller has checked it against
/// [`MAX_FRAME_BYTES`], so it fits the 30 length bits). All integers
/// big-endian.
fn encode_header(out: &mut [u8], body_len: usize, corr: Option<u64>, meta: Option<FrameMeta>) {
    let mut word = body_len as u32;
    if let Some(id) = corr {
        word |= CORRELATED_FLAG;
        out[CORR_ID_RANGE].copy_from_slice(&id.to_be_bytes());
    }
    if let Some(m) = meta {
        word |= META_FLAG;
        let at = CORR_ID_RANGE.end;
        out[at..at + 4].copy_from_slice(&m.deadline_ms.unwrap_or(NO_DEADLINE).to_be_bytes());
        out[at + 4] = m.priority.to_wire();
    }
    out[..LEN_BYTES].copy_from_slice(&word.to_be_bytes());
}

/// What [`read_header`] found: body length, correlation id, request
/// metadata, header bytes consumed.
type Header = (usize, Option<u64>, Option<FrameMeta>, usize);

/// Read one header. `Ok(None)` on clean EOF before its first byte;
/// dying anywhere later is `UnexpectedEof`. A masked length over
/// [`MAX_FRAME_BYTES`], metadata without a correlation id, or an
/// unknown class byte is `InvalidData` — no protocol we speak.
fn read_header(r: &mut impl Read) -> io::Result<Option<Header>> {
    let mut word = [0u8; LEN_BYTES];
    if !fill_exact(r, &mut word, "truncated length prefix")? {
        return Ok(None);
    }
    let word = u32::from_be_bytes(word);
    let (correlated, has_meta) = (word & CORRELATED_FLAG != 0, word & META_FLAG != 0);
    let body_len = (word & !(CORRELATED_FLAG | META_FLAG)) as usize;
    if body_len > MAX_FRAME_BYTES {
        return Err(invalid("frame exceeds maximum size"));
    }
    if has_meta && !correlated {
        return Err(invalid("metadata frame without correlation id"));
    }
    let header = header_len(correlated, has_meta);
    let mut rest = [0u8; CORR_BYTES + META_BYTES];
    let rest = &mut rest[..header - LEN_BYTES];
    if !fill_exact(r, rest, "truncated frame header")? {
        return Err(truncated("truncated frame header"));
    }
    let corr = correlated
        .then(|| u64::from_be_bytes(rest[..CORR_BYTES].try_into().expect("CORR_BYTES is 8")));
    let meta = if has_meta {
        let m = &rest[CORR_BYTES..];
        let deadline = u32::from_be_bytes(m[..4].try_into().expect("4 of META_BYTES"));
        Some(FrameMeta {
            deadline_ms: (deadline != NO_DEADLINE).then_some(deadline),
            priority: Priority::from_wire(m[4])
                .ok_or_else(|| invalid("unknown priority class byte"))?,
        })
    } else {
        None
    };
    Ok(Some((body_len, corr, meta, header)))
}

/// Fill `buf` completely from `r`, retrying `Interrupted`. Returns
/// `false` on a clean EOF before the first byte; EOF after partial
/// progress is an `UnexpectedEof` labeled `what`.
fn fill_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(truncated(what)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read a body of claimed length `len`; `None` if the stream ends
/// first. The claim is untrusted — a peer can claim 64 MiB in one small
/// packet — so the buffer grows with the bytes that actually arrive
/// instead of pre-allocating the claimed size.
fn read_body(r: &mut impl Read, len: usize) -> io::Result<Option<Vec<u8>>> {
    let mut body = Vec::with_capacity(len.min(READ_CHUNK_BYTES));
    let got = r.take(len as u64).read_to_end(&mut body)?;
    Ok((got == len).then_some(body))
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// Build the finished frame for `value` — header, then body — into
/// `buf`; returns the header length.
fn encode_frame<T: Serialize + ?Sized>(
    buf: &mut Vec<u8>,
    corr: Option<u64>,
    meta: Option<FrameMeta>,
    value: &T,
) -> io::Result<usize> {
    if meta.is_some() && corr.is_none() {
        return Err(invalid("metadata frame without correlation id"));
    }
    let header = header_len(corr.is_some(), meta.is_some());
    buf.clear();
    buf.resize(header, 0);
    serde_json::to_writer(&mut *buf, value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let body_len = buf.len() - header;
    if body_len > MAX_FRAME_BYTES {
        return Err(invalid("frame exceeds maximum size"));
    }
    encode_header(&mut buf[..header], body_len, corr, meta);
    Ok(header)
}

/// Frame `value` and put it on `w` with one write: bare without `corr`,
/// correlated with it, a meta frame with `meta` as well. Returns the
/// bytes put on the wire.
///
/// With `faults`, the injector is shown the finished frame — may mangle
/// it in place — and says how much of it to write and whether the write
/// then fails; a correlated frame without metadata is what it treats as
/// a reply. Without, this is the whole production write path.
///
/// The frame is built in the thread's scratch buffer (a one-off
/// allocation if a serializer that itself writes frames holds it).
pub(crate) fn send_frame<T: Serialize + ?Sized>(
    w: &mut impl Write,
    corr: Option<u64>,
    meta: Option<FrameMeta>,
    value: &T,
    faults: Option<(&FaultInjector, Direction)>,
) -> io::Result<usize> {
    let mut put = |frame: &mut Vec<u8>| {
        let header = encode_frame(frame, corr, meta, value)?;
        let fate = match faults {
            Some((f, dir)) => f.frame_fate(dir, frame, header, corr.is_some() && meta.is_none()),
            None => FrameFate::Deliver(frame.len()),
        };
        match fate {
            FrameFate::Deliver(n) => {
                w.write_all(&frame[..n])?;
                w.flush()?;
                Ok(n)
            }
            FrameFate::Break(n) => {
                w.write_all(&frame[..n])?;
                let _ = w.flush();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected mid-frame drop",
                ))
            }
        }
    };
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            let result = put(&mut buf);
            if buf.capacity() > SCRATCH_RETAIN_BYTES {
                *buf = Vec::new();
            }
            result
        }
        Err(_) => put(&mut Vec::new()),
    })
}

/// Write one value as a bare frame: `[len u32 BE][body]`. Returns the
/// total bytes written, so callers can account wire traffic.
pub fn write_frame<T: Serialize + ?Sized>(w: &mut impl Write, value: &T) -> io::Result<usize> {
    send_frame(w, None, None, value, None)
}

/// Write one value as a correlated frame (12 header bytes + body).
pub fn write_correlated_frame<T: Serialize + ?Sized>(
    w: &mut impl Write,
    corr_id: u64,
    value: &T,
) -> io::Result<usize> {
    send_frame(w, Some(corr_id), None, value, None)
}

/// Write one value as a meta frame (17 header bytes + body).
pub fn write_meta_frame<T: Serialize + ?Sized>(
    w: &mut impl Write,
    corr_id: u64,
    meta: FrameMeta,
    value: &T,
) -> io::Result<usize> {
    send_frame(w, Some(corr_id), Some(meta), value, None)
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// One frame off the network, by whether it carried a correlation id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<T> {
    /// A bare frame: one turn of a strictly alternating conversation.
    Bare(T),
    /// A correlated frame: the id ties a reply back to the concurrent
    /// request that asked for it, so many in-flight RPCs can share one
    /// stream and replies may arrive in any order.
    Correlated(u64, T),
}

impl<T> Frame<T> {
    /// The payload, discarding any correlation id.
    pub fn into_value(self) -> T {
        match self {
            Frame::Bare(v) | Frame::Correlated(_, v) => v,
        }
    }

    /// The correlation id, if this frame carried one.
    pub fn corr_id(&self) -> Option<u64> {
        match self {
            Frame::Bare(_) => None,
            Frame::Correlated(id, _) => Some(*id),
        }
    }
}

/// Read one network frame of any shape, plus its metadata if it carried
/// some and the total bytes consumed. `Ok(None)` on clean EOF at a
/// frame boundary; a connection that dies inside the header or the body
/// is `UnexpectedEof`; a header from no protocol we speak, or a body
/// that does not parse, is `InvalidData`.
// `crates/perf/src/shadow.rs` pins this return type, so it cannot become
// a named struct until that pin is lifted.
#[allow(clippy::type_complexity)]
pub fn read_any_frame_meta_sized<T: DeserializeOwned>(
    r: &mut impl Read,
) -> io::Result<Option<(Frame<T>, Option<FrameMeta>, usize)>> {
    let Some((body_len, corr, meta, header)) = read_header(r)? else {
        return Ok(None);
    };
    let body = read_body(r, body_len)?.ok_or_else(|| truncated("truncated frame body"))?;
    let value =
        serde_json::from_slice(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let frame = match corr {
        Some(id) => Frame::Correlated(id, value),
        None => Frame::Bare(value),
    };
    Ok(Some((frame, meta, header + body_len)))
}

// ----------------------------------------------------------------------
// Request metadata (deadline propagation + priority classes)
// ----------------------------------------------------------------------

/// Priority class of a request, carried in the metadata header and used
/// by the server's admission control to decide what to shed first.
/// Order matters: shedding walks from the bottom of this enum up —
/// Background is sacrificed before Control, and Interactive work is
/// only refused when nothing lower is left to evict.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Priority {
    /// A human is waiting: search and proxy-search RPCs.
    Interactive,
    /// Keeps the community coherent: gossip exchanges and stats scrapes.
    Control,
    /// Can always run later: replica pushes.
    Background,
}

impl Priority {
    /// Every class, in shed order (last is shed first).
    pub const ALL: [Priority; 3] = [
        Priority::Interactive,
        Priority::Control,
        Priority::Background,
    ];

    /// The single metadata byte for this class.
    pub fn to_wire(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Control => 1,
            Priority::Background => 2,
        }
    }

    /// Decode a metadata class byte. `None` for bytes from a future
    /// protocol revision — the reader fails safe instead of guessing.
    pub fn from_wire(byte: u8) -> Option<Priority> {
        match byte {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Control),
            2 => Some(Priority::Background),
            _ => None,
        }
    }
}

/// Request metadata carried by a meta frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Remaining deadline budget when the frame was written, in ms.
    /// `None` means the sender propagated no deadline (plain timeout).
    pub deadline_ms: Option<u32>,
    /// Priority class the sender claims for this request.
    pub priority: Priority,
}

impl FrameMeta {
    /// Metadata claiming `priority` with no propagated deadline.
    pub fn new(priority: Priority) -> Self {
        Self {
            deadline_ms: None,
            priority,
        }
    }

    /// Metadata claiming `priority` with `deadline_ms` of budget left.
    pub fn with_deadline(priority: Priority, deadline_ms: u32) -> Self {
        Self {
            deadline_ms: Some(deadline_ms),
            priority,
        }
    }
}

// ----------------------------------------------------------------------
// CRC-framed records (durable store)
// ----------------------------------------------------------------------

/// CRC-32 (ISO-HDLC polynomial, reflected — the zlib/PNG variant),
/// implemented in-tree so the store adds no dependency.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    static TABLE: [u32; 256] = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a CRC frame failed to read — recovery treats every variant as
/// "the log ends here", but tests and metrics want to know which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcFrameError {
    /// The stream ended inside the header or body (torn write).
    Torn,
    /// Header and body arrived whole but the checksum does not match
    /// (bit rot, or a torn write that landed on old file contents).
    BadChecksum,
    /// The length prefix is impossible (larger than the frame cap).
    BadLength,
    /// The body checksummed clean but did not deserialize (a frame from
    /// a future or corrupt schema).
    BadBody,
}

/// Result of reading one CRC frame.
#[derive(Debug)]
pub enum CrcFrame<T> {
    /// A valid frame and its on-disk size (header + body).
    Ok(T, usize),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The frame could not be trusted; the reader should truncate here.
    Corrupt(CrcFrameError),
}

/// Serialize one value into CRC-frame bytes: `[len u32][crc32 u32][body]`,
/// both integers big-endian, CRC over the body bytes. The store writes
/// the bytes itself, placing crash points between partial writes.
pub fn crc_frame_bytes<T: Serialize + ?Sized>(value: &T) -> io::Result<Vec<u8>> {
    let body =
        serde_json::to_vec(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if body.len() > MAX_FRAME_BYTES {
        return Err(invalid("frame exceeds maximum size"));
    }
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&body).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Read one CRC frame. Unlike the network reader, nothing here is an
/// `io::Error` except a genuine transport error from the reader itself:
/// torn tails, bad checksums, and undecodable bodies all come back as
/// [`CrcFrame::Corrupt`] so the caller can truncate-and-continue.
pub fn read_crc_frame<T: DeserializeOwned>(r: &mut impl Read) -> io::Result<CrcFrame<T>> {
    let mut header = [0u8; 8];
    match fill_exact(r, &mut header, "torn record header") {
        Ok(true) => {}
        Ok(false) => return Ok(CrcFrame::Eof),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Ok(CrcFrame::Corrupt(CrcFrameError::Torn))
        }
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Ok(CrcFrame::Corrupt(CrcFrameError::BadLength));
    }
    let Some(body) = read_body(r, len)? else {
        return Ok(CrcFrame::Corrupt(CrcFrameError::Torn));
    };
    if crc32(&body) != crc {
        return Ok(CrcFrame::Corrupt(CrcFrameError::BadChecksum));
    }
    match serde_json::from_slice(&body) {
        Ok(value) => Ok(CrcFrame::Ok(value, 8 + len)),
        Err(_) => Ok(CrcFrame::Corrupt(CrcFrameError::BadBody)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Sample {
        a: u32,
        b: Vec<String>,
    }

    fn sample() -> Sample {
        Sample {
            a: 1,
            b: vec!["one".into()],
        }
    }

    /// `sample()` as JSON: 19 (0x13) bytes.
    const BODY: &[u8] = br#"{"a":1,"b":["one"]}"#;
    const CORR: u64 = 0x0102_0304_0506_0708;
    const META: FrameMeta = FrameMeta {
        deadline_ms: Some(1_500),
        priority: Priority::Control,
    };

    /// One header shape: its public writer, and the literal header
    /// bytes that writer must put in front of `BODY`.
    struct Shape {
        name: &'static str,
        write: fn(&mut Vec<u8>, &Sample) -> io::Result<usize>,
        header: &'static [u8],
        corr: Option<u64>,
        meta: Option<FrameMeta>,
    }

    const SHAPES: [Shape; 3] = [
        Shape {
            name: "bare",
            write: |w, v| write_frame(w, v),
            header: &[0, 0, 0, 0x13],
            corr: None,
            meta: None,
        },
        Shape {
            name: "correlated",
            write: |w, v| write_correlated_frame(w, CORR, v),
            header: &[0x80, 0, 0, 0x13, 1, 2, 3, 4, 5, 6, 7, 8],
            corr: Some(CORR),
            meta: None,
        },
        Shape {
            name: "meta",
            write: |w, v| write_meta_frame(w, CORR, META, v),
            header: &[
                0xC0, 0, 0, 0x13, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0x05, 0xDC, 1,
            ],
            corr: Some(CORR),
            meta: Some(META),
        },
    ];

    /// Hands out one byte per `read`.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    type Read1 = Option<(Frame<Sample>, Option<FrameMeta>, usize)>;

    fn read(bytes: &[u8]) -> io::Result<Read1> {
        read_any_frame_meta_sized::<Sample>(&mut &bytes[..])
    }

    fn kind(bytes: &[u8]) -> io::ErrorKind {
        read(bytes).expect_err("must be refused").kind()
    }

    /// `frame` with the low 30 bits of its length word replaced.
    fn claiming(frame: &[u8], len: u32) -> Vec<u8> {
        let mut out = frame.to_vec();
        let flags =
            u32::from_be_bytes(out[..4].try_into().unwrap()) & (CORRELATED_FLAG | META_FLAG);
        out[..4].copy_from_slice(&(flags | len).to_be_bytes());
        out
    }

    #[test]
    fn every_shape_through_the_one_reader() {
        for shape in &SHAPES {
            let name = shape.name;
            let mut frame = Vec::new();
            let written = (shape.write)(&mut frame, &sample()).unwrap();
            // Same bytes as ever: literal header, then the JSON body.
            assert_eq!(frame, [shape.header, BODY].concat(), "{name}: bytes");
            assert_eq!(written, frame.len(), "{name}: reported size");
            let expected = Some((
                match shape.corr {
                    Some(id) => Frame::Correlated(id, sample()),
                    None => Frame::Bare(sample()),
                },
                shape.meta,
                frame.len(),
            ));

            // Whole, twice on one stream, then a clean EOF.
            let two = [&frame[..], &frame[..]].concat();
            let mut r = two.as_slice();
            for _ in 0..2 {
                let got = read_any_frame_meta_sized::<Sample>(&mut r).unwrap();
                assert_eq!(got, expected, "{name}: whole");
            }
            assert_eq!(read(r).unwrap(), None, "{name}: clean EOF");

            // Trickled one byte per read.
            let got = read_any_frame_meta_sized::<Sample>(&mut OneByte(&frame)).unwrap();
            assert_eq!(got, expected, "{name}: trickled");

            // Cut anywhere — inside the length word, at and between the
            // header boundaries, mid-body — is a truncation, never a
            // clean EOF and never a value.
            for cut in 1..frame.len() {
                let k = kind(&frame[..cut]);
                assert_eq!(k, io::ErrorKind::UnexpectedEof, "{name}: cut at {cut}");
            }

            // Headers from no protocol we speak.
            let mut meta_alone = frame.clone();
            meta_alone[0] = (meta_alone[0] & 0x3F) | 0x40;
            assert_eq!(kind(&meta_alone), io::ErrorKind::InvalidData, "{name}");
            if shape.meta.is_some() {
                let mut future_class = frame.clone();
                future_class[shape.header.len() - 1] = 0x7F;
                assert_eq!(kind(&future_class), io::ErrorKind::InvalidData, "{name}");
            }
            let oversized = claiming(&frame, MAX_FRAME_BYTES as u32 + 1);
            assert_eq!(kind(&oversized), io::ErrorKind::InvalidData, "{name}");
            let all_ones = claiming(&frame, (1 << 30) - 1);
            assert_eq!(kind(&all_ones), io::ErrorKind::InvalidData, "{name}");

            // A liar inside the cap: claims 63 MiB, sends 3 bytes, hangs
            // up. Fails once the bytes run out (the body buffer grows
            // with what arrives; `tests/wire_adversarial.rs` bounds the
            // allocation).
            let mut liar = claiming(&frame, 63 << 20);
            liar.truncate(shape.header.len() + 3);
            assert_eq!(kind(&liar), io::ErrorKind::UnexpectedEof, "{name}");

            // A complete frame whose body does not parse.
            let mut garbage = frame.clone();
            garbage[shape.header.len()] = b'!';
            assert_eq!(kind(&garbage), io::ErrorKind::InvalidData, "{name}");
            let empty = claiming(&frame[..shape.header.len()], 0);
            assert_eq!(kind(&empty), io::ErrorKind::InvalidData, "{name}");
        }
    }

    #[test]
    fn meta_frame_without_deadline_uses_sentinel() {
        let mut buf = Vec::new();
        let meta = FrameMeta::new(Priority::Background);
        write_meta_frame(&mut buf, 1, meta, &sample()).unwrap();
        // Bytes 12..16 hold the deadline: the no-deadline sentinel.
        assert_eq!(&buf[12..16], &u32::MAX.to_be_bytes());
        let (_, got_meta, _) = read(&buf).unwrap().unwrap();
        assert_eq!(got_meta, Some(meta));
    }

    #[test]
    fn metadata_needs_a_correlation_id_on_the_way_out_too() {
        let mut buf = Vec::new();
        let err = send_frame(&mut buf, None, Some(META), &sample(), None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty());
    }

    #[test]
    fn scratch_reuse_never_leaks_between_frames() {
        let x = sample();
        let mut a = Vec::new();
        write_frame(&mut a, &x).unwrap();
        // A larger intervening frame reuses (and grows) the same
        // scratch; the next small frame must come out byte-identical.
        let big = Sample {
            a: 2,
            b: vec!["y".repeat(256); 8],
        };
        let mut tmp = Vec::new();
        write_frame(&mut tmp, &big).unwrap();
        let mut b = Vec::new();
        write_frame(&mut b, &x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn large_honest_frame_roundtrips() {
        // Bigger than the initial reservation chunk: the buffer must
        // grow with the arriving bytes.
        let big = Sample {
            a: 7,
            b: vec!["x".repeat(1024); 128],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        let (frame, _, n) = read(&buf).unwrap().unwrap();
        assert_eq!((frame, n), (Frame::Bare(big), buf.len()));
    }

    #[test]
    fn priority_wire_bytes_roundtrip_and_reject_unknown() {
        for p in Priority::ALL {
            assert_eq!(Priority::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!(Priority::from_wire(3), None);
        assert_eq!(Priority::from_wire(0xFF), None);
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_frame_roundtrip_and_clean_eof() {
        let x = sample();
        let buf = crc_frame_bytes(&x).unwrap();
        let n = buf.len();
        let mut r = buf.as_slice();
        match read_crc_frame::<Sample>(&mut r).unwrap() {
            CrcFrame::Ok(got, size) => {
                assert_eq!(got, x);
                assert_eq!(size, n);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        assert!(matches!(
            read_crc_frame::<Sample>(&mut r).unwrap(),
            CrcFrame::Eof
        ));
    }

    #[test]
    fn crc_frame_torn_tail_is_corrupt_not_error() {
        let buf = crc_frame_bytes(&sample()).unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 3] {
            let mut r = &buf[..cut];
            match read_crc_frame::<Sample>(&mut r).unwrap() {
                CrcFrame::Corrupt(CrcFrameError::Torn) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_frame_bit_flip_detected() {
        let buf = crc_frame_bytes(&sample()).unwrap();
        // Flip one bit in every body position: the checksum must catch
        // each one (header flips surface as BadChecksum, BadLength, or
        // Torn depending on which field they land in — never Ok).
        for i in 8..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            let mut r = bad.as_slice();
            match read_crc_frame::<Sample>(&mut r).unwrap() {
                CrcFrame::Corrupt(CrcFrameError::BadChecksum) => {}
                other => panic!("flip at {i}: expected BadChecksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_frame_lying_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        let mut r = buf.as_slice();
        assert!(matches!(
            read_crc_frame::<Sample>(&mut r).unwrap(),
            CrcFrame::Corrupt(CrcFrameError::BadLength)
        ));
    }
}
