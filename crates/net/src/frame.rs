//! The length-prefixed frame layer: how requests and responses travel
//! over a TCP stream, independent of what the payload bytes mean.
//!
//! Every frame is `[u32 len LE][body]`, where `len` counts the body
//! bytes only. A request body is `[u8 version][u8 opcode][u64 generation
//! LE][u64 slot LE][payload]`; a response body is `[u8 version][u8
//! status][payload]`. See `PROTOCOL.md` for the full layout and the
//! opcode table.

use std::io::{self, Read, Write};

/// Wire protocol version carried in every frame. Peers reject frames
/// whose version they do not speak instead of guessing at the layout.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on a frame body, so a corrupt or hostile length prefix
/// cannot trigger an unbounded allocation. Checkpoint sections dominate
/// frame sizes; 1 GiB leaves generous headroom over any real fleet.
pub const MAX_FRAME: usize = 1 << 30;

/// Response status: the payload is the requested value.
pub const STATUS_OK: u8 = 0;
/// Response status: the payload is an encoded [`tgs_core::TgsError`].
pub const STATUS_ERR: u8 = 1;

/// Request header: everything before the opcode-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation (see the opcode table in `PROTOCOL.md`).
    pub opcode: u8,
    /// Topology generation the caller routed with (0 where exempt).
    pub generation: u64,
    /// The engine slot on the server this request addresses.
    pub slot: u64,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a frame body of `len` bytes as its fixed `N`-byte head (whose
/// first byte must be [`WIRE_VERSION`]) plus the `len − N`-byte payload. The payload
/// buffer grows as bytes arrive — geometrically, but never past `len` —
/// so an honest frame ends with exactly its length allocated, and a
/// length prefix that lies costs at most twice the bytes actually sent,
/// never the declared length up front.
fn read_body<const N: usize>(r: &mut impl Read, len: usize) -> io::Result<([u8; N], Vec<u8>)> {
    /// First payload allocation; later ones double what has arrived.
    const FIRST_CHUNK: usize = 64 << 10;
    if len > MAX_FRAME {
        return Err(bad_data(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let len = len.checked_sub(N).ok_or_else(|| {
        bad_data(format!(
            "frame body of {len} bytes is shorter than its {N}-byte head"
        ))
    })?;
    let mut head = [0u8; N];
    r.read_exact(&mut head)?;
    if head[0] != WIRE_VERSION {
        return Err(bad_data(format!(
            "unsupported wire version {} (this peer speaks {WIRE_VERSION})",
            head[0]
        )));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        let chunk = filled.max(FIRST_CHUNK).min(len - filled);
        payload.reserve_exact(chunk);
        payload.resize(filled + chunk, 0);
        r.read_exact(&mut payload[filled..])?;
    }
    Ok((head, payload))
}

/// Reads the 4-byte length prefix, distinguishing a clean EOF before the
/// first byte (`Ok(None)`, the peer hung up between frames) from a
/// truncation mid-prefix (an error).
fn read_len(r: &mut impl Read) -> io::Result<Option<usize>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame-length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Some(u32::from_le_bytes(prefix) as usize))
}

/// Writes one request frame and flushes it.
pub fn write_request(
    w: &mut impl Write,
    opcode: u8,
    generation: u64,
    slot: u64,
    payload: &[u8],
) -> io::Result<()> {
    let body_len = 1 + 1 + 8 + 8 + payload.len();
    if body_len > MAX_FRAME {
        return Err(bad_data(format!(
            "request payload of {} bytes exceeds the frame bound",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(opcode);
    frame.extend_from_slice(&generation.to_le_bytes());
    frame.extend_from_slice(&slot.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one request frame. `Ok(None)` when the peer closed the
/// connection cleanly between frames.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    let Some(len) = read_len(r)? else {
        return Ok(None);
    };
    let (head, payload) = read_body::<18>(r, len)?;
    Ok(Some(Request {
        opcode: head[1],
        generation: u64::from_le_bytes(head[2..10].try_into().expect("fixed head")),
        slot: u64::from_le_bytes(head[10..18].try_into().expect("fixed head")),
        payload,
    }))
}

/// Writes one response frame and flushes it.
pub fn write_response(w: &mut impl Write, status: u8, payload: &[u8]) -> io::Result<()> {
    let body_len = 1 + 1 + payload.len();
    if body_len > MAX_FRAME {
        return Err(bad_data(format!(
            "response payload of {} bytes exceeds the frame bound",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + body_len);
    frame.extend_from_slice(&(body_len as u32).to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(status);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one response frame as `(status, payload)`.
pub fn read_response(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let len = read_len(r)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed while awaiting a response",
        )
    })?;
    let ([_, status], payload) = read_body::<2>(r, len)?;
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_roundtrip() {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, 3, 11, b"payload").unwrap();
        write_request(&mut wire, 2, 0, 0, b"").unwrap();
        let mut r = wire.as_slice();
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            first,
            Request {
                opcode: 7,
                generation: 3,
                slot: 11,
                payload: b"payload".to_vec(),
            }
        );
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.opcode, 2);
        assert!(second.payload.is_empty());
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn response_frames_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, STATUS_OK, &[1, 2, 3]).unwrap();
        let (status, payload) = read_response(&mut wire.as_slice()).unwrap();
        assert_eq!((status, payload.as_slice()), (STATUS_OK, &[1u8, 2, 3][..]));
    }

    #[test]
    fn truncation_and_version_skew_are_errors() {
        let mut wire = Vec::new();
        write_request(&mut wire, 7, 3, 11, b"payload").unwrap();
        // Mid-prefix truncation.
        assert!(read_request(&mut &wire[..2]).is_err());
        // Mid-body truncation.
        assert!(read_request(&mut &wire[..wire.len() - 1]).is_err());
        // Version byte the reader does not speak.
        let mut skewed = wire.clone();
        skewed[4] = 99;
        assert!(read_request(&mut skewed.as_slice()).is_err());
        // A body too short for the request head.
        let mut short = 17u32.to_le_bytes().to_vec();
        short.extend_from_slice(&[WIRE_VERSION; 17]);
        assert!(read_request(&mut short.as_slice()).is_err());
        // A hostile length prefix is rejected before allocating.
        let mut huge = wire;
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_request(&mut huge.as_slice()).is_err());
    }

    /// A reader that records the bytes handed out and the largest buffer
    /// it was asked to fill — the frame reader's allocation high-water
    /// mark, since it reads into the buffer it allocated.
    struct Counted<'a> {
        src: &'a [u8],
        sent: usize,
        widest: usize,
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            let n = self.src.read(buf)?;
            self.sent += n;
            Ok(n)
        }
    }

    #[test]
    fn a_lying_length_prefix_fails_on_eof_without_allocating_it() {
        // A request header that claims ~1 GiB, then a little payload and
        // EOF: the read must fail typed after consuming what was sent.
        let claimed = MAX_FRAME - 1;
        let mut wire = (claimed as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[WIRE_VERSION, 7]);
        wire.extend_from_slice(&[0u8; 16]);
        wire.extend_from_slice(&[0xAB; 1000]);
        let mut r = Counted {
            src: &wire,
            sent: 0,
            widest: 0,
        };
        let err = read_request(&mut r).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
            ),
            "{err:?}"
        );
        assert_eq!(r.sent, wire.len(), "every sent byte was read before EOF");
        assert!(
            r.widest <= 64 << 10,
            "the reader sized a {}-byte buffer for 1 KB of payload",
            r.widest
        );
        // Same for a response frame.
        let mut wire = (claimed as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[WIRE_VERSION, STATUS_OK, 1, 2, 3]);
        let err = read_response(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn large_payloads_arrive_whole_with_exact_capacity() {
        let payload: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_request(&mut wire, 3, 1, 2, &payload).unwrap();
        write_response(&mut wire, STATUS_OK, &payload).unwrap();
        let mut r = wire.as_slice();
        let request = read_request(&mut r).unwrap().unwrap();
        assert_eq!(request.payload, payload);
        assert_eq!(request.payload.capacity(), payload.len());
        let (status, body) = read_response(&mut r).unwrap();
        assert_eq!((status, body), (STATUS_OK, payload));
    }
}
