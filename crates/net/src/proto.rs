//! The `FCNET001` wire protocol: length-prefixed, CRC-framed binary
//! frames, encoded/decoded through a bounds-checked cursor.
//!
//! ```text
//! +----------------+------+-----------+---------------+-----------+
//! | magic (8)      | type | len (u32) | payload (len) | crc (u32) |
//! | "FCNET001"     | (1)  | LE        |               | LE        |
//! +----------------+------+-----------+---------------+-----------+
//! ```
//!
//! The CRC (IEEE CRC-32, the same `fc_store::crc32` the WAL frames use)
//! covers `type ‖ len ‖ payload`, so a flipped bit anywhere past the
//! magic is caught before the payload is interpreted. The length field is
//! validated against a cap *before* any allocation — a hostile `len`
//! cannot balloon memory — and every payload parse runs through the
//! forward-only [`Cur`] cursor, so truncation and trailing garbage are
//! typed [`ProtoError`]s, never panics.
//!
//! Keys ride the wire through `fc_store::KeyCodec` (the same fixed-width
//! little-endian encoding the snapshots use); every key-bearing frame
//! leads with the key width so a client serving `i64` cannot silently
//! talk to a server serving `i32`.
//!
//! Request frames: [`Request::Query`] (leaf, key, deadline),
//! [`Request::Health`], [`Request::Shutdown`]. Response frames:
//! [`Response::Answer`], [`Response::Health`] (plain text metrics),
//! [`Response::Error`] (typed [`ErrorCode`] + detail), [`Response::Bye`]
//! (drain acknowledged).

use crate::error::{ErrorCode, NetError, ProtoError, WireError};
use fc_store::{crc32, KeyCodec};
use std::io::{Read, Write};

/// Protocol magic + version. Bump the trailing digits for incompatible
/// revisions; the magic mismatch is then a typed error, not a misparse.
pub const MAGIC: &[u8; 8] = b"FCNET001";

/// Bytes before the payload: magic (8) + type (1) + length (4).
pub const HEADER_LEN: usize = 13;

/// Bytes after the payload: the CRC-32.
pub const TRAILER_LEN: usize = 4;

/// Payload-length cap (1 MiB) that both the server and the client
/// enforce on inbound frames. Real frames are tens of bytes (health
/// reports are the largest); the cap only bounds hostility.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Longest detail/health text the encoder will emit (longer text is
/// truncated at a char boundary).
pub const MAX_TEXT: usize = 1 << 16;

/// Frame type: successor query.
pub const T_QUERY: u8 = 0x01;
/// Frame type: health/metrics request.
pub const T_HEALTH: u8 = 0x02;
/// Frame type: admin drain request.
pub const T_SHUTDOWN: u8 = 0x03;
/// Frame type: successful query answer.
pub const T_ANSWER: u8 = 0x81;
/// Frame type: typed error reply.
pub const T_ERROR: u8 = 0x82;
/// Frame type: plain-text health reply.
pub const T_HEALTH_REP: u8 = 0x83;
/// Frame type: drain acknowledged, connection closing.
pub const T_BYE: u8 = 0x84;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<K: KeyCodec> {
    /// Successor query: the per-path-node successors of `key` from the
    /// root down to `leaf`.
    Query {
        /// Wire id of the target leaf (`NodeId.0`).
        leaf: u32,
        /// The query key.
        key: K,
        /// Client deadline in milliseconds; `0` = server default. The
        /// server propagates this into the cluster's per-leg budgets.
        deadline_ms: u32,
    },
    /// Ask for the plain-text health/metrics report.
    Health,
    /// Ask the server to drain and exit (admin path; tests use this in
    /// place of SIGTERM).
    Shutdown,
}

/// A successful query answer as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAnswer<K: KeyCodec> {
    /// Routing-table version that served the query.
    pub table_version: u64,
    /// Per path node (root → leaf): the node's wire id and the smallest
    /// key `≥ y`, `None` = global `+∞`.
    pub entries: Vec<(u32, Option<K>)>,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<K: KeyCodec> {
    /// The query succeeded.
    Answer(WireAnswer<K>),
    /// Plain-text health/metrics report.
    Health(String),
    /// The request failed with a typed error.
    Error(WireError),
    /// Drain acknowledged; the server closes after this frame.
    Bye,
}

// ---------------------------------------------------------------------
// Cursor: every read bounds-checked, failures surface as ProtoError.
// ---------------------------------------------------------------------

/// Forward-only payload cursor (the net twin of `fc_store`'s `Reader`).
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Malformed(what))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ProtoError::Malformed(what))?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        self.take(1, what)?
            .first()
            .copied()
            .ok_or(ProtoError::Malformed(what))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        let b = self.take(4, what)?;
        b.try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| ProtoError::Malformed(what))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        let b = self.take(8, what)?;
        b.try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| ProtoError::Malformed(what))
    }

    fn key<K: KeyCodec>(&mut self) -> Result<K, ProtoError> {
        let b = self.take(K::WIDTH as usize, "key bytes")?;
        K::decode_key(b).ok_or(ProtoError::Malformed("key bytes"))
    }

    fn finish(&self, what: &'static str) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::Malformed(what))
        }
    }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

/// Wrap a payload in the frame envelope: magic, type, length, CRC.
fn seal(ty: u8, payload: &[u8]) -> Vec<u8> {
    // CRC covers type ‖ len ‖ payload, so assemble that span once.
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    let mut body = Vec::with_capacity(1 + 4 + payload.len());
    body.push(ty);
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body);
    let mut out = Vec::with_capacity(MAGIC.len() + body.len() + TRAILER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Truncate `s` to at most [`MAX_TEXT`] bytes on a char boundary.
fn clip(s: &str) -> &str {
    if s.len() <= MAX_TEXT {
        return s;
    }
    let mut end = MAX_TEXT;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    s.get(..end).unwrap_or("")
}

/// Encode a request frame.
pub fn encode_request<K: KeyCodec>(req: &Request<K>) -> Vec<u8> {
    match req {
        Request::Query {
            leaf,
            key,
            deadline_ms,
        } => {
            let mut p = Vec::with_capacity(1 + 4 + 4 + K::WIDTH as usize);
            p.push(K::WIDTH as u8);
            p.extend_from_slice(&leaf.to_le_bytes());
            p.extend_from_slice(&deadline_ms.to_le_bytes());
            key.encode_key(&mut p);
            seal(T_QUERY, &p)
        }
        Request::Health => seal(T_HEALTH, &[]),
        Request::Shutdown => seal(T_SHUTDOWN, &[]),
    }
}

/// Encode a response frame.
pub fn encode_response<K: KeyCodec>(resp: &Response<K>) -> Vec<u8> {
    match resp {
        Response::Answer(a) => {
            let w = K::WIDTH as usize;
            let mut p = Vec::with_capacity(1 + 8 + 4 + a.entries.len() * (5 + w));
            p.push(K::WIDTH as u8);
            p.extend_from_slice(&a.table_version.to_le_bytes());
            let n = u32::try_from(a.entries.len()).unwrap_or(u32::MAX);
            p.extend_from_slice(&n.to_le_bytes());
            for (node, ans) in &a.entries {
                p.extend_from_slice(&node.to_le_bytes());
                match ans {
                    Some(k) => {
                        p.push(1);
                        k.encode_key(&mut p);
                    }
                    None => p.push(0),
                }
            }
            seal(T_ANSWER, &p)
        }
        Response::Health(text) => seal(T_HEALTH_REP, clip(text).as_bytes()),
        Response::Error(e) => {
            let detail = clip(&e.detail).as_bytes();
            let mut p = Vec::with_capacity(1 + detail.len());
            p.push(e.code.to_wire());
            p.extend_from_slice(detail);
            seal(T_ERROR, &p)
        }
        Response::Bye => seal(T_BYE, &[]),
    }
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Validate the envelope of the frame starting at `buf` and return
/// `(type, payload, total frame length)`. Checks, in order: header
/// presence, magic, length cap (before touching the payload), body
/// presence, CRC.
fn open(buf: &[u8], max_len: u32) -> Result<(u8, &[u8], usize), ProtoError> {
    let head = buf.get(..HEADER_LEN).ok_or(ProtoError::Truncated {
        needed: HEADER_LEN + TRAILER_LEN,
        have: buf.len(),
    })?;
    if head.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(ProtoError::BadMagic);
    }
    let ty = head.get(MAGIC.len()).copied().ok_or(ProtoError::BadMagic)?;
    let len_bytes = head.get(MAGIC.len() + 1..HEADER_LEN).unwrap_or(&[]);
    let len = len_bytes
        .try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| ProtoError::Malformed("length field"))?;
    if len > max_len {
        return Err(ProtoError::Oversized { len, max: max_len });
    }
    let plen = len as usize;
    let total = HEADER_LEN + plen + TRAILER_LEN;
    if buf.len() < total {
        return Err(ProtoError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let covered = buf
        .get(MAGIC.len()..HEADER_LEN + plen)
        .ok_or(ProtoError::Malformed("frame span"))?;
    let carried_bytes = buf
        .get(HEADER_LEN + plen..total)
        .ok_or(ProtoError::Malformed("crc span"))?;
    let carried = carried_bytes
        .try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| ProtoError::Malformed("crc span"))?;
    let computed = crc32(covered);
    if carried != computed {
        return Err(ProtoError::CrcMismatch { carried, computed });
    }
    let payload = buf
        .get(HEADER_LEN..HEADER_LEN + plen)
        .ok_or(ProtoError::Malformed("payload span"))?;
    Ok((ty, payload, total))
}

fn check_width<K: KeyCodec>(found: u8) -> Result<(), ProtoError> {
    let expected = K::WIDTH as u8;
    if found == expected {
        Ok(())
    } else {
        Err(ProtoError::KeyWidth { expected, found })
    }
}

/// Decode one request frame from the front of `buf`. Returns the request
/// and the number of bytes consumed (the frame may be followed by the
/// next one).
pub fn decode_request<K: KeyCodec>(
    buf: &[u8],
    max_len: u32,
) -> Result<(Request<K>, usize), ProtoError> {
    let (ty, payload, total) = open(buf, max_len)?;
    let req = match ty {
        T_QUERY => {
            let mut c = Cur::new(payload);
            check_width::<K>(c.u8("key width")?)?;
            let leaf = c.u32("leaf id")?;
            let deadline_ms = c.u32("deadline")?;
            let key = c.key::<K>()?;
            c.finish("trailing bytes after query")?;
            Request::Query {
                leaf,
                key,
                deadline_ms,
            }
        }
        T_HEALTH => {
            Cur::new(payload).finish("health request carries no payload")?;
            Request::Health
        }
        T_SHUTDOWN => {
            Cur::new(payload).finish("shutdown request carries no payload")?;
            Request::Shutdown
        }
        other => return Err(ProtoError::UnknownType(other)),
    };
    Ok((req, total))
}

/// Decode one response frame from the front of `buf`. Returns the
/// response and the number of bytes consumed.
pub fn decode_response<K: KeyCodec>(
    buf: &[u8],
    max_len: u32,
) -> Result<(Response<K>, usize), ProtoError> {
    let (ty, payload, total) = open(buf, max_len)?;
    let resp = match ty {
        T_ANSWER => {
            let mut c = Cur::new(payload);
            check_width::<K>(c.u8("key width")?)?;
            let table_version = c.u64("table version")?;
            let n = c.u32("entry count")? as usize;
            // Each entry is ≥ 5 bytes, so a count the payload cannot hold
            // is rejected before the allocation it would size.
            if n > c.remaining() / 5 {
                return Err(ProtoError::Malformed("entry count exceeds payload"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let node = c.u32("entry node")?;
                let ans = match c.u8("entry presence")? {
                    0 => None,
                    1 => Some(c.key::<K>()?),
                    _ => return Err(ProtoError::Malformed("entry presence flag")),
                };
                entries.push((node, ans));
            }
            c.finish("trailing bytes after answer")?;
            Response::Answer(WireAnswer {
                table_version,
                entries,
            })
        }
        T_ERROR => {
            let mut c = Cur::new(payload);
            let code_byte = c.u8("error code")?;
            let code = ErrorCode::from_wire(code_byte)
                .ok_or(ProtoError::Malformed("unknown error code"))?;
            let detail_bytes = c.take(c.remaining(), "error detail")?;
            let detail = std::str::from_utf8(detail_bytes)
                .map_err(|_| ProtoError::Malformed("error detail not utf-8"))?
                .to_owned();
            Response::Error(WireError { code, detail })
        }
        T_HEALTH_REP => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| ProtoError::Malformed("health report not utf-8"))?
                .to_owned();
            Response::Health(text)
        }
        T_BYE => {
            Cur::new(payload).finish("bye carries no payload")?;
            Response::Bye
        }
        other => return Err(ProtoError::UnknownType(other)),
    };
    Ok((resp, total))
}

// ---------------------------------------------------------------------
// Socket framing.
// ---------------------------------------------------------------------

fn read_exact(r: &mut impl Read, buf: &mut [u8], op: &'static str) -> Result<(), NetError> {
    r.read_exact(buf).map_err(|e| NetError::from_io(op, e))
}

/// Read one whole frame from a stream: the fixed header first (so the
/// magic and the length cap are checked *before* the body allocation),
/// then exactly the declared remainder. An idle peer trips the stream's
/// read timeout → [`NetError::Timeout`]; a mid-frame disconnect →
/// [`NetError::Closed`]. Never reads past the frame.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, NetError> {
    let mut head = [0u8; HEADER_LEN];
    read_exact(r, &mut head, "read frame header")?;
    if head.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(NetError::Proto(ProtoError::BadMagic));
    }
    let len_bytes = head.get(MAGIC.len() + 1..HEADER_LEN).unwrap_or(&[]);
    let len = len_bytes
        .try_into()
        .map(u32::from_le_bytes)
        .map_err(|_| NetError::Proto(ProtoError::Malformed("length field")))?;
    if len > max_len {
        return Err(NetError::Proto(ProtoError::Oversized { len, max: max_len }));
    }
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    let mut buf = vec![0u8; total];
    if let Some(dst) = buf.get_mut(..HEADER_LEN) {
        dst.copy_from_slice(&head);
    }
    if let Some(rest) = buf.get_mut(HEADER_LEN..) {
        read_exact(r, rest, "read frame body")?;
    }
    Ok(buf)
}

/// Write one encoded frame and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), NetError> {
    w.write_all(frame)
        .map_err(|e| NetError::from_io("write frame", e))?;
    w.flush().map_err(|e| NetError::from_io("flush frame", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips() {
        let req = Request::Query {
            leaf: 7,
            key: -42i64,
            deadline_ms: 250,
        };
        let bytes = encode_request(&req);
        let (back, used) = decode_request::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, req);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn answer_round_trips_with_gaps() {
        let resp = Response::Answer(WireAnswer {
            table_version: 9,
            entries: vec![(0, Some(5i64)), (3, None), (8, Some(i64::MIN))],
        });
        let bytes = encode_response(&resp);
        let (back, used) = decode_response::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(back, resp);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn wrong_key_width_is_typed() {
        let req = Request::Query {
            leaf: 1,
            key: 10i32,
            deadline_ms: 0,
        };
        let bytes = encode_request(&req);
        match decode_request::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN) {
            Err(ProtoError::KeyWidth {
                expected: 8,
                found: 4,
            }) => {}
            other => panic!("expected KeyWidth, got {other:?}"),
        }
    }

    #[test]
    fn oversized_len_rejected_before_allocation() {
        let mut bytes = encode_request::<i64>(&Request::Health);
        // Forge a huge length field; decode must refuse on the cap, not
        // allocate or read further.
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_request::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN) {
            Err(ProtoError::Oversized { .. }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn hostile_answer_count_rejected() {
        let resp = Response::Answer(WireAnswer::<i64> {
            table_version: 1,
            entries: vec![(1, None)],
        });
        let mut bytes = encode_response(&resp);
        // Entry count claims more entries than the payload could hold.
        let count_at = HEADER_LEN + 1 + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // CRC now mismatches; recompute it so the count check itself is hit.
        let plen = bytes.len() - HEADER_LEN - TRAILER_LEN;
        let crc = crc32(&bytes[MAGIC.len()..HEADER_LEN + plen]);
        let at = HEADER_LEN + plen;
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        match decode_response::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN) {
            Err(ProtoError::Malformed("entry count exceeds payload")) => {}
            other => panic!("expected count rejection, got {other:?}"),
        }
    }

    #[test]
    fn unknown_type_and_bad_magic_are_typed() {
        let mut bytes = encode_request::<i64>(&Request::Health);
        bytes[8] = 0x5A;
        let plen = bytes.len() - HEADER_LEN - TRAILER_LEN;
        let crc = crc32(&bytes[MAGIC.len()..HEADER_LEN + plen]);
        let at = HEADER_LEN + plen;
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_request::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(ProtoError::UnknownType(0x5A))
        ));
        let mut bytes = encode_request::<i64>(&Request::Health);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_request::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(ProtoError::BadMagic)
        ));
    }

    #[test]
    fn long_error_detail_is_clipped_not_refused() {
        let resp = Response::<i64>::Error(WireError {
            code: ErrorCode::Internal,
            detail: "x".repeat(MAX_TEXT + 100),
        });
        let bytes = encode_response(&resp);
        let (back, _) = decode_response::<i64>(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        match back {
            Response::Error(e) => assert!(e.detail.len() <= MAX_TEXT),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
