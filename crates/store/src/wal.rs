//! The write-ahead log: length-prefixed, CRC-framed update records in
//! rotated segments.
//!
//! Every durable update batch becomes one record with a monotone sequence
//! number; the record is written and fsynced *before* the in-memory
//! catalogs see the ops, so an acknowledged batch survives any crash. Segments rotate once the
//! active one exceeds the configured byte budget; a snapshot's
//! `wal_watermark` lets [`crate::Store::prune`] delete fully-covered
//! segments.
//!
//! ## Layout (all integers little-endian)
//!
//! Segment `wal-<start_seq>.fcw`:
//!
//! ```text
//! magic      8B  "FCWALSG1"
//! format     u32
//! key_width  u32
//! start_seq  u64  sequence number of the segment's first record
//! header_crc u32  CRC-32 of the 24 bytes above
//! record*        frames, back to back
//! ```
//!
//! Record frame: `len:u32 · payload · crc:u32` where the payload is
//! `seq:u64 · op_count:u32 · (tag:u8 · node:u32 · key)*` and the CRC
//! covers the payload. Op tags are `0` (insert) and `1` (remove).
//!
//! A **rebuild marker** record reuses the frame but sets `op_count` to the
//! reserved sentinel `u32::MAX` followed by `tag:u8 = 2 · generation:u64`:
//! it records that the producer cut a clone-and-rebuild epoch (compaction)
//! at this point in the log. Nothing writes markers any more, but logs
//! written before checkpoints stopped logging them may hold some. They
//! carry no catalog mutations — replay surfaces them as
//! [`WalEntry::RebuildMarker`] so recovery can count them, and they
//! advance the sequence like any record.
//!
//! ## Replay semantics
//!
//! * Records replay in sequence order; a record whose `seq` is at or below
//!   the caller's watermark (or a duplicate from a half-completed segment
//!   rotation) is **skipped**, making replay idempotent.
//! * A **torn tail** — the final segment ending mid-frame, or its final
//!   frame failing its CRC at end-of-file — is truncated away and counted
//!   in [`ReplayStats::truncated_bytes`]: those bytes were never
//!   acknowledged (the ack boundary is the frame fsync), and a torn write
//!   is indistinguishable from a flipped final frame, so the standard WAL
//!   policy applies. The truncation is *reported*, never silent.
//! * Any other corruption — a bad CRC with more data after it, an
//!   implausible length, a non-contiguous sequence, an undecodable op —
//!   is a typed [`StoreError::WalCorrupt`]; a gap between segments is
//!   [`StoreError::MissingSegment`]. Replay never panics (this file is in
//!   the `cargo xtask lint` scope up to its tests).

use crate::codec::{crc32, KeyCodec};
use crate::error::StoreError;
use crate::frame::{sync_dir, Reader};
use fc_catalog::{CatalogKey, NodeId, UpdateOp};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FCWALSG1";
const FORMAT: u32 = 1;
/// Bytes of a segment header (including its CRC).
pub(crate) const SEG_HEADER_LEN: usize = 28;
/// Sanity cap on a single record's payload; a larger length field can only
/// come from corruption.
const MAX_PAYLOAD: u32 = 1 << 26;
/// Reserved `op_count` sentinel marking a non-ops record.
const MARKER_COUNT: u32 = u32::MAX;
/// Record tag of a rebuild (epoch-cut) marker.
const MARKER_TAG: u8 = 2;

/// One decoded WAL record, as handed to the replay callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalEntry<K> {
    /// A durable update batch to apply.
    Ops(Vec<UpdateOp<K>>),
    /// The producer cut a clone-and-rebuild epoch (compaction) here;
    /// `generation` is the producer's logical generation after the cut.
    RebuildMarker {
        /// Producer generation after the rebuild.
        generation: u64,
    },
}

/// One WAL segment on disk.
#[derive(Debug, Clone)]
pub struct SegmentInfo {
    /// Sequence number of the segment's first record.
    pub start_seq: u64,
    /// Path of the segment file.
    pub path: PathBuf,
}

/// What a [`replay`] pass saw and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Segment files visited.
    pub segments: usize,
    /// Records decoded and handed to the apply callback.
    pub records_applied: u64,
    /// Total ops inside the applied records.
    pub ops_applied: u64,
    /// Records skipped as already-applied (at or below the watermark, or
    /// duplicated by a half-completed rotation).
    pub records_skipped: u64,
    /// Rebuild markers among the applied records.
    pub markers: u64,
    /// Bytes of torn tail truncated off the final segment.
    pub truncated_bytes: u64,
    /// Highest sequence number accounted for (watermark if the log added
    /// nothing).
    pub last_seq: u64,
}

pub(crate) fn segment_file_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.fcw")
}

pub(crate) fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".fcw")?
        .parse()
        .ok()
}

/// Encode a segment header for a segment starting at `start_seq`.
pub(crate) fn encode_segment_header(key_width: u32, start_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEG_HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&key_width.to_le_bytes());
    out.extend_from_slice(&start_seq.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encode one record frame (`len · payload · crc`) for `ops` at `seq`.
pub(crate) fn encode_record<K: CatalogKey + KeyCodec>(seq: u64, ops: &[UpdateOp<K>]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + ops.len() * (5 + K::WIDTH as usize));
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            UpdateOp::Insert(node, k) => {
                payload.push(0);
                payload.extend_from_slice(&node.0.to_le_bytes());
                k.encode_key(&mut payload);
            }
            UpdateOp::Remove(node, k) => {
                payload.push(1);
                payload.extend_from_slice(&node.0.to_le_bytes());
                k.encode_key(&mut payload);
            }
        }
    }
    frame_of(&payload)
}

/// Encode one legacy rebuild-marker frame for `generation` at `seq`
/// (for tests that plant one; nothing else writes markers).
pub(crate) fn encode_marker(seq: u64, generation: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(21);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&MARKER_COUNT.to_le_bytes());
    payload.push(MARKER_TAG);
    payload.extend_from_slice(&generation.to_le_bytes());
    frame_of(&payload)
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame
}

fn decode_ops<K: CatalogKey + KeyCodec>(
    r: &mut Reader<'_>,
    count: u32,
) -> Option<Vec<UpdateOp<K>>> {
    let mut ops = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let tag = r.u8()?;
        let node = NodeId(r.u32()?);
        let key = K::decode_key(r.take(K::WIDTH as usize)?)?;
        match tag {
            0 => ops.push(UpdateOp::Insert(node, key)),
            1 => ops.push(UpdateOp::Remove(node, key)),
            _ => return None,
        }
    }
    Some(ops)
}

/// All WAL segments in `dir`, ascending by `start_seq`.
pub fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>, StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read_dir", dir, e))?;
    let mut out: Vec<SegmentInfo> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir, e))?;
        let name = entry.file_name();
        if let Some(start_seq) = name.to_str().and_then(parse_segment_seq) {
            out.push(SegmentInfo {
                start_seq,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|s| s.start_seq);
    Ok(out)
}

fn corrupt(path: &Path, offset: usize, reason: &'static str) -> StoreError {
    StoreError::WalCorrupt {
        path: path.to_path_buf(),
        offset: offset as u64,
        reason,
    }
}

/// Truncate a torn tail off `path` at byte `offset`, fsyncing the result.
fn truncate_at(
    path: &Path,
    offset: usize,
    file_len: usize,
    stats: &mut ReplayStats,
) -> Result<(), StoreError> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io("open", path, e))?;
    f.set_len(offset as u64)
        .map_err(|e| StoreError::io("truncate", path, e))?;
    f.sync_all().map_err(|e| StoreError::io("fsync", path, e))?;
    stats.truncated_bytes += file_len.saturating_sub(offset) as u64;
    Ok(())
}

/// Replay every record with `seq > watermark` through `apply`, in order,
/// truncating torn tails and skipping duplicates (see the module docs for
/// the full policy). `apply` receives `(seq, entry)` — an op batch or a
/// rebuild marker — and may veto the replay with its own `StoreError`
/// (e.g. an op naming a node outside the tree).
pub fn replay<K, F>(dir: &Path, watermark: u64, mut apply: F) -> Result<ReplayStats, StoreError>
where
    K: CatalogKey + KeyCodec,
    F: FnMut(u64, &WalEntry<K>) -> Result<(), StoreError>,
{
    let segments = list_segments(dir)?;
    let mut stats = ReplayStats {
        segments: segments.len(),
        last_seq: watermark,
        ..ReplayStats::default()
    };
    let count = segments.len();
    let mut max_seen = watermark;
    for (si, seg) in segments.iter().enumerate() {
        let is_last = si + 1 == count;
        let bytes = fs::read(&seg.path).map_err(|e| StoreError::io("read", &seg.path, e))?;
        if bytes.len() < SEG_HEADER_LEN {
            if is_last {
                // Crash before the fresh segment's header fsync completed:
                // nothing in it was ever acknowledged.
                stats.truncated_bytes += bytes.len() as u64;
                fs::remove_file(&seg.path).map_err(|e| StoreError::io("remove", &seg.path, e))?;
                continue;
            }
            return Err(StoreError::Truncated {
                path: seg.path.to_path_buf(),
                section: "segment header",
            });
        }
        let mut r = Reader::new(&bytes);
        let magic = r
            .take(8)
            .ok_or_else(|| corrupt(&seg.path, 0, "short header"))?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic {
                path: seg.path.to_path_buf(),
            });
        }
        let format = r
            .u32()
            .ok_or_else(|| corrupt(&seg.path, 8, "short header"))?;
        if format != FORMAT {
            return Err(StoreError::UnsupportedVersion {
                path: seg.path.to_path_buf(),
                version: format,
            });
        }
        let width = r
            .u32()
            .ok_or_else(|| corrupt(&seg.path, 12, "short header"))?;
        if width != K::WIDTH {
            return Err(StoreError::KeyWidthMismatch {
                path: seg.path.to_path_buf(),
                expected: K::WIDTH,
                found: width,
            });
        }
        let start_seq = r
            .u64()
            .ok_or_else(|| corrupt(&seg.path, 16, "short header"))?;
        let header_crc = r
            .u32()
            .ok_or_else(|| corrupt(&seg.path, 24, "short header"))?;
        let header = bytes
            .get(..SEG_HEADER_LEN - 4)
            .ok_or_else(|| corrupt(&seg.path, 0, "short header"))?;
        if crc32(header) != header_crc {
            return Err(StoreError::ChecksumMismatch {
                path: seg.path.to_path_buf(),
                section: "segment header",
            });
        }
        if start_seq != seg.start_seq {
            return Err(corrupt(
                &seg.path,
                16,
                "header sequence disagrees with file name",
            ));
        }
        if start_seq > max_seen + 1 {
            return Err(StoreError::MissingSegment {
                after_seq: max_seen,
            });
        }

        let mut prev_in_seg: Option<u64> = None;
        loop {
            let frame_start = r.pos();
            if r.remaining() == 0 {
                break;
            }
            if r.remaining() < 4 {
                if is_last {
                    truncate_at(&seg.path, frame_start, bytes.len(), &mut stats)?;
                    break;
                }
                return Err(corrupt(
                    &seg.path,
                    frame_start,
                    "segment truncated mid-record",
                ));
            }
            let len = r
                .u32()
                .ok_or_else(|| corrupt(&seg.path, frame_start, "short record length"))?;
            if len > MAX_PAYLOAD {
                return Err(corrupt(&seg.path, frame_start, "implausible record length"));
            }
            if r.remaining() < len as usize + 4 {
                if is_last {
                    truncate_at(&seg.path, frame_start, bytes.len(), &mut stats)?;
                    break;
                }
                return Err(corrupt(
                    &seg.path,
                    frame_start,
                    "segment truncated mid-record",
                ));
            }
            let payload = r
                .take(len as usize)
                .ok_or_else(|| corrupt(&seg.path, frame_start, "short record payload"))?;
            let rec_crc = r
                .u32()
                .ok_or_else(|| corrupt(&seg.path, frame_start, "short record checksum"))?;
            if crc32(payload) != rec_crc {
                if is_last && r.remaining() == 0 {
                    // A bad final frame at end-of-file is a torn write (the
                    // ack boundary is the fsync, which never returned).
                    truncate_at(&seg.path, frame_start, bytes.len(), &mut stats)?;
                    break;
                }
                return Err(corrupt(&seg.path, frame_start, "record checksum mismatch"));
            }
            let mut pr = Reader::new(payload);
            let seq = pr
                .u64()
                .ok_or_else(|| corrupt(&seg.path, frame_start, "record too short for sequence"))?;
            let expected = match prev_in_seg {
                None => start_seq,
                Some(p) => p + 1,
            };
            if seq != expected {
                return Err(corrupt(&seg.path, frame_start, "non-contiguous sequence"));
            }
            prev_in_seg = Some(seq);
            let op_count = pr
                .u32()
                .ok_or_else(|| corrupt(&seg.path, frame_start, "record too short for op count"))?;
            if seq <= max_seen {
                // Already applied (snapshot watermark or a duplicate from a
                // half-completed rotation): idempotent skip.
                stats.records_skipped += 1;
                continue;
            }
            let entry = if op_count == MARKER_COUNT {
                let tag = pr
                    .u8()
                    .ok_or_else(|| corrupt(&seg.path, frame_start, "record too short for tag"))?;
                if tag != MARKER_TAG {
                    return Err(corrupt(&seg.path, frame_start, "unknown record tag"));
                }
                let generation = pr.u64().ok_or_else(|| {
                    corrupt(&seg.path, frame_start, "record too short for generation")
                })?;
                WalEntry::RebuildMarker { generation }
            } else {
                let ops = decode_ops::<K>(&mut pr, op_count)
                    .ok_or_else(|| corrupt(&seg.path, frame_start, "undecodable ops"))?;
                WalEntry::Ops(ops)
            };
            if pr.remaining() != 0 {
                return Err(corrupt(&seg.path, frame_start, "trailing bytes in record"));
            }
            apply(seq, &entry)?;
            stats.records_applied += 1;
            match &entry {
                WalEntry::Ops(ops) => stats.ops_applied += ops.len() as u64,
                WalEntry::RebuildMarker { .. } => stats.markers += 1,
            }
            max_seen = seq;
        }
    }
    stats.last_seq = max_seen;
    Ok(stats)
}

/// The append side of the log. One writer per store, guarded by the
/// store's internal mutex; every append is fully framed and (with fsync
/// on) durable before it returns.
pub(crate) struct WalWriter {
    dir: PathBuf,
    fsync: bool,
    segment_bytes: u64,
    active: Option<ActiveSegment>,
    next_seq: u64,
    key_width: u32,
    /// The segment a failed append left damaged and could not be cut
    /// back: every later append is refused instead of written after it.
    wedged: Option<PathBuf>,
}

struct ActiveSegment {
    file: fs::File,
    path: PathBuf,
    bytes: u64,
}

impl WalWriter {
    /// A writer that will append `next_seq` first. No file is touched
    /// until the first append (which always opens a fresh segment, so a
    /// torn tail truncated during the open scan is never appended onto).
    pub(crate) fn new(
        dir: &Path,
        key_width: u32,
        fsync: bool,
        segment_bytes: u64,
        next_seq: u64,
    ) -> Self {
        WalWriter {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes,
            active: None,
            next_seq,
            key_width,
            wedged: None,
        }
    }

    /// The sequence number the next append will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one record for `ops`; returns its sequence number after the
    /// frame is written (and fsynced, when enabled).
    pub(crate) fn append<K: CatalogKey + KeyCodec>(
        &mut self,
        ops: &[UpdateOp<K>],
    ) -> Result<u64, StoreError> {
        let frame = encode_record(self.next_seq, ops);
        self.append_frame(frame)
    }

    fn append_frame(&mut self, frame: Vec<u8>) -> Result<u64, StoreError> {
        if let Some(path) = &self.wedged {
            return Err(StoreError::WalWedged { path: path.clone() });
        }
        let seq = self.next_seq;
        let fsync = self.fsync;
        let active = self.active_segment(seq)?;
        let written = active
            .file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &active.path, e))
            .and_then(|()| {
                if fsync {
                    active
                        .file
                        .sync_data()
                        .map_err(|e| StoreError::io("fsync", &active.path, e))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            self.cut_back_active();
            return Err(e);
        }
        active.bytes += frame.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// After a failed append, cut the active segment back to its last
    /// acked frame and drop it, so the next append opens a fresh
    /// `wal-<seq>.fcw`. The failed write may have left part of its frame
    /// in the file, or all of it with the fsync failing after; a record
    /// appended after those bytes would make replay refuse the whole
    /// shard. If the cut fails, the writer wedges instead.
    fn cut_back_active(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let cut = fs::OpenOptions::new()
            .write(true)
            .open(&active.path)
            .and_then(|f| {
                f.set_len(active.bytes)?;
                if self.fsync {
                    f.sync_all()
                } else {
                    Ok(())
                }
            });
        if cut.is_err() {
            self.wedged = Some(active.path);
        }
    }

    /// The active segment, rotating to a fresh `wal-<seq>.fcw` when there
    /// is none or the current one is over budget.
    fn active_segment(&mut self, seq: u64) -> Result<&mut ActiveSegment, StoreError> {
        let over = match &self.active {
            Some(a) => a.bytes >= self.segment_bytes,
            None => true,
        };
        if over {
            let path = self.dir.join(segment_file_name(seq));
            let create = fs::OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(&path);
            let mut file = match create {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // A crash right after rotation leaves `wal-<seq>.fcw`
                    // holding only its header (or a torn first record).
                    // No acknowledged record can live in it: a complete
                    // record at `seq` would have advanced recovery's
                    // next_seq past `seq`. Reclaim the file by truncating
                    // instead of wedging every future append.
                    fs::OpenOptions::new()
                        .write(true)
                        .truncate(true)
                        .open(&path)
                        .map_err(|e| StoreError::io("reclaim segment", &path, e))?
                }
                Err(e) => return Err(StoreError::io("create segment", &path, e)),
            };
            let header = encode_segment_header(self.key_width, seq);
            file.write_all(&header)
                .map_err(|e| StoreError::io("write header", &path, e))?;
            if self.fsync {
                file.sync_data()
                    .map_err(|e| StoreError::io("fsync", &path, e))?;
                sync_dir(&self.dir);
            }
            self.active = Some(ActiveSegment {
                file,
                path,
                bytes: SEG_HEADER_LEN as u64,
            });
        }
        match self.active.as_mut() {
            Some(a) => Ok(a),
            None => Err(StoreError::Io {
                op: "rotate",
                path: self.dir.to_path_buf(),
                source: std::io::Error::other("no active segment after rotation"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc-store-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops(base: i64) -> Vec<UpdateOp<i64>> {
        vec![
            UpdateOp::Insert(NodeId(0), base),
            UpdateOp::Insert(NodeId(1), base + 1),
            UpdateOp::Remove(NodeId(0), base + 2),
        ]
    }

    type SeenRecords = Vec<(u64, Vec<UpdateOp<i64>>)>;

    fn collect(dir: &Path, watermark: u64) -> (ReplayStats, SeenRecords) {
        let mut seen = Vec::new();
        let stats = replay::<i64, _>(dir, watermark, |seq, entry| {
            if let WalEntry::Ops(ops) = entry {
                seen.push((seq, ops.clone()));
            }
            Ok(())
        })
        .unwrap();
        (stats, seen)
    }

    #[test]
    fn append_replay_round_trips_in_order() {
        let dir = tmp("roundtrip");
        let mut w = WalWriter::new(&dir, 8, true, 1 << 20, 1);
        for i in 0..10 {
            assert_eq!(w.append(&ops(i * 10)).unwrap(), 1 + i as u64);
        }
        let (stats, seen) = collect(&dir, 0);
        assert_eq!(stats.records_applied, 10);
        assert_eq!(stats.ops_applied, 30);
        assert_eq!(stats.last_seq, 10);
        assert_eq!(stats.truncated_bytes, 0);
        let seqs: Vec<u64> = seen.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<_>>());
        assert_eq!(seen[3].1, ops(30));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_budget_rotates_and_replay_spans_segments() {
        let dir = tmp("rotate");
        let mut w = WalWriter::new(&dir, 8, false, 64, 1);
        for i in 0..20 {
            w.append(&ops(i)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 10, "64-byte budget must rotate per record");
        let (stats, _) = collect(&dir, 0);
        assert_eq!(stats.records_applied, 20);
        assert_eq!(stats.segments, segs.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_leftover_segment_is_reclaimed_not_wedged() {
        let dir = tmp("reclaim");
        // Simulate a crash right after rotation: the next segment exists
        // on disk holding only its header.
        let leftover = dir.join(segment_file_name(1));
        fs::write(&leftover, encode_segment_header(8, 1)).unwrap();
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        assert_eq!(
            w.append(&ops(0)).unwrap(),
            1,
            "append must reclaim, not wedge"
        );
        let (stats, seen) = collect(&dir, 0);
        assert_eq!(stats.records_applied, 1);
        assert_eq!(seen.first().map(|(s, _)| *s), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A failed append is cut back off its segment, so the next append,
    /// which takes the same sequence number, never lands after what the
    /// failed one left: a whole frame whose fsync failed, or half of one.
    #[test]
    fn failed_append_is_cut_back_before_the_next_append() {
        for (case, half) in [("fsync failed", false), ("half written", true)] {
            let dir = tmp("failed-append");
            let mut w = WalWriter::new(&dir, 8, true, 1 << 20, 1);
            assert_eq!(w.append(&ops(0)).unwrap(), 1, "{case}");
            let active = w.active.as_mut().unwrap();
            let frame = encode_record(2, &ops(10));
            let landed = if half { frame.len() / 2 } else { frame.len() };
            let mut raw = fs::OpenOptions::new()
                .append(true)
                .open(&active.path)
                .unwrap();
            raw.write_all(&frame[..landed]).unwrap();
            // The bytes above are what the failing append left behind; a
            // read-only handle makes the append itself fail.
            active.file = fs::File::open(&active.path).unwrap();
            assert!(w.append(&ops(10)).is_err(), "{case}");
            // The fault was transient: a segment the writer kept would
            // take writes again.
            if let Some(a) = w.active.as_mut() {
                a.file = raw;
            }
            assert_eq!(w.append(&ops(20)).unwrap(), 2, "{case}");
            let (stats, seen) = collect(&dir, 0);
            assert_eq!(seen, vec![(1, ops(0)), (2, ops(20))], "{case}");
            assert_eq!(stats.truncated_bytes, 0, "{case}: nothing left to cut");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// When the cut itself fails, the writer refuses every later append
    /// with a typed error instead of writing after a damaged frame.
    #[test]
    fn failed_cut_refuses_every_later_append() {
        let dir = tmp("wedged");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        w.append(&ops(0)).unwrap();
        let active = w.active.as_mut().unwrap();
        active.file = fs::File::open(&active.path).unwrap();
        // The segment vanishes, so the cut cannot reopen it.
        fs::remove_file(&active.path).unwrap();
        let err = w.append(&ops(10)).unwrap_err();
        assert!(matches!(err, StoreError::Io { op: "append", .. }), "{err}");
        for _ in 0..2 {
            let err = w.append(&ops(20)).unwrap_err();
            assert!(matches!(err, StoreError::WalWedged { .. }), "{err}");
        }
        assert!(list_segments(&dir).unwrap().is_empty(), "nothing written");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_skips_already_applied_records() {
        let dir = tmp("watermark");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        for i in 0..8 {
            w.append(&ops(i)).unwrap();
        }
        let (stats, seen) = collect(&dir, 5);
        assert_eq!(stats.records_applied, 3);
        assert_eq!(stats.records_skipped, 5);
        assert_eq!(seen.first().map(|(s, _)| *s), Some(6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_succeeds() {
        let dir = tmp("torn");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        for i in 0..5 {
            w.append(&ops(i)).unwrap();
        }
        let seg = &list_segments(&dir).unwrap()[0].path;
        let full = fs::read(seg).unwrap();
        // Chop 3 bytes off the final frame.
        fs::write(seg, &full[..full.len() - 3]).unwrap();
        let (stats, seen) = collect(&dir, 0);
        assert_eq!(stats.records_applied, 4);
        assert!(stats.truncated_bytes > 0);
        assert_eq!(seen.len(), 4);
        // The truncation is durable: a second replay sees a clean log.
        let (stats2, _) = collect(&dir, 0);
        assert_eq!(stats2.truncated_bytes, 0);
        assert_eq!(stats2.records_applied, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_segment_flip_is_typed_corruption() {
        let dir = tmp("flip");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        for i in 0..5 {
            w.append(&ops(i)).unwrap();
        }
        let seg = &list_segments(&dir).unwrap()[0].path;
        let mut bytes = fs::read(seg).unwrap();
        // Flip a byte inside the first record's payload; later records
        // follow it, so torn-tail truncation is not a sound explanation.
        let off = SEG_HEADER_LEN + 20;
        bytes[off] ^= 0x10;
        fs::write(seg, bytes).unwrap();
        let err = replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, StoreError::WalCorrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_middle_segment_is_typed() {
        let dir = tmp("missing");
        let mut w = WalWriter::new(&dir, 8, false, 64, 1);
        for i in 0..9 {
            w.append(&ops(i)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() >= 3);
        fs::remove_file(&segs[1].path).unwrap();
        let err = replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap_err();
        assert!(
            matches!(err, StoreError::MissingSegment { after_seq: 1 }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_from_half_rotation_are_skipped() {
        let dir = tmp("halfrot");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        for i in 0..6 {
            w.append(&ops(i)).unwrap();
        }
        // Fabricate a half-completed rotation: a fresh segment whose first
        // record duplicates seq 6 (already present in the old segment).
        let dup = encode_record(6, &ops(5));
        let mut seg = encode_segment_header(8, 6);
        seg.extend_from_slice(&dup);
        fs::write(dir.join(segment_file_name(6)), seg).unwrap();
        let (stats, seen) = collect(&dir, 0);
        assert_eq!(stats.records_applied, 6, "each record applies once");
        assert_eq!(stats.records_skipped, 1, "the duplicate is skipped");
        assert_eq!(seen.len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_markers_round_trip_interleaved_with_ops() {
        let dir = tmp("markers");
        let mut w = WalWriter::new(&dir, 8, false, 1 << 20, 1);
        // Legacy markers are planted through the raw frame path.
        let marker = |w: &mut WalWriter, generation| {
            let frame = encode_marker(w.next_seq(), generation);
            w.append_frame(frame).unwrap()
        };
        assert_eq!(w.append(&ops(0)).unwrap(), 1);
        assert_eq!(marker(&mut w, 7), 2);
        assert_eq!(w.append(&ops(10)).unwrap(), 3);
        assert_eq!(marker(&mut w, 8), 4);
        let mut entries = Vec::new();
        let stats = replay::<i64, _>(&dir, 0, |seq, entry| {
            entries.push((seq, entry.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.records_applied, 4);
        assert_eq!(stats.markers, 2);
        assert_eq!(stats.ops_applied, 6, "markers carry no ops");
        assert_eq!(stats.last_seq, 4);
        assert_eq!(entries[1].1, WalEntry::RebuildMarker { generation: 7 });
        assert_eq!(entries[3].1, WalEntry::RebuildMarker { generation: 8 });
        assert_eq!(entries[0].1, WalEntry::Ops(ops(0)));
        // A watermark right after a marker skips it idempotently.
        let (stats2, seen2) = collect(&dir, 2);
        assert_eq!(stats2.records_skipped, 2);
        assert_eq!(stats2.markers, 1, "only the post-watermark marker");
        assert_eq!(seen2.first().map(|(s, _)| *s), Some(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_marker_tag_is_typed() {
        let dir = tmp("badmarker");
        // A marker-count record whose tag byte is not the marker tag.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.push(5);
        payload.extend_from_slice(&9u64.to_le_bytes());
        let frame = frame_of(&payload);
        let mut seg = encode_segment_header(8, 1);
        seg.extend_from_slice(&frame);
        fs::write(dir.join(segment_file_name(1)), seg).unwrap();
        let err = replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::WalCorrupt {
                    reason: "unknown record tag",
                    ..
                }
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_op_tag_is_typed() {
        let dir = tmp("badtag");
        let mut frame = encode_record(1, &ops(0));
        // Corrupt the first op's tag *and* fix the CRC so only the decode
        // layer can catch it.
        let tag_off = 4 + 12;
        frame[tag_off] = 9;
        let payload_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let crc = crc32(&frame[4..4 + payload_len]);
        let crc_off = 4 + payload_len;
        frame[crc_off..crc_off + 4].copy_from_slice(&crc.to_le_bytes());
        let mut seg = encode_segment_header(8, 1);
        seg.extend_from_slice(&frame);
        fs::write(dir.join(segment_file_name(1)), seg).unwrap();
        let err = replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::WalCorrupt {
                    reason: "undecodable ops",
                    ..
                }
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
