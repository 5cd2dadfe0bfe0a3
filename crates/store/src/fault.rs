//! Disk fault injection for durability tests: torn writes, bit flips,
//! missing segments, half-completed rotations, and legacy log records.
//!
//! These helpers extend the workspace's fault-injection story (see
//! `fc-resilience::fault` for in-memory corruption) to the storage layer.
//! They are deliberately blunt — byte surgery on real files — because
//! that is exactly what the recovery path has to survive. Test-support
//! code: the recovery paths under `cargo xtask lint` never call in here.

use crate::codec::KeyCodec;
use crate::store::{Store, StoreConfig};
use crate::wal::{encode_marker, encode_segment_header, segment_file_name, SEG_HEADER_LEN};
use fc_catalog::CatalogKey;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// XOR one byte of `path` at `offset` with `mask` (a simulated bit flip /
/// media error). Errors if the offset is past EOF or the mask is zero.
pub fn flip_byte(path: &Path, offset: u64, mask: u8) -> io::Result<()> {
    if mask == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "mask is zero"));
    }
    let mut bytes = fs::read(path)?;
    let b = bytes
        .get_mut(offset as usize)
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "offset past EOF"))?;
    *b ^= mask;
    fs::write(path, bytes)
}

/// Chop `n` bytes off the end of `path` (a simulated torn write). Returns
/// the new length.
pub fn truncate_tail(path: &Path, n: u64) -> io::Result<u64> {
    let len = fs::metadata(path)?.len();
    let new_len = len.saturating_sub(n);
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(new_len)?;
    Ok(new_len)
}

/// Append raw garbage to `path` (a partially-written frame that never got
/// its fsync).
pub fn append_garbage(path: &Path, garbage: &[u8]) -> io::Result<()> {
    let mut f = fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(garbage)
}

/// Paths of all WAL segments in `dir`, ascending by start sequence.
pub fn wal_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    crate::wal::list_segments(dir)
        .map(|v| v.into_iter().map(|s| s.path).collect())
        .map_err(|e| io::Error::other(e.to_string()))
}

/// Paths of all snapshot files in `dir`, newest first.
pub fn snapshot_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    crate::snapshot::list_snapshot_files(dir)
        .map(|v| v.into_iter().map(|(_, p)| p).collect())
        .map_err(|e| io::Error::other(e.to_string()))
}

/// Fabricate a **half-completed segment rotation**: copy the final record
/// of the last WAL segment into a brand-new segment whose `start_seq` is
/// that record's sequence number. Replay now sees the same sequence number
/// in two segments — the idempotent-replay regression this store must not
/// double-apply. Returns the new segment's path, or `None` when there is
/// no segment with a full record to duplicate (or the duplicate would
/// collide with the source file's name).
pub fn half_rotate_last_segment(dir: &Path) -> io::Result<Option<PathBuf>> {
    let segs = wal_segments(dir)?;
    let Some(last) = segs.last() else {
        return Ok(None);
    };
    let bytes = fs::read(last)?;
    if bytes.len() < SEG_HEADER_LEN + 16 {
        return Ok(None);
    }
    let key_width = u32::from_le_bytes(bytes[12..16].try_into().unwrap_or([0; 4]));
    // Walk the frames to find the last complete one and its sequence.
    let mut pos = SEG_HEADER_LEN;
    let mut last_frame: Option<(usize, usize, u64)> = None;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap_or([0; 4])) as usize;
        let end = pos + 4 + len + 4;
        if end > bytes.len() || len < 12 {
            break;
        }
        let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap_or([0; 8]));
        last_frame = Some((pos, end, seq));
        pos = end;
    }
    let Some((start, end, seq)) = last_frame else {
        return Ok(None);
    };
    let mut seg = encode_segment_header(key_width, seq);
    seg.extend_from_slice(&bytes[start..end]);
    let path = dir.join(segment_file_name(seq));
    if &path == last {
        return Ok(None);
    }
    fs::write(&path, seg)?;
    Ok(Some(path))
}

/// Plant a **legacy rebuild marker** for `generation` at the next sequence
/// number of the store in `dir`, in a fresh segment, as logs written
/// before checkpoints stopped logging markers may hold. Returns its
/// sequence number.
pub fn append_legacy_marker<K: CatalogKey + KeyCodec>(
    dir: &Path,
    generation: u64,
) -> io::Result<u64> {
    let store = Store::<K>::open(dir, StoreConfig::default());
    let seq = store
        .map_err(|e| io::Error::other(e.to_string()))?
        .last_seq()
        + 1;
    let mut seg = encode_segment_header(K::WIDTH, seq);
    seg.extend_from_slice(&encode_marker(seq, generation));
    fs::write(dir.join(segment_file_name(seq)), seg)?;
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::{NodeId, UpdateOp};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fc-store-fault-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn surgery_helpers_do_what_they_say() {
        let dir = tmp("surgery");
        let p = dir.join("f.bin");
        fs::write(&p, [0u8; 16]).unwrap();
        flip_byte(&p, 3, 0x80).unwrap();
        assert_eq!(fs::read(&p).unwrap()[3], 0x80);
        assert!(flip_byte(&p, 99, 1).is_err(), "past EOF is an error");
        assert_eq!(truncate_tail(&p, 6).unwrap(), 10);
        append_garbage(&p, &[1, 2, 3]).unwrap();
        assert_eq!(fs::metadata(&p).unwrap().len(), 13);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_rotation_duplicates_the_final_sequence() {
        let dir = tmp("halfrot");
        let cfg = StoreConfig {
            fsync: false,
            ..StoreConfig::default()
        };
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        for i in 0..4 {
            store
                .append_batch(&[UpdateOp::Insert(NodeId(0), i)])
                .unwrap();
        }
        drop(store);
        let dup = half_rotate_last_segment(&dir).unwrap().unwrap();
        assert!(dup.ends_with("wal-00000000000000000004.fcw"), "{dup:?}");
        // Replay applies each sequence exactly once.
        let stats = crate::wal::replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap();
        assert_eq!(stats.records_applied, 4);
        assert_eq!(stats.records_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_marker_lands_at_the_next_sequence() {
        let dir = tmp("marker");
        let store = Store::<i64>::open(&dir, StoreConfig::default()).unwrap();
        store
            .append_batch(&[UpdateOp::Insert(NodeId(0), 1)])
            .unwrap();
        drop(store);
        assert_eq!(append_legacy_marker::<i64>(&dir, 5).unwrap(), 2);
        let stats = crate::wal::replay::<i64, _>(&dir, 0, |_, _| Ok(())).unwrap();
        assert_eq!((stats.records_applied, stats.markers), (2, 1));
        let _ = fs::remove_dir_all(&dir);
    }
}
