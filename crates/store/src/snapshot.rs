//! The versioned, checksummed generation snapshot format.
//!
//! A snapshot is one published generation's full logical state — the
//! catalog tree, flattened into three fixed-layout sections — plus the WAL
//! sequence number it is current through (`wal_watermark`), so recovery
//! knows exactly which log records are already baked in.
//!
//! ## Layout (format 1, all integers little-endian)
//!
//! ```text
//! magic        8B  "FCSNAP01"
//! format       u32
//! key_width    u32  bytes per key (must match the opening key type)
//! node_count   u64
//! total_keys   u64
//! logical_gen  u64  logical generation of the persisted catalogs
//! wal_watermark u64 highest WAL seq reflected in the catalogs
//! header_crc   u32  CRC-32 of the 48 header bytes above
//! parents      node_count × u32   (u32::MAX = root)          + u32 CRC
//! lens         node_count × u32   per-node catalog lengths   + u32 CRC
//! keys         total_keys × key_width, node-major             + u32 CRC
//! ```
//!
//! Files are named `snap-<id>.fcs` with a zero-padded store-monotone id
//! (ids only grow, so "newest" is a filename sort, not an mtime race) and
//! written via temp-file + fsync + atomic rename ([`crate::frame`]).
//!
//! Reading **re-validates everything**: magic, version, key width, every
//! section CRC, then the tree's structure through
//! [`CatalogTree::try_from_parents`] (exactly one root, parents precede
//! children, strictly increasing catalogs below the supremum) and a fan-out
//! of at most two, each violation a typed [`StoreError`]. This file is in
//! the `cargo xtask lint` panic-free/index-free scope up to its tests.

use crate::codec::{crc32, KeyCodec};
use crate::error::StoreError;
use crate::frame::{atomic_write, Reader};
use fc_catalog::{CatalogKey, CatalogTree};
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"FCSNAP01";
const FORMAT: u32 = 1;
/// Header bytes covered by `header_crc`.
const HEADER_LEN: usize = 48;

/// A decoded snapshot: the reconstructed tree plus its provenance.
#[derive(Debug, Clone)]
pub struct SnapshotData<K: CatalogKey> {
    /// The catalog tree exactly as persisted.
    pub tree: CatalogTree<K>,
    /// Logical generation of the persisted catalogs: the writer's
    /// published generation when the snapshot was cut.
    pub logical_gen: u64,
    /// Highest WAL sequence number whose effects the tree includes;
    /// recovery replays strictly newer records only.
    pub wal_watermark: u64,
}

/// File name for snapshot id `id` (zero-padded so lexicographic order is
/// numeric order).
pub(crate) fn snap_file_name(id: u64) -> String {
    format!("snap-{id:020}.fcs")
}

/// Parse a snapshot id back out of a file name.
pub(crate) fn parse_snap_id(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".fcs")?
        .parse()
        .ok()
}

/// Serialize `tree` in the format described in the module docs.
pub fn encode_snapshot<K: CatalogKey + KeyCodec>(
    tree: &CatalogTree<K>,
    logical_gen: u64,
    wal_watermark: u64,
) -> Vec<u8> {
    let parents: Vec<u32> = tree
        .ids()
        .map(|id| tree.parent(id).map_or(u32::MAX, |p| p.0))
        .collect();
    let lens: Vec<u32> = tree.ids().map(|id| tree.catalog(id).len() as u32).collect();
    // The tree stores all catalogs node-major in one flat array — the keys
    // section is that array.
    encode_sections(
        &parents,
        &lens,
        tree.catalog_flat(),
        logical_gen,
        wal_watermark,
    )
}

/// Frame raw `parents` (`u32::MAX` = root), per-node catalog `lens` and
/// node-major `keys` as a snapshot, checking nothing about them.
fn encode_sections<K: KeyCodec>(
    parents: &[u32],
    lens: &[u32],
    keys: &[K],
    logical_gen: u64,
    wal_watermark: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&K::WIDTH.to_le_bytes());
    out.extend_from_slice(&(parents.len() as u64).to_le_bytes());
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    out.extend_from_slice(&logical_gen.to_le_bytes());
    out.extend_from_slice(&wal_watermark.to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());

    let mut sec: Vec<u8> = Vec::new();
    for p in parents {
        sec.extend_from_slice(&p.to_le_bytes());
    }
    out.extend_from_slice(&sec);
    out.extend_from_slice(&crc32(&sec).to_le_bytes());

    sec.clear();
    for len in lens {
        sec.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&sec);
    out.extend_from_slice(&crc32(&sec).to_le_bytes());

    sec.clear();
    for k in keys {
        k.encode_key(&mut sec);
    }
    out.extend_from_slice(&sec);
    out.extend_from_slice(&crc32(&sec).to_le_bytes());
    out
}

fn truncated(path: &Path, section: &'static str) -> StoreError {
    StoreError::Truncated {
        path: path.to_path_buf(),
        section,
    }
}

fn invalid(path: &Path, reason: impl Into<String>) -> StoreError {
    StoreError::SnapshotInvalid {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Decode and fully validate a snapshot (see module docs): a structural
/// violation is [`StoreError::SnapshotInvalid`], never a panic.
pub fn decode_snapshot<K: CatalogKey + KeyCodec>(
    path: &Path,
    bytes: &[u8],
) -> Result<SnapshotData<K>, StoreError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8).ok_or_else(|| truncated(path, "header"))?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let format = r.u32().ok_or_else(|| truncated(path, "header"))?;
    if format != FORMAT {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            version: format,
        });
    }
    let width = r.u32().ok_or_else(|| truncated(path, "header"))?;
    if width != K::WIDTH {
        return Err(StoreError::KeyWidthMismatch {
            path: path.to_path_buf(),
            expected: K::WIDTH,
            found: width,
        });
    }
    let node_count = r.u64().ok_or_else(|| truncated(path, "header"))?;
    let total_keys = r.u64().ok_or_else(|| truncated(path, "header"))?;
    let logical_gen = r.u64().ok_or_else(|| truncated(path, "header"))?;
    let wal_watermark = r.u64().ok_or_else(|| truncated(path, "header"))?;
    let header_crc = r.u32().ok_or_else(|| truncated(path, "header"))?;
    let header = bytes
        .get(..HEADER_LEN)
        .ok_or_else(|| truncated(path, "header"))?;
    if crc32(header) != header_crc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
            section: "header",
        });
    }

    let nc = usize::try_from(node_count)
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| invalid(path, format!("node_count {node_count} unusable")))?;
    let tk = usize::try_from(total_keys)
        .ok()
        .ok_or_else(|| invalid(path, "total_keys overflows usize"))?;
    let parents_len = nc
        .checked_mul(4)
        .ok_or_else(|| invalid(path, "parents section overflows"))?;
    let keys_len = tk
        .checked_mul(width as usize)
        .ok_or_else(|| invalid(path, "keys section overflows"))?;
    let expected = parents_len
        .checked_add(parents_len) // lens section is the same size as parents
        .and_then(|v| v.checked_add(keys_len))
        .and_then(|v| v.checked_add(12)) // three section CRCs
        .ok_or_else(|| invalid(path, "section sizes overflow"))?;
    if r.remaining() < expected {
        return Err(truncated(path, "sections"));
    }
    if r.remaining() > expected {
        return Err(invalid(path, "trailing bytes after last section"));
    }

    let psec = r
        .take(parents_len)
        .ok_or_else(|| truncated(path, "parents"))?;
    let pcrc = r.u32().ok_or_else(|| truncated(path, "parents"))?;
    if crc32(psec) != pcrc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
            section: "parents",
        });
    }
    let lsec = r.take(parents_len).ok_or_else(|| truncated(path, "lens"))?;
    let lcrc = r.u32().ok_or_else(|| truncated(path, "lens"))?;
    if crc32(lsec) != lcrc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
            section: "lens",
        });
    }
    let ksec = r.take(keys_len).ok_or_else(|| truncated(path, "keys"))?;
    let kcrc = r.u32().ok_or_else(|| truncated(path, "keys"))?;
    if crc32(ksec) != kcrc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
            section: "keys",
        });
    }

    // Checksums pass: decode the sections and let the tree builder judge
    // their structure with a typed error.
    let parents: Vec<Option<u32>> = read_u32s(psec, nc)
        .ok_or_else(|| invalid(path, "parents undecodable"))?
        .into_iter()
        .map(|p| (p != u32::MAX).then_some(p))
        .collect();
    let lens = read_u32s(lsec, nc).ok_or_else(|| invalid(path, "lens undecodable"))?;
    let lens_sum: u64 = lens.iter().map(|&l| l as u64).sum();
    if lens_sum != total_keys {
        return Err(invalid(
            path,
            format!("catalog lengths sum to {lens_sum}, header says {total_keys}"),
        ));
    }
    let mut kr = Reader::new(ksec);
    let mut catalogs: Vec<Vec<K>> = Vec::with_capacity(nc);
    for &len in &lens {
        let mut cat: Vec<K> = Vec::with_capacity(len as usize);
        for _ in 0..len {
            let kb = kr
                .take(K::WIDTH as usize)
                .ok_or_else(|| truncated(path, "keys"))?;
            cat.push(K::decode_key(kb).ok_or_else(|| invalid(path, "key undecodable"))?);
        }
        catalogs.push(cat);
    }
    let tree = CatalogTree::try_from_parents(parents, catalogs)
        .map_err(|e| invalid(path, e.to_string()))?;
    // The serving stack preprocesses binary trees only (higher degrees are
    // binarized before they reach a service); a wider fan-out would panic
    // inside preprocess.
    if let Some(wide) = tree.ids().find(|&id| tree.children(id).len() > 2) {
        return Err(invalid(
            path,
            format!("node {} has more than two children", wide.0),
        ));
    }
    Ok(SnapshotData {
        tree,
        logical_gen,
        wal_watermark,
    })
}

fn read_u32s(sec: &[u8], n: usize) -> Option<Vec<u32>> {
    let mut r = Reader::new(sec);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Some(out)
}

/// Encode and atomically persist a snapshot as `snap-<id>.fcs` in `dir`.
/// Returns the final path.
pub fn write_snapshot_file<K: CatalogKey + KeyCodec>(
    dir: &Path,
    snap_id: u64,
    tree: &CatalogTree<K>,
    logical_gen: u64,
    wal_watermark: u64,
    fsync: bool,
) -> Result<PathBuf, StoreError> {
    let bytes = encode_snapshot(tree, logical_gen, wal_watermark);
    let path = dir.join(snap_file_name(snap_id));
    atomic_write(&path, &bytes, fsync)?;
    Ok(path)
}

/// Read and fully validate one snapshot file.
pub fn read_snapshot_file<K: CatalogKey + KeyCodec>(
    path: &Path,
) -> Result<SnapshotData<K>, StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io("read", path, e))?;
    decode_snapshot(path, &bytes)
}

/// All snapshot files in `dir` as `(id, path)`, newest (highest id) first.
pub fn list_snapshot_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read_dir", dir, e))?;
    let mut out: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir, e))?;
        let name = entry.file_name();
        if let Some(id) = name.to_str().and_then(parse_snap_id) {
            out.push((id, entry.path()));
        }
    }
    out.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
    Ok(out)
}

/// Load the newest snapshot that validates end to end, skipping corrupt
/// newer ones (each skip is counted). Errors with the *newest* candidate's
/// failure when nothing validates, or [`StoreError::NoSnapshot`] when the
/// directory has no snapshot files at all.
pub fn load_newest_valid<K: CatalogKey + KeyCodec>(
    dir: &Path,
) -> Result<(u64, SnapshotData<K>, usize), StoreError> {
    let candidates = list_snapshot_files(dir)?;
    if candidates.is_empty() {
        return Err(StoreError::NoSnapshot { corrupt: 0 });
    }
    let mut first_err: Option<StoreError> = None;
    let mut skipped = 0usize;
    for (id, path) in &candidates {
        match read_snapshot_file::<K>(path) {
            Ok(data) => return Ok((*id, data, skipped)),
            Err(e) => {
                skipped += 1;
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    Err(first_err.unwrap_or(StoreError::NoSnapshot { corrupt: skipped }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_catalog::gen::{self, SizeDist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fc-store-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tree(seed: u64) -> CatalogTree<i64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        gen::balanced_binary(5, 900, SizeDist::Uniform, &mut rng)
    }

    fn trees_equal(a: &CatalogTree<i64>, b: &CatalogTree<i64>) -> bool {
        a.len() == b.len()
            && a.ids()
                .all(|id| a.parent(id) == b.parent(id) && a.catalog(id) == b.catalog(id))
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tmp("roundtrip");
        let t = tree(11);
        let path = write_snapshot_file(&dir, 7, &t, 3, 99, true).unwrap();
        let bytes1 = fs::read(&path).unwrap();
        let data = read_snapshot_file::<i64>(&path).unwrap();
        assert_eq!(data.logical_gen, 3);
        assert_eq!(data.wal_watermark, 99);
        assert!(trees_equal(&t, &data.tree));
        // Re-encoding the decoded tree reproduces the same bytes.
        let bytes2 = encode_snapshot(&data.tree, 3, 99);
        assert_eq!(bytes1, bytes2, "snapshot encoding is canonical");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_section_crc_catches_a_flip() {
        let dir = tmp("flips");
        let t = tree(13);
        let path = write_snapshot_file(&dir, 1, &t, 0, 0, false).unwrap();
        let clean = fs::read(&path).unwrap();
        // Flip one byte in each structural region and expect a typed error.
        for &off in &[9usize, 20, HEADER_LEN + 2, clean.len() - 6] {
            let mut bad = clean.clone();
            bad[off] ^= 0x40;
            let err = decode_snapshot::<i64>(&path, &bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::UnsupportedVersion { .. }
                        | StoreError::KeyWidthMismatch { .. }
                        | StoreError::SnapshotInvalid { .. }
                        | StoreError::Truncated { .. }
                ),
                "offset {off}: {err}"
            );
        }
        // Magic flip is its own error.
        let mut bad = clean.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot::<i64>(&path, &bad).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A snapshot whose CRCs all pass but whose content is no valid tree.
    fn framed(parents: &[u32], catalogs: &[Vec<i64>]) -> Vec<u8> {
        let lens: Vec<u32> = catalogs.iter().map(|c| c.len() as u32).collect();
        encode_sections(parents, &lens, &catalogs.concat(), 0, 0)
    }

    /// Each structural violation, behind valid CRCs, is a typed
    /// `SnapshotInvalid` from the decoder and from recovery, never a panic.
    #[test]
    fn structural_violations_behind_valid_crcs_are_typed() {
        const ROOT: u32 = u32::MAX;
        let cats = |root: Vec<i64>| vec![root, vec![30, 40], vec![50, 60]];
        let path = Path::new("structural.fcs");
        let valid = framed(&[ROOT, 0, 0], &cats(vec![10, 20]));
        assert_eq!(decode_snapshot::<i64>(path, &valid).unwrap().tree.len(), 3);
        let cases: [(&str, Vec<u8>); 7] = [
            (
                "descending pair",
                framed(&[ROOT, 0, 0], &cats(vec![20, 10])),
            ),
            ("duplicate key", framed(&[ROOT, 0, 0], &cats(vec![10, 10]))),
            (
                "supremum key",
                framed(&[ROOT, 0, 0], &cats(vec![10, i64::SUPREMUM])),
            ),
            ("two roots", framed(&[ROOT, ROOT, 0], &cats(vec![10, 20]))),
            ("no root", framed(&[0, 0, 0], &cats(vec![10, 20]))),
            (
                "parent after its child",
                framed(&[ROOT, 2, 0], &cats(vec![10, 20])),
            ),
            (
                "third child",
                framed(&[ROOT, 0, 0, 0], &[vec![10], vec![20], vec![30], vec![40]]),
            ),
        ];
        for (what, bytes) in &cases {
            let err = decode_snapshot::<i64>(path, bytes).unwrap_err();
            assert!(
                matches!(err, StoreError::SnapshotInvalid { .. }),
                "{what}: {err}"
            );
        }
        // Recovery refuses the same bytes with the same typed error.
        let dir = tmp("structural");
        fs::write(dir.join(snap_file_name(1)), &cases[0].1).unwrap();
        let err = crate::recover::<i64>(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::SnapshotInvalid { reason, .. }
                if reason.contains("strictly increasing")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_width_is_typed() {
        let dir = tmp("width");
        let t = tree(15);
        let path = write_snapshot_file(&dir, 1, &t, 0, 0, false).unwrap();
        let err = read_snapshot_file::<i32>(&path).unwrap_err();
        assert!(matches!(
            err,
            StoreError::KeyWidthMismatch {
                expected: 4,
                found: 8,
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_skips_corrupt_newer_snapshots() {
        let dir = tmp("newest");
        let t = tree(17);
        write_snapshot_file(&dir, 1, &t, 1, 10, false).unwrap();
        let newer = write_snapshot_file(&dir, 2, &t, 2, 20, false).unwrap();
        // Corrupt the newer one.
        let mut bytes = fs::read(&newer).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newer, bytes).unwrap();
        let (id, data, skipped) = load_newest_valid::<i64>(&dir).unwrap();
        assert_eq!((id, skipped), (1, 1));
        assert_eq!(data.wal_watermark, 10);
        // Corrupt both: the newest candidate's typed error comes back.
        let older = dir.join(snap_file_name(1));
        let mut bytes = fs::read(&older).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&older, bytes).unwrap();
        assert!(load_newest_valid::<i64>(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_no_snapshot() {
        let dir = tmp("empty");
        assert!(matches!(
            load_newest_valid::<i64>(&dir).unwrap_err(),
            StoreError::NoSnapshot { corrupt: 0 }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_ids_sort_numerically() {
        assert_eq!(parse_snap_id(&snap_file_name(7)), Some(7));
        assert_eq!(parse_snap_id("snap-x.fcs"), None);
        assert!(snap_file_name(9) < snap_file_name(10), "zero padding");
    }
}
