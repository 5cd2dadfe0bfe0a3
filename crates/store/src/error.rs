//! Typed durability errors.
//!
//! The store extends the workspace's correctness contract to disk: a
//! recovery either reproduces the acknowledged catalogs or returns one of
//! these errors — corrupted bytes must never surface as a silently-wrong
//! answer, and the recovery path must never panic on them (enforced by
//! `cargo xtask lint` over `wal.rs` / `snapshot.rs` / `recover.rs`).

use std::path::PathBuf;

/// Everything that can go wrong between the bytes on disk and a served
/// generation.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing (`"open"`, `"rename"`, `"fsync"`, ...).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file's format version is newer than this build understands.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version found on disk.
        version: u32,
    },
    /// The file encodes keys of a different width than the requested key
    /// type (e.g. an `i32` store opened as `i64`).
    KeyWidthMismatch {
        /// The offending file.
        path: PathBuf,
        /// Width of the requested key type, in bytes.
        expected: u32,
        /// Width recorded on disk.
        found: u32,
    },
    /// A section's CRC-32 does not match its bytes (bit flip, partial
    /// overwrite).
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// Which section failed (`"header"`, `"parents"`, `"keys"`, ...).
        section: &'static str,
    },
    /// The file ends before a section it promised (and the context rules
    /// out a legal torn tail — torn WAL tails are truncated, not errored).
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// The section that was cut short.
        section: &'static str,
    },
    /// The snapshot's checksums pass but its content cannot form a valid
    /// catalog tree (bad parent order, non-increasing catalog, ...).
    SnapshotInvalid {
        /// The offending file.
        path: PathBuf,
        /// Human-readable violation.
        reason: String,
    },
    /// A WAL record is corrupt in a position where torn-tail truncation is
    /// not a sound explanation (mid-segment bad CRC, impossible sequence
    /// number, undecodable op).
    WalCorrupt {
        /// The offending segment.
        path: PathBuf,
        /// Byte offset of the corrupt record frame.
        offset: u64,
        /// What was wrong.
        reason: &'static str,
    },
    /// The WAL is missing records: the next segment on disk starts past
    /// the highest sequence number recovered so far.
    MissingSegment {
        /// The last sequence number accounted for; `after_seq + 1` is the
        /// first missing record.
        after_seq: u64,
    },
    /// A WAL record decoded cleanly (framing and CRC pass) but names an op
    /// the recovered tree cannot accept — a node outside the tree or a
    /// supremum key. Applying it would panic inside
    /// `CatalogTree::apply_batch`, so recovery refuses with this instead.
    InvalidOp {
        /// Sequence number of the offending record.
        seq: u64,
        /// What was wrong with the op.
        reason: &'static str,
    },
    /// A WAL append failed and its segment could not be cut back to the
    /// last acknowledged record, so the writer refuses every later append
    /// rather than write after a possibly damaged frame.
    WalWedged {
        /// The segment that could not be cut back.
        path: PathBuf,
    },
    /// No snapshot file in the store directory parsed as valid.
    NoSnapshot {
        /// Snapshot files that were found but rejected as corrupt.
        corrupt: usize,
    },
    /// The cluster manifest is unreadable or inconsistent with the shard
    /// data on disk.
    ManifestInvalid {
        /// Human-readable violation.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "io error during {op} on {}: {source}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "bad magic in {}", path.display())
            }
            StoreError::UnsupportedVersion { path, version } => {
                write!(
                    f,
                    "unsupported format version {version} in {}",
                    path.display()
                )
            }
            StoreError::KeyWidthMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "key width mismatch in {}: expected {expected} bytes, found {found}",
                path.display()
            ),
            StoreError::ChecksumMismatch { path, section } => {
                write!(f, "checksum mismatch in {} ({section})", path.display())
            }
            StoreError::Truncated { path, section } => {
                write!(f, "{} truncated mid-{section}", path.display())
            }
            StoreError::SnapshotInvalid { path, reason } => {
                write!(f, "invalid snapshot {}: {reason}", path.display())
            }
            StoreError::WalCorrupt {
                path,
                offset,
                reason,
            } => write!(
                f,
                "corrupt WAL record in {} at byte {offset}: {reason}",
                path.display()
            ),
            StoreError::MissingSegment { after_seq } => {
                write!(f, "WAL is missing records after sequence {after_seq}")
            }
            StoreError::InvalidOp { seq, reason } => {
                write!(f, "WAL record {seq} holds an inapplicable op: {reason}")
            }
            StoreError::WalWedged { path } => write!(
                f,
                "WAL writer refuses appends: {} could not be cut back after a failed append",
                path.display()
            ),
            StoreError::NoSnapshot { corrupt } => {
                write!(
                    f,
                    "no valid snapshot found ({corrupt} corrupt candidate(s))"
                )
            }
            StoreError::ManifestInvalid { reason } => {
                write!(f, "invalid cluster manifest: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Helper: wrap an `io::Error` with its operation and path.
    pub fn io(op: &'static str, path: &std::path::Path, source: std::io::Error) -> Self {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::MissingSegment { after_seq: 41 };
        assert!(format!("{e}").contains("41"));
        let e = StoreError::InvalidOp {
            seq: 9,
            reason: "op stores the supremum key",
        };
        let msg = format!("{e}");
        assert!(msg.contains('9') && msg.contains("supremum"), "{msg}");
    }
}
