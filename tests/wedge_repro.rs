// Scenario: crash right after segment rotation wrote the header (or the
// first record of the new segment was torn). On reopen, the writer's
// next_seq equals the header-only segment's start_seq; first append tries
// create_new on the same file name.
use fc_catalog::{NodeId, UpdateOp};
use fc_store::{Store, StoreConfig};
use std::fs;

#[test]
fn reopen_after_header_only_tail_can_append() {
    let dir = std::env::temp_dir().join(format!("wedge-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let cfg = StoreConfig {
        segment_bytes: 64,
        fsync: false,
        keep_snapshots: 2,
    };
    {
        let store = Store::<i64>::open(&dir, cfg).unwrap();
        for i in 0..3 {
            store
                .append_batch(&[UpdateOp::Insert(NodeId(0), i)])
                .unwrap();
        }
    }
    // Truncate the last segment down to just its header: the torn first
    // record of a freshly rotated segment.
    let segs = fc_store::fault::wal_segments(&dir).unwrap();
    let last = segs.last().unwrap();
    let len = fs::metadata(last).unwrap().len();
    fc_store::fault::truncate_tail(last, len - 28).unwrap();

    let store = Store::<i64>::open(&dir, cfg).unwrap();
    let r = store.append_batch(&[UpdateOp::Insert(NodeId(0), 99)]);
    assert!(r.is_ok(), "append after reopen failed: {:?}", r.err());
    let _ = fs::remove_dir_all(&dir);
}
