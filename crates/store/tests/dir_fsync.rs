//! A WAL segment's directory entry is made durable once, by the first
//! sync after the segment is created or opened, and a snapshot's once,
//! by the checkpoint that renames it into place. Alone in its test
//! binary so nothing else moves the process-global counter it reads.

use busprobe_store::{Store, StoreConfig};

fn dir_fsyncs() -> u64 {
    busprobe_telemetry::counter("busprobe_store_dir_fsyncs_total").get()
}

#[test]
fn directory_is_fsynced_once_per_new_segment() {
    let dir = std::env::temp_dir().join(format!("busprobe-dirsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        max_segment_bytes: 64,
    };
    let record = vec![7u8; 48];
    let mut store = Store::open_with(&dir, config).unwrap();
    let base = dir_fsyncs();

    store.append_group(std::slice::from_ref(&record)).unwrap();
    store.sync().unwrap();
    assert_eq!(
        dir_fsyncs() - base,
        1,
        "the first sync persists the new segment's entry"
    );

    store.sync().unwrap();
    assert_eq!(dir_fsyncs() - base, 1, "no new segment, no directory fsync");

    // The second record overflows the 64-byte segment: a rotation.
    store.append_group(std::slice::from_ref(&record)).unwrap();
    assert_eq!(busprobe_store::wal::list_segments(&dir).unwrap().len(), 2);
    store.sync().unwrap();
    assert_eq!(
        dir_fsyncs() - base,
        2,
        "a rotation's segment is persisted once"
    );
    store.sync().unwrap();
    assert_eq!(dir_fsyncs() - base, 2);

    // Reopening marks the active segment again: its entry may come from
    // a process that died before syncing the directory.
    drop(store);
    let mut store = Store::open_with(&dir, config).unwrap();
    store.sync().unwrap();
    assert_eq!(dir_fsyncs() - base, 3);

    // A checkpoint syncs the WAL (its segment is already persisted) and
    // renames a snapshot into place: exactly one directory fsync.
    store.checkpoint(b"state").unwrap();
    assert_eq!(
        dir_fsyncs() - base,
        4,
        "the snapshot's rename is persisted once"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
