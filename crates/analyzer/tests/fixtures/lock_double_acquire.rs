// expect: lock-double
//
// Re-acquires `ingest` while its guard is still bound — a self-deadlock
// on a non-reentrant mutex. `shards` is declared multi_instance, so this
// shape is only legal across distinct shard instances.

use std::sync::Mutex;

pub struct Store {
    ingest: Mutex<u64>,
}

impl Store {
    pub fn reentrant(&self) -> u64 {
        let first = self.ingest.locked();
        let second = self.ingest.locked();
        *first + *second
    }
}
