// expect: lock-order
//
// Acquires `ingest` (rank 1) while a `sources` guard (rank 2) is still
// held; the declared partial order is
// persist -> ingest -> sources -> shards -> registry.

use std::sync::{Mutex, RwLock};

pub struct Store {
    ingest: Mutex<u64>,
    sources: RwLock<Vec<String>>,
}

impl Store {
    pub fn inverted(&self) -> usize {
        let sources = self.sources.read_locked();
        let seq = self.ingest.locked();
        sources.len() + *seq as usize
    }
}
