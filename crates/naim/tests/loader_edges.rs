//! Eviction-edge tests for the loader's zero-copy fetch path: arena
//! recycling after LRU eviction waves, and fetch-after-evict of a
//! record that was corrupted on disk and then restored.

use cmo_naim::{
    DecodeError, Decoder, DiskStorage, Encoder, Loader, NaimConfig, PoolKind, PoolState,
    Relocatable, Repository, Storage,
};
use cmo_telemetry::Telemetry;
use std::sync::Arc;

#[derive(Clone, Debug, PartialEq)]
struct Blob {
    payload: Vec<u64>,
}

impl Blob {
    fn of(seed: u64, len: usize) -> Self {
        Blob {
            payload: (0..len as u64).map(|i| seed * 1_000_003 + i).collect(),
        }
    }
}

impl Relocatable for Blob {
    fn compact(&self, enc: &mut Encoder) {
        enc.write_u64(self.payload.len() as u64);
        for &v in &self.payload {
            enc.write_u64(v);
        }
    }
    fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.read_u64()? as usize;
        let mut payload = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            payload.push(dec.read_u64()?);
        }
        Ok(Blob { payload })
    }
    fn expanded_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.payload.capacity() * 8
    }
}

/// After an LRU eviction wave offloads pools and later fetches bring
/// them back, the enforcement sweep that follows returns the fetch
/// arena to the allocator: `arena` trace events appear, no fetch is
/// served from a storage view (the in-memory repository maps nothing),
/// and the served-byte counter is back at zero once the last sweep
/// ends.
#[test]
fn arena_recycles_after_lru_eviction() {
    let tel = Telemetry::enabled();
    let mut loader: Loader<Blob> = Loader::new(NaimConfig::with_budget(2048));
    loader.set_telemetry(tel.clone());

    // Pressure far past the budget: every unload triggers a sweep and
    // the tail of the LRU is offloaded to the repository.
    let ids: Vec<_> = (0..48)
        .map(|i| {
            let id = loader.insert(Blob::of(i, 300), PoolKind::Ir);
            loader.unload(id).expect("unload");
            id
        })
        .collect();
    assert!(
        loader.stats().offload_writes > 0,
        "pressure never offloaded"
    );

    // Rehydrate everything; each fetch reads its record into the arena
    // and is charged to the fetch work clock.
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(loader.get(id).expect("get"), &Blob::of(i as u64, 300));
        loader.unload(id).expect("unload again");
    }
    let stats = loader.stats();
    assert!(stats.offload_reads > 0, "nothing was fetched back");
    assert!(stats.fetch_work_units > 0, "fetches were not charged");
    assert!(
        stats.fetch_work_units < stats.work_units,
        "fetch work is a component of total work"
    );

    // The final unload ran an enforcement sweep, so whatever the last
    // fetches accumulated has been recycled.
    assert_eq!(loader.repository().arena_served(), 0);
    assert_eq!(loader.repository().stats().zero_copy_reads, 0);

    let trace = tel.render_trace();
    assert!(
        trace.contains("\"event\":\"arena\",\"action\":\"recycle\""),
        "no arena recycle event in trace"
    );
    assert!(
        !trace.contains("\"event\":\"mmap\""),
        "no fetch announces a mapping"
    );
}

/// A record corrupted on disk after eviction fails its CRC on fetch —
/// typed error, no stats movement — and fetches cleanly once the
/// original byte is restored.
#[test]
fn fetch_after_evict_of_corrupt_then_restored_record() {
    let dir = std::env::temp_dir().join(format!("cmo-loader-edges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let repo_path = dir.join("repo.naim");
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(&dir).expect("open storage"));
    let repo = Repository::create(storage, "repo.naim").expect("create repo");

    // A budget so small every compacted pool is pushed to disk.
    let config = NaimConfig::with_budget(16);
    let mut loader: Loader<Blob> = Loader::with_repository(config, repo);
    let victim_blob = Blob::of(3, 300);
    let ids: Vec<_> = (0..8)
        .map(|i| {
            let id = loader.insert(Blob::of(i, 300), PoolKind::Ir);
            loader.unload(id).expect("unload");
            id
        })
        .collect();
    let victim = ids[3];
    assert_eq!(loader.state(victim), PoolState::Offloaded);

    // Locate the victim's image inside the repository file by its
    // encoded bytes, and flip one byte in the middle of the payload.
    let mut enc = Encoder::new();
    victim_blob.compact(&mut enc);
    let image = enc.into_bytes();
    let file = std::fs::read(&repo_path).expect("read repo file");
    let at = file
        .windows(image.len())
        .position(|w| w == image.as_slice())
        .expect("victim image not found in repository file");
    let flip = at + image.len() / 2;
    let original = file[flip];
    let write_byte = |b: u8| {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&repo_path)
            .expect("open for corruption");
        f.seek(SeekFrom::Start(flip as u64)).expect("seek");
        f.write_all(&[b]).expect("write");
    };
    write_byte(original ^ 0xFF);

    let reads_before = loader.repository().stats().reads;
    let err = loader
        .get(victim)
        .expect_err("corrupt record must not decode");
    assert!(
        format!("{err}").to_lowercase().contains("checksum")
            || format!("{err:?}").contains("Checksum"),
        "unexpected error for corrupt record: {err}"
    );
    assert_eq!(
        loader.state(victim),
        PoolState::Offloaded,
        "slot must stay offloaded"
    );
    assert_eq!(
        loader.repository().stats().reads,
        reads_before,
        "a failed fetch must not count as a read"
    );

    // Restore the byte: the very same handle now fetches cleanly.
    write_byte(original);
    assert_eq!(loader.get(victim).expect("restored fetch"), &victim_blob);

    let _ = std::fs::remove_dir_all(&dir);
}
