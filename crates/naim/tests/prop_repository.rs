//! Property tests over repository corruption: a `repo.naim` truncated
//! or bit-flipped at an *arbitrary* offset either opens (possibly with
//! recovery) or reports a typed corruption error — it never panics,
//! and a record that still resolves either fetches its original bytes
//! or fails with a typed error. No path may serve silently wrong data.

use cmo_naim::{ContentHash, MemStorage, NaimError, Repository, Storage};
use proptest::prelude::*;
use std::sync::Arc;

const REPO: &str = "repo.naim";

/// The payloads baked into the baseline file, index-flushed so both
/// the footer fast path and the scan path get exercised depending on
/// where the mutation lands.
fn payloads() -> Vec<Vec<u8>> {
    (0u8..6)
        .map(|i| {
            (0..40 + usize::from(i) * 17)
                .map(|j| (j as u8).wrapping_mul(31).wrapping_add(i))
                .collect()
        })
        .collect()
}

/// A well-formed repository image containing [`payloads`].
fn baseline() -> Vec<u8> {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let mut repo = Repository::create(Arc::clone(&storage), REPO).unwrap();
    for p in payloads() {
        repo.store(&p).unwrap();
    }
    repo.flush_index().unwrap();
    drop(repo);
    storage.read(REPO).unwrap()
}

/// Opens a repository over the given (possibly mutilated) bytes.
fn reopen(bytes: &[u8]) -> Result<Repository, NaimError> {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    storage.write(REPO, bytes).unwrap();
    Repository::open(storage, REPO)
}

/// The post-corruption contract: open recovers or fails typed; every
/// payload that still resolves fetches its original bytes or fails
/// typed. Anything else (a panic, an untyped error, wrong bytes) is a
/// bug.
fn assert_contract(bytes: &[u8]) {
    match reopen(bytes) {
        Ok(mut repo) => {
            for p in payloads() {
                let Some(handle) = repo.lookup(ContentHash::of(&p)) else {
                    continue; // lost to truncation/recovery: acceptable
                };
                match repo.fetch_ref(handle).map(<[u8]>::to_vec) {
                    Ok(back) => assert_eq!(back, p, "fetch served corrupted bytes as good"),
                    Err(e) => assert!(
                        e.is_corruption() || matches!(e, NaimError::Repository(_)),
                        "untyped fetch error: {e:?}"
                    ),
                }
            }
        }
        Err(e) => assert!(
            e.is_corruption() || matches!(e, NaimError::Repository(_)),
            "untyped open error: {e:?}"
        ),
    }
}

proptest! {
    #[test]
    fn truncation_at_any_offset_recovers_or_reports(cut in any::<u32>()) {
        let base = baseline();
        let cut = cut as usize % (base.len() + 1);
        assert_contract(&base[..cut]);
    }

    #[test]
    fn bit_flip_at_any_offset_recovers_or_reports(pos in any::<u32>(), bit in 0u8..8) {
        let mut base = baseline();
        let pos = pos as usize % base.len();
        base[pos] ^= 1 << bit;
        assert_contract(&base);
    }

    #[test]
    fn garbage_tail_of_any_length_recovers_or_reports(
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut base = baseline();
        base.extend_from_slice(&tail);
        assert_contract(&base);
    }
}
