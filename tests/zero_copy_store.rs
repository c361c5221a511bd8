//! Zero-copy invariants of the Arc-backed blob store and action cache.
//!
//! The tier-1 byte-identity properties (parallel vs serial, warm vs cold) live in
//! `property_pipeline.rs`; this file checks the *mechanism* behind them: handles
//! returned by the store and the cache share one allocation (proved by pointer
//! identity, not just byte equality), digest-known insertion never re-hashes, and
//! a store raced by many writers stores and hashes a payload exactly once.

use proptest::prelude::*;
use xaas_container::digest::Digest;
use xaas_container::{ActionCache, Blob, BuildKey, CacheBackend, ImageStore, TryBegin};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `blob()` handle shares the allocation inserted by `put_blob`, and a
    /// digest-known re-insertion dedups without computing a digest.
    #[test]
    fn store_handles_share_one_allocation(
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let store = ImageStore::new();
        let stored = Blob::new(payload.clone());
        let digest = store.put_blob(stored.clone());
        prop_assert_eq!(store.digests_computed(), 1);

        let first = store.blob(&digest).unwrap();
        let second = store.blob(&digest).unwrap();
        prop_assert!(Blob::ptr_eq(&first, &stored), "handle aliases the inserted allocation");
        prop_assert!(Blob::ptr_eq(&first, &second), "repeated reads alias each other");

        // Re-inserting under the known digest neither hashes nor stores again.
        store.put_blob_with_digest(digest.clone(), payload.clone());
        prop_assert_eq!(store.digests_computed(), 1);
        prop_assert_eq!(store.blob_count(), 1);
        prop_assert_eq!(store.stats().dedup_hits, 1);
        prop_assert!(Blob::ptr_eq(&store.blob(&digest).unwrap(), &stored));
    }

    /// Warm and cold cache lookups hand every consumer the store's allocation:
    /// the miss return value, the hit return value, and `peek` are all the same
    /// `Arc`, and the bytes match what the flight owner completed with.
    #[test]
    fn cache_misses_and_hits_alias_the_stored_blob(
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
        key_name in "[a-z]{1,12}",
    ) {
        let cache = ActionCache::new(ImageStore::new());
        let key = BuildKey::new(&key_name, "xir.ir", "-O3", "xirc-1");
        let cold = match cache.try_begin(&key) {
            TryBegin::Owner(ticket) => cache.complete(ticket, payload.clone()),
            other => panic!("a fresh key is a miss, got {other:?}"),
        };
        let warm = match cache.try_begin(&key) {
            TryBegin::Hit(blob, _, _) => blob,
            other => panic!("a completed key is a hit, got {other:?}"),
        };
        let peeked = cache.peek(&key).unwrap();
        let stored = cache
            .store()
            .blob(&Digest::of_bytes(&payload))
            .unwrap();
        prop_assert_eq!(&cold, &payload);
        prop_assert!(Blob::ptr_eq(&cold, &stored), "miss returns the stored handle");
        prop_assert!(Blob::ptr_eq(&warm, &stored), "hit returns the stored handle");
        prop_assert!(Blob::ptr_eq(&peeked, &stored), "peek returns the stored handle");
    }
}

/// Many writers racing the same payload — one plain `put_blob` plus digest-known
/// insertions from every other thread — leave exactly one stored blob and exactly
/// one digest computation, and every handle aliases that single allocation.
#[test]
fn concurrent_writers_store_and_hash_a_payload_exactly_once() {
    const WRITERS: usize = 8;
    const ROUNDS: usize = 25;
    for round in 0..ROUNDS {
        let store = ImageStore::new();
        let payload: Vec<u8> = (0..4096).map(|i| ((i + round) % 251) as u8).collect();
        let digest = Digest::of_bytes(&payload);
        let handles: Vec<Blob> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..WRITERS)
                .map(|writer| {
                    let store = &store;
                    let payload = &payload;
                    let digest = digest.clone();
                    scope.spawn(move || {
                        let stored = if writer == 0 {
                            store.put_blob(payload.clone())
                        } else {
                            store.put_blob_with_digest(digest, payload.clone())
                        };
                        store.blob(&stored).unwrap()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(store.blob_count(), 1, "stored once");
        assert_eq!(store.digests_computed(), 1, "hashed once");
        assert_eq!(store.stats().dedup_hits as usize, WRITERS - 1);
        assert_eq!(
            store.stats().dedup_bytes as usize,
            (WRITERS - 1) * payload.len()
        );
        let winner = store.blob(&digest).unwrap();
        for handle in &handles {
            assert_eq!(handle, &winner);
            assert!(
                Blob::ptr_eq(handle, &winner),
                "every racer ends up holding the surviving allocation"
            );
        }
    }
}

/// The deployment tail copies no layer: the deployed layer's sealed archive is the
/// very allocation the action cache holds for the deployment's keyed Link, on the
/// cold deployment that links it and on the warm one that is served it (and
/// decodes none of it), its object files are the bytes the cache holds for each
/// unit's lowered module, and the layers the deployment inherits are the IR
/// container's own sealed layers.
#[test]
fn deployed_layers_alias_the_link_cache_entry() {
    use xaas::engine::plan::MachineLower;
    use xaas::engine::{Action, ActionKind};
    use xaas::prelude::*;
    use xaas_buildsys::OptionAssignment;
    use xaas_hpcsim::{SimdLevel, SystemModel};

    let project = xaas_apps::lulesh::project();
    let config = IrPipelineConfig::sweep_options(&project, &["WITH_OPENMP"]);
    let store = ImageStore::new();
    let cache = ActionCache::new(store.clone());
    let orch = Orchestrator::with_cache(&cache);
    let build = IrBuildRequest::new(&project, &config)
        .reference("zero-copy/lulesh:ir")
        .submit(&orch)
        .unwrap();
    let selection = project.complete(&OptionAssignment::new().with("WITH_OPENMP", "ON"));
    let manifest = build.manifest_for(&selection).unwrap();
    let target = target_isa_for(SimdLevel::Avx512);
    let system = SystemModel::ault23();

    for state in ["cold", "warm"] {
        let deployment = IrDeployRequest::new(&build, &project, &system)
            .selection(selection.clone())
            .simd(SimdLevel::Avx512)
            .submit(&orch)
            .unwrap();
        let (inherited, lowered) = deployment.image.layers.split_at(build.image.layers.len());
        for (derived, base) in inherited.iter().zip(&build.image.layers) {
            assert!(
                Blob::ptr_eq(derived.sealed().0, base.sealed().0),
                "{state}: inherited layers share the IR container's sealed archive"
            );
        }
        let link = deployment.trace.records.iter();
        let link = link
            .filter(|r| r.kind == ActionKind::Link)
            .collect::<Vec<_>>();
        assert_eq!(link.len(), 1, "{state}: one keyed Link");
        assert_eq!(
            link[0].cached,
            state == "warm",
            "{state}: a warm Link is a hit"
        );
        let hex = link[0].key_digest.as_deref().unwrap();
        let key = BuildKey::parse(&format!("sha256:{hex}")).unwrap();
        let entry = cache.peek(&key).expect("the deployed layer is cached");
        assert!(
            Blob::ptr_eq(lowered[0].sealed().0, &entry),
            "{state}: the deployed layer's archive is the Link's cache entry"
        );
        assert!(
            !lowered[0].is_decoded(),
            "{state}: the commit decoded nothing"
        );

        let mut checked = 0;
        for unit in &manifest.units {
            let Some(id) = unit.artifact.strip_prefix("ir:") else {
                continue;
            };
            let record = MachineLower {
                unit: &build.units[id],
                target: &target,
            };
            let artifact = cache
                .peek(&record.identity())
                .expect("the lowered module is cached");
            let object = format!("/xaas/obj/{}.o", unit.file.replace('/', "_"));
            let entry = lowered[0].get(&object);
            let entry = entry.unwrap_or_else(|| panic!("{state}: {object} is missing"));
            assert_eq!(entry.content, artifact, "{state}: {object} is the artifact");
            checked += 1;
        }
        assert!(checked > 0, "the configuration lowers IR units");
    }
}
