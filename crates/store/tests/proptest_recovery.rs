//! Corruption battery over the on-disk store format.
//!
//! The recovery contract under damage: opening a store directory whose
//! WAL/segment files have been truncated or bit-flipped either succeeds
//! — and then every recovered snapshot is byte-for-byte some version
//! that was group-committed for that stream, never a torn or invented
//! payload — or fails with a typed [`StoreError`]. It never panics.
//!
//! Two exhaustive sweeps (every truncation length, every single-byte
//! flip of every file) pin the deterministic core; a property test
//! layers randomized compound damage — several flips and a truncation
//! in one disk — on top.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hom_obs::Obs;
use hom_store::{MemIo, StoreError, StoreIo, StoreOptions, StreamStore};
use proptest::prelude::*;

const STREAMS: u64 = 4;
const COMMITS: u64 = 5;

/// Deterministic, version-tagged snapshot bytes: distinct across every
/// `(stream, version)` pair so a recovered payload identifies exactly
/// which committed version it is.
fn payload(stream: u64, version: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(24);
    p.extend_from_slice(&stream.to_le_bytes());
    p.extend_from_slice(&version.to_le_bytes());
    p.extend_from_slice(&(stream ^ version.rotate_left(17)).to_le_bytes());
    p
}

fn tiny_options() -> StoreOptions {
    StoreOptions {
        commit_interval_us: 0,
        // Small enough that the history spans several sealed segments,
        // so damage lands in WAL and sealed files alike.
        segment_bytes: 256,
        auto_compact: false,
        sink: Obs::none(),
        ..Default::default()
    }
}

/// The on-disk image and the per-stream committed version history.
type DiskAndHistory = (BTreeMap<String, Vec<u8>>, BTreeMap<u64, Vec<Vec<u8>>>);

/// Build a known commit history on an in-memory disk and dump its
/// files. Each of [`STREAMS`] streams is parked and group-committed at
/// versions `1..=COMMITS`; the last stream is then removed (a durable
/// tombstone). Returns the disk image and the per-stream set of
/// versions that were ever durable.
fn build_disk() -> DiskAndHistory {
    let mem = Arc::new(MemIo::new());
    let store = StreamStore::open_with(mem.clone() as Arc<dyn StoreIo>, tiny_options())
        .expect("fresh in-memory store opens");
    let mut versions: BTreeMap<u64, Vec<Vec<u8>>> = BTreeMap::new();
    for v in 1..=COMMITS {
        for s in 0..STREAMS {
            store.park(s, payload(s, v));
            versions.entry(s).or_default().push(payload(s, v));
        }
        store.commit().expect("commit");
    }
    assert!(store.remove(STREAMS - 1), "last stream removed");
    store.commit().expect("tombstone commit");
    drop(store);
    let disk = mem.dump();
    assert!(disk.len() > 1, "history must span several segment files");
    (disk, versions)
}

/// Open a damaged disk image and hold recovery to the contract: a
/// typed error, or a store whose every snapshot is some committed
/// version of its stream. Panics (the forbidden outcome) are caught
/// and reported with the damage description.
fn check_damaged(
    disk: BTreeMap<String, Vec<u8>>,
    versions: &BTreeMap<u64, Vec<Vec<u8>>>,
    what: &str,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mem = Arc::new(MemIo::new());
        mem.install(disk);
        let store = StreamStore::open_with(mem as Arc<dyn StoreIo>, tiny_options())?;
        let mut recovered = Vec::new();
        for id in store.parked_ids() {
            let bytes = store.unpark(id)?.expect("parked id unparks");
            recovered.push((id, bytes));
        }
        Ok::<_, StoreError>(recovered)
    }));
    match outcome {
        Err(_) => panic!("recovery panicked under damage: {what}"),
        Ok(Err(e)) => {
            // Typed failure is an allowed outcome — but it must carry a
            // real diagnosis, not a placeholder.
            assert!(
                !e.to_string().is_empty(),
                "typed error with empty message under {what}"
            );
        }
        Ok(Ok(recovered)) => {
            for (id, bytes) in recovered {
                let known = versions
                    .get(&id)
                    .unwrap_or_else(|| panic!("invented stream {id} under {what}"));
                assert!(
                    known.contains(&bytes),
                    "stream {id} recovered a payload that was never committed under {what}"
                );
            }
        }
    }
}

#[test]
fn undamaged_disk_recovers_the_exact_last_commit() {
    let (disk, _) = build_disk();
    let mem = Arc::new(MemIo::new());
    mem.install(disk);
    let store = StreamStore::open_with(mem as Arc<dyn StoreIo>, tiny_options())
        .expect("undamaged disk opens");
    assert_eq!(store.parked_len() as u64, STREAMS - 1);
    for s in 0..STREAMS - 1 {
        assert_eq!(
            store.get(s).expect("read").expect("parked"),
            payload(s, COMMITS),
            "stream {s} must hold its final committed version"
        );
    }
    assert!(
        !store.contains(STREAMS - 1),
        "tombstoned stream resurrected on a clean disk"
    );
}

#[test]
fn every_truncation_recovers_a_committed_prefix_or_fails_typed() {
    let (disk, versions) = build_disk();
    for (name, bytes) in &disk {
        for cut in 0..bytes.len() {
            let mut damaged = disk.clone();
            damaged.insert(name.clone(), bytes[..cut].to_vec());
            check_damaged(
                damaged,
                &versions,
                &format!("{name} truncated to {cut} bytes"),
            );
        }
    }
}

#[test]
fn every_single_byte_flip_recovers_a_committed_prefix_or_fails_typed() {
    let (disk, versions) = build_disk();
    for (name, bytes) in &disk {
        for at in 0..bytes.len() {
            // Two masks: all-bits catches structural fields, low-bit
            // catches off-by-one decodes that a 0xFF flip would mask.
            for mask in [0xFFu8, 0x01] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                let mut damaged = disk.clone();
                damaged.insert(name.clone(), flipped);
                check_damaged(
                    damaged,
                    &versions,
                    &format!("{name} byte {at} flipped with {mask:#04x}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compound damage: several byte flips plus a truncation, scattered
    /// across the segment files of one disk. Still: committed versions
    /// or a typed error, never a panic, never a torn payload.
    #[test]
    fn compound_damage_never_panics_or_tears(
        flips in proptest::collection::vec((0usize..64, 0usize..4096, 1u8..=255), 1..8),
        cut_file in 0usize..64,
        cut_frac in 0u64..=1000,
    ) {
        let (disk, versions) = build_disk();
        let names: Vec<String> = disk.keys().cloned().collect();
        let mut damaged = disk.clone();
        for (file, at, mask) in flips {
            let name = &names[file % names.len()];
            let bytes = damaged.get_mut(name).expect("file present");
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
        }
        let cut_name = &names[cut_file % names.len()];
        let cut_bytes = damaged.get_mut(cut_name).expect("file present");
        let cut = (cut_bytes.len() as u64 * cut_frac / 1000) as usize;
        cut_bytes.truncate(cut);
        check_damaged(damaged, &versions, &format!("compound damage, cut {cut_name} to {cut}"));
    }
}
