//! The document catalog: named, `Arc`-shared, immutable loaded
//! documents (`Document` + `TagIndex` + `DocStats`) behind a bounded
//! LRU, optionally backed by a persistent [`StoreDir`] of BLM2
//! snapshots.
//!
//! Loading is the expensive step the server amortizes — parse (or
//! snapshot-decode), index, and gather statistics once, then serve any
//! number of concurrent queries from the shared entry. Without a store,
//! eviction drops the catalog's reference: requests already holding an
//! `Arc<DocEntry>` finish safely, and the memory is reclaimed when the
//! last of them drops.
//!
//! With a store (`blossom serve --store-dir`), every load publishes a
//! BLM2 generation file first and serves the document *mapped* from it,
//! so the entry's resident heap charge is a small constant (symbols,
//! attributes, stats) regardless of document size — the columns live in
//! the kernel page cache. Eviction then merely forgets the mapping
//! (a **spill** — the bytes are already on disk) and a later `get`
//! remaps the generation file (a **remap**), both O(columns). Updates
//! publish a new generation and atomically swap, so readers of the old
//! snapshot are never disturbed and a crash at any instant leaves only
//! complete generations (temp-file + rename protocol).

use blossom_core::engine::{Engine, EngineOptions, SharedPlanCache};
use blossom_core::update::{apply_mutations, UpdateError};
use blossom_storage::{load as storage_load, snapshot, EncodeOptions, OpenMode, StoreDir};
use blossom_xml::mutate::Mutation;
use blossom_xml::stats::DocStats;
use blossom_xml::{Document, TagIndex};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One loaded document with its access paths, shared across requests.
pub struct DocEntry {
    pub name: String,
    pub doc: Arc<Document>,
    pub index: Arc<TagIndex>,
    pub stats: Arc<DocStats>,
    /// Approximate *resident* heap footprint, for the LRU cap. Mapped
    /// columns charge nothing here — their bytes are page cache.
    pub bytes: usize,
    /// Size of the backing generation file (0 without a store).
    pub file_bytes: usize,
    /// The backing generation (0 without a store).
    pub generation: u64,
}

impl DocEntry {
    /// Build the per-request engine view over this entry: shared
    /// document, index, stats and plan cache; request-local thread
    /// width, deadline, and trace sink.
    pub fn engine(&self, plans: Arc<SharedPlanCache>, options: EngineOptions) -> Engine {
        Engine::with_shared(
            self.doc.clone(),
            self.index.clone(),
            self.stats.clone(),
            plans,
            options,
        )
    }
}

/// A spilled entry: the snapshot lives only on disk until the next get.
#[derive(Clone)]
struct SpillStub {
    name: String,
    generation: u64,
    file_bytes: usize,
}

enum Slot {
    Resident(Arc<DocEntry>),
    Spilled(SpillStub),
}

impl Slot {
    fn name(&self) -> &str {
        match self {
            Slot::Resident(e) => &e.name,
            Slot::Spilled(s) => &s.name,
        }
    }
}

struct Inner {
    /// Entries with their last-use stamp; small catalogs, linear scans.
    entries: Vec<(Slot, u64)>,
    tick: u64,
    evictions: u64,
    spills: u64,
    remaps: u64,
    next_gen: u64,
}

/// Why [`Catalog::update`] did not swap a new snapshot in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogUpdateError {
    /// No document of that name is loaded.
    NotFound,
    /// The mutation script was rejected (message names the mutation).
    Invalid(String),
    /// The deadline passed mid-script; the old snapshot stands.
    Deadline,
}

impl From<UpdateError> for CatalogUpdateError {
    fn from(e: UpdateError) -> CatalogUpdateError {
        match e {
            UpdateError::Invalid(m) => CatalogUpdateError::Invalid(m),
            UpdateError::Deadline => CatalogUpdateError::Deadline,
        }
    }
}

impl std::fmt::Display for CatalogUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogUpdateError::NotFound => write!(f, "document not loaded"),
            CatalogUpdateError::Invalid(m) => write!(f, "invalid update: {m}"),
            CatalogUpdateError::Deadline => write!(f, "deadline exceeded: update aborted"),
        }
    }
}

/// Point-in-time byte accounting for `/stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Entries currently resident (owned or mapped).
    pub resident_docs: u64,
    /// Entries spilled to disk only.
    pub spilled_docs: u64,
    /// Approximate resident heap bytes across resident entries.
    pub resident_bytes: u64,
    /// Generation-file bytes of resident *mapped* entries (page cache,
    /// reclaimable, not heap).
    pub mapped_bytes: u64,
    /// Generation-file bytes of spilled entries.
    pub spilled_bytes: u64,
    /// Lifetime evictions (drops and spills).
    pub evictions: u64,
    /// Lifetime resident→disk spills.
    pub spills: u64,
    /// Lifetime disk→resident remaps.
    pub remaps: u64,
}

/// One `/stats` row.
#[derive(Debug, Clone)]
pub struct CatalogRow {
    pub name: String,
    /// Resident heap bytes (see [`DocEntry::bytes`]).
    pub bytes: usize,
    /// `"owned"`, `"mapped"`, or `"spilled"`.
    pub state: &'static str,
    /// Backing generation (0 without a store).
    pub generation: u64,
}

/// A name → [`DocEntry`] map bounded by total approximate resident
/// bytes, optionally spilling to a [`StoreDir`].
pub struct Catalog {
    inner: Mutex<Inner>,
    /// Byte budget across entries. At least one entry is always kept,
    /// so a single document larger than the cap still loads.
    cap_bytes: usize,
    store: Option<StoreDir>,
}

impl Catalog {
    pub fn new(cap_bytes: usize) -> Catalog {
        Catalog { inner: Mutex::new(Inner::empty()), cap_bytes, store: None }
    }

    /// A catalog that persists every entry as BLM2 generations in
    /// `store` and serves them mapped. Call [`Catalog::recover`] to
    /// repopulate from an existing directory.
    pub fn with_store(cap_bytes: usize, store: StoreDir) -> Catalog {
        Catalog { inner: Mutex::new(Inner::empty()), cap_bytes, store: Some(store) }
    }

    /// Parse/decode `bytes` (XML or BLM2 — sniffed), index it,
    /// and insert it under `name`, replacing any previous entry of that
    /// name and evicting least-recently-used entries over the byte cap.
    /// With a store, the document is published as a generation file
    /// first and served mapped from it.
    pub fn load_bytes(&self, name: &str, bytes: &[u8]) -> Result<Arc<DocEntry>, String> {
        let entry = match &self.store {
            None => {
                let loaded = storage_load::loaded_from_bytes(bytes, name)?;
                entry_from(name, loaded, 0, 0)
            }
            Some(store) => {
                // Normalize to BLM2 bytes; already-BLM2 input is
                // published verbatim (after validation by the open
                // below), anything else is encoded.
                let blm2: Vec<u8> = if storage_load::is_blm2(bytes) {
                    bytes.to_vec()
                } else {
                    let loaded = storage_load::loaded_from_bytes(bytes, name)?;
                    snapshot::encode(
                        &loaded.doc,
                        &loaded.index,
                        &loaded.stats,
                        EncodeOptions::default(),
                    )
                    .map_err(|e| format!("{name}: {e}"))?
                };
                let generation = self.alloc_gen();
                let path =
                    store.publish(name, generation, &blm2).map_err(|e| format!("{name}: {e}"))?;
                let snap = snapshot::open_path(&path, OpenMode::Map)
                    .map_err(|e| format!("{name}: {e}"))?;
                entry_from(
                    name,
                    storage_load::Loaded { doc: snap.doc, index: snap.index, stats: snap.stats },
                    generation,
                    blm2.len(),
                )
            }
        };
        self.insert(entry.clone());
        if let Some(store) = &self.store {
            store.remove_older(name, entry.generation);
        }
        Ok(entry)
    }

    /// Apply a mutation script to the entry under `name` and swap the
    /// mutated snapshot in. The splice and index maintenance run
    /// *outside* the catalog lock: readers keep resolving `name` to the
    /// old immutable snapshot (and requests already holding its
    /// `Arc<DocEntry>` are never disturbed) until the one atomic swap at
    /// the end. With a store, the mutated document is published as a new
    /// generation (temp-file + rename) before the swap, and older
    /// generations are pruned after it — a crash at any instant leaves a
    /// complete generation on disk. Concurrent updates to the same name
    /// are last-writer-wins, like `load_bytes`. Returns the replaced
    /// snapshot's document uid — the key prefix the caller must
    /// invalidate in the shared plan cache — and the new entry.
    pub fn update(
        &self,
        name: &str,
        muts: &[Mutation],
        deadline: Option<Instant>,
    ) -> Result<(u64, Arc<DocEntry>), CatalogUpdateError> {
        let Some(old) = self.get(name) else {
            return Err(CatalogUpdateError::NotFound);
        };
        let updated = apply_mutations(&old.doc, &old.index, muts, deadline)?;
        let entry = match &self.store {
            None => Arc::new(DocEntry {
                name: name.to_string(),
                bytes: updated.doc.approx_heap_bytes()
                    + updated.index.approx_heap_bytes()
                    + updated.stats.approx_heap_bytes(),
                doc: updated.doc,
                index: updated.index,
                stats: updated.stats,
                file_bytes: 0,
                generation: 0,
            }),
            Some(store) => {
                let fail = |e: snapshot::StorageError| CatalogUpdateError::Invalid(e.0);
                let blm2 = snapshot::encode(
                    &updated.doc,
                    &updated.index,
                    &updated.stats,
                    EncodeOptions::default(),
                )
                .map_err(fail)?;
                let generation = self.alloc_gen();
                let path = store.publish(name, generation, &blm2).map_err(fail)?;
                let snap = snapshot::open_path(&path, OpenMode::Map).map_err(fail)?;
                entry_from(
                    name,
                    storage_load::Loaded { doc: snap.doc, index: snap.index, stats: snap.stats },
                    generation,
                    blm2.len(),
                )
            }
        };
        self.insert(entry.clone());
        if let Some(store) = &self.store {
            store.remove_older(name, entry.generation);
        }
        Ok((old.doc.uid(), entry))
    }

    /// Look up `name`, marking it most-recently-used. A spilled entry is
    /// remapped from its generation file — the `mmap` + validation run
    /// outside the catalog lock, so concurrent readers of other entries
    /// never stall behind a remap.
    pub fn get(&self, name: &str) -> Option<Arc<DocEntry>> {
        loop {
            let stub = {
                let mut inner = self.inner.lock().unwrap();
                inner.tick += 1;
                let tick = inner.tick;
                match inner.entries.iter_mut().find(|(s, _)| s.name() == name) {
                    None => return None,
                    Some((Slot::Resident(e), stamp)) => {
                        *stamp = tick;
                        return Some(e.clone());
                    }
                    Some((Slot::Spilled(s), _)) => s.clone(),
                }
            };
            let store = self.store.as_ref()?;
            let path = store.path_for(&stub.name, stub.generation);
            let snap = snapshot::open_path(&path, OpenMode::Map).ok()?;
            let entry = entry_from(
                name,
                storage_load::Loaded { doc: snap.doc, index: snap.index, stats: snap.stats },
                stub.generation,
                stub.file_bytes,
            );
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.iter_mut().find(|(s, _)| s.name() == name) {
                // Entry vanished while we mapped: the mapped view is
                // still a consistent snapshot; serve it.
                None => return Some(entry),
                // Another thread remapped (or reloaded) first.
                Some((Slot::Resident(e), stamp)) => {
                    *stamp = tick;
                    return Some(e.clone());
                }
                Some((slot @ Slot::Spilled(_), stamp)) => {
                    let Slot::Spilled(cur) = &*slot else { unreachable!() };
                    if cur.generation != stub.generation {
                        // A newer generation was spilled mid-remap;
                        // retry against it.
                        continue;
                    }
                    *slot = Slot::Resident(entry.clone());
                    *stamp = tick;
                    inner.remaps += 1;
                    self.evict_over_cap(&mut inner, name);
                    return Some(entry);
                }
            }
        }
    }

    /// Repopulate from the store directory after a restart: for each
    /// document name, the newest generation that *fully validates* wins;
    /// broken (e.g. torn by `kill -9` before the rename — normally
    /// impossible, but also covers external truncation) newer files are
    /// deleted, older redundant generations pruned. Entries come back
    /// spilled and remap lazily on first use. Returns recovered names.
    pub fn recover(&self) -> Result<Vec<String>, String> {
        let Some(store) = &self.store else {
            return Ok(Vec::new());
        };
        let files = store.scan().map_err(|e| e.0)?;
        let mut recovered: Vec<String> = Vec::new();
        let mut stubs: Vec<SpillStub> = Vec::new();
        let mut max_gen = 0u64;
        for f in files {
            max_gen = max_gen.max(f.generation);
            if recovered.last().is_some_and(|n| *n == f.name) {
                continue; // newest valid generation already chosen
            }
            match snapshot::open_path(&f.path, OpenMode::Map) {
                Ok(_) => {
                    stubs.push(SpillStub {
                        name: f.name.clone(),
                        generation: f.generation,
                        file_bytes: f.bytes as usize,
                    });
                    store.remove_older(&f.name, f.generation);
                    recovered.push(f.name);
                }
                Err(_) => {
                    // Incomplete or corrupt: never serve it.
                    let _ = std::fs::remove_file(&f.path);
                }
            }
        }
        let mut inner = self.inner.lock().unwrap();
        inner.next_gen = inner.next_gen.max(max_gen);
        for stub in stubs {
            if !inner.entries.iter().any(|(s, _)| s.name() == stub.name) {
                inner.entries.push((Slot::Spilled(stub), 0));
            }
        }
        Ok(recovered)
    }

    /// Occupancy gauges for `/metrics` — one lock acquisition, no
    /// per-entry clones.
    pub fn occupancy(&self) -> Occupancy {
        let inner = self.inner.lock().unwrap();
        let mut o = Occupancy {
            evictions: inner.evictions,
            spills: inner.spills,
            remaps: inner.remaps,
            ..Occupancy::default()
        };
        for (slot, _) in &inner.entries {
            match slot {
                Slot::Resident(e) => {
                    o.resident_docs += 1;
                    o.resident_bytes += e.bytes as u64;
                    if e.doc.is_mapped() {
                        o.mapped_bytes += e.file_bytes as u64;
                    }
                }
                Slot::Spilled(s) => {
                    o.spilled_docs += 1;
                    o.spilled_bytes += s.file_bytes as u64;
                }
            }
        }
        o
    }

    /// One row per entry, most recently used last, plus the lifetime
    /// eviction count.
    pub fn snapshot(&self) -> (Vec<CatalogRow>, u64) {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<(CatalogRow, u64)> = inner
            .entries
            .iter()
            .map(|(slot, stamp)| {
                let row = match slot {
                    Slot::Resident(e) => CatalogRow {
                        name: e.name.clone(),
                        bytes: e.bytes,
                        state: if e.doc.is_mapped() { "mapped" } else { "owned" },
                        generation: e.generation,
                    },
                    Slot::Spilled(s) => CatalogRow {
                        name: s.name.clone(),
                        bytes: 0,
                        state: "spilled",
                        generation: s.generation,
                    },
                };
                (row, *stamp)
            })
            .collect();
        rows.sort_by_key(|(_, stamp)| *stamp);
        (rows.into_iter().map(|(r, _)| r).collect(), inner.evictions)
    }

    fn alloc_gen(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.next_gen += 1;
        inner.next_gen
    }

    /// Insert `entry` as most-recently-used, replacing any same-named
    /// slot, then enforce the byte cap (never evicting `entry` itself).
    fn insert(&self, entry: Arc<DocEntry>) {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let name = entry.name.clone();
        inner.entries.retain(|(s, _)| s.name() != name);
        inner.entries.push((Slot::Resident(entry), tick));
        self.evict_over_cap(&mut inner, &name);
    }

    /// Evict coldest-first until resident bytes fit the cap, protecting
    /// `protect`. With a store, eviction *spills*: the generation file
    /// is already on disk, so the slot just forgets its mapping. Without
    /// one, the entry is dropped entirely.
    fn evict_over_cap(&self, inner: &mut Inner, protect: &str) {
        loop {
            let resident: usize = inner
                .entries
                .iter()
                .filter_map(|(s, _)| match s {
                    Slot::Resident(e) => Some(e.bytes),
                    Slot::Spilled(_) => None,
                })
                .sum();
            if resident <= self.cap_bytes {
                return;
            }
            let coldest = inner
                .entries
                .iter()
                .enumerate()
                .filter(|(_, (s, _))| {
                    matches!(s, Slot::Resident(_)) && s.name() != protect
                })
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i);
            let Some(i) = coldest else { return };
            inner.evictions += 1;
            match &self.store {
                Some(_) => {
                    let Slot::Resident(e) = &inner.entries[i].0 else { unreachable!() };
                    // Only store-backed entries can come back from disk.
                    if e.generation > 0 {
                        let stub = SpillStub {
                            name: e.name.clone(),
                            generation: e.generation,
                            file_bytes: e.file_bytes,
                        };
                        inner.entries[i].0 = Slot::Spilled(stub);
                        inner.spills += 1;
                    } else {
                        inner.entries.remove(i);
                    }
                }
                None => {
                    inner.entries.remove(i);
                }
            }
        }
    }
}

impl Inner {
    fn empty() -> Inner {
        Inner { entries: Vec::new(), tick: 0, evictions: 0, spills: 0, remaps: 0, next_gen: 0 }
    }
}

fn entry_from(
    name: &str,
    loaded: storage_load::Loaded,
    generation: u64,
    file_bytes: usize,
) -> Arc<DocEntry> {
    Arc::new(DocEntry {
        name: name.to_string(),
        bytes: loaded.doc.approx_heap_bytes()
            + loaded.index.approx_heap_bytes()
            + loaded.stats.approx_heap_bytes(),
        doc: Arc::new(loaded.doc),
        index: Arc::new(loaded.index),
        stats: Arc::new(loaded.stats),
        file_bytes,
        generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_catalog(cap: usize, tag: &str) -> (Catalog, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("blossom-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreDir::open(&dir).unwrap();
        (Catalog::with_store(cap, store), dir)
    }

    #[test]
    fn load_then_get_shares_one_entry() {
        let catalog = Catalog::new(usize::MAX);
        let loaded = catalog.load_bytes("bib", b"<bib><book/></bib>").unwrap();
        let got = catalog.get("bib").unwrap();
        assert!(Arc::ptr_eq(&loaded, &got));
        assert!(catalog.get("other").is_none());
    }

    #[test]
    fn reload_replaces_the_entry() {
        let catalog = Catalog::new(usize::MAX);
        catalog.load_bytes("d", b"<r><a/></r>").unwrap();
        catalog.load_bytes("d", b"<r><a/><a/></r>").unwrap();
        let (entries, _) = catalog.snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(catalog.get("d").unwrap().doc.len(), 4);
    }

    #[test]
    fn lru_eviction_respects_the_byte_cap_and_recency() {
        // Cap that fits roughly one entry: loading three evicts the
        // coldest, and touching an entry protects it.
        let catalog = Catalog::new(600);
        catalog.load_bytes("a", b"<r><x>aaaaaaaaaa</x></r>").unwrap();
        catalog.load_bytes("b", b"<r><x>bbbbbbbbbb</x></r>").unwrap();
        catalog.get("a");
        catalog.load_bytes("c", b"<r><x>cccccccccc</x></r>").unwrap();
        let (entries, evictions) = catalog.snapshot();
        let names: Vec<&str> = entries.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"c"), "{names:?}");
        assert!(!names.contains(&"b"), "touched 'a' should outlive 'b': {names:?}");
        assert!(evictions >= 1);
    }

    #[test]
    fn an_oversized_document_still_loads() {
        let catalog = Catalog::new(1);
        catalog.load_bytes("big", b"<r><a/><b/><c/></r>").unwrap();
        assert!(catalog.get("big").is_some());
    }

    #[test]
    fn update_swaps_the_snapshot_and_keeps_old_readers_stable() {
        use blossom_xml::mutate::parse_mutations;
        let catalog = Catalog::new(usize::MAX);
        catalog.load_bytes("d", b"<bib><book><title>a</title></book></bib>").unwrap();
        let reader = catalog.get("d").unwrap();
        let muts = parse_mutations("insert 1 1 <book><title>b</title></book>").unwrap();
        let (old_uid, new_entry) = catalog.update("d", &muts, None).unwrap();
        assert_eq!(old_uid, reader.doc.uid());
        assert_ne!(new_entry.doc.uid(), old_uid, "mutated snapshot has a fresh uid");
        // The reader's snapshot is untouched; lookups see the new one.
        assert_eq!(reader.doc.len(), 5);
        assert_eq!(catalog.get("d").unwrap().doc.len(), 8);
        let (entries, _) = catalog.snapshot();
        assert_eq!(entries.len(), 1, "swap replaces, never duplicates");
    }

    #[test]
    fn update_errors_leave_the_entry_alone() {
        use blossom_xml::mutate::parse_mutations;
        let catalog = Catalog::new(usize::MAX);
        assert!(matches!(
            catalog.update("ghost", &[], None),
            Err(CatalogUpdateError::NotFound)
        ));
        catalog.load_bytes("d", b"<r><a/></r>").unwrap();
        let before = catalog.get("d").unwrap();
        let muts = parse_mutations("delete 1.9").unwrap();
        assert!(matches!(
            catalog.update("d", &muts, None),
            Err(CatalogUpdateError::Invalid(_))
        ));
        assert!(Arc::ptr_eq(&before, &catalog.get("d").unwrap()), "failed update is a no-op");
    }

    #[test]
    fn bad_bytes_do_not_poison_the_catalog() {
        let catalog = Catalog::new(usize::MAX);
        assert!(catalog.load_bytes("bad", b"<r><unclosed>").is_err());
        assert!(catalog.get("bad").is_none());
        catalog.load_bytes("good", b"<r/>").unwrap();
        assert!(catalog.get("good").is_some());
    }

    #[test]
    fn a_mapped_entry_charges_a_small_resident_constant() {
        // The satellite pin: with a store, a document with tens of
        // kilobytes of content must charge only its small metadata
        // (symbols, attrs, stats) against the catalog cap.
        let mut xml = String::from("<r>");
        for i in 0..500 {
            xml.push_str(&format!("<item key=\"{i}\">payload text {i} {}</item>", "x".repeat(80)));
        }
        xml.push_str("</r>");
        let owned = Catalog::new(usize::MAX);
        let owned_entry = owned.load_bytes("d", xml.as_bytes()).unwrap();

        let (catalog, dir) = store_catalog(usize::MAX, "charge");
        let mapped_entry = catalog.load_bytes("d", xml.as_bytes()).unwrap();
        assert_eq!(mapped_entry.doc.len(), owned_entry.doc.len());
        if cfg!(all(unix, target_endian = "little")) {
            assert!(mapped_entry.doc.is_mapped());
            assert!(mapped_entry.file_bytes > 40_000, "{}", mapped_entry.file_bytes);
            // Resident charge: attrs + symbols + stats, not columns/text.
            assert!(
                mapped_entry.bytes < owned_entry.bytes / 2,
                "mapped {} vs owned {}",
                mapped_entry.bytes,
                owned_entry.bytes
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_and_remap_roundtrip_under_a_tiny_cap() {
        let (catalog, dir) = store_catalog(1, "spill");
        catalog.load_bytes("a", b"<r><x>aaaa</x></r>").unwrap();
        catalog.load_bytes("b", b"<r><y>bbbb</y></r>").unwrap();
        // Cap 1 byte: loading `b` spills `a` (never the fresh insert).
        let o = catalog.occupancy();
        assert_eq!(o.spilled_docs, 1, "{o:?}");
        assert!(o.spills >= 1);
        assert!(o.spilled_bytes > 0);
        // A get remaps the spilled entry and serves identical content.
        let a = catalog.get("a").unwrap();
        assert_eq!(blossom_xml::writer::to_string(&a.doc), "<r><x>aaaa</x></r>");
        assert!(catalog.occupancy().remaps >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_serves_only_complete_generations() {
        let dir = std::env::temp_dir()
            .join(format!("blossom-catalog-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = StoreDir::open(&dir).unwrap();
            let catalog = Catalog::with_store(usize::MAX, store);
            catalog.load_bytes("keep", b"<r><a>v1</a></r>").unwrap();
            catalog.load_bytes("torn", b"<r><b/></r>").unwrap();
        }
        // Simulate a crash mid-publish of newer generations: a stray
        // temp file and a truncated "published" file (covers external
        // truncation; the rename protocol itself never exposes one).
        let store = StoreDir::open(&dir).unwrap();
        let torn_new = store.path_for("torn", 99);
        let good = std::fs::read(store.scan().unwrap().iter().find(|f| f.name == "torn").unwrap()
            .path.clone()).unwrap();
        std::fs::write(&torn_new, &good[..good.len() / 2]).unwrap();
        std::fs::write(store.path_for("keep", 98).with_extension("blm2.tmp"), b"junk").unwrap();

        let catalog = Catalog::with_store(usize::MAX, StoreDir::open(&dir).unwrap());
        let mut names = catalog.recover().unwrap();
        names.sort();
        assert_eq!(names, ["keep", "torn"]);
        assert!(!torn_new.exists(), "broken newer generation is deleted");
        // Both recover with their pre-crash content.
        assert_eq!(
            blossom_xml::writer::to_string(&catalog.get("keep").unwrap().doc),
            "<r><a>v1</a></r>"
        );
        assert_eq!(
            blossom_xml::writer::to_string(&catalog.get("torn").unwrap().doc),
            "<r><b/></r>"
        );
        // Generations continue past the recovered maximum.
        let updated = catalog.load_bytes("keep", b"<r><a>v2</a></r>").unwrap();
        assert!(updated.generation > 98, "{}", updated.generation);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_publishes_a_new_generation_and_prunes_old_ones() {
        use blossom_xml::mutate::parse_mutations;
        let (catalog, dir) = store_catalog(usize::MAX, "gen");
        let first = catalog.load_bytes("d", b"<bib><book><title>a</title></book></bib>").unwrap();
        let muts = parse_mutations("insert 1 1 <book><title>b</title></book>").unwrap();
        let (_, second) = catalog.update("d", &muts, None).unwrap();
        assert!(second.generation > first.generation);
        if cfg!(all(unix, target_endian = "little")) {
            assert!(second.doc.is_mapped(), "updated snapshot is served mapped");
        }
        // Only the newest generation file remains.
        let store = StoreDir::open(&dir).unwrap();
        let files = store.scan().unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].generation, second.generation);
        // Old readers still navigate their (now unlinked) mapping.
        assert_eq!(first.doc.len(), 5);
        assert_eq!(catalog.get("d").unwrap().doc.len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ten_times_over_cap_serves_byte_identical_documents() {
        // The acceptance shape in miniature: N documents whose combined
        // owned footprint is far over the cap all stay servable, with
        // resident bytes bounded.
        let mut originals = Vec::new();
        for i in 0..8 {
            let mut xml = format!("<doc{i}>");
            for j in 0..50 {
                xml.push_str(&format!("<row id=\"{j}\">{}</row>", "v".repeat(50)));
            }
            xml.push_str(&format!("</doc{i}>"));
            originals.push(xml);
        }
        // Cap ~1/10 of the total owned footprint.
        let owned_total: usize = {
            let c = Catalog::new(usize::MAX);
            originals
                .iter()
                .enumerate()
                .map(|(i, x)| c.load_bytes(&format!("d{i}"), x.as_bytes()).unwrap().bytes)
                .sum()
        };
        let (catalog, dir) = store_catalog(owned_total / 10, "sweep");
        for (i, xml) in originals.iter().enumerate() {
            catalog.load_bytes(&format!("d{i}"), xml.as_bytes()).unwrap();
        }
        for (i, xml) in originals.iter().enumerate() {
            let entry = catalog.get(&format!("d{i}")).unwrap();
            let expect = blossom_xml::Document::parse_str(xml).unwrap();
            assert_eq!(
                blossom_xml::writer::to_string(&entry.doc),
                blossom_xml::writer::to_string(&expect),
                "d{i}"
            );
            let o = catalog.occupancy();
            assert!(
                o.resident_bytes <= (owned_total / 10) as u64 + entry.bytes as u64,
                "resident {} over cap {}",
                o.resident_bytes,
                owned_total / 10
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
