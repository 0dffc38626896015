//! The sharded stream table: live filter states plus parked (hibernated)
//! snapshots, one lock per shard.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hom_core::{
    encode_snapshot, FilterState, FilterView, HighOrderModel, SnapshotError, SnapshotRef,
};

use crate::request::StreamId;

/// Multiplicative hasher for the `u64` stream-id keys of the shard maps.
///
/// The default SipHash — designed to resist adversarial collisions on
/// attacker-controlled byte strings — costs ~10× more than the `u64`
/// lookup it protects. One odd-constant multiply spreads dense ids
/// (0, 1, 2, …) over all 64 bits, is deterministic across runs (no
/// `RandomState` seed), and is two instructions on the hot path.
///
/// The constant deliberately differs from the Fibonacci multiplier in
/// [`shard_of`]: every stream in a shard shares that product's high
/// bits, so reusing it here would hand the table near-constant control
/// tags (hashbrown tags on the hash's top bits) and degrade probing to
/// full key compares.
#[derive(Default)]
pub(crate) struct StreamIdHasher(u64);

impl Hasher for StreamIdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists to satisfy the
        // trait.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The shard maps' hasher: stateless, so every map costs nothing to set
/// up and identical keys probe identical slots across runs.
pub(crate) type StreamIdBuildHasher = BuildHasherDefault<StreamIdHasher>;

/// Slot-state sentinel of [`StreamIndex`]: the bucket has never held an
/// entry, so a probe chain can stop here.
const EMPTY: u32 = u32::MAX;
/// Slot-state sentinel of [`StreamIndex`]: the bucket's entry was
/// removed; probe chains pass through, inserts may reclaim it.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Open-addressed `stream → slot` map with linear probing — the hot-path
/// index of a shard's [`StateTable`].
///
/// A `std` `HashMap` would be correct here, but its buckets are opaque:
/// the engine's batch loop wants to *prefetch* the next few streams'
/// index probes while processing the current one (at 100k live streams
/// every probe is a cache miss, and those misses — not arithmetic — were
/// the dominant serving cost). Owning the layout makes
/// [`Self::prefetch`] a two-instruction hint. Buckets are
/// `(stream, slot)` pairs, 16 bytes, four per cache line; the slot field
/// doubles as the bucket state (live / [`EMPTY`] / [`TOMBSTONE`]), which
/// caps usable slots at `u32::MAX - 2` streams per shard — far beyond
/// the table's reach.
///
/// The multiplier deliberately differs from [`shard_of`]'s Fibonacci
/// constant: every stream in a shard shares that product's high bits, so
/// reusing it here would collapse all buckets (the index takes the high
/// bits too) into a handful of probe chains.
pub(crate) struct StreamIndex {
    /// `(stream, slot)` buckets; `slot` is [`EMPTY`]/[`TOMBSTONE`] when
    /// the bucket holds no live entry.
    buckets: Vec<(StreamId, u32)>,
    /// `buckets.len() - 1` (capacity is a power of two).
    mask: usize,
    /// `64 - log2(capacity)`: the multiplicative hash keeps the high bits.
    shift: u32,
    /// Live entries.
    len: usize,
    /// Removed-but-not-yet-reclaimed buckets (probe chains pass through).
    tombstones: usize,
}

impl StreamIndex {
    const MIN_CAPACITY: usize = 16;

    pub fn new() -> Self {
        StreamIndex {
            buckets: vec![(0, EMPTY); Self::MIN_CAPACITY],
            mask: Self::MIN_CAPACITY - 1,
            shift: 64 - Self::MIN_CAPACITY.trailing_zeros(),
            len: 0,
            tombstones: 0,
        }
    }

    #[inline]
    fn bucket(&self, stream: StreamId) -> usize {
        (stream.wrapping_mul(0xff51_afd7_ed55_8ccd) >> self.shift) as usize
    }

    /// Hint the CPU to pull `stream`'s probe bucket into cache — issued a
    /// few requests ahead of the actual [`Self::get`] so the miss
    /// overlaps useful work. Purely a timing hint; never changes state.
    #[inline]
    pub fn prefetch(&self, stream: StreamId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `bucket` is always in range (mask arithmetic), and
        // prefetch has no architectural effect beyond the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(
                self.buckets.as_ptr().add(self.bucket(stream)) as *const i8,
                _MM_HINT_T0,
            );
        }
    }

    #[inline]
    pub fn get(&self, stream: StreamId) -> Option<u32> {
        let mut at = self.bucket(stream);
        loop {
            let (s, slot) = self.buckets[at];
            if slot == EMPTY {
                return None;
            }
            if slot != TOMBSTONE && s == stream {
                return Some(slot);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Insert or update `stream`'s slot.
    pub fn insert(&mut self, stream: StreamId, slot: u32) {
        debug_assert!(slot < TOMBSTONE);
        // Keep load factor (live + tombstones) under 7/8 so probe chains
        // stay short and always terminate at an EMPTY bucket.
        if 8 * (self.len + self.tombstones + 1) > 7 * self.buckets.len() {
            self.grow();
        }
        let mut at = self.bucket(stream);
        let mut reuse: Option<usize> = None;
        loop {
            let (s, sl) = self.buckets[at];
            if sl == EMPTY {
                let target = reuse.unwrap_or(at);
                if self.buckets[target].1 == TOMBSTONE {
                    self.tombstones -= 1;
                }
                self.buckets[target] = (stream, slot);
                self.len += 1;
                return;
            }
            if sl == TOMBSTONE {
                reuse.get_or_insert(at);
            } else if s == stream {
                self.buckets[at].1 = slot;
                return;
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Remove `stream`, returning its slot if it was present.
    pub fn remove(&mut self, stream: StreamId) -> Option<u32> {
        let mut at = self.bucket(stream);
        loop {
            let (s, slot) = self.buckets[at];
            if slot == EMPTY {
                return None;
            }
            if slot != TOMBSTONE && s == stream {
                self.buckets[at].1 = TOMBSTONE;
                self.len -= 1;
                self.tombstones += 1;
                return Some(slot);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Rehash into a table sized for the live entries (doubling while
    /// they dominate, merely dropping tombstones when they do).
    fn grow(&mut self) {
        let capacity = (4 * (self.len + 1))
            .next_power_of_two()
            .max(Self::MIN_CAPACITY);
        let old = std::mem::replace(&mut self.buckets, vec![(0, EMPTY); capacity]);
        self.mask = capacity - 1;
        self.shift = 64 - capacity.trailing_zeros();
        self.len = 0;
        self.tombstones = 0;
        for (stream, slot) in old {
            if slot != EMPTY && slot != TOMBSTONE {
                self.insert(stream, slot);
            }
        }
    }
}

/// One shard of the stream table. A stream id always hashes to the same
/// shard, so per-stream request order is preserved by processing each
/// shard's requests sequentially — and two requests for different shards
/// never contend.
pub(crate) struct Shard {
    /// Slot of each live stream in [`Self::table`].
    pub index: StreamIndex,
    /// The live streams' filter state, structure-of-arrays.
    pub table: StateTable,
    /// Evicted streams, hibernated as snapshot bytes (`FilterState`'s
    /// versioned codec). Restoring one continues the stream
    /// bit-identically, so eviction is invisible to predictions.
    pub parked: HashMap<StreamId, Vec<u8>, StreamIdBuildHasher>,
}

impl Shard {
    pub fn new(n_concepts: usize) -> Self {
        Shard {
            index: StreamIndex::new(),
            table: StateTable::new(n_concepts),
            parked: HashMap::default(),
        }
    }

    /// Rebuild the live table against a grown model: every row is
    /// materialized against `old`, migrated forward
    /// (`FilterState::migrate`) and re-inserted — keeping its LRU tick —
    /// into a fresh table of `new`'s concept width. Rows are re-inserted
    /// coldest first, so the new table's LRU list keeps tick order.
    /// Returns the number of streams migrated. Cold path: runs once per
    /// model hot-swap.
    pub fn migrate_live(&mut self, old: &HighOrderModel, new: &HighOrderModel) -> usize {
        let rows: Vec<(StreamId, u32, u64)> = self.table.iter_lru().collect();
        let mut table = StateTable::new(new.n_concepts());
        let mut index = StreamIndex::new();
        for &(id, slot, last_used) in &rows {
            let migrated = self.table.materialize(old, slot).migrate(new);
            index.insert(id, table.insert_state(id, &migrated, last_used));
        }
        self.table = table;
        self.index = index;
        rows.len()
    }
}

/// Link sentinel of the LRU list: no slot.
const NIL: u32 = u32::MAX;

/// Per-slot bookkeeping only the lookup, LRU and eviction paths read —
/// deliberately *not* part of the per-request row block, so steady-state
/// traffic (no eviction clock) never touches this array.
struct SlotMeta {
    /// Engine-clock tick of last use (LRU/TTL key).
    last_used: u64,
    /// Owning stream (meaningful only while occupied).
    id: StreamId,
    /// Next-colder occupied slot in the LRU list ([`NIL`] at the head).
    prev: u32,
    /// Next-hotter occupied slot in the LRU list ([`NIL`] at the tail).
    next: u32,
    /// Whether the slot currently holds a live stream.
    occupied: bool,
}

/// Live filter states in structure-of-arrays layout: one contiguous
/// block per stream holding everything a request reads —
/// `[posterior(n) | prior(n) | last_likelihood | §III-C order]` —
/// indexed by slot.
///
/// This is the serving hot path's memory layout. Per-stream `FilterState`
/// allocations scatter each stream's few distributions across six small
/// heap blocks — at 100k live streams the pointer chases and cache
/// misses of the table walk were the dominant serving cost. Here a
/// stream's entire mutable state lives at `slot * stride` inside one big
/// array (the prune order rides in the block's tail, its `u32`s packed
/// into `f64` storage): creating a stream is an amortized append (no
/// allocation), a request touches exactly one ~72-byte span (two cache
/// lines) instead of six heap blocks or three parallel arrays, and one
/// [`Self::prefetch`] pair covers all of it. Updates borrow a block as a
/// [`FilterView`], running the exact same floating-point core as
/// `FilterState` — layout changes wall-clock time, never an output bit.
///
/// Slots of removed streams go on a free list and are reused by the next
/// insert.
///
/// Occupied slots are also threaded on a doubly linked LRU list (links
/// in [`SlotMeta`]), coldest at the head: every insert and every
/// [`Self::touch`] moves its slot to the tail. The engine takes every
/// tick from its global clock while holding the shard lock, so list
/// order *is* tick order — the head is exactly the minimum-tick stream,
/// found in O(1), and the idle streams a TTL sweep parks are a prefix of
/// the list.
pub(crate) struct StateTable {
    /// Concepts per row.
    n: usize,
    /// `f64` slots per stream block: `2n` distributions, 1 likelihood,
    /// `ceil(n/2)` slots of `u32` prune order.
    stride: usize,
    /// `[posterior(n) | prior(n) | last_likelihood | order]` per stream.
    rows: Vec<f64>,
    /// Per-slot bookkeeping (LRU tick, owner) — cold-path only.
    meta: Vec<SlotMeta>,
    /// Slots returned by [`Self::remove`], reused before growing.
    free: Vec<u32>,
    /// Occupied-slot count.
    live: usize,
    /// Least-recently-used occupied slot ([`NIL`] when empty).
    head: u32,
    /// Most-recently-used occupied slot ([`NIL`] when empty).
    tail: u32,
}

/// Reinterpret a block's tail `f64` slots as the `n`-entry `u32` prune
/// order stored there. The order is plain indices (no float semantics);
/// packing it into the row block keeps a request inside one span.
#[inline]
fn order_in_tail(tail: &mut [f64], n: usize) -> &mut [u32] {
    debug_assert!(tail.len() * 2 >= n);
    // SAFETY: `tail` holds `ceil(n/2)` f64s = at least `4n` bytes, f64's
    // 8-byte alignment satisfies u32's, and the borrow is exclusive for
    // the returned lifetime.
    unsafe { std::slice::from_raw_parts_mut(tail.as_mut_ptr().cast::<u32>(), n) }
}

impl StateTable {
    pub fn new(n_concepts: usize) -> Self {
        StateTable {
            n: n_concepts,
            stride: 2 * n_concepts + 1 + n_concepts.div_ceil(2),
            rows: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            live: 0,
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of live streams in the table.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Claim a slot (reusing a freed one if any) at the hot end of the
    /// LRU list, leaving the row contents to the caller.
    fn alloc(&mut self, stream: StreamId, now: u64) -> u32 {
        self.live += 1;
        let slot = if let Some(slot) = self.free.pop() {
            let m = &mut self.meta[slot as usize];
            m.id = stream;
            m.occupied = true;
            m.last_used = now;
            slot
        } else {
            let slot = self.meta.len() as u32;
            self.rows.resize(self.rows.len() + self.stride, 0.0);
            self.meta.push(SlotMeta {
                last_used: now,
                id: stream,
                prev: NIL,
                next: NIL,
                occupied: true,
            });
            slot
        };
        self.link_tail(slot);
        slot
    }

    /// Append `slot` at the hot end of the LRU list.
    #[inline]
    fn link_tail(&mut self, slot: u32) {
        let tail = self.tail;
        let m = &mut self.meta[slot as usize];
        m.prev = tail;
        m.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.meta[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Take `slot` out of the LRU list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let SlotMeta { prev, next, .. } = self.meta[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.meta[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.meta[n as usize].prev = prev,
        }
    }

    /// Insert a brand-new stream at the uniform initial state
    /// `P₁(c) = 1/N` (§III-B) — bit-identical to `FilterState::new`,
    /// without its allocations.
    pub fn insert_uniform(&mut self, stream: StreamId, now: u64) -> u32 {
        let slot = self.alloc(stream, now);
        let (n, s) = (self.n, slot as usize);
        let block = &mut self.rows[s * self.stride..(s + 1) * self.stride];
        let (dist, tail) = block.split_at_mut(2 * n);
        dist.fill(1.0 / n as f64);
        let (ll, order) = tail.split_at_mut(1);
        ll[0] = 1.0;
        for (i, o) in order_in_tail(order, n).iter_mut().enumerate() {
            *o = i as u32;
        }
        slot
    }

    /// Insert a stream from an owned state (a migrated row or a snapshot
    /// of an older model), copying every value bit-for-bit.
    pub fn insert_state(&mut self, stream: StreamId, state: &FilterState, now: u64) -> u32 {
        let slot = self.alloc(stream, now);
        let (n, s) = (self.n, slot as usize);
        let block = &mut self.rows[s * self.stride..(s + 1) * self.stride];
        block[..n].copy_from_slice(state.posterior());
        block[n..2 * n].copy_from_slice(state.prior());
        block[2 * n] = state.last_likelihood();
        order_in_tail(&mut block[2 * n + 1..], n).copy_from_slice(state.order());
        slot
    }

    /// Validate parked snapshot bytes for insertion into this table.
    /// Bytes of the table's width stay borrowed, to be decoded straight
    /// into a row; bytes of an older, smaller model take the owned
    /// migrate path. Every defect is the same [`SnapshotError`]
    /// `FilterState::restore_migrating` returns for those bytes.
    pub fn decode<'a>(
        &self,
        model: &HighOrderModel,
        bytes: &'a [u8],
    ) -> Result<Incoming<'a>, SnapshotError> {
        debug_assert_eq!(model.n_concepts(), self.n);
        let snap = SnapshotRef::parse(bytes)?;
        if snap.n_concepts() == self.n {
            Ok(Incoming::Row(snap))
        } else {
            Ok(Incoming::Migrated(snap.restore_migrating(model)?.0))
        }
    }

    /// Insert a stream from [`Self::decode`]d bytes. A row-width snapshot
    /// is copied straight into the new row — bit-identical to
    /// `FilterState::restore`, with the Eq. 7 normalizer reset to `1.0`
    /// as a restore does — without building an owned state.
    pub fn insert_decoded(&mut self, stream: StreamId, incoming: &Incoming<'_>, now: u64) -> u32 {
        let snap = match incoming {
            Incoming::Row(snap) => snap,
            Incoming::Migrated(state) => return self.insert_state(stream, state, now),
        };
        let slot = self.alloc(stream, now);
        let (n, s) = (self.n, slot as usize);
        let block = &mut self.rows[s * self.stride..(s + 1) * self.stride];
        let (dist, tail) = block.split_at_mut(2 * n);
        let (posterior, prior) = dist.split_at_mut(n);
        let (ll, order) = tail.split_at_mut(1);
        ll[0] = 1.0;
        snap.read_into(posterior, prior, order_in_tail(order, n));
        slot
    }

    /// Serialize one live row as a HOMF snapshot stamped with `epoch` —
    /// the same bytes `FilterState::snapshot_with_epoch` writes for the
    /// materialized row, encoded straight from the block.
    pub fn encode(&self, slot: u32, epoch: u32) -> Vec<u8> {
        let (n, s) = (self.n, slot as usize);
        let block = &self.rows[s * self.stride..(s + 1) * self.stride];
        let mut out = Vec::new();
        encode_snapshot(
            &mut out,
            epoch,
            &block[..n],
            &block[n..2 * n],
            order_of(block, n),
        );
        out
    }

    /// Bump a live slot's LRU tick, moving it to the hot end of the list.
    #[inline]
    pub fn touch(&mut self, slot: u32, now: u64) {
        self.meta[slot as usize].last_used = now;
        if slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
    }

    /// The least-recently-used live stream other than `keep` (the stream
    /// being served right now), as `(stream, slot)`: the head of the LRU
    /// list, or its successor when the head is `keep`. `None` when there
    /// is no other stream.
    pub fn lru_victim(&self, keep: StreamId) -> Option<(StreamId, u32)> {
        let mut slot = self.head;
        while slot != NIL {
            let m = &self.meta[slot as usize];
            if m.id != keep {
                return Some((m.id, slot));
            }
            slot = m.next;
        }
        None
    }

    /// The coldest live streams as `(stream, slot)`: the LRU prefix whose
    /// last use is more than `ttl` ticks before `now`. Stops at the first
    /// stream that is not idle.
    pub fn idle(&self, now: u64, ttl: u64) -> Vec<(StreamId, u32)> {
        self.iter_lru()
            .take_while(|&(_, _, last_used)| now.saturating_sub(last_used) > ttl)
            .map(|(id, slot, _)| (id, slot))
            .collect()
    }

    /// Hint the CPU to pull `slot`'s block into cache — issued a few
    /// requests ahead of [`Self::view`] so the misses overlap the
    /// current request's work. Purely a timing hint; never changes state.
    #[inline]
    pub fn prefetch(&self, slot: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every address is inside a live allocation (slot blocks
        // are in range), and prefetch has no architectural effect
        // beyond the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let block = self.rows.as_ptr().add(slot as usize * self.stride);
            _mm_prefetch(block as *const i8, _MM_HINT_T0);
            // The block may straddle a cache-line boundary; touch its
            // tail. Head + tail cover the whole span (stride ≤ 2 lines
            // for the paper-scale concept counts this serves).
            _mm_prefetch(block.add(self.stride - 1) as *const i8, _MM_HINT_T0);
        }
    }

    /// Borrow one block as the layout-independent filter view the update
    /// equations run on.
    #[inline]
    pub fn view(&mut self, slot: u32) -> FilterView<'_> {
        let (n, s) = (self.n, slot as usize);
        let block = &mut self.rows[s * self.stride..(s + 1) * self.stride];
        let (dist, tail) = block.split_at_mut(2 * n);
        let (posterior, prior) = dist.split_at_mut(n);
        let (ll, order) = tail.split_at_mut(1);
        FilterView {
            posterior,
            prior,
            order: order_in_tail(order, n),
            last_likelihood: &mut ll[0],
        }
    }

    /// Copy one block out into an owned `FilterState` (introspection and
    /// migration work on owned states; these are cold paths).
    pub fn materialize(&self, model: &HighOrderModel, slot: u32) -> FilterState {
        let (n, s) = (self.n, slot as usize);
        let block = &self.rows[s * self.stride..(s + 1) * self.stride];
        FilterState::assemble(
            model,
            block[..n].to_vec(),
            block[n..2 * n].to_vec(),
            order_of(block, n).to_vec(),
            block[2 * n],
        )
    }

    /// Free a slot (the stream was evicted or removed).
    pub fn remove(&mut self, slot: u32) {
        debug_assert!(self.meta[slot as usize].occupied);
        self.unlink(slot);
        self.meta[slot as usize].occupied = false;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Fold this shard's live streams into fleet-wide concept analytics:
    /// per-concept posterior mass and MAP-stream counts (the stream's
    /// current concept = the head of its §III-C prune order, i.e. the
    /// argmax-prior concept), plus the summed normalized posterior
    /// entropy. Read-only over the row blocks — a scrape-time cold path
    /// that never touches the hot-path layout. Returns the number of
    /// live streams folded.
    pub fn fold_concepts(
        &self,
        mass: &mut [f64],
        map_streams: &mut [u64],
        entropy_sum: &mut f64,
    ) -> usize {
        debug_assert!(mass.len() >= self.n && map_streams.len() >= self.n);
        let n = self.n;
        let norm = if n > 1 { (n as f64).ln() } else { 1.0 };
        let mut folded = 0;
        for (_, slot, _) in self.iter() {
            let s = slot as usize;
            let block = &self.rows[s * self.stride..(s + 1) * self.stride];
            let posterior = &block[..n];
            let mut h = 0.0;
            for (c, &p) in posterior.iter().enumerate() {
                mass[c] += p;
                if p > 0.0 {
                    h -= p * p.ln();
                }
            }
            *entropy_sum += h / norm;
            map_streams[order_of(block, n)[0] as usize] += 1;
            folded += 1;
        }
        folded
    }

    /// Iterate the live streams as `(stream, slot, last_used)`, in slot
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, u32, u64)> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter(|&(_, m)| m.occupied)
            .map(|(s, m)| (m.id, s as u32, m.last_used))
    }

    /// Iterate the live streams as `(stream, slot, last_used)`, coldest
    /// first (LRU list order, which is ascending tick order).
    pub fn iter_lru(&self) -> impl Iterator<Item = (StreamId, u32, u64)> + '_ {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let m = &self.meta[slot as usize];
            let item = (m.id, slot, m.last_used);
            slot = m.next;
            Some(item)
        })
    }
}

/// Parked snapshot bytes validated by [`StateTable::decode`], ready for
/// [`StateTable::insert_decoded`].
pub(crate) enum Incoming<'a> {
    /// A snapshot of the table's width, still borrowed from its bytes.
    Row(SnapshotRef<'a>),
    /// A snapshot of an older, smaller model, migrated forward.
    Migrated(FilterState),
}

/// The `n`-entry `u32` prune order packed into a block's tail (shared
/// borrow; see [`order_in_tail`]).
#[inline]
fn order_of(block: &[f64], n: usize) -> &[u32] {
    let tail = &block[2 * n + 1..];
    debug_assert!(tail.len() * 2 >= n);
    // SAFETY: same layout argument as [`order_in_tail`], shared borrow
    // this time.
    unsafe { std::slice::from_raw_parts(tail.as_ptr().cast::<u32>(), n) }
}

/// Multiplicative (Fibonacci) hash of a stream id onto `2^bits` shards —
/// cheap, and spreads dense ids (0, 1, 2, …) evenly.
pub(crate) fn shard_of(stream: StreamId, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hom_classifiers::MajorityClassifier;
    use hom_core::{Concept, TransitionStats};
    use hom_data::{Attribute, Schema};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A model of `n` majority-vote concepts over one numeric attribute.
    fn model(n: usize) -> HighOrderModel {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let concepts = (0..n)
            .map(|id| Concept {
                id,
                model: Arc::new(MajorityClassifier::from_counts(if id % 2 == 0 {
                    &[9, 1]
                } else {
                    &[2, 8]
                })),
                err: 0.1 + 0.01 * id as f64,
                n_records: 50,
                n_occurrences: 1,
            })
            .collect();
        let occ: Vec<(usize, usize)> = (0..n).map(|c| (c, 30 + 7 * c)).collect();
        HighOrderModel::from_parts(schema, concepts, TransitionStats::from_occurrences(n, &occ))
    }

    /// Get-or-create `stream` at tick `now`, as the engine's touch does.
    fn touch(shard: &mut Shard, stream: StreamId, now: u64) {
        match shard.index.get(stream) {
            Some(slot) => shard.table.touch(slot, now),
            None => {
                let slot = shard.table.insert_uniform(stream, now);
                shard.index.insert(stream, slot);
            }
        }
    }

    /// The reference LRU victim: a min-tick scan over every live stream.
    fn scan_victim(ticks: &HashMap<StreamId, u64>, keep: StreamId) -> Option<StreamId> {
        ticks
            .iter()
            .filter(|&(&id, _)| id != keep)
            .min_by_key(|&(_, &t)| t)
            .map(|(&id, _)| id)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The O(1) LRU list agrees with a min-tick scan after every
        /// insert, touch, remove, eviction, live migration and TTL sweep.
        fn lru_list_matches_a_min_tick_scan(
            ops in proptest::collection::vec((0u8..6, 0u64..24, 0u64..40), 1..160),
        ) {
            let mut models = vec![Arc::new(model(2))];
            let mut shard = Shard::new(2);
            let mut ticks: HashMap<StreamId, u64> = HashMap::new();
            let mut clock = 0u64;
            for (op, stream, arg) in ops {
                match op {
                    0 | 1 => {
                        touch(&mut shard, stream, clock);
                        ticks.insert(stream, clock);
                        clock += 1;
                    }
                    2 => {
                        if let Some(slot) = shard.index.remove(stream) {
                            shard.table.remove(slot);
                        }
                        ticks.remove(&stream);
                    }
                    3 => {
                        let victim = shard.table.lru_victim(stream);
                        prop_assert_eq!(victim.map(|v| v.0), scan_victim(&ticks, stream));
                        if let Some((id, slot)) = victim {
                            shard.table.remove(slot);
                            shard.index.remove(id);
                            ticks.remove(&id);
                        }
                    }
                    4 => {
                        // Grow the model now and then; same-width
                        // migrations rebuild the table all the same.
                        let old = models.last().expect("a model").clone();
                        let new = if arg % 2 == 0 && old.n_concepts() < 5 {
                            Arc::new(old.admit_concept(
                                Arc::new(MajorityClassifier::from_counts(&[5, 5])),
                                0.2,
                                40,
                            ))
                        } else {
                            Arc::clone(&old)
                        };
                        prop_assert_eq!(shard.migrate_live(&old, &new), ticks.len());
                        models.push(new);
                    }
                    _ => {
                        let mut idle: Vec<StreamId> = shard
                            .table
                            .idle(clock, arg)
                            .into_iter()
                            .map(|(id, _)| id)
                            .collect();
                        let mut expect: Vec<StreamId> = ticks
                            .iter()
                            .filter(|&(_, &t)| clock.saturating_sub(t) > arg)
                            .map(|(&id, _)| id)
                            .collect();
                        idle.sort_unstable();
                        expect.sort_unstable();
                        prop_assert_eq!(&idle, &expect);
                        for id in idle {
                            let slot = shard.index.remove(id).expect("idle stream is live");
                            shard.table.remove(slot);
                            ticks.remove(&id);
                        }
                    }
                }
                prop_assert_eq!(shard.table.len(), ticks.len());
                for keep in [stream, u64::MAX] {
                    prop_assert_eq!(
                        shard.table.lru_victim(keep).map(|v| v.0),
                        scan_victim(&ticks, keep)
                    );
                }
                let order: Vec<u64> = shard.table.iter_lru().map(|(_, _, t)| t).collect();
                prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
            }
        }

        /// Rows encode to exactly `FilterState::snapshot_with_epoch`'s
        /// bytes, decode to exactly `FilterState::restore`'s state, and
        /// reject every truncation and single-bit flip with the same
        /// error — never a panic.
        fn row_codec_matches_the_filter_state_codec(
            n in 1usize..10,
            labels in proptest::collection::vec(0u32..2, 0..40),
            epoch in 0u32..5,
        ) {
            let m = model(n);
            let mut state = FilterState::new(&m);
            for (t, &y) in labels.iter().enumerate() {
                state.observe(&m, &[t as f64], y);
            }
            let mut table = StateTable::new(n);
            let slot = table.insert_state(3, &state, 0);
            let bytes = table.encode(slot, epoch);
            prop_assert_eq!(&bytes, &state.snapshot_with_epoch(epoch));

            let restored = FilterState::restore(&m, &bytes).expect("valid snapshot");
            let incoming = table.decode(&m, &bytes).expect("valid snapshot");
            let row = table.insert_decoded(4, &incoming, 1);
            let row = table.materialize(&m, row);
            let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(row.posterior()), bits(restored.posterior()));
            prop_assert_eq!(bits(row.prior()), bits(restored.prior()));
            prop_assert_eq!(row.order(), restored.order());
            prop_assert_eq!(row.last_likelihood(), 1.0);

            let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    damaged.push(bad);
                }
            }
            for bad in damaged {
                let row = table.decode(&m, &bad).err();
                prop_assert!(row.is_some(), "damaged bytes decoded: {bad:?}");
                prop_assert_eq!(&row, &FilterState::restore(&m, &bad).err());
                prop_assert_eq!(&row, &FilterState::restore_migrating(&m, &bad).err());
            }
        }
    }

    #[test]
    fn older_snapshots_migrate_into_a_wider_row() {
        let small = model(2);
        let mut state = FilterState::new(&small);
        state.observe(&small, &[0.0], 1);
        let bytes = state.snapshot_with_epoch(1);
        let wide = small.admit_concept(Arc::new(MajorityClassifier::from_counts(&[5, 5])), 0.2, 40);
        let mut table = StateTable::new(wide.n_concepts());
        let incoming = table
            .decode(&wide, &bytes)
            .expect("older snapshot migrates");
        assert!(matches!(incoming, Incoming::Migrated(_)));
        let slot = table.insert_decoded(9, &incoming, 0);
        let direct = state.migrate(&wide);
        assert_eq!(
            table.materialize(&wide, slot).posterior(),
            direct.posterior()
        );
        // A wider snapshot never shrinks into a narrower table.
        let back = StateTable::new(2);
        assert_eq!(
            back.decode(&small, &table.encode(slot, 0)).err(),
            Some(SnapshotError::ModelMismatch {
                snapshot: 3,
                model: 2
            })
        );
    }

    #[test]
    fn dense_ids_spread_over_shards() {
        let bits = 4; // 16 shards
        let mut counts = [0usize; 16];
        for id in 0..1600u64 {
            counts[shard_of(id, bits)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((50..=200).contains(&c), "shard {s} got {c} of 1600");
        }
    }

    #[test]
    fn shard_is_stable() {
        for id in [0u64, 1, 42, u64::MAX] {
            assert_eq!(shard_of(id, 6), shard_of(id, 6));
        }
        assert_eq!(shard_of(123, 0), 0);
    }

    #[test]
    fn index_insert_get_remove() {
        let mut idx = StreamIndex::new();
        assert_eq!(idx.get(0), None);
        for id in 0..1000u64 {
            idx.insert(id, id as u32 * 2);
        }
        for id in 0..1000u64 {
            assert_eq!(idx.get(id), Some(id as u32 * 2));
        }
        assert_eq!(idx.get(1000), None);
        // update in place
        idx.insert(7, 99);
        assert_eq!(idx.get(7), Some(99));
        // removal leaves the rest reachable (tombstones keep probe
        // chains intact)
        for id in (0..1000u64).step_by(2) {
            assert_eq!(
                idx.remove(id),
                Some(if id == 7 { 99 } else { id as u32 * 2 })
            );
        }
        for id in 0..1000u64 {
            let expect = (id % 2 == 1).then(|| if id == 7 { 99 } else { id as u32 * 2 });
            assert_eq!(idx.get(id), expect);
        }
        assert_eq!(idx.remove(4), None);
    }

    #[test]
    fn index_survives_churn() {
        // Insert/remove cycles accumulate tombstones; the rehash must
        // keep every live entry reachable.
        let mut idx = StreamIndex::new();
        for round in 0..50u64 {
            for id in 0..200u64 {
                idx.insert(round * 1_000_003 + id, (round + id) as u32);
            }
            for id in 0..200u64 {
                assert_eq!(
                    idx.remove(round * 1_000_003 + id),
                    Some((round + id) as u32)
                );
            }
        }
        idx.insert(42, 1);
        assert_eq!(idx.get(42), Some(1));
    }
}
