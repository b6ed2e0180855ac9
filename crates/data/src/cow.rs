//! The two copy-on-write containers the fact store is made of.
//!
//! An [`crate::UncertainDatabase`] is a *persistent* value: cloning it (and
//! so freezing a [`crate::Snapshot`]) shares everything, and a mutation
//! copies only the parts it touches. Both containers here are therefore a
//! spine of `Arc`s over parts that are unshared one at a time with
//! `Arc::make_mut` — in place when the part is uniquely owned (bulk loads
//! copy nothing), by copy when a snapshot still holds it:
//!
//! * [`CowVec`] — a dense vector cut into equally sized **chunks** (in two
//!   levels, or three: [`DeepVec`]);
//! * [`CowMap`] — a `u64 → {u32}` multimap cut into hash-selected
//!   **shards**, each an open-addressed table over one value array, all
//!   plain integers, so copying a shard is two `memcpy`s and a lookup is a
//!   hash probe that hands out the bucket as a slice.
//!
//! The fan-out of both follows a root of the container's size — a write
//! then copies one O(√n) (or O(∛n)) part per level, whatever n is — and is
//! re-derived as the container grows; nothing here is configurable.

use std::sync::Arc;

/// What a [`CowVec`] keeps its chunks in: a plain vector, for a vector of
/// two levels, or another `CowVec`, for one of three.
pub(crate) trait Spine<T>: Clone + Default {
    /// The levels of a vector built on this spine.
    const LEVELS: u32;
    fn len(&self) -> usize;
    fn get(&self, index: usize) -> Option<&Arc<[T]>>;
    /// The chunk handle at `index`, for replacing or unsharing the chunk.
    fn get_mut(&mut self, index: usize) -> Option<&mut Arc<[T]>>;
    fn push(&mut self, chunk: Arc<[T]>);
    fn pop(&mut self) -> Option<Arc<[T]>>;
    fn iter<'a>(&'a self) -> impl Iterator<Item = &'a Arc<[T]>>
    where
        T: 'a;
    /// Number of parts of the spine itself `self` does not share with
    /// `other`.
    #[cfg(test)]
    fn unshared(&self, other: &Self) -> usize;
}

impl<T> Spine<T> for Vec<Arc<[T]>> {
    const LEVELS: u32 = 2;

    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get(&self, index: usize) -> Option<&Arc<[T]>> {
        self.as_slice().get(index)
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut Arc<[T]>> {
        self.as_mut_slice().get_mut(index)
    }

    fn push(&mut self, chunk: Arc<[T]>) {
        self.push(chunk);
    }

    fn pop(&mut self) -> Option<Arc<[T]>> {
        self.pop()
    }

    fn iter<'a>(&'a self) -> impl Iterator<Item = &'a Arc<[T]>>
    where
        T: 'a,
    {
        self.as_slice().iter()
    }

    #[cfg(test)]
    fn unshared(&self, _: &Self) -> usize {
        0
    }
}

impl<T> Spine<T> for CowVec<Arc<[T]>> {
    const LEVELS: u32 = 3;

    fn len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get(&self, index: usize) -> Option<&Arc<[T]>> {
        (index < self.len()).then(|| &self[index])
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut Arc<[T]>> {
        (index < self.len()).then(|| self.get_mut(index))
    }

    fn push(&mut self, chunk: Arc<[T]>) {
        self.push(chunk);
    }

    fn pop(&mut self) -> Option<Arc<[T]>> {
        self.pop()
    }

    fn iter<'a>(&'a self) -> impl Iterator<Item = &'a Arc<[T]>>
    where
        T: 'a,
    {
        self.iter()
    }

    #[cfg(test)]
    fn unshared(&self, other: &Self) -> usize {
        self.unshared(other)
    }
}

/// A chunked copy-on-write vector: full chunks behind `Arc`s, and the
/// elements after the last full chunk in a plain tail that every copy owns
/// (pushes and pops — most writes — never touch a shared chunk).
///
/// Copying an element that owns heap data costs a reference-count update,
/// copying a plain one part of a `memcpy`. Vectors of the latter have two
/// levels and large chunks; those of the former keep their chunks in a
/// `CowVec` of their own ([`DeepVec`]), so that neither a chunk nor any
/// part of the spine grows beyond the cube root of the length.
pub(crate) struct CowVec<T, S: Spine<T> = Vec<Arc<[T]>>> {
    /// The full chunks, `1 << shift` elements each.
    chunks: S,
    /// Fewer than `1 << shift` elements.
    tail: Vec<T>,
    /// log2 of the chunk capacity.
    shift: u32,
    /// The least `shift` may be.
    floor: u32,
}

/// A [`CowVec`] of three levels, for elements that own heap data.
pub(crate) type DeepVec<T> = CowVec<T, CowVec<Arc<[T]>>>;

impl<T, S: Spine<T>> Default for CowVec<T, S> {
    fn default() -> Self {
        CowVec {
            chunks: S::default(),
            tail: Vec::new(),
            shift: 5,
            floor: 5,
        }
    }
}

impl<T: Clone, S: Spine<T>> Clone for CowVec<T, S> {
    /// Only a mutation that unshares the vector's owner clones it, so the
    /// tail copied here is a part that write copied.
    fn clone(&self) -> Self {
        if !self.tail.is_empty() {
            cqa_obs::count!("data.store.chunks_copied");
        }
        CowVec {
            chunks: self.chunks.clone(),
            tail: self.tail.clone(),
            shift: self.shift,
            floor: self.floor,
        }
    }
}

impl<T: Clone, S: Spine<T>> CowVec<T, S> {
    /// Plain elements get chunks four times the root: the spine shrinks
    /// instead, and a `memcpy` that size is still cheaper than it.
    const BIAS: u32 = if std::mem::needs_drop::<T>() { 0 } else { 2 };

    /// The chunk-capacity exponent for a vector of `len` elements: about
    /// the logarithm of its `LEVELS`-th root, and at least `floor`.
    fn shift_for(len: usize, floor: u32) -> u32 {
        let bits = usize::BITS - len.leading_zeros();
        (bits / S::LEVELS + Self::BIAS).max(floor)
    }

    pub(crate) fn from_vec(items: Vec<T>) -> Self {
        Self::with_chunks_of(items, 5)
    }

    /// [`CowVec::from_vec`] with chunks of at least `1 << floor` elements,
    /// now and as the vector grows.
    pub(crate) fn with_chunks_of(items: Vec<T>, floor: u32) -> Self {
        let shift = Self::shift_for(items.len(), floor);
        let full = items.len() >> shift;
        let mut items = items.into_iter();
        let mut chunks = S::default();
        for _ in 0..full {
            chunks.push(items.by_ref().take(1 << shift).collect());
        }
        CowVec {
            chunks,
            tail: items.collect(),
            shift,
            floor,
        }
    }

    pub(crate) fn len(&self) -> usize {
        (self.chunks.len() << self.shift) + self.tail.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (self.chunks.iter().flat_map(|chunk| chunk.iter())).chain(&self.tail)
    }

    /// The `len` elements from `start` on, which must lie in one chunk —
    /// as any aligned power-of-two run shorter than the smallest chunk does.
    #[inline]
    pub(crate) fn run(&self, start: usize, len: usize) -> &[T] {
        let offset = start & ((1 << self.shift) - 1);
        match self.chunks.get(start >> self.shift) {
            Some(chunk) => &chunk[offset..offset + len],
            None => &self.tail[offset..offset + len],
        }
    }

    pub(crate) fn get_mut(&mut self, index: usize) -> &mut T {
        let offset = index & ((1 << self.shift) - 1);
        match self.chunks.get_mut(index >> self.shift) {
            Some(chunk) => {
                // Unshared first if a snapshot still holds it.
                if Arc::get_mut(chunk).is_none() {
                    cqa_obs::count!("data.store.chunks_copied");
                }
                &mut Arc::make_mut(chunk)[offset]
            }
            None => &mut self.tail[offset],
        }
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.tail.is_empty() {
            // On a chunk boundary: the vector may have outgrown its chunk
            // size.
            let ideal = Self::shift_for(self.len() + 1, self.floor);
            if ideal > self.shift {
                self.rechunk(ideal);
            }
        }
        self.tail.push(value);
        if self.tail.len() == 1 << self.shift {
            self.chunks.push(std::mem::take(&mut self.tail).into());
        }
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.tail.is_empty() {
            self.tail = self.chunks.pop()?.to_vec();
        }
        self.tail.pop()
    }

    /// Removes the element at `index` by moving the last one into its place.
    pub(crate) fn swap_remove(&mut self, index: usize) -> T {
        let last = self.pop().expect("swap_remove on an empty CowVec");
        if index == self.len() {
            last
        } else {
            std::mem::replace(self.get_mut(index), last)
        }
    }

    /// Merges neighbouring chunks up to the capacity `1 << shift`; the tail
    /// is empty.
    fn rechunk(&mut self, shift: u32) {
        let per = 1usize << (shift - self.shift);
        let old: Vec<Arc<[T]>> = self.chunks.iter().cloned().collect();
        self.chunks = S::default();
        for group in old.chunks(per) {
            let merged = group.concat();
            if group.len() == per {
                self.chunks.push(merged.into());
            } else {
                self.tail = merged;
            }
        }
        self.shift = shift;
    }

    /// Number of parts (full chunks, parts of the spine, and the tail)
    /// `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared(&self, other: &Self) -> usize {
        let chunks = (self.chunks.iter().enumerate())
            .filter(|(i, chunk)| (other.chunks.get(*i)).is_none_or(|c| !Arc::ptr_eq(c, chunk)))
            .count();
        chunks + self.chunks.unshared(&other.chunks) + usize::from(!self.tail.is_empty())
    }
}

impl<T, S: Spine<T>> std::ops::Index<usize> for CowVec<T, S> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        let offset = index & ((1 << self.shift) - 1);
        match self.chunks.get(index >> self.shift) {
            Some(chunk) => &chunk[offset],
            None => &self.tail[offset],
        }
    }
}

/// Keys are packed codes or hashes with structure in their low bits; a
/// Fibonacci multiply — a bijection on `u64` — spreads them evenly. The map
/// stores keys in this mixed form: its top bits select the shard, the next
/// ones the slot within it.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// `MIX⁻¹ mod 2⁶⁴`.
const UNMIX: u64 = 0xF1DE_83E1_9937_733D;

/// One bucket of a [`Shard`]: the values of the (mixed) key `key` are
/// `vals[start..start + len]`. `len == 0` marks a free slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    key: u64,
    start: u32,
    len: u32,
}

/// One shard of a [`CowMap`]: an open-addressed table of buckets over one
/// value array. All of it is plain integers, so copying a shard is two
/// `memcpy`s, and a bucket is a slice of `vals`.
///
/// A bucket that grows moves to the end of `vals`, one that shrinks closes
/// up; what they leave behind is `dead` space, squeezed out once it
/// outweighs the live values.
#[derive(Clone, Default)]
struct Shard {
    /// Linear probing; the length is zero or a power of two, at most half
    /// of it occupied (a probe that misses stays short).
    slots: Vec<Slot>,
    vals: Vec<u32>,
    occupied: usize,
    dead: usize,
}

impl Shard {
    /// A shard with room for `keys` keys and `vals` values.
    fn with_capacity(keys: usize, vals: usize) -> Self {
        Shard {
            slots: vec![Slot::default(); (keys * 2).next_power_of_two().max(8)],
            vals: Vec::with_capacity(vals),
            occupied: 0,
            dead: 0,
        }
    }

    /// Where the probe sequence of `key` starts, in a shard selected by the
    /// top `bits` bits: the bits right below those.
    #[inline]
    fn home(&self, key: u64, bits: u32) -> usize {
        ((key << bits) >> 32) as usize & (self.slots.len() - 1)
    }

    /// The slot holding `key`, or else the free slot its probe ends at.
    #[inline]
    fn find(&self, key: u64, bits: u32) -> (usize, bool) {
        let mut at = self.home(key, bits);
        loop {
            let slot = &self.slots[at];
            if slot.len == 0 || slot.key == key {
                return (at, slot.len != 0);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    #[inline]
    fn get(&self, key: u64, bits: u32) -> &[u32] {
        if self.slots.is_empty() {
            return &[];
        }
        let slot = self.slots[self.find(key, bits).0];
        &self.vals[slot.start as usize..(slot.start + slot.len) as usize]
    }

    /// Adds `val` to the bucket of `key`; true iff the key is new.
    fn insert(&mut self, key: u64, val: u32, bits: u32) -> bool {
        if (self.occupied + 1) * 2 > self.slots.len() {
            self.rehash(bits);
        }
        let (at, found) = self.find(key, bits);
        let slot = self.slots[at];
        let (start, end) = (slot.start as usize, (slot.start + slot.len) as usize);
        if !found {
            self.occupied += 1;
            self.slots[at] = Slot {
                key,
                start: self.vals.len() as u32,
                len: 1,
            };
            self.vals.push(val);
            return true;
        }
        let rank = self.vals[start..end].partition_point(|&v| v < val);
        self.slots[at].len += 1;
        if end == self.vals.len() {
            // The bucket ends the array: it grows in place.
            self.vals.insert(start + rank, val);
        } else {
            self.slots[at].start = self.vals.len() as u32;
            self.vals.extend_from_within(start..start + rank);
            self.vals.push(val);
            self.vals.extend_from_within(start + rank..end);
            self.dead += end - start;
            self.squeeze();
        }
        false
    }

    /// Removes `val` from the bucket of `key` (both must be present); true
    /// iff it was the key's last value.
    fn remove(&mut self, key: u64, val: u32, bits: u32) -> bool {
        let (mut at, found) = self.find(key, bits);
        assert!(found, "CowMap::remove of an absent key");
        let slot = self.slots[at];
        let (start, end) = (slot.start as usize, (slot.start + slot.len) as usize);
        let rank = self.vals[start..end]
            .binary_search(&val)
            .expect("CowMap::remove of an absent value");
        self.vals.copy_within(start + rank + 1..end, start + rank);
        if end == self.vals.len() {
            self.vals.pop();
        } else {
            self.dead += 1;
        }
        self.slots[at].len -= 1;
        if slot.len > 1 {
            self.squeeze();
            return false;
        }
        // Free the slot, moving back every later entry of the cluster that
        // the hole would otherwise cut off from its home.
        self.occupied -= 1;
        let mask = self.slots.len() - 1;
        let mut next = at;
        loop {
            next = (next + 1) & mask;
            let moved = self.slots[next];
            if moved.len == 0 {
                break;
            }
            let home = self.home(moved.key, bits);
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(at) & mask) {
                self.slots[at] = moved;
                at = next;
            }
        }
        self.slots[at] = Slot::default();
        self.squeeze();
        true
    }

    /// Doubles the table.
    fn rehash(&mut self, bits: u32) {
        let old = std::mem::take(&mut self.slots);
        self.slots = vec![Slot::default(); (old.len() * 2).max(8)];
        for slot in old.into_iter().filter(|slot| slot.len != 0) {
            let at = self.find(slot.key, bits).0;
            self.slots[at] = slot;
        }
    }

    /// Rewrites `vals` without its dead space once that outweighs the rest.
    fn squeeze(&mut self) {
        if self.dead <= 32.max(self.vals.len() / 2) {
            return;
        }
        let mut vals = Vec::with_capacity(self.vals.len() - self.dead);
        for slot in self.slots.iter_mut().filter(|slot| slot.len != 0) {
            let bucket = slot.start as usize..(slot.start + slot.len) as usize;
            slot.start = vals.len() as u32;
            vals.extend_from_slice(&self.vals[bucket]);
        }
        self.vals = vals;
        self.dead = 0;
    }

    /// The buckets, as `(mixed key, values)`.
    fn buckets(&self) -> impl Iterator<Item = (u64, &[u32])> {
        (self.slots.iter())
            .filter(|slot| slot.len != 0)
            .map(|slot| {
                let bucket = slot.start as usize..(slot.start + slot.len) as usize;
                (slot.key, &self.vals[bucket])
            })
    }
}

/// A hash-sharded copy-on-write multimap from `u64` keys to ascending
/// `u32` values — position-index buckets (packed codes → rows), the key map
/// (key hash → blocks) and the dictionary lookup (value hash → codes).
///
/// Three levels, like a [`DeepVec`]: the shards come in equal groups, and
/// group count, group size and shard size all follow a root of the entry
/// count.
#[derive(Clone)]
pub(crate) struct CowMap {
    /// `1 << (bits - bits / 2)` groups of `1 << (bits / 2)` shards.
    groups: Vec<Arc<[Arc<Shard>]>>,
    /// log2 of the shard count.
    bits: u32,
    len: usize,
    distinct: usize,
}

impl Default for CowMap {
    fn default() -> Self {
        CowMap {
            groups: Self::grouped(vec![Arc::default()], 0),
            bits: 0,
            len: 0,
            distinct: 0,
        }
    }
}

impl CowMap {
    /// The shard-count exponent for `len` entries: shards of a few times
    /// ∛len entries (copying integers is far cheaper than bumping reference
    /// counts), the rest of the fan-out left to the two levels above them.
    fn bits_for(len: usize) -> u32 {
        ((usize::BITS - len.leading_zeros()) * 2 / 3).saturating_sub(2)
    }

    fn grouped(shards: Vec<Arc<Shard>>, bits: u32) -> Vec<Arc<[Arc<Shard>]>> {
        shards.chunks(1 << (bits / 2)).map(Arc::from).collect()
    }

    fn shards(&self) -> impl Iterator<Item = &Arc<Shard>> {
        self.groups.iter().flat_map(|group| group.iter())
    }

    #[inline]
    fn shard_of(mixed: u64, bits: u32) -> usize {
        if bits == 0 {
            0
        } else {
            (mixed >> (64 - bits)) as usize
        }
    }

    pub(crate) fn from_entries(mut entries: Vec<(u64, u32)>) -> Self {
        let bits = Self::bits_for(entries.len());
        for (key, _) in &mut entries {
            *key = key.wrapping_mul(MIX);
        }
        // Mixed-key order is shard order, and bucket order within a shard.
        entries.sort_unstable();
        let mut distinct = 0;
        let mut shards = Vec::with_capacity(1 << bits);
        let mut rest = &entries[..];
        for shard in 0..1usize << bits {
            let (mine, others) =
                rest.split_at(rest.partition_point(|&(key, _)| Self::shard_of(key, bits) <= shard));
            rest = others;
            let keys = 1 + mine
                .windows(2)
                .filter(|pair| pair[0].0 != pair[1].0)
                .count();
            let mut built = Shard::with_capacity(keys.min(mine.len()), mine.len());
            for &(key, val) in mine {
                distinct += usize::from(built.insert(key, val, bits));
            }
            shards.push(Arc::new(built));
        }
        CowMap {
            groups: Self::grouped(shards, bits),
            bits,
            len: entries.len(),
            distinct,
        }
    }

    /// Number of distinct keys.
    pub(crate) fn key_count(&self) -> usize {
        self.distinct
    }

    /// The values stored under `key`, ascending (`&[]` when absent).
    #[inline]
    pub(crate) fn get(&self, key: u64) -> &[u32] {
        let key = key.wrapping_mul(MIX);
        let shard = Self::shard_of(key, self.bits);
        let within = self.bits / 2;
        self.groups[shard >> within][shard & ((1 << within) - 1)].get(key, self.bits)
    }

    /// The distinct keys, in no particular order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        (self.shards())
            .flat_map(|shard| shard.buckets())
            .map(|(key, _)| key.wrapping_mul(UNMIX))
    }

    /// The shard of the mixed key, unshared first if a snapshot still
    /// holds it.
    fn shard_mut(&mut self, mixed: u64) -> &mut Shard {
        let shard = Self::shard_of(mixed, self.bits);
        let within = self.bits / 2;
        let group = Arc::make_mut(&mut self.groups[shard >> within]);
        let shard = &mut group[shard & ((1 << within) - 1)];
        if Arc::get_mut(shard).is_none() {
            cqa_obs::count!("data.store.shards_copied");
        }
        Arc::make_mut(shard)
    }

    /// Adds `(key, val)`; the pair must not be present.
    pub(crate) fn insert(&mut self, key: u64, val: u32) {
        if Self::bits_for(self.len + 1) > self.bits {
            self.split();
        }
        let (key, bits) = (key.wrapping_mul(MIX), self.bits);
        self.distinct += usize::from(self.shard_mut(key).insert(key, val, bits));
        self.len += 1;
    }

    /// Removes `(key, val)`; the pair must be present.
    pub(crate) fn remove(&mut self, key: u64, val: u32) {
        let (key, bits) = (key.wrapping_mul(MIX), self.bits);
        self.distinct -= usize::from(self.shard_mut(key).remove(key, val, bits));
        self.len -= 1;
    }

    /// Doubles the shard count: each shard is dealt out in two on the next
    /// bit of its keys.
    fn split(&mut self) {
        let bits = self.bits + 1;
        let mut shards = Vec::with_capacity(1 << bits);
        for shard in self.shards() {
            let mut halves = [Shard::default(), Shard::default()];
            for (key, bucket) in shard.buckets() {
                let half = &mut halves[Self::shard_of(key, bits) & 1];
                for &val in bucket {
                    half.insert(key, val, bits);
                }
            }
            shards.extend(halves.map(Arc::new));
        }
        self.groups = Self::grouped(shards, bits);
        self.bits = bits;
    }

    /// Number of shards, and of groups of them, `self` does not share with
    /// `other`.
    #[cfg(test)]
    pub(crate) fn unshared(&self, other: &Self) -> usize {
        let shards = (self.shards().zip(other.shards()))
            .filter(|(mine, theirs)| !Arc::ptr_eq(mine, theirs))
            .count();
        let groups = (self.groups.iter().zip(&other.groups))
            .filter(|(mine, theirs)| !Arc::ptr_eq(mine, theirs))
            .count();
        shards + groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes, rechunking growth, swap-removes and pops, on either spine.
    fn grow_and_shrink<S: Spine<u32>>() {
        let mut v: CowVec<u32, S> = CowVec::default();
        for i in 0..100_000u32 {
            v.push(i);
        }
        assert_eq!(v.len(), 100_000);
        assert!(v.shift > 5, "chunks grew with the vector");
        assert!(v.chunks.len() > 1);
        assert!((0..100_000).all(|i| v[i] == i as u32));
        assert!(v.iter().copied().eq(0..100_000));
        // Swap-remove moves the last element into the hole.
        assert_eq!(v.swap_remove(3), 3);
        assert_eq!(v[3], 99_999);
        assert_eq!(v.swap_remove(99_998), 99_998);
        assert_eq!(v.len(), 99_998);
        while v.pop().is_some() {}
        assert_eq!(v.len(), 0);
        assert_eq!(v.iter().count(), 0);
        let w: CowVec<u32, S> = CowVec::from_vec((0..5000u32).collect());
        assert!(w.iter().copied().eq(0..5000));
    }

    #[test]
    fn vectors_grow_shrink_and_rechunk() {
        grow_and_shrink::<Vec<Arc<[u32]>>>();
        grow_and_shrink::<CowVec<Arc<[u32]>>>();
    }

    #[test]
    fn a_write_copies_one_part_per_level_and_leaves_the_clone_alone() {
        let mut v: CowVec<u32> = CowVec::from_vec((0..100_000u32).collect());
        let frozen = v.clone();
        assert_eq!(v.unshared(&frozen), 1, "every copy owns its tail");
        *v.get_mut(70_000) = 7;
        v.push(1);
        assert_eq!(v.unshared(&frozen), 2);
        assert_eq!(frozen[70_000], 70_000);
        assert_eq!(frozen.len(), 100_000);
        assert_eq!(v[70_000], 7);
        // Three levels: the chunk, the spine chunk over it, and both tails.
        let mut deep: DeepVec<String> =
            DeepVec::from_vec((0..100_000).map(|i| i.to_string()).collect());
        let frozen = deep.clone();
        deep.get_mut(70_000).push('!');
        deep.push("more".to_string());
        assert!(deep.unshared(&frozen) <= 4);
        assert_eq!(frozen[70_000], "70000");
        assert_eq!(deep[70_000], "70000!");
        assert_eq!(deep.len(), frozen.len() + 1);
    }

    #[test]
    fn maps_keep_buckets_sorted_across_splits() {
        let mut map = CowMap::default();
        // Two values per key, inserted out of order; enough keys to split
        // the shards several times.
        for key in 0..5_000u64 {
            map.insert(key * 3, (key as u32) + 10_000);
            map.insert(key * 3, key as u32);
        }
        assert!(map.bits > 0);
        assert_eq!(map.len, 10_000);
        assert_eq!(map.key_count(), 5_000);
        for key in 0..5_000u64 {
            assert_eq!(map.get(key * 3), &[key as u32, key as u32 + 10_000]);
            assert!(map.get(key * 3 + 1).is_empty());
        }
        let mut keys: Vec<u64> = map.keys().collect();
        keys.sort_unstable();
        assert!(keys.iter().copied().eq((0..5_000).map(|k| k * 3)));
        let frozen = map.clone();
        map.remove(30, 10);
        map.remove(30, 10_010);
        assert_eq!(map.key_count(), 4_999);
        assert!(map.get(30).is_empty());
        assert_eq!(frozen.get(30), &[10, 10_010]);
        assert!(
            map.unshared(&frozen) <= 3,
            "one shard, and the spine over it"
        );
        // A long bucket, and keys whose mixed forms are consecutive: all of
        // one shard, probing from neighbouring slots.
        let mut skewed = CowMap::default();
        for i in 0..3_000u64 {
            skewed.insert(i.wrapping_mul(UNMIX), i as u32);
            skewed.insert(u64::MAX, i as u32);
        }
        assert_eq!(skewed.key_count(), 3_001);
        assert!((0..3_000u64).all(|i| skewed.get(i.wrapping_mul(UNMIX)) == [i as u32]));
        assert!(skewed.get(u64::MAX).iter().copied().eq(0..3_000));
        assert!(skewed.get(5_000u64.wrapping_mul(UNMIX)).is_empty());
        skewed.remove(u64::MAX, 1_500);
        assert_eq!(skewed.get(u64::MAX).len(), 2_999);
        // Bulk construction agrees with incremental insertion.
        let bulk = CowMap::from_entries(
            (0..5_000u64)
                .flat_map(|k| [(k * 3, k as u32 + 10_000), (k * 3, k as u32)])
                .collect(),
        );
        assert_eq!(bulk.key_count(), 5_000);
        assert!((0..5_000u64).all(|k| bulk.get(k * 3) == frozen.get(k * 3)));
    }

    #[test]
    fn random_churn_agrees_with_a_reference_multimap() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut map = CowMap::default();
        let mut reference: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let mut frozen = Vec::new();
        for step in 0..60_000 {
            // Few keys, so buckets fill, empty and collide all the time;
            // spread over the key space in three different ways.
            let key = match below(3) {
                0 => below(400),
                1 => below(400) << 32 | below(3),
                _ => below(400).wrapping_mul(UNMIX),
            };
            let val = below(24) as u32;
            let bucket = reference.entry(key).or_default();
            // Insert-heavy first, so the map splits; removal-heavy later,
            // so slots are freed and dead space is squeezed out.
            if bucket.contains(&val) || (step > 40_000 && !bucket.is_empty() && below(3) > 0) {
                let val = if bucket.contains(&val) {
                    val
                } else {
                    *bucket.iter().next().unwrap()
                };
                bucket.remove(&val);
                map.remove(key, val);
                if bucket.is_empty() {
                    reference.remove(&key);
                }
            } else {
                bucket.insert(val);
                map.insert(key, val);
            }
            if step % 5_000 == 0 {
                frozen.push((map.clone(), reference.clone()));
            }
        }
        frozen.push((map, reference));
        assert!(frozen.last().unwrap().0.bits > 0);
        for (map, reference) in &frozen {
            assert_eq!(map.key_count(), reference.len());
            assert_eq!(
                map.len,
                reference.values().map(BTreeSet::len).sum::<usize>()
            );
            assert_eq!(map.keys().collect::<BTreeSet<u64>>().len(), reference.len());
            for (key, bucket) in reference {
                assert!(map.get(*key).iter().eq(bucket.iter()), "bucket of {key}");
            }
            assert!(map.get(12_345_678).is_empty());
        }
    }
}
