//! Flit buffer pools.
//!
//! Flit-reservation flow control keeps one *pool* of `b_d` data buffers
//! per input channel (no per-VC partitioning — data flits carry no tags to
//! distinguish packets). [`BufferPool`] provides allocation against
//! occupancy bits exactly as the paper's input scheduler does one cycle
//! before each flit arrives.

use crate::DataFlit;
use std::fmt;

/// Index of a buffer within one input channel's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(u8);

impl BufferId {
    /// Creates a buffer id.
    pub const fn new(raw: u8) -> Self {
        BufferId(raw)
    }

    /// Raw index.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Index widened for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

/// Words in the occupancy bitmasks — covers the full 255-buffer
/// [`BufferId`] range.
const MASK_WORDS: usize = 4;

/// `(word, bit)` coordinates of slot `i` in a mask.
const fn mask_bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// A pool of flit buffers with occupancy bits.
///
/// Struct-of-arrays layout: flit payloads sit in one dense array while
/// reservation and fill state live in two bitmasks beside it, so the
/// per-cycle occupancy questions (`is_full`, `free_count`, find the
/// lowest free buffer) touch a few mask words instead of walking an
/// array of `Option`s, and the payload array stays contiguous for the
/// copies that do happen. This is the hot state of every input channel,
/// and the dense layout is what keeps a shard's routers inside their own
/// cache lines under parallel stepping.
///
/// # Examples
///
/// ```
/// use noc_flow::BufferPool;
///
/// let mut pool = BufferPool::new(6);
/// assert_eq!(pool.free_count(), 6);
/// pool.reserve_any().expect("pool has space");
/// assert_eq!(pool.free_count(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct BufferPool {
    /// Dense flit storage, indexed by [`BufferId`]. A slot's contents
    /// are meaningful only while its `written` bit is set.
    flits: Vec<DataFlit>,
    /// Reservation bits: a slot may be reserved (occupied) before its
    /// flit is written, mirroring the paper's allocate-one-cycle-early
    /// policy. Bits past `capacity` are pre-set so the free-slot scan
    /// can never pick them.
    occupied: [u64; MASK_WORDS],
    /// Fill bits: the slot actually holds a flit.
    written: [u64; MASK_WORDS],
    free: usize,
}

impl BufferPool {
    /// Creates a pool of `capacity` buffers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds 255.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool must have capacity");
        assert!(
            capacity <= 255,
            "buffer pool capacity exceeds BufferId range"
        );
        // Payload slots are plain storage behind the masks; the
        // placeholder is never observable (peek/take/iter all gate on
        // the `written` bit).
        let placeholder = DataFlit {
            packet: noc_traffic::PacketId::new(0),
            seq: 0,
            length: 0,
            dest: noc_topology::NodeId::new(0),
            created_at: noc_engine::Cycle::ZERO,
            crc_ok: true,
        };
        let mut occupied = [0u64; MASK_WORDS];
        for (w, word) in occupied.iter_mut().enumerate() {
            let lo = w * 64;
            *word = if capacity >= lo + 64 {
                0
            } else if capacity <= lo {
                u64::MAX
            } else {
                u64::MAX << (capacity - lo)
            };
        }
        BufferPool {
            flits: vec![placeholder; capacity],
            occupied,
            written: [0; MASK_WORDS],
            free: capacity,
        }
    }

    /// Total number of buffers.
    pub fn capacity(&self) -> usize {
        self.flits.len()
    }

    /// Buffers currently free.
    pub fn free_count(&self) -> usize {
        self.free
    }

    /// Buffers currently occupied (reserved or holding a flit).
    pub fn occupied_count(&self) -> usize {
        self.capacity() - self.free
    }

    /// `true` when every buffer is occupied.
    pub fn is_full(&self) -> bool {
        self.free == 0
    }

    /// Marks the lowest-numbered free buffer occupied and returns it, or
    /// `None` when the pool is full. The buffer holds no flit yet.
    pub fn reserve_any(&mut self) -> Option<BufferId> {
        if self.free == 0 {
            return None;
        }
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let open = !*word;
            if open != 0 {
                let bit = open.trailing_zeros() as usize;
                *word |= 1 << bit;
                self.free -= 1;
                return Some(BufferId::new((w * 64 + bit) as u8));
            }
        }
        unreachable!("free count positive but no open occupancy bit");
    }

    /// Stores `flit` in a previously reserved buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not reserved or already holds a flit.
    pub fn write(&mut self, id: BufferId, flit: DataFlit) {
        let (w, bit) = mask_bit(id.index());
        assert!(
            id.index() < self.capacity() && self.occupied[w] & bit != 0,
            "writing to unreserved buffer"
        );
        assert!(self.written[w] & bit == 0, "buffer already holds a flit");
        self.written[w] |= bit;
        self.flits[id.index()] = flit;
    }

    /// Reserves a free buffer and writes `flit` into it in one step.
    pub fn insert(&mut self, flit: DataFlit) -> Option<BufferId> {
        let id = self.reserve_any()?;
        self.write(id, flit);
        Some(id)
    }

    /// Reads the flit in a buffer without freeing it.
    pub fn peek(&self, id: BufferId) -> Option<&DataFlit> {
        let (w, bit) = mask_bit(id.index());
        if id.index() < self.capacity() && self.written[w] & bit != 0 {
            Some(&self.flits[id.index()])
        } else {
            None
        }
    }

    /// Removes the flit from a buffer and frees it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds no flit.
    pub fn take(&mut self, id: BufferId) -> DataFlit {
        let (w, bit) = mask_bit(id.index());
        assert!(
            id.index() < self.capacity() && self.written[w] & bit != 0,
            "taking from empty buffer"
        );
        self.written[w] &= !bit;
        self.occupied[w] &= !bit;
        self.free += 1;
        self.flits[id.index()]
    }

    /// Iterates over `(buffer, flit)` pairs currently stored.
    pub fn iter(&self) -> impl Iterator<Item = (BufferId, &DataFlit)> {
        let written = self.written;
        self.flits.iter().enumerate().filter_map(move |(i, f)| {
            let (w, bit) = mask_bit(i);
            (written[w] & bit != 0).then(|| (BufferId::new(i as u8), f))
        })
    }

    /// Slot indices reserved ahead of their flit (occupied, not yet
    /// written) — the paper's allocate-one-cycle-early state.
    pub fn reserved_empty(&self) -> impl Iterator<Item = BufferId> + '_ {
        (0..self.capacity()).filter_map(move |i| {
            let (w, bit) = mask_bit(i);
            (self.occupied[w] & bit != 0 && self.written[w] & bit == 0)
                .then(|| BufferId::new(i as u8))
        })
    }

    /// Dumps the pool for the network state document: capacity,
    /// occupancy, the reserved-but-empty buffers and every held flit by
    /// buffer.
    pub fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        let flits: Vec<Json> = self
            .iter()
            .map(|(id, f)| {
                Json::obj(vec![
                    ("buffer".into(), Json::Num(id.index() as f64)),
                    ("flit".into(), Json::str(format!("{f:?}"))),
                ])
            })
            .collect();
        let reserved: Vec<Json> = self
            .reserved_empty()
            .map(|id| Json::Num(id.index() as f64))
            .collect();
        Json::obj(vec![
            ("capacity".into(), Json::Num(self.capacity() as f64)),
            ("occupied".into(), Json::Num(self.occupied_count() as f64)),
            ("reserved_empty".into(), Json::Arr(reserved)),
            ("flits".into(), Json::Arr(flits)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::Cycle;
    use noc_topology::NodeId;
    use noc_traffic::PacketId;

    fn flit(seq: u32) -> DataFlit {
        DataFlit {
            packet: PacketId::new(1),
            seq,
            length: 5,
            dest: NodeId::new(9),
            created_at: Cycle::ZERO,
            crc_ok: true,
        }
    }

    #[test]
    fn reserve_write_take_cycle() {
        let mut pool = BufferPool::new(2);
        let a = pool.reserve_any().unwrap();
        pool.write(a, flit(0));
        assert_eq!(pool.peek(a).unwrap().seq, 0);
        assert_eq!(pool.occupied_count(), 1);
        let taken = pool.take(a);
        assert_eq!(taken.seq, 0);
        assert_eq!(pool.free_count(), 2);
        assert!(pool.peek(a).is_none());
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = BufferPool::new(2);
        assert!(pool.insert(flit(0)).is_some());
        assert!(pool.insert(flit(1)).is_some());
        assert!(pool.is_full());
        assert_eq!(pool.insert(flit(2)), None);
        assert_eq!(pool.reserve_any(), None);
    }

    #[test]
    fn freed_buffers_are_reused() {
        let mut pool = BufferPool::new(1);
        let a = pool.insert(flit(0)).unwrap();
        pool.take(a);
        let b = pool.insert(flit(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn iter_lists_stored_flits() {
        let mut pool = BufferPool::new(4);
        pool.insert(flit(0));
        let b = pool.insert(flit(1)).unwrap();
        pool.take(b);
        pool.insert(flit(2));
        let seqs: Vec<u32> = pool.iter().map(|(_, f)| f.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "unreserved buffer")]
    fn write_without_reserve_panics() {
        let mut pool = BufferPool::new(1);
        pool.write(BufferId::new(0), flit(0));
    }

    #[test]
    #[should_panic(expected = "taking from empty buffer")]
    fn take_from_empty_panics() {
        let mut pool = BufferPool::new(1);
        let a = pool.reserve_any().unwrap();
        pool.take(a);
    }

    #[test]
    #[should_panic(expected = "must have capacity")]
    fn zero_capacity_panics() {
        BufferPool::new(0);
    }

    #[test]
    fn buffer_id_display() {
        assert_eq!(BufferId::new(5).to_string(), "buf5");
    }

    #[test]
    fn fill_and_drain_across_mask_word_boundaries() {
        // 200 slots spans four mask words; every slot must be reachable,
        // in ascending order, and fully reclaimable.
        let mut pool = BufferPool::new(200);
        let mut ids = Vec::new();
        for seq in 0..200 {
            let id = pool.insert(flit(seq)).unwrap();
            assert_eq!(id.index(), seq as usize);
            ids.push(id);
        }
        assert!(pool.is_full());
        assert_eq!(pool.reserve_any(), None);
        assert_eq!(pool.iter().count(), 200);
        for (seq, id) in ids.into_iter().enumerate() {
            assert_eq!(pool.take(id).seq, seq as u32);
        }
        assert_eq!(pool.free_count(), 200);
    }

    #[test]
    fn reserve_reuses_lowest_free_slot_after_scattered_frees() {
        let mut pool = BufferPool::new(130);
        let ids: Vec<BufferId> = (0..130).map(|s| pool.insert(flit(s)).unwrap()).collect();
        // Free slots 127 and 3 (different mask words); the next two
        // reservations must come back lowest-first.
        pool.take(ids[127]);
        pool.take(ids[3]);
        assert_eq!(pool.reserve_any().unwrap().index(), 3);
        assert_eq!(pool.reserve_any().unwrap().index(), 127);
    }

    #[test]
    fn max_capacity_pool_round_trips() {
        let mut pool = BufferPool::new(255);
        while pool.insert(flit(0)).is_some() {}
        assert_eq!(pool.occupied_count(), 255);
        assert_eq!(pool.peek(BufferId::new(254)).unwrap().seq, 0);
        assert_eq!(pool.take(BufferId::new(254)).seq, 0);
        assert_eq!(pool.free_count(), 1);
    }
}
