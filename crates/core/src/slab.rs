//! The value store of the folding, rotating and memo trees: every
//! aggregate one tree holds, leaves included, lives inline in one slab and
//! is addressed by a `u32` [`Handle`]. A merge stores its result without an
//! allocation of its own, and a node that shares a child's value (a
//! pass-through of the binary trees, a promoted singleton) shares the
//! child's handle.
//!
//! Each slot counts its holders and keeps the modeled bytes it was stored
//! with. The last release frees the slot onto a free list, which later
//! stores take from first, most recently freed first, so a tree in steady
//! state reuses its slots instead of growing the slab.

/// Addresses one value of a [`Slab`]. Copying a handle does not count as
/// a holder: [`Slab::share`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Handle(u32);

impl Handle {
    /// The slot index, for layouts that identify allocations by handle.
    #[cfg(feature = "oracle")]
    pub(crate) fn index(self) -> u32 {
        self.0
    }
}

/// Marks the end of the free list.
const NIL: u32 = u32::MAX;

#[derive(Clone)]
enum Slot<V> {
    Held {
        value: V,
        bytes: u64,
        holders: u32,
    },
    /// A free slot and the next free one (or [`NIL`]).
    Free {
        next: u32,
    },
}

/// A per-tree store of values with holder counts. See the module docs.
#[derive(Clone)]
pub(crate) struct Slab<V> {
    slots: Vec<Slot<V>>,
    /// The most recently freed slot, or [`NIL`].
    free: u32,
    /// Sum of the held slots' bytes.
    bytes: u64,
}

impl<V> Slab<V> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
            bytes: 0,
        }
    }

    /// Frees every slot at once; the slab keeps its capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free = NIL;
        self.bytes = 0;
    }

    /// Stores `value`, of modeled size `bytes`, with one holder.
    pub(crate) fn insert(&mut self, value: V, bytes: u64) -> Handle {
        self.bytes += bytes;
        let slot = Slot::Held {
            value,
            bytes,
            holders: 1,
        };
        if self.free == NIL {
            let index = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("a slab holds fewer than u32::MAX values");
            self.slots.push(slot);
            return Handle(index);
        }
        let index = self.free;
        let Slot::Free { next } = std::mem::replace(&mut self.slots[index as usize], slot) else {
            unreachable!("the free list holds free slots");
        };
        self.free = next;
        Handle(index)
    }

    /// The value behind `handle`.
    pub(crate) fn get(&self, handle: Handle) -> &V {
        match &self.slots[handle.0 as usize] {
            Slot::Held { value, .. } => value,
            Slot::Free { .. } => panic!("read of a released slab handle"),
        }
    }

    /// The modeled bytes `handle`'s value was stored with.
    pub(crate) fn bytes_of(&self, handle: Handle) -> u64 {
        match &self.slots[handle.0 as usize] {
            Slot::Held { bytes, .. } => *bytes,
            Slot::Free { .. } => panic!("read of a released slab handle"),
        }
    }

    /// How many holders `handle`'s value has.
    pub(crate) fn holders(&self, handle: Handle) -> u32 {
        match &self.slots[handle.0 as usize] {
            Slot::Held { holders, .. } => *holders,
            Slot::Free { .. } => panic!("read of a released slab handle"),
        }
    }

    /// Adds a holder to `handle`'s value and returns the handle.
    pub(crate) fn share(&mut self, handle: Handle) -> Handle {
        match &mut self.slots[handle.0 as usize] {
            Slot::Held { holders, .. } => *holders += 1,
            Slot::Free { .. } => panic!("share of a released slab handle"),
        }
        handle
    }

    /// Drops one holder of `handle`'s value; the last one frees its slot
    /// and returns its bytes.
    pub(crate) fn release(&mut self, handle: Handle) {
        let slot = &mut self.slots[handle.0 as usize];
        let Slot::Held { holders, bytes, .. } = slot else {
            panic!("release of a released slab handle");
        };
        *holders -= 1;
        if *holders == 0 {
            self.bytes -= *bytes;
            *slot = Slot::Free { next: self.free };
            self.free = handle.0;
        }
    }

    /// Modeled bytes of every held value: the footprint of a tree whose
    /// every distinct value is one slot.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_release_frees_and_the_next_insert_reuses_the_slot() {
        let mut slab = Slab::new();
        let a = slab.insert(1u64, 8);
        let b = slab.insert(2u64, 16);
        assert_eq!(slab.bytes(), 24);
        slab.share(a);
        slab.release(a);
        assert_eq!((*slab.get(a), slab.holders(a)), (1, 1));
        slab.release(a);
        assert_eq!(slab.bytes(), 16);
        let c = slab.insert(3u64, 4);
        assert_eq!(c, a, "a freed slot is reused first");
        assert_eq!((*slab.get(b), *slab.get(c)), (2, 3));
        assert_eq!((slab.bytes_of(c), slab.bytes()), (4, 20));
    }

    #[test]
    fn clear_frees_everything() {
        let mut slab = Slab::new();
        slab.insert(1u8, 1);
        slab.clear();
        assert_eq!(slab.bytes(), 0);
        assert_eq!(slab.insert(2u8, 2), Handle(0));
    }
}
