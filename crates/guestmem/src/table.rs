//! The two index-space containers the frame table and the mapping groups
//! are built from: a slab with slot reuse, and an on-demand two-level
//! table.

/// A `Vec` of slots with a free list: `insert` reuses the most recently
/// freed slot, so indices stay small and stable.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    // Inlined so a frame entry is written in place: built on the stack
    // and re-read in wider loads, it stalled every allocation.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                // A freed slot is empty: nothing of it to drop.
                std::mem::forget(self.slots[i as usize].replace(value));
                i
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u32
            }
        }
    }

    pub fn remove(&mut self, i: u32) -> T {
        self.free.push(i);
        self.slots[i as usize].take().expect("live slot")
    }

    pub fn get(&self, i: u32) -> &T {
        self.slots[i as usize].as_ref().expect("live slot")
    }

    pub fn get_mut(&mut self, i: u32) -> &mut T {
        self.slots[i as usize].as_mut().expect("live slot")
    }
}

const LEAF: usize = 512;

/// A two-level table over a dense index space whose entries default to
/// `T::default()`: 512-slot leaves are allocated on the first store into
/// their range, so a table with a few hundred entries scattered over
/// 131 072 indices (a group's departures) costs a few leaves, while a
/// dense one costs what a flat `Vec` would.
#[derive(Debug)]
pub(crate) struct Sparse<T> {
    leaves: Vec<Option<Box<[T; LEAF]>>>,
}

impl<T> Default for Sparse<T> {
    fn default() -> Self {
        Sparse { leaves: Vec::new() }
    }
}

impl<T: Copy + Default + PartialEq> Sparse<T> {
    pub fn get(&self, i: usize) -> T {
        match self.leaves.get(i / LEAF) {
            Some(Some(leaf)) => leaf[i % LEAF],
            _ => T::default(),
        }
    }

    /// Leaf `n`, allocated on first use.
    #[inline]
    fn leaf(&mut self, n: usize) -> &mut [T; LEAF] {
        match self.leaves.get(n) {
            Some(Some(_)) => self.leaves[n].as_mut().expect("allocated leaf"),
            _ => self.new_leaf(n),
        }
    }

    #[inline(never)]
    fn new_leaf(&mut self, n: usize) -> &mut [T; LEAF] {
        if self.leaves.len() <= n {
            self.leaves.resize_with(n + 1, || None);
        }
        self.leaves[n].insert(Box::new([T::default(); LEAF]))
    }

    /// The slot for `i`.
    #[inline]
    pub fn entry(&mut self, i: usize) -> &mut T {
        &mut self.leaf(i / LEAF)[i % LEAF]
    }

    /// Non-default entries in ascending index order. Consumed with
    /// `Iterator::for_each` the two levels compile to two nested loops.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        self.iter_from(0)
    }

    /// Non-default entries from index `start` on, in ascending order.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let leaves = self.leaves.iter().enumerate().skip(start / LEAF);
        leaves.flat_map(move |(n, leaf)| {
            let from = start.saturating_sub(n * LEAF);
            let slots = leaf.as_deref().map_or(&[][..], |leaf| &leaf[from..]);
            let set = slots.iter().enumerate();
            set.filter(|(_, v)| **v != T::default())
                .map(move |(i, v)| (n * LEAF + from + i, *v))
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The live values of `slab`, in slot order.
    pub(crate) fn live<T>(slab: &Slab<T>) -> impl Iterator<Item = &T> + Clone {
        slab.slots.iter().flatten()
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut slab = Slab::default();
        let (a, b) = (slab.insert("a"), slab.insert("b"));
        assert_eq!((*slab.get(a), *slab.get(b)), ("a", "b"));
        assert_eq!(slab.remove(a), "a");
        assert_eq!(slab.insert("c"), a);
        *slab.get_mut(b) = "d";
        assert_eq!(*slab.get(b), "d");
    }

    #[test]
    fn sparse_defaults_stores_and_iterates_in_order() {
        let mut t = Sparse::<u32>::default();
        assert_eq!(t.get(70_000), 0);
        *t.entry(70_000) = 7;
        *t.entry(3) = 1;
        *t.entry(513) += 2;
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [(3, 1), (513, 2), (70_000, 7)]
        );
        let first_from = |i| t.iter_from(i).next().map(|(at, _)| at);
        assert_eq!(
            [0, 3, 4, 513, 514].map(first_from),
            [3, 3, 513, 513, 70_000].map(Some)
        );
        *t.entry(513) = 0;
        assert_eq!(t.iter().collect::<Vec<_>>(), [(3, 1), (70_000, 7)]);
        assert_eq!(t.iter_from(4).collect::<Vec<_>>(), [(70_000, 7)]);
        assert_eq!(t.iter_from(70_001).next(), None);
        assert_eq!((t.get(513), t.get(70_000)), (0, 7));
    }
}
