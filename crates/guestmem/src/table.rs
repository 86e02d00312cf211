//! The two index-space containers the frame table and the page tables are
//! built from: a slab with slot reuse, and an on-demand two-level table.

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
                self.slots[i as usize] = Some(value);
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
/// 131 072 indices costs a few leaves, while a dense one (a booting VM's
/// page table) costs what a flat `Vec` would.
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
    fn leaf(&mut self, n: usize) -> &mut [T; LEAF] {
        if self.leaves.len() <= n {
            self.leaves.resize_with(n + 1, || None);
        }
        self.leaves[n].get_or_insert_with(|| Box::new([T::default(); LEAF]))
    }

    /// The slot for `i`.
    pub fn entry(&mut self, i: usize) -> &mut T {
        &mut self.leaf(i / LEAF)[i % LEAF]
    }

    /// Calls `each` on the slots for `first..=last` in order.
    #[inline]
    pub fn range_mut(&mut self, first: usize, last: usize, mut each: impl FnMut(usize, &mut T)) {
        for n in first / LEAF..=last / LEAF {
            let start = n * LEAF;
            let (lo, hi) = (first.max(start) - start, last.min(start + LEAF - 1) - start);
            for (i, slot) in self.leaf(n)[lo..=hi].iter_mut().enumerate() {
                each(start + lo + i, slot);
            }
        }
    }

    /// Non-default entries in ascending index order. Consumed with
    /// `Iterator::for_each` the two levels compile to two nested loops.
    pub fn iter(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        let leaves = self.leaves.iter().enumerate();
        leaves.flat_map(|(n, leaf)| {
            let slots = leaf.as_deref().map_or(&[][..], |leaf| &leaf[..]);
            let set = slots.iter().enumerate();
            set.filter(|(_, v)| **v != T::default())
                .map(move |(i, v)| (n * LEAF + i, *v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        *t.entry(513) = 0;
        assert_eq!(t.iter().collect::<Vec<_>>(), [(3, 1), (70_000, 7)]);
        assert_eq!((t.get(513), t.get(70_000)), (0, 7));
        t.range_mut(510, 1025, |i, slot| *slot = i as u32);
        let filled: Vec<_> = t.iter().skip(1).take(516).collect();
        assert_eq!(
            filled,
            (510..=1025).map(|i| (i, i as u32)).collect::<Vec<_>>()
        );
    }
}
