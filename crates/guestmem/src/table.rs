//! The index-space container the frame table and the mapping groups are
//! built from: a slab with slot reuse.

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
}
