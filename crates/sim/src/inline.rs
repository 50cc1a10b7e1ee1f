//! Short lists kept inline: the node lists of group views and bindings.
//!
//! Every group view the paper's databases hand out (`SvA` from
//! `GetServer`, `StA` from `GetView`) and every binding built from one is a
//! handful of nodes. [`NodeList`] holds up to [`InlineVec::CAPACITY`] of
//! them in place, so copying a view or a binding allocates nothing; a list
//! that grows past its capacity moves to the heap and behaves exactly like
//! a `Vec`.

use crate::ids::NodeId;
use std::fmt;
use std::ops::Deref;

/// A list of `Copy` items stored inline up to `N` items, spilling to a
/// heap `Vec` only past that. Reads go through `Deref<Target = [T]>`.
///
/// ```rust
/// use groupview_sim::{NodeId, NodeList};
/// let mut sv: NodeList = [NodeId::new(1), NodeId::new(2)].as_slice().into();
/// sv.push(NodeId::new(3));
/// sv.retain(|&n| n != NodeId::new(2));
/// assert_eq!(sv, vec![NodeId::new(1), NodeId::new(3)]);
/// assert!(sv.contains(&NodeId::new(3)));
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` is the list; the rest is filler.
    Inline { len: u32, items: [T; N] },
    /// The list outgrew `N` (it stays here even if it shrinks again).
    Heap(Vec<T>),
}

/// A node list: a group view (`Sv`, `St`) or the nodes a binding holds.
pub type NodeList = InlineVec<NodeId, 6>;

// A `NodeList` sits in every Sv/St entry of the naming service's sorted
// maps: a larger one widens every map node.
const _: () = assert!(std::mem::size_of::<NodeList>() <= 32);

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// How many items the list holds before it moves to the heap.
    pub const CAPACITY: usize = N;

    /// An empty list.
    pub fn new() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// The items, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Appends `item`, moving the list to the heap if it is full.
    pub fn push(&mut self, item: T) {
        let spilled = match &mut self.0 {
            Repr::Inline { len, items } => {
                if let Some(slot) = items.get_mut(*len as usize) {
                    *slot = item;
                    *len += 1;
                    return;
                }
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(&items[..]);
                v.push(item);
                v
            }
            Repr::Heap(v) => {
                v.push(item);
                return;
            }
        };
        self.0 = Repr::Heap(spilled);
    }

    /// Removes and returns the item at `index`, shifting the rest left.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds, as `Vec::remove` does.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let n = *len as usize;
                assert!(
                    index < n,
                    "removal index {index} is out of bounds (len {n})"
                );
                let item = items[index];
                items.copy_within(index + 1..n, index);
                *len -= 1;
                item
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Keeps only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    let item = items[i];
                    if keep(&item) {
                        items[kept] = item;
                        kept += 1;
                    }
                }
                *len = kept as u32;
            }
            Repr::Heap(v) => v.retain(keep),
        }
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        if items.len() > N {
            return InlineVec(Repr::Heap(items.to_vec()));
        }
        items.iter().copied().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(items: Vec<T>) -> Self {
        if items.len() > N {
            return InlineVec(Repr::Heap(items));
        }
        items.as_slice().into()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn a_list_spills_past_its_capacity_and_keeps_its_order() {
        let mut list = NodeList::new();
        for i in 0..8 {
            list.push(n(i));
        }
        assert!(matches!(list.0, Repr::Heap(_)));
        assert_eq!(list, (0..8).map(n).collect::<Vec<_>>());
        assert_eq!(list.remove(0), n(0));
        list.retain(|&x| x != n(4));
        assert_eq!(list, vec![n(1), n(2), n(3), n(5), n(6), n(7)]);
        let copy: NodeList = list.as_slice().into();
        assert!(matches!(copy.0, Repr::Inline { len: 6, .. }));
        assert_eq!(copy, list);
        list.clear();
        assert!(list.is_empty());
    }
}
