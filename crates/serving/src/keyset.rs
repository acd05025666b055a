//! A set of bank keys bounded first-in, first-out.

use std::collections::{HashSet, VecDeque};

/// A set of `u64` keys that holds at most `capacity` of them: inserting a
/// new key into a full set forgets the oldest-inserted one.
#[derive(Debug)]
pub(crate) struct KeySet {
    capacity: usize,
    keys: HashSet<u64>,
    order: VecDeque<u64>,
}

impl KeySet {
    /// An empty set holding at most `capacity` keys (min 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        KeySet {
            capacity: capacity.max(1),
            keys: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn contains(&self, key: u64) -> bool {
        self.keys.contains(&key)
    }

    /// Adds `key`; a key already present keeps its place in the order.
    pub(crate) fn insert(&mut self, key: u64) {
        if !self.keys.insert(key) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.keys.remove(&oldest);
            }
        }
        self.order.push_back(key);
    }

    pub(crate) fn remove(&mut self, key: u64) {
        if self.keys.remove(&key) {
            self.order.retain(|&k| k != key);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.order.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forgets_the_oldest_key_at_capacity() {
        let mut set = KeySet::with_capacity(2);
        set.insert(1);
        set.insert(2);
        set.insert(1); // already present: no reordering, no eviction
        assert_eq!(set.len(), 2);
        set.insert(3);
        assert!(!set.contains(1) && set.contains(2) && set.contains(3));
        set.remove(2);
        set.insert(4);
        assert_eq!(set.len(), 2);
        assert!(set.contains(3) && set.contains(4));
        set.clear();
        assert_eq!(set.len(), 0);
    }
}
