//! Heap-size estimates from container capacities, for the resident-byte
//! figures structures report about themselves (allocator headers and
//! padding are not counted).

use std::mem::size_of;

use crate::FxHashMap;

/// Bytes a `Vec`'s buffer occupies: its capacity, not its length.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes a hash map's table occupies: one `(K, V)` slot plus one control
/// byte per bucket of capacity.
pub fn map_bytes<K, V>(m: &FxHashMap<K, V>) -> usize {
    m.capacity() * (size_of::<(K, V)>() + 1)
}
