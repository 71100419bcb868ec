//! Morsels and deterministic hash partitioning.
//!
//! Inputs are cut into fixed-size row chunks ("morsels", subslices of
//! the borrowed input) that become the unit of scheduling on the worker
//! pool. Set operations, which need equal rows to meet, are instead
//! *hash-partitioned*: every row is routed by an FNV-1a hash, so equal
//! rows land in the same partition on every run and on every worker
//! count. Determinism of the routing (plus the canonical merge in
//! `kernels`) is what makes parallel results `Value`-identical to
//! serial ones.

use genpar_value::Value;
use std::hash::{Hash, Hasher};

/// Default number of rows per morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// A fixed-seed FNV-1a hasher: deterministic across processes and worker
/// counts (unlike `std`'s `RandomState`), cheap, and good enough for
/// partition routing.
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Partition index for a whole row (used by ∪/∩/−: equal rows must meet).
pub fn row_partition(row: &[Value], parts: usize) -> usize {
    let mut h = Fnv64::new();
    row.hash(&mut h);
    (h.finish() % parts.max(1) as u64) as usize
}

/// Route references to `rows` into `parts` buckets by
/// [`row_partition`]; each bucket keeps the input order.
pub fn partition_rows(rows: &[Vec<Value>], parts: usize) -> Vec<Vec<&Vec<Value>>> {
    let parts = parts.max(1);
    let mut out: Vec<Vec<&Vec<Value>>> = (0..parts).map(|_| Vec::new()).collect();
    for r in rows {
        out[row_partition(r, parts)].push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = row_partition(&[Value::Int(7), Value::Int(1)], 8);
        let b = row_partition(&[Value::Int(7), Value::Int(1)], 8);
        assert_eq!(a, b);
        assert!(a < 8);
    }

    #[test]
    fn partitioning_is_a_permutation() {
        let input = rows(50);
        let parts = partition_rows(&input, 4);
        let mut flat: Vec<_> = parts.into_iter().flatten().cloned().collect();
        flat.sort();
        assert_eq!(flat, input);
    }
}
