//! Seeded inputs. Every generator receives only `(rows, seed)`.

use btr_datagen::{dataset_relation, pbi, tpch};
use btrblocks::Relation;

/// Rows of each lake relation in `write` and `read`: two full 64 000-value
/// blocks per column, so parallel encode and decode have several items per
/// column and a round is long enough to time on its own.
pub const LAKE_ROWS: usize = 128_000;

/// The lake writer's two relations: the PBI-like registry (39 columns) and
/// the TPC-H-like lineitem/orders columns (18 columns).
pub fn lake(rows: usize, seed: u64) -> Vec<Relation> {
    vec![
        dataset_relation(pbi::registry(rows, seed)),
        dataset_relation(tpch::registry(rows, seed)),
    ]
}

/// Uncompressed bytes of a set of relations.
pub fn heap_bytes(rels: &[Relation]) -> usize {
    rels.iter().map(Relation::heap_size).sum()
}

/// The served relation: TPC-H-like lineitem columns with `l_orderkey`
/// ascending (clustered), so key ranges prune to a few blocks by zone map.
pub fn lineitem(rows: usize, seed: u64) -> Relation {
    dataset_relation(vec![
        tpch::l_orderkey(rows, seed),
        tpch::l_partkey(rows, seed),
        tpch::l_suppkey(rows, seed),
        tpch::l_linenumber(rows, seed),
        tpch::l_quantity(rows, seed),
        tpch::l_extendedprice(rows, seed),
        tpch::l_discount(rows, seed),
        tpch::l_tax(rows, seed),
        tpch::l_returnflag(rows, seed),
        tpch::l_linestatus(rows, seed),
        tpch::l_shipdate(rows, seed),
        tpch::l_shipmode(rows, seed),
    ])
}

/// SplitMix64: the benchmark's own seeded stream (query mixes, flips).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_rows_and_seed() {
        assert_eq!(lake(2_000, 5), lake(2_000, 5));
        assert_ne!(lake(2_000, 5)[1], lake(2_000, 6)[1]);
        assert_eq!(lineitem(3_000, 9), lineitem(3_000, 9));
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }
}
