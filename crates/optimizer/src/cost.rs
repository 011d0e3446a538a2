//! The optimizer's cost model.
//!
//! Costs are split into a network component (records crossing partition
//! boundaries during shipping) and a CPU component (local hashing, sorting
//! and UDF invocation work).  When optimizing an iterative plan, every cost
//! incurred on the *dynamic data path* is additionally weighted by the
//! expected number of iterations, because that part of the plan runs once per
//! iteration while the constant data path runs only once (Section 4.3).

use crate::cardinality::Cardinalities;
use dataflow::prelude::{LocalStrategy, ShipStrategy};

/// A cost value split into its components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Cost of records shipped across partitions (network).
    pub network: f64,
    /// Cost of local processing (hashing, sorting, UDF calls).
    pub cpu: f64,
}

impl Cost {
    /// The zero cost.
    pub fn zero() -> Self {
        Cost::default()
    }

    /// Combined scalar cost used for plan comparison.
    pub fn total(&self) -> f64 {
        self.network + self.cpu
    }

    /// Component-wise sum.
    pub fn add(&self, other: Cost) -> Cost {
        Cost {
            network: self.network + other.network,
            cpu: self.cpu + other.cpu,
        }
    }

    /// Scales both components (used for iteration weighting).
    pub fn scale(&self, factor: f64) -> Cost {
        Cost {
            network: self.network * factor,
            cpu: self.cpu * factor,
        }
    }
}

/// Tunable weights of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost charged per record crossing a partition boundary.  Network
    /// transfers dominate in the shared-nothing cluster the paper targets, so
    /// this defaults to a large multiple of the CPU weight.
    pub network_weight: f64,
    /// Cost charged per record processed locally.
    pub cpu_weight: f64,
    /// Extra per-record factor charged for sort-based strategies (stands in
    /// for the `log n` factor at the typical working-set sizes).
    pub sort_penalty: f64,
    /// Number of parallel instances; broadcasting replicates to
    /// `parallelism - 1` other instances.
    pub parallelism: usize,
}

impl CostModel {
    /// A cost model for the given degree of parallelism with default weights.
    pub fn new(parallelism: usize) -> Self {
        CostModel {
            network_weight: 10.0,
            cpu_weight: 1.0,
            sort_penalty: 3.0,
            parallelism,
        }
    }

    /// Cost of shipping `records` input records with the given strategy.
    pub fn ship_cost(&self, ship: &ShipStrategy, records: f64) -> Cost {
        // On average (p-1)/p of the records leave their partition.
        let fraction = if self.parallelism <= 1 {
            0.0
        } else {
            (self.parallelism as f64 - 1.0) / self.parallelism as f64
        };
        match ship {
            ShipStrategy::Forward => Cost::zero(),
            ShipStrategy::PartitionHash(_) => Cost {
                network: records * fraction * self.network_weight,
                cpu: records * self.cpu_weight,
            },
            ShipStrategy::Broadcast => {
                let copies = self.parallelism.saturating_sub(1) as f64;
                Cost {
                    network: records * copies * self.network_weight,
                    cpu: records * self.cpu_weight,
                }
            }
        }
    }

    /// Cost of the operator's local strategy over its input cardinalities.
    /// A sort-merge join charges the [`CostModel::sort_penalty`] on every
    /// input it sorts.
    pub fn local_cost(&self, local: LocalStrategy, input_records: &[f64]) -> Cost {
        let total: f64 = input_records.iter().sum();
        let cpu = match local {
            LocalStrategy::None => total * self.cpu_weight,
            LocalStrategy::HashJoinBuildLeft | LocalStrategy::HashJoinBuildRight => {
                // Build + probe is linear in both inputs.
                total * self.cpu_weight * 1.5
            }
            LocalStrategy::SortMergeJoin => total * self.cpu_weight * self.sort_penalty,
            LocalStrategy::HashGroup => total * self.cpu_weight * 1.5,
            LocalStrategy::NestedLoop => {
                let product: f64 = input_records.iter().product();
                product * self.cpu_weight
            }
        };
        Cost { network: 0.0, cpu }
    }

    /// Chooses the cheaper hash-join build side given the input cardinalities
    /// and which inputs are replicated (a replicated input is the natural
    /// build side because each instance holds the full table).
    pub fn choose_join_strategy(
        &self,
        left_records: f64,
        right_records: f64,
        left_replicated: bool,
        right_replicated: bool,
    ) -> LocalStrategy {
        if left_replicated && !right_replicated {
            LocalStrategy::HashJoinBuildLeft
        } else if right_replicated && !left_replicated {
            LocalStrategy::HashJoinBuildRight
        } else if left_records <= right_records {
            LocalStrategy::HashJoinBuildLeft
        } else {
            LocalStrategy::HashJoinBuildRight
        }
    }
}

/// Helper bundling the cardinality estimates with the cost model, since most
/// costing call sites need both.
#[derive(Debug, Clone)]
pub struct Costing {
    /// The cost model in use.
    pub model: CostModel,
    /// Estimated output cardinalities per operator.
    pub cards: Cardinalities,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shipping_is_free() {
        let m = CostModel::new(4);
        assert_eq!(m.ship_cost(&ShipStrategy::Forward, 1000.0).total(), 0.0);
    }

    #[test]
    fn broadcast_scales_with_parallelism() {
        let m = CostModel::new(4);
        let b = m.ship_cost(&ShipStrategy::Broadcast, 100.0);
        let p = m.ship_cost(&ShipStrategy::PartitionHash(vec![0]), 100.0);
        assert!(b.network > p.network);
        let m1 = CostModel::new(1);
        assert_eq!(m1.ship_cost(&ShipStrategy::Broadcast, 100.0).network, 0.0);
        assert_eq!(
            m1.ship_cost(&ShipStrategy::PartitionHash(vec![0]), 100.0)
                .network,
            0.0
        );
    }

    #[test]
    fn sort_strategies_cost_more_than_hash() {
        let m = CostModel::new(4);
        let hash = m.local_cost(LocalStrategy::HashJoinBuildLeft, &[1000.0, 1000.0]);
        let sort = m.local_cost(LocalStrategy::SortMergeJoin, &[1000.0, 1000.0]);
        assert_eq!(sort.cpu, 6000.0);
        assert!(sort.cpu > hash.cpu);
    }

    #[test]
    fn nested_loop_is_quadratic() {
        let m = CostModel::new(2);
        let nl = m.local_cost(LocalStrategy::NestedLoop, &[100.0, 100.0]);
        assert_eq!(nl.cpu, 10_000.0);
    }

    #[test]
    fn join_build_side_prefers_replicated_then_smaller() {
        let m = CostModel::new(4);
        assert_eq!(
            m.choose_join_strategy(1e6, 10.0, false, true),
            LocalStrategy::HashJoinBuildRight
        );
        assert_eq!(
            m.choose_join_strategy(10.0, 1e6, true, false),
            LocalStrategy::HashJoinBuildLeft
        );
        assert_eq!(
            m.choose_join_strategy(10.0, 20.0, false, false),
            LocalStrategy::HashJoinBuildLeft
        );
        assert_eq!(
            m.choose_join_strategy(30.0, 20.0, false, false),
            LocalStrategy::HashJoinBuildRight
        );
    }

    #[test]
    fn cost_arithmetic() {
        let a = Cost {
            network: 1.0,
            cpu: 2.0,
        };
        let b = Cost {
            network: 3.0,
            cpu: 4.0,
        };
        let c = a.add(b).scale(2.0);
        assert_eq!(c.network, 8.0);
        assert_eq!(c.cpu, 12.0);
        assert_eq!(c.total(), 20.0);
    }
}
