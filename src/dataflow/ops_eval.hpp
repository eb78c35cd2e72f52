// Operator semantics over materialised relations.
//
// These functions define the *meaning* of each logical operator once; both
// the reference interpreter (golden semantics for tests) and the MapReduce
// task runtime (which applies them to partitions) call into here, so the
// distributed execution provably computes the same function as the local
// one — modulo row order, which MapReduce does not define.
#pragma once

#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/relation.hpp"

namespace clusterbft::dataflow {

Relation eval_filter(const OpNode& op, const Relation& in);
Relation eval_foreach(const OpNode& op, const Relation& in);

/// GROUP BY. Hash-partitioned on canonical key bytes; groups are emitted
/// in canonical key order. With `canonical_bags` (the default, and what
/// the interpreter and every operator-level caller use) each bag is
/// canonically sorted too, so the result is independent of the input row
/// order: every replica, regardless of the order tuples arrived from the
/// shuffle, produces byte-identical groups — the determinism fix §5.4
/// defers to future work, implemented here. Without it a bag keeps the
/// input order of its rows; only a caller that has proven nothing can
/// observe that order (mapreduce::group_bag_order_observable) may pass
/// false.
Relation eval_group(const OpNode& op, const Relation& in,
                    bool canonical_bags = true);

/// Inner equi-join (null keys never match). Output rows follow the left
/// input order; per-key right matches follow the right input order, or —
/// with `canonical_matches` — canonical tuple order, which together with
/// a canonically sorted left input reproduces the bytes of joining two
/// fully sorted inputs (the reduce path's determinism contract) without
/// sorting the build side.
Relation eval_join(const OpNode& op, const Relation& left,
                   const Relation& right, bool canonical_matches = false);

/// Outer cogroup: (group, bag-of-left, bag-of-right) for every key in
/// either input; bags are canonically sorted, absent sides yield empty
/// bags. Null keys group together (Pig semantics for [co]grouping).
Relation eval_cogroup(const OpNode& op, const Relation& left,
                      const Relation& right);

Relation eval_union(const OpNode& op, const std::vector<const Relation*>& ins);
Relation eval_distinct(const OpNode& op, const Relation& in);
Relation eval_order(const OpNode& op, const Relation& in);
Relation eval_limit(const OpNode& op, const Relation& in);

/// Dispatch on op.kind. Load/Store are handled by the caller (they touch
/// storage, not data).
Relation eval_op(const OpNode& op, const std::vector<const Relation*>& ins);

}  // namespace clusterbft::dataflow
