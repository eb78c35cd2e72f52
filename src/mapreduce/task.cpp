#include "mapreduce/task.hpp"

#include <string>
#include <utility>

#include "common/check.hpp"
#include "crypto/digest.hpp"
#include "dataflow/ops_eval.hpp"

namespace clusterbft::mapreduce {

using dataflow::Expr;
using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::OpNode;
using dataflow::Relation;
using dataflow::Tuple;

namespace {

/// Digest the stream produced by `vertex` if the job marks it, appending
/// reports keyed for this task.
void digest_if_marked(const MRJobSpec& job, OpId vertex, bool reduce_side,
                      std::size_t branch, std::size_t partition,
                      const Relation& stream, TaskMetrics& metrics,
                      std::vector<DigestReport>& out) {
  for (const VerificationPoint& vp : job.vps) {
    if (vp.vertex != vertex) continue;
    crypto::ChunkedDigester digester(vp.records_per_digest);
    std::string bytes;  // one buffer for the whole stream, not one per tuple
    for (const Tuple& t : stream.rows()) {
      dataflow::serialize_tuple_into(t, bytes);
      metrics.digested_bytes += bytes.size();
      digester.add_record(bytes);
    }
    for (const crypto::ChunkDigest& cd : digester.finish()) {
      DigestReport r;
      r.key = DigestKey{job.sid, vertex, reduce_side, branch, partition,
                        cd.chunk_index};
      r.digest = cd.digest;
      r.record_count = cd.record_count;
      out.push_back(std::move(r));
    }
    break;  // at most one VP per vertex per job
  }
}

/// True if `e` reads bag column `bag` other than as the whole argument of
/// COUNT or SIZE, which depend on the bag's size alone.
bool reads_bag_order(const Expr& e, std::size_t bag) {
  using Kind = Expr::Kind;
  switch (e.kind) {
    case Kind::kColumn:
      return e.column == bag;
    case Kind::kRowHash:
      return true;  // hashes the whole input tuple, bag included
    case Kind::kAggregate:
      return e.bag_column == bag && e.agg_func != dataflow::AggFunc::kCount;
    case Kind::kUdfAggregate:
      return e.bag_column == bag;
    case Kind::kUdfScalar:
      if (e.udf_name == "SIZE" && e.args.size() == 1 &&
          e.args[0]->kind == Kind::kColumn) {
        return false;
      }
      break;
    default:
      break;
  }
  if (e.lhs && reads_bag_order(*e.lhs, bag)) return true;
  if (e.rhs && reads_bag_order(*e.rhs, bag)) return true;
  for (const dataflow::ExprPtr& a : e.args) {
    if (reads_bag_order(*a, bag)) return true;
  }
  return false;
}

}  // namespace

bool group_bag_order_observable(const LogicalPlan& plan, const MRJobSpec& job) {
  if (!job.blocking) return true;
  const OpNode& group = plan.node(*job.blocking);
  if (group.kind != OpKind::kGroup) return true;
  if (job.output_vertex == group.id) return true;
  for (const VerificationPoint& vp : job.vps) {
    if (vp.vertex == group.id) return true;
  }
  const std::vector<OpId> consumers = plan.children(group.id);
  if (consumers.size() != 1 || job.reduce_ops.empty() ||
      job.reduce_ops.front() != consumers[0]) {
    return true;
  }
  const OpNode& foreach = plan.node(consumers[0]);
  if (foreach.kind != OpKind::kForeach) return true;
  constexpr std::size_t kBagColumn = 1;  // GROUP emits (group, bag)
  for (const dataflow::GenField& g : foreach.gen) {
    if (reads_bag_order(*g.expr, kBagColumn)) return true;
  }
  return false;
}

std::size_t shuffle_partition(const OpNode& blocking_op, int tag,
                              const Tuple& t, std::size_t num_reducers) {
  std::string key_buf;
  return shuffle_partition(blocking_op, tag, t, num_reducers, key_buf);
}

std::size_t shuffle_partition(const OpNode& blocking_op, int tag,
                              const Tuple& t, std::size_t num_reducers,
                              std::string& key_buf) {
  CBFT_CHECK(num_reducers > 0);
  if (num_reducers == 1) return 0;
  const std::vector<std::size_t>* key_cols = nullptr;
  switch (blocking_op.kind) {
    case OpKind::kGroup:
      key_cols = &blocking_op.group_keys;
      break;
    case OpKind::kJoin:
    case OpKind::kCogroup:
      key_cols = (tag == 0) ? &blocking_op.left_keys
                            : &blocking_op.right_keys;
      break;
    case OpKind::kDistinct: {
      // Whole tuple is the key.
      return static_cast<std::size_t>(
          dataflow::tuple_key_hash(t, 0, key_buf) % num_reducers);
    }
    case OpKind::kOrder:
    case OpKind::kLimit:
      return 0;  // global operators use a single reducer
    default:
      CBFT_CHECK_MSG(false, "not a blocking operator");
  }
  // Hashing the key columns' serialisations directly produces the same
  // bytes (and thus the same partition) as building a key tuple first:
  // the key tuple's serialisation is exactly that concatenation.
  return static_cast<std::size_t>(
      dataflow::tuple_cols_hash(t, *key_cols, key_buf) % num_reducers);
}

MapTaskResult run_map_task(const LogicalPlan& plan, const MRJobSpec& job,
                           std::size_t branch, std::size_t split_index,
                           Relation split_rows) {
  CBFT_CHECK(branch < job.branches.size());
  const MapBranch& br = job.branches[branch];

  MapTaskResult result;
  result.metrics.input_bytes = split_rows.byte_size();
  result.metrics.records_in = split_rows.size();

  Relation cur = std::move(split_rows);
  digest_if_marked(job, br.source_vertex, /*reduce_side=*/false, branch,
                   split_index, cur, result.metrics, result.digests);

  for (OpId op_id : br.map_ops) {
    const OpNode& op = plan.node(op_id);
    if (op.kind == OpKind::kUnion) {
      // Union is concatenation: per-branch it is the identity. The vertex
      // still exists as a digest position.
    } else {
      std::vector<const Relation*> ins{&cur};
      cur = dataflow::eval_op(op, ins);
    }
    digest_if_marked(job, op_id, /*reduce_side=*/false, branch, split_index,
                     cur, result.metrics, result.digests);
  }

  result.metrics.records_out = cur.size();

  if (job.map_only()) {
    result.metrics.output_bytes = cur.byte_size();
    result.direct_output = std::move(cur);
    return result;
  }

  const OpNode& blocking = plan.node(*job.blocking);
  result.partitions.assign(job.num_reducers, Relation(cur.schema()));
  for (Relation& p : result.partitions) {
    p.reserve(cur.size() / job.num_reducers + 1);
  }
  std::string key_buf;  // one serialisation buffer for the whole split
  for (Tuple& t : cur.rows()) {
    const std::size_t p =
        shuffle_partition(blocking, br.tag, t, job.num_reducers, key_buf);
    result.metrics.output_bytes += dataflow::serialized_size(t);
    result.partitions[p].add(std::move(t));
  }
  return result;
}

ReduceTaskResult run_reduce_task(
    const LogicalPlan& plan, const MRJobSpec& job, std::size_t partition,
    const std::vector<Relation>& inputs_by_tag) {
  CBFT_CHECK(!job.map_only());
  const OpNode& blocking = plan.node(*job.blocking);

  ReduceTaskResult result;
  for (const Relation& r : inputs_by_tag) {
    result.metrics.input_bytes += r.byte_size();
    result.metrics.records_in += r.size();
  }

  // Replica determinism without a full canonical sort of every shuffle
  // input: GROUP/COGROUP/DISTINCT/ORDER are order-insensitive (they hash-
  // partition on canonical key bytes and emit key-sorted, or sort rows
  // themselves), so they consume the shuffle input as-is regardless of map
  // completion order. Only genuinely order-sensitive inputs still sort:
  // LIMIT's single input and the JOIN probe (left) side — the build side
  // instead gets canonical per-key match lists, which reproduces the same
  // bytes as joining two fully sorted inputs. A GROUP's bags are sorted
  // only where their row order is observable.
  Relation cur;
  switch (blocking.kind) {
    case OpKind::kGroup: {
      CBFT_CHECK(inputs_by_tag.size() == 1);
      cur = dataflow::eval_group(blocking, inputs_by_tag[0],
                                 group_bag_order_observable(plan, job));
      break;
    }
    case OpKind::kDistinct:
    case OpKind::kOrder: {
      CBFT_CHECK(inputs_by_tag.size() == 1);
      std::vector<const Relation*> ins{&inputs_by_tag[0]};
      cur = dataflow::eval_op(blocking, ins);
      break;
    }
    case OpKind::kLimit: {
      CBFT_CHECK(inputs_by_tag.size() == 1);
      Relation in(inputs_by_tag[0].schema(), inputs_by_tag[0].sorted_rows());
      cur = dataflow::eval_limit(blocking, in);
      break;
    }
    case OpKind::kJoin: {
      CBFT_CHECK(inputs_by_tag.size() == 2);
      Relation l(inputs_by_tag[0].schema(), inputs_by_tag[0].sorted_rows());
      cur = dataflow::eval_join(blocking, l, inputs_by_tag[1],
                                /*canonical_matches=*/true);
      break;
    }
    case OpKind::kCogroup: {
      CBFT_CHECK(inputs_by_tag.size() == 2);
      cur = dataflow::eval_cogroup(blocking, inputs_by_tag[0],
                                   inputs_by_tag[1]);
      break;
    }
    default:
      CBFT_CHECK_MSG(false, "not a blocking operator");
  }

  digest_if_marked(job, blocking.id, /*reduce_side=*/true, 0, partition, cur,
                   result.metrics, result.digests);

  for (OpId op_id : job.reduce_ops) {
    const OpNode& op = plan.node(op_id);
    std::vector<const Relation*> ins{&cur};
    cur = dataflow::eval_op(op, ins);
    digest_if_marked(job, op_id, /*reduce_side=*/true, 0, partition, cur,
                     result.metrics, result.digests);
  }

  result.metrics.records_out = cur.size();
  result.metrics.output_bytes = cur.byte_size();
  result.output = std::move(cur);
  return result;
}

}  // namespace clusterbft::mapreduce
