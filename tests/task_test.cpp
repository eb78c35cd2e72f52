// Tests that the distributed task runtime computes the same function as
// the reference interpreter, partition by partition, and that its digests
// behave as the verifier requires.
#include "mapreduce/task.hpp"

#include <gtest/gtest.h>

#include "baseline/presets.hpp"
#include "common/rng.hpp"
#include "core/graph_analyzer.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/ops_eval.hpp"
#include "dataflow/parser.hpp"
#include "dataflow/udf.hpp"
#include "mapreduce/compiler.hpp"
#include "mapreduce/dfs.hpp"
#include "workloads/scripts.hpp"
#include "workloads/twitter.hpp"

namespace clusterbft::mapreduce {
namespace {

using dataflow::LogicalPlan;
using dataflow::Relation;
using dataflow::Tuple;
using dataflow::parse_script;

struct Compiled {
  LogicalPlan plan;
  JobDag dag;
};

Compiled compile_with_vps(const std::string& script,
                          std::vector<VerificationPoint> vps = {}) {
  Compiled c{parse_script(script), {}};
  CompileOptions opts;
  opts.sid_prefix = "t";
  c.dag = compile(c.plan, vps, opts);
  return c;
}

/// Run one job fully in-process: all map tasks over DFS splits, shuffle,
/// all reduce tasks; returns the concatenated output.
Relation run_job(const LogicalPlan& plan, const MRJobSpec& job, Dfs& dfs,
                 std::vector<DigestReport>* digests = nullptr) {
  std::vector<std::vector<Relation>> shuffle(job.num_reducers);
  int max_tag = 0;
  for (const MapBranch& b : job.branches) max_tag = std::max(max_tag, b.tag);
  for (auto& p : shuffle) p.resize(static_cast<std::size_t>(max_tag) + 1);

  Relation direct;
  bool direct_init = false;
  for (std::size_t bi = 0; bi < job.branches.size(); ++bi) {
    const MapBranch& b = job.branches[bi];
    for (std::size_t s = 0; s < dfs.num_splits(b.input_path); ++s) {
      auto res = run_map_task(plan, job, bi, s, dfs.read_split(b.input_path, s));
      if (digests) {
        digests->insert(digests->end(), res.digests.begin(),
                        res.digests.end());
      }
      if (job.map_only()) {
        if (!direct_init) {
          direct = Relation(res.direct_output.schema());
          direct_init = true;
        }
        for (Tuple& t : res.direct_output.rows()) direct.add(std::move(t));
      } else {
        for (std::size_t p = 0; p < res.partitions.size(); ++p) {
          auto& bucket = shuffle[p][static_cast<std::size_t>(b.tag)];
          if (bucket.schema().size() == 0) {
            bucket = Relation(res.partitions[p].schema());
          }
          for (Tuple& t : res.partitions[p].rows()) bucket.add(std::move(t));
        }
      }
    }
  }
  if (job.map_only()) return direct;

  Relation out;
  bool out_init = false;
  for (std::size_t p = 0; p < job.num_reducers; ++p) {
    for (auto& bucket : shuffle[p]) {
      if (bucket.schema().size() == 0) {
        // Give schema-less (empty) buckets the map-side schema of tag 0.
        bucket = Relation(plan.node(job.branches[0].map_ops.empty()
                                        ? job.branches[0].source_vertex
                                        : job.branches[0].map_ops.back())
                              .schema);
      }
    }
    auto res = run_reduce_task(plan, job, p, shuffle[p]);
    if (digests) {
      digests->insert(digests->end(), res.digests.begin(), res.digests.end());
    }
    if (!out_init) {
      out = Relation(res.output.schema());
      out_init = true;
    }
    for (Tuple& t : res.output.rows()) out.add(std::move(t));
  }
  return out;
}

/// Execute the whole DAG through the task runtime.
std::map<std::string, Relation> run_dag(const Compiled& c, Dfs& dfs) {
  std::map<std::string, Relation> stores;
  for (const MRJobSpec& job : c.dag.jobs) {
    Relation out = run_job(c.plan, job, dfs);
    dfs.write(job.output_path, out);
    if (job.is_final_store) stores[job.output_path] = std::move(out);
  }
  return stores;
}

TEST(TaskTest, ShufflePartitionIsDeterministicAndInRange) {
  dataflow::OpNode group;
  group.kind = dataflow::OpKind::kGroup;
  group.group_keys = {0};
  for (std::int64_t k = 0; k < 100; ++k) {
    const Tuple t({dataflow::Value(k)});
    const std::size_t p = shuffle_partition(group, 0, t, 7);
    EXPECT_LT(p, 7u);
    EXPECT_EQ(p, shuffle_partition(group, 0, t, 7));
  }
}

TEST(TaskTest, OrderAlwaysPartitionZero) {
  dataflow::OpNode order;
  order.kind = dataflow::OpKind::kOrder;
  EXPECT_EQ(shuffle_partition(order, 0, Tuple({dataflow::Value("x")}), 1), 0u);
}

TEST(TaskTest, EveryScriptMatchesInterpreter) {
  workloads::TwitterConfig tw;
  tw.num_edges = 3000;
  tw.num_users = 500;
  const Relation edges = workloads::generate_twitter_edges(tw);

  for (const std::string& script :
       {workloads::twitter_follower_analysis(),
        workloads::twitter_two_hop_analysis()}) {
    Dfs dfs(4096);
    dfs.write("twitter/edges", edges);
    const Compiled c = compile_with_vps(script);
    const auto distributed = run_dag(c, dfs);
    const auto golden =
        dataflow::interpret(c.plan, {{"twitter/edges", edges}});
    ASSERT_EQ(distributed.size(), golden.size());
    for (const auto& [path, rel] : golden) {
      EXPECT_EQ(distributed.at(path).sorted_rows(), rel.sorted_rows())
          << path << " in " << script.substr(0, 30);
    }
  }
}

TEST(TaskTest, ReplicaDigestsIdenticalRegardlessOfShuffleOrder) {
  workloads::TwitterConfig tw;
  tw.num_edges = 2000;
  const Relation edges = workloads::generate_twitter_edges(tw);
  Dfs dfs(2048);
  dfs.write("twitter/edges", edges);

  const Compiled c0 = compile_with_vps(workloads::twitter_follower_analysis());
  // Place a verification point on the job's output vertex.
  Compiled c = compile_with_vps(workloads::twitter_follower_analysis(),
                                {{c0.dag.jobs[0].output_vertex, 0}});

  std::vector<DigestReport> d1, d2;
  run_job(c.plan, c.dag.jobs[0], dfs, &d1);
  run_job(c.plan, c.dag.jobs[0], dfs, &d2);
  ASSERT_FALSE(d1.empty());
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].key, d2[i].key);
    EXPECT_EQ(d1[i].digest, d2[i].digest);
  }
}

TEST(TaskTest, CorruptInputChangesDigest) {
  workloads::TwitterConfig tw;
  tw.num_edges = 500;
  Relation edges = workloads::generate_twitter_edges(tw);
  Dfs honest(1 << 20), corrupt(1 << 20);
  honest.write("twitter/edges", edges);
  edges.rows()[7].at(0) = dataflow::Value(std::int64_t{999999});
  corrupt.write("twitter/edges", edges);

  const Compiled c0 = compile_with_vps(workloads::twitter_follower_analysis());
  Compiled c = compile_with_vps(workloads::twitter_follower_analysis(),
                                {{c0.dag.jobs[0].output_vertex, 0}});
  std::vector<DigestReport> dh, dc;
  run_job(c.plan, c.dag.jobs[0], honest, &dh);
  run_job(c.plan, c.dag.jobs[0], corrupt, &dc);
  bool any_differs = false;
  ASSERT_EQ(dh.size(), dc.size());
  for (std::size_t i = 0; i < dh.size(); ++i) {
    if (!(dh[i].digest == dc[i].digest)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(TaskTest, ChunkedDigestsLocaliseCorruption) {
  // With d = 50 records per digest, corrupting one record flips only the
  // digests of the chunk(s) containing it — the approximation-accuracy
  // mechanism of §6.4.
  workloads::TwitterConfig tw;
  tw.num_edges = 400;
  tw.malformed_rate = 0;
  Relation edges = workloads::generate_twitter_edges(tw);
  Dfs honest(1 << 20), corrupt(1 << 20);
  honest.write("twitter/edges", edges);
  edges.rows()[5].at(0) = dataflow::Value(std::int64_t{424242});
  corrupt.write("twitter/edges", edges);

  const std::string script =
      "a = LOAD 'twitter/edges' AS (user:long, follower:long);\n"
      "STORE a INTO 'out/copy';\n";
  const Compiled c0 = compile_with_vps(script);
  Compiled c = compile_with_vps(script, {{0, 50}});

  std::vector<DigestReport> dh, dc;
  run_job(c.plan, c.dag.jobs[0], honest, &dh);
  run_job(c.plan, c.dag.jobs[0], corrupt, &dc);
  ASSERT_EQ(dh.size(), dc.size());
  ASSERT_GT(dh.size(), 2u);  // multiple chunks
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < dh.size(); ++i) {
    if (!(dh[i].digest == dc[i].digest)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 1u);
}

TEST(TaskTest, MetricsAccountBytesAndRecords) {
  workloads::TwitterConfig tw;
  tw.num_edges = 200;
  const Relation edges = workloads::generate_twitter_edges(tw);
  Dfs dfs(1 << 20);
  dfs.write("twitter/edges", edges);
  const Compiled c = compile_with_vps(workloads::twitter_follower_analysis());
  const MRJobSpec& job = c.dag.jobs[0];
  auto res = run_map_task(c.plan, job, 0, 0, dfs.read_split("twitter/edges", 0));
  EXPECT_EQ(res.metrics.records_in, 200u);
  EXPECT_GT(res.metrics.input_bytes, 0u);
  EXPECT_GT(res.metrics.output_bytes, 0u);
  EXPECT_EQ(res.metrics.digested_bytes, 0u);  // no VPs requested
  std::size_t shuffled = 0;
  for (const Relation& p : res.partitions) shuffled += p.size();
  EXPECT_EQ(shuffled, res.metrics.records_out);
  // Output bytes are counted row by row while partitioning; they must be
  // the partitions' canonical sizes exactly.
  std::uint64_t partition_bytes = 0;
  for (const Relation& p : res.partitions) partition_bytes += p.byte_size();
  EXPECT_EQ(res.metrics.output_bytes, partition_bytes);
}

// --- GROUP bag-order observability ----------------------------------------

/// The canonical bytes of every row, in row order.
std::string row_bytes(const Relation& rel) {
  std::string out;
  for (const Tuple& t : rel.rows()) out += dataflow::serialize_tuple(t);
  return out;
}

/// The job's reduce side evaluated operator by operator, with the GROUP's
/// bags canonically sorted or, if `canonical_bags` is false, left in
/// input order.
Relation reference_reduce(const LogicalPlan& plan, const MRJobSpec& job,
                          const Relation& in, bool canonical_bags = true) {
  Relation cur = dataflow::eval_group(plan.node(*job.blocking), in,
                                      canonical_bags);
  for (dataflow::OpId op : job.reduce_ops) {
    cur = dataflow::eval_op(plan.node(op), {&cur});
  }
  return cur;
}

struct BagOrderCase {
  const char* name;
  const char* consumer;  ///< statements after `g = GROUP a BY k;`
  bool individual;       ///< VPs from baseline::individual, else the output
  bool observable;       ///< expected group_bag_order_observable()
  /// The job output would differ between the two permutations if the
  /// bags were left unsorted — the case needs its sort, and the data
  /// shows it.
  bool unsorted_output_differs;
};

class BagOrderObservability : public ::testing::TestWithParam<BagOrderCase> {};

TEST_P(BagOrderObservability, ReduceOutputIsPermutationInvariant) {
  const BagOrderCase& tc = GetParam();
  // An order-sensitive aggregate UDF: the first value in the bag.
  dataflow::UdfRegistry::AggregateUdf first;
  first.result_type = dataflow::ValueType::kDouble;
  first.fn = [](const std::vector<Tuple>& bag,
                std::optional<std::size_t> col) {
    return bag.empty() ? dataflow::Value::null() : bag.front().at(*col);
  };
  dataflow::UdfRegistry::instance().register_aggregate("FIRSTV", first);

  const std::string script =
      std::string("a = LOAD 'in' AS (k:long, v:double, n:long);\n"
                  "g = GROUP a BY k;\n") +
      tc.consumer;
  const Compiled c0 = compile_with_vps(script);
  ASSERT_EQ(c0.dag.jobs.size(), 1u) << tc.name;
  std::vector<VerificationPoint> vps{{c0.dag.jobs[0].output_vertex, 0}};
  if (tc.individual) {
    vps = core::analyze(c0.plan, {{"in", 1 << 20}},
                        baseline::individual(script, "ind", 1, 3));
  }
  const Compiled c = compile_with_vps(script, vps);
  const MRJobSpec& job = c.dag.jobs[0];
  ASSERT_TRUE(job.blocking.has_value());
  if (tc.individual) {
    bool group_is_vp = false;
    for (const VerificationPoint& vp : job.vps) {
      group_is_vp = group_is_vp || vp.vertex == *job.blocking;
    }
    ASSERT_TRUE(group_is_vp) << "individual must digest the GROUP vertex";
  }
  EXPECT_EQ(group_bag_order_observable(c.plan, job), tc.observable)
      << tc.name;

  // One shuffle partition, in input order and in a seeded permutation.
  // The doubles make a sum's rounding depend on the order it is taken in.
  const double kV[] = {1e16, 1.0, -1e16, 0.1, 2.5, -3.25, 7.0};
  const dataflow::Schema& in_schema = c.plan.node(0).schema;
  Relation forward(in_schema);
  for (std::int64_t i = 0; i < 70; ++i) {
    const double v = kV[i % 7] * static_cast<double>(i % 3 + 1);
    forward.add(Tuple({dataflow::Value(i % 5), dataflow::Value(v),
                       dataflow::Value((i * 7) % 11)}));
  }
  Relation permuted = forward;
  Rng rng(0xBA6);
  rng.shuffle(permuted.rows());

  const ReduceTaskResult r1 = run_reduce_task(c.plan, job, 0, {forward});
  const ReduceTaskResult r2 = run_reduce_task(c.plan, job, 0, {permuted});
  EXPECT_EQ(row_bytes(r1.output), row_bytes(r2.output)) << tc.name;
  ASSERT_EQ(r1.digests.size(), r2.digests.size()) << tc.name;
  ASSERT_FALSE(r1.digests.empty()) << tc.name;
  for (std::size_t i = 0; i < r1.digests.size(); ++i) {
    EXPECT_EQ(r1.digests[i].key, r2.digests[i].key) << tc.name;
    EXPECT_EQ(r1.digests[i].digest, r2.digests[i].digest) << tc.name;
  }
  EXPECT_EQ(r1.metrics.input_bytes, r2.metrics.input_bytes);
  EXPECT_EQ(r1.metrics.output_bytes, r2.metrics.output_bytes);
  EXPECT_EQ(r1.metrics.digested_bytes, r2.metrics.digested_bytes);

  // Whether or not the sort ran, the bytes are those of canonical bags.
  EXPECT_EQ(row_bytes(r1.output),
            row_bytes(reference_reduce(c.plan, job, permuted)))
      << tc.name;
  EXPECT_EQ(row_bytes(reference_reduce(c.plan, job, forward, false)) !=
                row_bytes(reference_reduce(c.plan, job, permuted, false)),
            tc.unsorted_output_differs)
      << tc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Plans, BagOrderObservability,
    ::testing::Values(
        BagOrderCase{"count_only",
                     "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
                     "STORE c INTO 'out';\n",
                     false, false, false},
        BagOrderCase{"count_column_and_size",
                     "c = FOREACH g GENERATE group, COUNT(a.v) AS n, "
                     "SIZE(a) AS s;\nSTORE c INTO 'out';\n",
                     false, false, false},
        BagOrderCase{"group_is_verification_point",
                     "c = FOREACH g GENERATE group, COUNT(a) AS n;\n"
                     "STORE c INTO 'out';\n",
                     true, true, false},
        BagOrderCase{"group_is_stored_output", "STORE g INTO 'out';\n", false,
                     true, true},
        BagOrderCase{"filter_after_group",
                     "h = FILTER g BY group > 1;\nSTORE h INTO 'out';\n",
                     false, true, true},
        BagOrderCase{"avg_over_doubles",
                     "c = FOREACH g GENERATE group, AVG(a.v) AS m;\n"
                     "STORE c INTO 'out';\n",
                     false, true, true},
        BagOrderCase{"min_max",
                     "c = FOREACH g GENERATE group, MIN(a.n) AS lo, "
                     "MAX(a.v) AS hi;\nSTORE c INTO 'out';\n",
                     false, true, false},
        BagOrderCase{"aggregate_udf",
                     "c = FOREACH g GENERATE group, FIRSTV(a.v) AS x;\n"
                     "STORE c INTO 'out';\n",
                     false, true, true},
        BagOrderCase{"bag_passed_through",
                     "c = FOREACH g GENERATE group, COUNT(a) AS n, a;\n"
                     "STORE c INTO 'out';\n",
                     false, true, true}),
    [](const ::testing::TestParamInfo<BagOrderCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace clusterbft::mapreduce
