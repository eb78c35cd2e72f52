// Sanitizer smoke: exercises the digest-critical path — parse, interpret,
// compile to MapReduce, execute the job DAG on the execution tracker with
// one honest node, digest at verification points — and checks that two
// runs are bit-identical.
//
// Built as `asan_smoke` in every configuration; the `asan_ubsan_smoke`
// ctest (label: analysis) runs it under -fsanitize=address,undefined so a
// heap-buffer-overflow or UB in the hashing/serialisation path aborts the
// suite even when the main build is unsanitized.
#include <cstdio>
#include <map>
#include <string>

#include "crypto/digest.hpp"
#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"
#include "dataflow/relation.hpp"
#include "dag_run.hpp"
#include "mapreduce/compiler.hpp"

namespace {

namespace dataflow = clusterbft::dataflow;
namespace mapreduce = clusterbft::mapreduce;

dataflow::Relation make_input() {
  using dataflow::Schema;
  using dataflow::Tuple;
  using dataflow::Value;
  using dataflow::ValueType;
  dataflow::Relation rel(Schema::of({{"k", ValueType::kLong},
                                     {"v", ValueType::kLong},
                                     {"s", ValueType::kChararray}}));
  for (std::int64_t i = 0; i < 500; ++i) {
    Tuple t;
    t.fields.push_back(Value(i % 7));
    t.fields.push_back(i % 11 == 0 ? Value::null() : Value(i * 3 - 250));
    t.fields.push_back(Value(std::string(1, static_cast<char>('a' + i % 5))));
    rel.add(std::move(t));
  }
  return rel;
}

clusterbft::testgen::OneNodeRun run_once(const dataflow::LogicalPlan& plan,
                                         const mapreduce::JobDag& dag) {
  mapreduce::Dfs dfs(1024);  // small blocks: several map splits per job
  dfs.write("ta", make_input());
  return clusterbft::testgen::run_one_node(plan, dag, dfs);
}

}  // namespace

int main() {
  const std::string script =
      "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n"
      "f = FILTER a BY v IS NOT NULL;\n"
      "p = FOREACH f GENERATE k, ABS(v) AS v, UPPER(s) AS s;\n"
      "g = GROUP p BY k;\n"
      "c = FOREACH g GENERATE group AS k, COUNT(p) AS n, SUM(p.v) AS tot;\n"
      "o = ORDER c BY k;\n"
      "STORE o INTO 'out';\n";

  const auto plan = dataflow::parse_script(script);

  // Verify at every non-LOAD/STORE vertex with a small digest granularity:
  // maximum hashing coverage for the sanitizers.
  std::vector<mapreduce::VerificationPoint> vps;
  for (const auto& node : plan.nodes()) {
    if (node.kind != dataflow::OpKind::kLoad &&
        node.kind != dataflow::OpKind::kStore) {
      vps.push_back({node.id, 16});
    }
  }
  const auto dag =
      mapreduce::compile(plan, vps, {.sid_prefix = "smoke"});

  const auto r1 = run_once(plan, dag);
  const auto r2 = run_once(plan, dag);

  if (r1.digests.empty()) {
    std::fprintf(stderr, "asan_smoke: FAIL: no digests emitted\n");
    return 1;
  }
  if (r1.digests.size() != r2.digests.size()) {
    std::fprintf(stderr, "asan_smoke: FAIL: digest count differs (%zu vs %zu)\n",
                 r1.digests.size(), r2.digests.size());
    return 1;
  }
  for (std::size_t i = 0; i < r1.digests.size(); ++i) {
    if (r1.digests[i].key != r2.digests[i].key ||
        !(r1.digests[i].digest == r2.digests[i].digest)) {
      std::fprintf(stderr, "asan_smoke: FAIL: digest %zu diverged (%s)\n", i,
                   r1.digests[i].key.to_string().c_str());
      return 1;
    }
  }

  // Cross-check against the reference interpreter.
  const auto golden = dataflow::interpret(
      plan, std::map<std::string, dataflow::Relation>{
                {"ta", make_input()}});
  if (r1.outputs.at("out").sorted_rows() != golden.at("out").sorted_rows()) {
    std::fprintf(stderr, "asan_smoke: FAIL: MR output != interpreter output\n");
    return 1;
  }

  std::printf("asan_smoke: OK: %zu digests bit-identical across runs\n",
              r1.digests.size());
  return 0;
}
