// Shared random plan generation for property tests: a random flat table
// and a random PigLatin-subset script over it. Used by random_plan_test
// (distributed execution matches the interpreter), determinism_test
// (verification-point digests are bit-stable across runs and the stored
// rows match the interpreter), parallel_exec_test (the tracker's pool
// size changes no byte) and tools/analysis/digest_parity (the SHA-256
// parity transcript). The last three run their DAGs through dag_run.hpp.
#pragma once

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "dataflow/relation.hpp"

namespace clusterbft::testgen {

/// A random flat table: (k:long, v:long, s:chararray) with some nulls.
inline dataflow::Relation random_table(Rng& rng, std::size_t rows) {
  using dataflow::Schema;
  using dataflow::Tuple;
  using dataflow::Value;
  using dataflow::ValueType;
  dataflow::Relation rel(Schema::of({{"k", ValueType::kLong},
                                     {"v", ValueType::kLong},
                                     {"s", ValueType::kChararray}}));
  for (std::size_t i = 0; i < rows; ++i) {
    Tuple t;
    t.fields.push_back(Value(rng.uniform_int(0, 8)));
    if (rng.chance(0.1)) {
      t.fields.push_back(Value::null());
    } else {
      t.fields.push_back(Value(rng.uniform_int(-50, 50)));
    }
    t.fields.push_back(Value(std::string(1, static_cast<char>(
                                                'a' + rng.next_below(4)))));
    rel.add(std::move(t));
  }
  return rel;
}

/// Build a random script over input 'ta' (and sometimes a self-join).
inline std::string random_script(Rng& rng) {
  std::ostringstream os;
  os << "a = LOAD 'ta' AS (k:long, v:long, s:chararray);\n";
  std::string cur = "a";
  int step = 0;
  auto fresh = [&step] { return "x" + std::to_string(step++); };

  // 1-3 streaming/blocking stages.
  const int stages = 1 + static_cast<int>(rng.next_below(3));
  bool grouped = false;
  for (int i = 0; i < stages && !grouped; ++i) {
    const auto pick = rng.next_below(6);
    const std::string next = fresh();
    switch (pick) {
      case 0:
        os << next << " = FILTER " << cur << " BY v IS NOT NULL;\n";
        break;
      case 1:
        os << next << " = FILTER " << cur << " BY ABS(v) > "
           << rng.next_below(30) << ";\n";
        break;
      case 2:
        os << next << " = FOREACH " << cur
           << " GENERATE k, v + 1 AS v, UPPER(s) AS s;\n";
        break;
      case 3:
        os << next << " = DISTINCT " << cur << ";\n";
        break;
      case 4: {
        // Self-join on k, then project back to the 3-column shape.
        os << "b" << step << " = LOAD 'ta' AS (k2:long, v2:long, s2:chararray);\n";
        os << next << "j = JOIN " << cur << " BY k, b" << step
           << " BY k2;\n";
        os << next << " = FOREACH " << next
           << "j GENERATE k, v2 AS v, s AS s;\n";
        ++step;
        break;
      }
      case 5: {
        // Group + aggregate ends the pipeline (output shape changes).
        os << next << " = GROUP " << cur << " BY k;\n";
        const std::string agg = fresh();
        os << agg << " = FOREACH " << next
           << " GENERATE group AS k, COUNT(" << cur << ") AS n, SUM(" << cur
           << ".v) AS total;\n";
        cur = agg;
        grouped = true;
        continue;
      }
    }
    if (pick != 5) cur = next;
  }
  os << "STORE " << cur << " INTO 'out';\n";
  return os.str();
}

}  // namespace clusterbft::testgen
