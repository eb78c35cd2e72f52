#include "compare.hpp"

#include "dataflow/interpreter.hpp"
#include "dataflow/parser.hpp"

namespace perfbench {

namespace df = clusterbft::dataflow;

Reference make_reference(const std::string& script,
                         const std::map<std::string, df::Relation>& inputs) {
  Reference ref;
  for (const auto& [path, rel] :
       df::interpret(df::parse_script(script), inputs)) {
    ref.emplace(path, rel.sorted_rows());
  }
  return ref;
}

std::string compare_outputs(const Reference& ref,
                            const std::map<std::string, df::Relation>& got) {
  for (const auto& [path, rows] : ref) {
    const auto it = got.find(path);
    if (it == got.end()) return "missing STORE " + path;
    const std::vector<df::Tuple> sorted = it->second.sorted_rows();
    if (sorted.size() != rows.size()) {
      return path + ": " + std::to_string(sorted.size()) + " rows, reference " +
             std::to_string(rows.size());
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!(sorted[i] == rows[i])) {
        return path + ": row " + std::to_string(i) + " differs from reference";
      }
    }
  }
  for (const auto& [path, rel] : got) {
    if (ref.count(path) == 0) return "unexpected STORE " + path;
  }
  return {};
}

}  // namespace perfbench
