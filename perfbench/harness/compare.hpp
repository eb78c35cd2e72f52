// Reference outputs and the comparer every execution is checked with.
//
// A script's reference is what dataflow::interpret computes from the same
// inputs: for each STORE path, its rows in canonical order. A verified
// output is correct when it has exactly the reference's STORE paths and,
// for each, the same rows as a multiset.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataflow/relation.hpp"

namespace perfbench {

/// STORE path -> rows in canonical (sorted) order.
using Reference = std::map<std::string, std::vector<clusterbft::dataflow::Tuple>>;

/// Interpret `script` over `inputs` (keyed by LOAD path).
Reference make_reference(
    const std::string& script,
    const std::map<std::string, clusterbft::dataflow::Relation>& inputs);

/// Empty when `got` matches `ref`; otherwise one line naming the first
/// difference (missing or extra STORE, row count, first differing row).
std::string compare_outputs(
    const Reference& ref,
    const std::map<std::string, clusterbft::dataflow::Relation>& got);

}  // namespace perfbench
