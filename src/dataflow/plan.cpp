#include "dataflow/plan.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace clusterbft::dataflow {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kLoad:
      return "Load";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kForeach:
      return "Foreach";
    case OpKind::kGroup:
      return "Group";
    case OpKind::kCogroup:
      return "Cogroup";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kUnion:
      return "Union";
    case OpKind::kDistinct:
      return "Distinct";
    case OpKind::kOrder:
      return "Order";
    case OpKind::kLimit:
      return "Limit";
    case OpKind::kStore:
      return "Store";
  }
  return "?";
}

bool is_streaming(OpKind k) {
  return k == OpKind::kFilter || k == OpKind::kForeach || k == OpKind::kUnion;
}

bool is_blocking(OpKind k) {
  return k == OpKind::kGroup || k == OpKind::kCogroup || k == OpKind::kJoin ||
         k == OpKind::kDistinct || k == OpKind::kOrder;
}

std::string OpNode::to_string() const {
  std::string out = std::to_string(id);
  out += ".";
  out += clusterbft::dataflow::to_string(kind);
  if (!alias.empty()) {
    out += " ";
    out += alias;
  }
  switch (kind) {
    case OpKind::kLoad:
    case OpKind::kStore:
      out += " '" + path + "'";
      break;
    case OpKind::kFilter:
      out += " BY " + predicate->to_string();
      break;
    case OpKind::kForeach: {
      out += " GENERATE ";
      for (std::size_t i = 0; i < gen.size(); ++i) {
        if (i > 0) out += ", ";
        out += gen[i].expr->to_string();
        out += " AS " + gen[i].name;
      }
      break;
    }
    case OpKind::kGroup: {
      out += " BY";
      for (std::size_t k : group_keys) out += " $" + std::to_string(k);
      break;
    }
    case OpKind::kCogroup:
    case OpKind::kJoin: {
      out += " BY";
      for (std::size_t i = 0; i < left_keys.size(); ++i) {
        out += " $" + std::to_string(left_keys[i]) + "==$" +
               std::to_string(right_keys[i]);
      }
      break;
    }
    case OpKind::kOrder: {
      out += " BY ";
      for (std::size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += "$" + std::to_string(sort_keys[i].column);
        out += sort_keys[i].ascending ? " ASC" : " DESC";
      }
      break;
    }
    case OpKind::kLimit:
      out += " " + std::to_string(limit);
      break;
    default:
      break;
  }
  if (!inputs.empty()) {
    out += "  <-";
    for (OpId in : inputs) out += " " + std::to_string(in);
  }
  return out;
}

OpId LogicalPlan::add(OpNode node) {
  node.id = nodes_.size();
  for (OpId in : node.inputs) {
    CBFT_CHECK_MSG(in < node.id, "plan inputs must precede the node");
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

const OpNode& LogicalPlan::node(OpId id) const {
  CBFT_CHECK(id < nodes_.size());
  return nodes_[id];
}

OpNode& LogicalPlan::node(OpId id) {
  CBFT_CHECK(id < nodes_.size());
  return nodes_[id];
}

std::vector<OpId> LogicalPlan::children(OpId id) const {
  std::vector<OpId> out;
  for (const OpNode& n : nodes_) {
    if (std::find(n.inputs.begin(), n.inputs.end(), id) != n.inputs.end()) {
      out.push_back(n.id);
    }
  }
  return out;
}

std::vector<OpId> LogicalPlan::loads() const {
  std::vector<OpId> out;
  for (const OpNode& n : nodes_) {
    if (n.kind == OpKind::kLoad) out.push_back(n.id);
  }
  return out;
}

std::vector<OpId> LogicalPlan::stores() const {
  std::vector<OpId> out;
  for (const OpNode& n : nodes_) {
    if (n.kind == OpKind::kStore) out.push_back(n.id);
  }
  return out;
}

std::vector<std::size_t> LogicalPlan::levels() const {
  std::vector<std::size_t> level(nodes_.size(), 0);
  for (const OpNode& n : nodes_) {  // construction order is topological
    if (n.kind == OpKind::kLoad) {
      level[n.id] = 1;
    } else {
      std::size_t best = 0;
      for (OpId in : n.inputs) best = std::max(best, level[in]);
      level[n.id] = best + 1;
    }
  }
  return level;
}

std::size_t LogicalPlan::distance(OpId a, OpId b) const {
  CBFT_CHECK(a < nodes_.size() && b < nodes_.size());
  if (a == b) return 0;
  const std::size_t n = nodes_.size();
  // Every vertex's consumers, built in one pass instead of a children()
  // scan per dequeued vertex: consumers of v are adj[first[v], first[v+1])
  // in ascending id, the order children() lists them. A vertex read twice
  // (a self-join) lists its consumer twice; the second visit is a no-op.
  std::vector<std::size_t> first(n + 1, 0);
  for (const OpNode& node : nodes_) {
    for (OpId in : node.inputs) ++first[in + 1];
  }
  for (std::size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<OpId> adj(first[n]);
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (const OpNode& node : nodes_) {
    for (OpId in : node.inputs) adj[next[in]++] = node.id;
  }
  // BFS over the undirected version of the DAG; `queue` keeps every
  // enqueued vertex and `head` is the front.
  std::vector<std::size_t> dist(n, n);
  std::vector<OpId> queue{a};
  dist[a] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const OpId v = queue[head];
    if (v == b) return dist[v];
    auto visit = [&](OpId w) {
      if (dist[w] > dist[v] + 1) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    };
    for (OpId in : nodes_[v].inputs) visit(in);
    for (std::size_t i = first[v]; i < first[v + 1]; ++i) visit(adj[i]);
  }
  return n;
}

void LogicalPlan::validate() const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const OpNode& n = nodes_[i];
    CBFT_CHECK_MSG(n.id == i, "node id mismatch");
    for (OpId in : n.inputs) CBFT_CHECK_MSG(in < i, "input after node");
    switch (n.kind) {
      case OpKind::kLoad:
        CBFT_CHECK_MSG(n.inputs.empty(), "Load has no inputs");
        CBFT_CHECK_MSG(!n.path.empty(), "Load needs a path");
        CBFT_CHECK_MSG(n.schema.size() > 0, "Load needs a schema");
        break;
      case OpKind::kFilter:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Filter is unary");
        CBFT_CHECK_MSG(n.predicate != nullptr, "Filter needs a predicate");
        break;
      case OpKind::kForeach: {
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Foreach is unary");
        CBFT_CHECK_MSG(!n.gen.empty(), "Foreach needs generated fields");
        std::size_t width = 0;
        for (const GenField& g : n.gen) width += g.width;
        CBFT_CHECK_MSG(width == n.schema.size(),
                       "Foreach schema/gen arity mismatch");
        break;
      }
      case OpKind::kGroup:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Group is unary");
        CBFT_CHECK_MSG(!n.group_keys.empty(), "Group needs key columns");
        CBFT_CHECK_MSG(n.schema.size() == 2, "Group emits (group, bag)");
        break;
      case OpKind::kJoin:
        CBFT_CHECK_MSG(n.inputs.size() == 2, "Join is binary");
        CBFT_CHECK_MSG(!n.left_keys.empty() &&
                           n.left_keys.size() == n.right_keys.size(),
                       "Join needs positionally paired keys");
        break;
      case OpKind::kCogroup:
        CBFT_CHECK_MSG(n.inputs.size() == 2, "Cogroup is binary");
        CBFT_CHECK_MSG(!n.left_keys.empty() &&
                           n.left_keys.size() == n.right_keys.size(),
                       "Cogroup needs positionally paired keys");
        CBFT_CHECK_MSG(n.schema.size() == 3,
                       "Cogroup emits (group, bag, bag)");
        break;
      case OpKind::kUnion:
        CBFT_CHECK_MSG(n.inputs.size() >= 2, "Union needs >= 2 inputs");
        break;
      case OpKind::kDistinct:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Distinct is unary");
        break;
      case OpKind::kOrder:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Order is unary");
        CBFT_CHECK_MSG(!n.sort_keys.empty(), "Order needs sort keys");
        break;
      case OpKind::kLimit:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Limit is unary");
        CBFT_CHECK_MSG(n.limit >= 0, "Limit must be non-negative");
        break;
      case OpKind::kStore:
        CBFT_CHECK_MSG(n.inputs.size() == 1, "Store is unary");
        CBFT_CHECK_MSG(!n.path.empty(), "Store needs a path");
        break;
    }
  }
  CBFT_CHECK_MSG(!stores().empty(), "plan needs at least one Store");
}

std::string LogicalPlan::to_string() const {
  std::string out;
  for (const OpNode& n : nodes_) {
    out += n.to_string();
    out += "\n";
  }
  return out;
}

}  // namespace clusterbft::dataflow
