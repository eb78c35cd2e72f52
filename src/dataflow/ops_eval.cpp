#include "dataflow/ops_eval.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "dataflow/key_index.hpp"

namespace clusterbft::dataflow {

Relation eval_filter(const OpNode& op, const Relation& in) {
  Relation out(op.schema);
  for (const Tuple& t : in.rows()) {
    if (is_truthy(eval_expr(*op.predicate, t))) out.add(t);
  }
  return out;
}

Relation eval_foreach(const OpNode& op, const Relation& in) {
  Relation out(op.schema);
  out.reserve(in.size());
  for (const Tuple& t : in.rows()) {
    Tuple o;
    o.fields.reserve(op.schema.size());
    for (const GenField& g : op.gen) {
      Value v = eval_expr(*g.expr, t);
      if (g.flatten && v.type() == ValueType::kTuple) {
        for (const Value& f : v.as_tuple()->fields) o.fields.push_back(f);
      } else {
        o.fields.push_back(std::move(v));
      }
    }
    CBFT_CHECK_MSG(o.size() == op.schema.size(),
                   "FLATTEN arity mismatch at runtime");
    out.add(std::move(o));
  }
  return out;
}

/// The GROUP/JOIN key of a tuple: the scalar itself for one key column,
/// a nested tuple for several (Pig semantics).
static Value extract_key(const Tuple& t, const std::vector<std::size_t>& keys) {
  CBFT_CHECK(!keys.empty());
  if (keys.size() == 1) return t.at(keys[0]);
  std::vector<Value> fields;
  fields.reserve(keys.size());
  for (std::size_t k : keys) fields.push_back(t.at(k));
  return Value::tuple_of(std::move(fields));
}

namespace {

/// First-occurrence entry ids ordered by canonical key *value* — the
/// deterministic emission order the ordered-map implementation used to
/// provide for free, now paid only over distinct keys. `key_of(id)` must
/// return the key Value of entry `id`.
template <typename KeyOf>
std::vector<std::size_t> key_sorted_ids(std::size_t n, KeyOf key_of) {
  std::vector<Value> keys;
  keys.reserve(n);
  for (std::size_t id = 0; id < n; ++id) keys.push_back(key_of(id));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&keys](std::size_t a, std::size_t b) {
              return (keys[a] <=> keys[b]) < 0;
            });
  return order;
}

void sort_bag(std::vector<Tuple>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Tuple& a, const Tuple& b) { return (a <=> b) < 0; });
}

}  // namespace

Relation eval_group(const OpNode& op, const Relation& in,
                    bool canonical_bags) {
  // Hash-partitioned grouping on canonical key bytes (serialisation is
  // injective, so byte equality == key equality). Groups are emitted in
  // canonical key order with (by default) canonically sorted bags, which
  // makes the result independent of the input row order — replicas fed the
  // shuffle in different map-completion orders still produce identical
  // bytes.
  KeyIndex idx(in.size() / 4 + 1);
  std::vector<std::vector<Tuple>> bags;
  std::vector<const Tuple*> reps;  // one representative row per key
  std::string buf;
  for (const Tuple& t : in.rows()) {
    const std::uint64_t h = tuple_cols_hash(t, op.group_keys, buf);
    const std::size_t id = idx.intern(buf, h);
    if (id == bags.size()) {
      bags.emplace_back();
      reps.push_back(&t);
    }
    bags[id].push_back(t);
  }
  const auto order = key_sorted_ids(idx.size(), [&](std::size_t id) {
    return extract_key(*reps[id], op.group_keys);
  });
  Relation out(op.schema);
  out.reserve(order.size());
  for (const std::size_t id : order) {
    if (canonical_bags) sort_bag(bags[id]);
    Tuple o;
    o.fields.push_back(extract_key(*reps[id], op.group_keys));
    o.fields.push_back(Value(
        std::make_shared<const std::vector<Tuple>>(std::move(bags[id]))));
    out.add(std::move(o));
  }
  return out;
}

Relation eval_join(const OpNode& op, const Relation& left,
                   const Relation& right, bool canonical_matches) {
  // Deterministic hash join: index the right side by canonical key bytes,
  // then probe with the left side in input order (output row order ==
  // left input order).
  auto any_null = [](const Tuple& t, const std::vector<std::size_t>& keys) {
    for (std::size_t k : keys) {
      if (t.at(k).is_null()) return true;
    }
    return false;
  };
  KeyIndex idx(right.size() / 4 + 1);
  std::vector<std::vector<const Tuple*>> matches;
  std::string buf;
  for (const Tuple& t : right.rows()) {
    if (any_null(t, op.right_keys)) continue;
    const std::uint64_t h = tuple_cols_hash(t, op.right_keys, buf);
    const std::size_t id = idx.intern(buf, h);
    if (id == matches.size()) matches.emplace_back();
    matches[id].push_back(&t);
  }
  if (canonical_matches) {
    // Per-key match lists in canonical order: combined with a canonically
    // sorted probe side this yields the same bytes as joining two fully
    // sorted inputs — the reduce path's determinism contract — while only
    // ever sorting the (small) per-key lists of the build side.
    for (std::vector<const Tuple*>& list : matches) {
      std::sort(list.begin(), list.end(),
                [](const Tuple* a, const Tuple* b) { return (*a <=> *b) < 0; });
    }
  }
  Relation out(op.schema);
  for (const Tuple& lt : left.rows()) {
    if (any_null(lt, op.left_keys)) continue;
    const std::uint64_t h = tuple_cols_hash(lt, op.left_keys, buf);
    const std::size_t id = idx.find(buf, h);
    if (id == KeyIndex::npos) continue;
    for (const Tuple* rt : matches[id]) {
      Tuple o;
      o.fields.reserve(lt.size() + rt->size());
      o.fields.insert(o.fields.end(), lt.fields.begin(), lt.fields.end());
      o.fields.insert(o.fields.end(), rt->fields.begin(), rt->fields.end());
      out.add(std::move(o));
    }
  }
  return out;
}

Relation eval_cogroup(const OpNode& op, const Relation& left,
                      const Relation& right) {
  KeyIndex idx((left.size() + right.size()) / 4 + 1);
  std::vector<std::pair<std::vector<Tuple>, std::vector<Tuple>>> bags;
  std::vector<Value> keys;
  std::string buf;
  const auto absorb = [&](const Relation& rel,
                          const std::vector<std::size_t>& key_cols,
                          bool is_left) {
    for (const Tuple& t : rel.rows()) {
      const std::uint64_t h = tuple_cols_hash(t, key_cols, buf);
      const std::size_t id = idx.intern(buf, h);
      if (id == bags.size()) {
        bags.emplace_back();
        keys.push_back(extract_key(t, key_cols));
      }
      (is_left ? bags[id].first : bags[id].second).push_back(t);
    }
  };
  absorb(left, op.left_keys, /*is_left=*/true);
  absorb(right, op.right_keys, /*is_left=*/false);
  const auto order = key_sorted_ids(
      idx.size(), [&](std::size_t id) { return keys[id]; });
  Relation out(op.schema);
  out.reserve(order.size());
  for (const std::size_t id : order) {
    sort_bag(bags[id].first);
    sort_bag(bags[id].second);
    Tuple o;
    o.fields.push_back(std::move(keys[id]));
    o.fields.push_back(Value(std::make_shared<const std::vector<Tuple>>(
        std::move(bags[id].first))));
    o.fields.push_back(Value(std::make_shared<const std::vector<Tuple>>(
        std::move(bags[id].second))));
    out.add(std::move(o));
  }
  return out;
}

Relation eval_union(const OpNode& op,
                    const std::vector<const Relation*>& ins) {
  Relation out(op.schema);
  std::size_t total = 0;
  for (const Relation* r : ins) total += r->size();
  out.reserve(total);
  for (const Relation* r : ins) {
    CBFT_CHECK_MSG(r->schema().size() == op.schema.size(),
                   "UNION inputs must have equal arity");
    for (const Tuple& t : r->rows()) out.add(t);
  }
  return out;
}

Relation eval_distinct(const OpNode& op, const Relation& in) {
  std::vector<Tuple> rows = in.sorted_rows();
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return Relation(op.schema, std::move(rows));
}

Relation eval_order(const OpNode& op, const Relation& in) {
  std::vector<Tuple> rows = in.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [&op](const Tuple& a, const Tuple& b) {
                     for (const SortKey& k : op.sort_keys) {
                       const auto c = a.at(k.column) <=> b.at(k.column);
                       if (c == std::strong_ordering::equal) continue;
                       const bool less = c == std::strong_ordering::less;
                       return k.ascending ? less : !less;
                     }
                     // Full-tuple tiebreak keeps the order deterministic
                     // across replicas even for equal keys.
                     return (a <=> b) < 0;
                   });
  return Relation(op.schema, std::move(rows));
}

Relation eval_limit(const OpNode& op, const Relation& in) {
  Relation out(op.schema);
  const auto n = static_cast<std::size_t>(op.limit);
  for (std::size_t i = 0; i < in.size() && i < n; ++i) out.add(in.rows()[i]);
  return out;
}

Relation eval_op(const OpNode& op, const std::vector<const Relation*>& ins) {
  switch (op.kind) {
    case OpKind::kFilter:
      CBFT_CHECK(ins.size() == 1);
      return eval_filter(op, *ins[0]);
    case OpKind::kForeach:
      CBFT_CHECK(ins.size() == 1);
      return eval_foreach(op, *ins[0]);
    case OpKind::kGroup:
      CBFT_CHECK(ins.size() == 1);
      return eval_group(op, *ins[0]);
    case OpKind::kJoin:
      CBFT_CHECK(ins.size() == 2);
      return eval_join(op, *ins[0], *ins[1]);
    case OpKind::kCogroup:
      CBFT_CHECK(ins.size() == 2);
      return eval_cogroup(op, *ins[0], *ins[1]);
    case OpKind::kUnion:
      return eval_union(op, ins);
    case OpKind::kDistinct:
      CBFT_CHECK(ins.size() == 1);
      return eval_distinct(op, *ins[0]);
    case OpKind::kOrder:
      CBFT_CHECK(ins.size() == 1);
      return eval_order(op, *ins[0]);
    case OpKind::kLimit:
      CBFT_CHECK(ins.size() == 1);
      return eval_limit(op, *ins[0]);
    case OpKind::kLoad:
    case OpKind::kStore:
      CBFT_CHECK_MSG(false, "Load/Store are storage ops, not data ops");
  }
  return Relation();
}

}  // namespace clusterbft::dataflow
