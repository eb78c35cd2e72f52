// A materialised relation: a schema plus rows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/schema.hpp"
#include "dataflow/value.hpp"

namespace clusterbft::dataflow {

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Tuple> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  std::vector<Tuple>& rows() { return rows_; }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void add(Tuple t) { rows_.push_back(std::move(t)); }

  /// Pre-size the row storage — shuffle/group materialisation paths know
  /// their output cardinality (or a good bound) up front.
  void reserve(std::size_t n) { rows_.reserve(n); }

  /// Total canonical-serialisation size of all rows — the "bytes" a task
  /// reading/writing this relation accounts for. Counted with
  /// serialized_size(), so no row is serialised.
  std::uint64_t byte_size() const;

  /// Rows in canonical (full-tuple) order — the one canonical sort used
  /// by order-sensitive reduce inputs (LIMIT, the JOIN probe side) and by
  /// order-insensitive output comparison in tests. Index-sorted: tuples
  /// are deep (strings, bags), so sorting an index vector and gathering
  /// once beats moving tuples O(n log n) times inside std::sort.
  std::vector<Tuple> sorted_rows() const;

  /// Tab-separated rendering (examples; mirrors Pig's `dump`).
  std::string to_tsv(std::size_t max_rows = SIZE_MAX) const;

  friend bool operator==(const Relation&, const Relation&) = default;

 private:
  Schema schema_;
  std::vector<Tuple> rows_;
};

}  // namespace clusterbft::dataflow
