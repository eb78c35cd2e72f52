// The dataflow value model: scalars plus bags (needed by GROUP).
//
// Pig's data model has atoms, tuples and bags; we support the subset the
// paper's four scripts need: long, double, chararray, null, and bags of
// tuples (the output of GROUP, consumed by aggregate FOREACH).
//
// §5.4 of the paper ("Ensuring Determinism") requires replicas to produce
// bit-identical outputs. All Value operations here are deterministic, and
// the canonical serialisation (used for digests) renders doubles with a
// fixed round-trippable format.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace clusterbft::dataflow {

class Value;

/// A tuple is an ordered list of values. Kept as a thin struct so it can
/// grow invariants later without touching call sites.
struct Tuple {
  std::vector<Value> fields;

  Tuple() = default;
  explicit Tuple(std::vector<Value> f) : fields(std::move(f)) {}

  std::size_t size() const { return fields.size(); }
  const Value& at(std::size_t i) const;
  Value& at(std::size_t i);

  friend bool operator==(const Tuple&, const Tuple&);
  friend std::strong_ordering operator<=>(const Tuple&, const Tuple&);
};

/// Bags are immutable and shared: GROUP materialises each group once and
/// every downstream expression evaluation aliases it.
using Bag = std::shared_ptr<const std::vector<Tuple>>;

/// Nested tuples are immutable and shared: multi-key GROUP packs its key
/// columns into one, and FLATTEN unpacks them again.
using BoxedTuple = std::shared_ptr<const Tuple>;

enum class ValueType : std::uint8_t {
  kNull = 0,
  kLong = 1,
  kDouble = 2,
  kChararray = 3,
  kBag = 4,
  kTuple = 5,
};

const char* to_string(ValueType t);

/// A single dataflow value.
///
/// Ordering is total and deterministic: null < longs/doubles (numeric
/// order, cross-type) < chararrays < bags (by size, then lexicographic)
/// < tuples (lexicographic).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(std::int64_t x) : v_(x) {}                   // NOLINT(google-explicit-constructor)
  Value(double x) : v_(x) {}                         // NOLINT
  Value(std::string s) : v_(std::move(s)) {}         // NOLINT
  Value(const char* s) : v_(std::string(s)) {}       // NOLINT
  Value(Bag b) : v_(std::move(b)) {}                 // NOLINT
  Value(BoxedTuple t) : v_(std::move(t)) {}          // NOLINT

  static Value null() { return Value(); }

  /// Pack fields into a nested tuple value.
  static Value tuple_of(std::vector<Value> fields) {
    return Value(std::make_shared<const Tuple>(std::move(fields)));
  }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; CBFT_CHECK on type mismatch.
  std::int64_t as_long() const;
  double as_double() const;
  const std::string& as_string() const;
  const Bag& as_bag() const;
  const BoxedTuple& as_tuple() const;

  /// Numeric coercion: longs and doubles convert; everything else checks.
  double to_double() const;

  friend bool operator==(const Value& a, const Value& b);
  friend std::strong_ordering operator<=>(const Value& a, const Value& b);

  /// Human-readable rendering (examples, debugging).
  std::string to_string() const;

  /// Canonical serialisation appended to `out`: a type tag followed by an
  /// unambiguous encoding. Identical values serialise identically across
  /// replicas — the foundation of digest comparison.
  void serialize(std::string& out) const;

  /// Length of serialize()'s output, computed without building it — the
  /// byte-accounting path (split sizing, task I/O metrics) needs only the
  /// count.
  std::size_t serialized_size() const;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string, Bag,
               BoxedTuple>
      v_;
};

/// Canonical serialisation of a whole tuple.
std::string serialize_tuple(const Tuple& t);

/// Streaming variant: clears `out` and serialises into it, so hot loops
/// (digesting, split sizing) reuse one buffer instead of allocating a
/// fresh std::string per tuple.
void serialize_tuple_into(const Tuple& t, std::string& out);

/// serialize_tuple(t).size(), without serialising.
std::size_t serialized_size(const Tuple& t);

/// Deterministic (FNV-1a over canonical serialisation) hash of a tuple
/// prefix — used for shuffle partitioning, so it must be identical across
/// replicas and platforms. `num_fields == 0` hashes the whole tuple.
std::uint64_t tuple_key_hash(const Tuple& t, std::size_t num_fields);

/// Buffer-reusing variant for the shuffle hot path: `buf` is cleared and
/// holds the canonical key serialisation on return, so callers that also
/// need the bytes (e.g. KeyIndex interning) pay one serialisation, and no
/// per-tuple allocation once `buf` has warmed up.
std::uint64_t tuple_key_hash(const Tuple& t, std::size_t num_fields,
                             std::string& buf);

/// Hash of an explicit key-column set (GROUP/JOIN/COGROUP keys), byte- and
/// hash-identical to building the key tuple and hashing it whole — but
/// without materialising the key tuple. `buf` as above.
std::uint64_t tuple_cols_hash(const Tuple& t,
                              const std::vector<std::size_t>& cols,
                              std::string& buf);

}  // namespace clusterbft::dataflow
