#include "dataflow/value.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/check.hpp"

namespace clusterbft::dataflow {

const Value& Tuple::at(std::size_t i) const {
  CBFT_CHECK_MSG(i < fields.size(), "tuple field index out of range");
  return fields[i];
}

Value& Tuple::at(std::size_t i) {
  CBFT_CHECK_MSG(i < fields.size(), "tuple field index out of range");
  return fields[i];
}

bool operator==(const Tuple& a, const Tuple& b) { return a.fields == b.fields; }

std::strong_ordering operator<=>(const Tuple& a, const Tuple& b) {
  const std::size_t n = std::min(a.fields.size(), b.fields.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = a.fields[i] <=> b.fields[i];
    if (c != std::strong_ordering::equal) return c;
  }
  return a.fields.size() <=> b.fields.size();
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "null";
    case ValueType::kLong:
      return "long";
    case ValueType::kDouble:
      return "double";
    case ValueType::kChararray:
      return "chararray";
    case ValueType::kBag:
      return "bag";
    case ValueType::kTuple:
      return "tuple";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(v_.index());
}

std::int64_t Value::as_long() const {
  CBFT_CHECK_MSG(std::holds_alternative<std::int64_t>(v_),
                 "value is not a long");
  return std::get<std::int64_t>(v_);
}

double Value::as_double() const {
  CBFT_CHECK_MSG(std::holds_alternative<double>(v_), "value is not a double");
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  CBFT_CHECK_MSG(std::holds_alternative<std::string>(v_),
                 "value is not a chararray");
  return std::get<std::string>(v_);
}

const Bag& Value::as_bag() const {
  CBFT_CHECK_MSG(std::holds_alternative<Bag>(v_), "value is not a bag");
  return std::get<Bag>(v_);
}

const BoxedTuple& Value::as_tuple() const {
  CBFT_CHECK_MSG(std::holds_alternative<BoxedTuple>(v_),
                 "value is not a tuple");
  return std::get<BoxedTuple>(v_);
}

double Value::to_double() const {
  if (std::holds_alternative<std::int64_t>(v_)) {
    return static_cast<double>(std::get<std::int64_t>(v_));
  }
  CBFT_CHECK_MSG(std::holds_alternative<double>(v_),
                 "value is not numeric");
  return std::get<double>(v_);
}

namespace {

/// Cross-type rank used for ordering between different value types.
int type_rank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kLong:
    case ValueType::kDouble:
      return 1;  // numerics compare with each other
    case ValueType::kChararray:
      return 2;
    case ValueType::kBag:
      return 3;
    case ValueType::kTuple:
      return 4;
  }
  return 5;
}

std::strong_ordering order_doubles(double a, double b) {
  // Totalise: we never produce NaN (division by zero yields null upstream),
  // but keep this defensive and deterministic anyway.
  if (a < b) return std::strong_ordering::less;
  if (a > b) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

}  // namespace

bool operator==(const Value& a, const Value& b) {
  return (a <=> b) == std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) {
  const int ra = type_rank(a.type());
  const int rb = type_rank(b.type());
  if (ra != rb) return ra <=> rb;

  switch (a.type()) {
    case ValueType::kNull:
      return std::strong_ordering::equal;
    case ValueType::kLong:
      if (b.type() == ValueType::kLong) return a.as_long() <=> b.as_long();
      return order_doubles(a.to_double(), b.to_double());
    case ValueType::kDouble:
      return order_doubles(a.to_double(), b.to_double());
    case ValueType::kChararray: {
      const int c = a.as_string().compare(b.as_string());
      return c <=> 0;
    }
    case ValueType::kBag: {
      const auto& ba = *a.as_bag();
      const auto& bb = *b.as_bag();
      if (ba.size() != bb.size()) return ba.size() <=> bb.size();
      for (std::size_t i = 0; i < ba.size(); ++i) {
        const auto c = ba[i] <=> bb[i];
        if (c != std::strong_ordering::equal) return c;
      }
      return std::strong_ordering::equal;
    }
    case ValueType::kTuple:
      return *a.as_tuple() <=> *b.as_tuple();
  }
  return std::strong_ordering::equal;
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kLong:
      return std::to_string(as_long());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.6g", as_double());
      return buf;
    }
    case ValueType::kChararray:
      return as_string();
    case ValueType::kBag: {
      std::string out = "{";
      const auto& bag = *as_bag();
      for (std::size_t i = 0; i < bag.size(); ++i) {
        if (i > 0) out += ",";
        out += "(";
        for (std::size_t j = 0; j < bag[i].size(); ++j) {
          if (j > 0) out += ",";
          out += bag[i].at(j).to_string();
        }
        out += ")";
      }
      out += "}";
      return out;
    }
    case ValueType::kTuple: {
      std::string out = "(";
      const Tuple& t = *as_tuple();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ",";
        out += t.at(i).to_string();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

namespace {

/// Appends the decimal rendering of `x`. std::to_chars writes exactly what
/// printf's %PRId64 / %zu write (optional '-', no leading zeros), so the
/// canonical bytes are those of the original snprintf encoding.
template <typename Int>
void append_decimal(std::string& out, Int x) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  out.append(buf, r.ptr);
}

/// Length of append_decimal's output for an unsigned value.
std::size_t decimal_length(std::uint64_t x) {
  std::size_t n = 1;
  for (;;) {
    if (x < 10) return n;
    if (x < 100) return n + 1;
    if (x < 1000) return n + 2;
    if (x < 10000) return n + 3;
    x /= 10000;
    n += 4;
  }
}

std::size_t decimal_length(std::int64_t x) {
  if (x >= 0) return decimal_length(static_cast<std::uint64_t>(x));
  // Two's-complement magnitude: exact even for INT64_MIN.
  return 1 + decimal_length(~static_cast<std::uint64_t>(x) + 1);
}

/// %.17g round-trips IEEE doubles exactly; replicas computing the same
/// double serialise identically. Returns the length written to `buf`.
std::size_t format_double(double x, char (&buf)[40]) {
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", x);
  return static_cast<std::size_t>(n);
}

}  // namespace

void Value::serialize(std::string& out) const {
  out.push_back(static_cast<char>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kLong:
      append_decimal(out, std::get<std::int64_t>(v_));
      out.push_back('\x1f');
      break;
    case ValueType::kDouble: {
      char buf[40];
      out.append(buf, format_double(std::get<double>(v_), buf));
      out.push_back('\x1f');
      break;
    }
    case ValueType::kChararray: {
      const auto& s = std::get<std::string>(v_);
      append_decimal(out, s.size());
      out.push_back(':');
      out += s;
      break;
    }
    case ValueType::kBag: {
      const auto& bag = *std::get<Bag>(v_);
      append_decimal(out, bag.size());
      out.push_back('[');
      for (const Tuple& t : bag) {
        for (const Value& v : t.fields) v.serialize(out);
        out.push_back('\x1e');
      }
      out.push_back(']');
      break;
    }
    case ValueType::kTuple: {
      const Tuple& t = *std::get<BoxedTuple>(v_);
      append_decimal(out, t.size());
      out.push_back('(');
      for (const Value& v : t.fields) v.serialize(out);
      out.push_back(')');
      break;
    }
  }
}

std::size_t Value::serialized_size() const {
  // Mirrors serialize() case by case: 1 byte of type tag, then the body.
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kLong:
      return 1 + decimal_length(std::get<std::int64_t>(v_)) + 1;
    case ValueType::kDouble: {
      char buf[40];
      return 1 + format_double(std::get<double>(v_), buf) + 1;
    }
    case ValueType::kChararray: {
      const std::size_t len = std::get<std::string>(v_).size();
      return 1 + decimal_length(std::uint64_t{len}) + 1 + len;
    }
    case ValueType::kBag: {
      const auto& bag = *std::get<Bag>(v_);
      std::size_t n = 1 + decimal_length(std::uint64_t{bag.size()}) + 2;
      for (const Tuple& t : bag) n += dataflow::serialized_size(t) + 1;
      return n;
    }
    case ValueType::kTuple: {
      const Tuple& t = *std::get<BoxedTuple>(v_);
      return 1 + decimal_length(std::uint64_t{t.size()}) + 2 +
             dataflow::serialized_size(t);
    }
  }
  return 1;
}

std::string serialize_tuple(const Tuple& t) {
  std::string out;
  out.reserve(t.size() * 12);
  for (const Value& v : t.fields) v.serialize(out);
  return out;
}

void serialize_tuple_into(const Tuple& t, std::string& out) {
  out.clear();
  for (const Value& v : t.fields) v.serialize(out);
}

std::size_t serialized_size(const Tuple& t) {
  std::size_t n = 0;
  for (const Value& v : t.fields) n += v.serialized_size();
  return n;
}

namespace {

// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& buf) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : buf) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t tuple_key_hash(const Tuple& t, std::size_t num_fields) {
  std::string buf;
  return tuple_key_hash(t, num_fields, buf);
}

std::uint64_t tuple_key_hash(const Tuple& t, std::size_t num_fields,
                             std::string& buf) {
  const std::size_t n =
      (num_fields == 0) ? t.size() : std::min(num_fields, t.size());
  buf.clear();
  for (std::size_t i = 0; i < n; ++i) t.at(i).serialize(buf);
  return fnv1a(buf);
}

std::uint64_t tuple_cols_hash(const Tuple& t,
                              const std::vector<std::size_t>& cols,
                              std::string& buf) {
  buf.clear();
  for (const std::size_t c : cols) t.at(c).serialize(buf);
  return fnv1a(buf);
}

}  // namespace clusterbft::dataflow
