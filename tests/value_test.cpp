#include "dataflow/value.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <limits>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace clusterbft::dataflow {
namespace {

Bag make_bag(std::vector<Tuple> ts) {
  return std::make_shared<const std::vector<Tuple>>(std::move(ts));
}

/// The canonical encoding as first written with snprintf (%PRId64, %.17g,
/// %zu) — the oracle the encoder must keep reproducing byte for byte.
void reference_serialize(const Value& v, std::string& out) {
  out.push_back(static_cast<char>(v.type()));
  char buf[40];
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kLong:
      std::snprintf(buf, sizeof(buf), "%" PRId64, v.as_long());
      out += buf;
      out.push_back('\x1f');
      break;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double());
      out += buf;
      out.push_back('\x1f');
      break;
    case ValueType::kChararray:
      std::snprintf(buf, sizeof(buf), "%zu", v.as_string().size());
      out += buf;
      out.push_back(':');
      out += v.as_string();
      break;
    case ValueType::kBag:
      std::snprintf(buf, sizeof(buf), "%zu", v.as_bag()->size());
      out += buf;
      out.push_back('[');
      for (const Tuple& t : *v.as_bag()) {
        for (const Value& f : t.fields) reference_serialize(f, out);
        out.push_back('\x1e');
      }
      out.push_back(']');
      break;
    case ValueType::kTuple:
      std::snprintf(buf, sizeof(buf), "%zu", v.as_tuple()->size());
      out += buf;
      out.push_back('(');
      for (const Value& f : v.as_tuple()->fields) reference_serialize(f, out);
      out.push_back(')');
      break;
  }
}

Value random_scalar(Rng& rng) {
  constexpr std::int64_t kLongs[] = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max(),
      -1, 0, 1, 9, 10, -10, 99, 100, -999, 1000, 9999, 10000, -100000};
  constexpr double kDoubles[] = {
      0.0, -0.0, 1.0, -1.5, 0.1, 1e16, -1e-7, 123456789.125,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.5e-310,  // denormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  switch (rng.next_below(7)) {
    case 0:
      return Value::null();
    case 1:
      return Value(kLongs[rng.next_below(std::size(kLongs))]);
    case 2:  // any 64-bit pattern, both signs, every width
      return Value(static_cast<std::int64_t>(rng.next() >> rng.next_below(64)));
    case 3:
      return Value(kDoubles[rng.next_below(std::size(kDoubles))]);
    case 4:  // any bit pattern: NaN payloads, denormals, huge exponents
      return Value(std::bit_cast<double>(rng.next()));
    default: {
      constexpr std::size_t kLengths[] = {0, 1, 9, 10, 99, 100, 1000, 10000};
      const std::size_t len = rng.chance(0.5)
                                  ? kLengths[rng.next_below(std::size(kLengths))]
                                  : rng.next_below(40);
      std::string s(len, '\0');
      for (char& ch : s) ch = static_cast<char>(rng.next_below(256));
      return Value(std::move(s));
    }
  }
}

Value random_value(Rng& rng, int depth) {
  if (depth == 0 || rng.chance(0.7)) return random_scalar(rng);
  if (rng.chance(0.5)) {
    constexpr std::size_t kSizes[] = {0, 1, 2, 9, 10, 11, 100};
    const std::size_t n = depth > 1 ? rng.next_below(4)
                                    : kSizes[rng.next_below(std::size(kSizes))];
    std::vector<Tuple> rows(n);
    for (Tuple& t : rows) {
      const std::size_t arity = rng.next_below(4);
      for (std::size_t i = 0; i < arity; ++i) {
        t.fields.push_back(random_value(rng, depth - 1));
      }
    }
    return Value(make_bag(std::move(rows)));
  }
  const std::size_t arity = rng.next_below(2) == 0 ? rng.next_below(4) : 12;
  std::vector<Value> fields;
  for (std::size_t i = 0; i < arity; ++i) {
    fields.push_back(random_value(rng, depth - 1));
  }
  return Value::tuple_of(std::move(fields));
}

TEST(ValueTest, SerializedSizeMatchesEncodingOnRandomValues) {
  Rng rng(20131209);
  std::string into;
  for (int i = 0; i < 3000; ++i) {
    Tuple t;
    const std::size_t arity = rng.next_below(7);
    for (std::size_t j = 0; j < arity; ++j) {
      t.fields.push_back(random_value(rng, 3));
    }
    const std::string bytes = serialize_tuple(t);
    std::string expect;
    for (const Value& v : t.fields) {
      std::string one;
      v.serialize(one);
      EXPECT_EQ(v.serialized_size(), one.size()) << v.to_string();
      reference_serialize(v, expect);
    }
    ASSERT_EQ(bytes, expect) << "tuple " << i;
    ASSERT_EQ(serialized_size(t), bytes.size()) << "tuple " << i;
    serialize_tuple_into(t, into);
    ASSERT_EQ(into, bytes);
  }
}

TEST(ValueTest, CanonicalEncodingGoldenBytes) {
  using namespace std::string_literals;
  const auto enc = [](const Value& v) {
    std::string s;
    v.serialize(s);
    EXPECT_EQ(v.serialized_size(), s.size());
    return s;
  };
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(enc(Value::null()), "\x00"s);
  EXPECT_EQ(enc(Value(kMin)), "\x01-9223372036854775808\x1f"s);
  EXPECT_EQ(enc(Value(kMax)), "\x01" "9223372036854775807\x1f"s);
  EXPECT_EQ(enc(Value(std::int64_t{0})), "\x01" "0\x1f"s);
  EXPECT_EQ(enc(Value(std::int64_t{-42})), "\x01-42\x1f"s);
  EXPECT_EQ(enc(Value(-0.0)), "\x02-0\x1f"s);
  EXPECT_EQ(enc(Value(0.1)), "\x02" "0.10000000000000001\x1f"s);
  EXPECT_EQ(enc(Value(std::numeric_limits<double>::denorm_min())),
            "\x02" "4.9406564584124654e-324\x1f"s);
  EXPECT_EQ(enc(Value(-std::numeric_limits<double>::infinity())),
            "\x02-inf\x1f"s);
  EXPECT_EQ(enc(Value(std::numeric_limits<double>::quiet_NaN())),
            "\x02nan\x1f"s);
  EXPECT_EQ(enc(Value("")), "\x03" "0:"s);
  EXPECT_EQ(enc(Value(std::string(10, 'a'))), "\x03" "10:aaaaaaaaaa"s);
  EXPECT_EQ(enc(Value(make_bag({Tuple({Value(std::int64_t{1})}), Tuple()}))),
            "\x04" "2[\x01" "1\x1f\x1e\x1e]"s);
  EXPECT_EQ(enc(Value::tuple_of({Value(std::int64_t{7}), Value("x")})),
            "\x05" "2(\x01" "7\x1f\x03" "1:x)"s);
  std::vector<Value> twelve(12, Value::null());
  EXPECT_EQ(enc(Value::tuple_of(twelve)),
            "\x05" "12("s + std::string(12, '\0') + ")");
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::null().is_null());
  EXPECT_EQ(Value(std::int64_t{5}).as_long(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(ValueTest, AccessorTypeMismatchThrows) {
  EXPECT_THROW(Value("hi").as_long(), CheckError);
  EXPECT_THROW(Value(std::int64_t{1}).as_string(), CheckError);
  EXPECT_THROW(Value("hi").to_double(), CheckError);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(std::int64_t{2}), Value(2.0));
  EXPECT_TRUE((Value(std::int64_t{1}) <=> Value(1.5)) < 0);
  EXPECT_TRUE((Value(2.5) <=> Value(std::int64_t{2})) > 0);
}

TEST(ValueTest, OrderingAcrossTypes) {
  // null < numeric < chararray < bag.
  EXPECT_TRUE((Value::null() <=> Value(std::int64_t{0})) < 0);
  EXPECT_TRUE((Value(std::int64_t{999}) <=> Value("a")) < 0);
  EXPECT_TRUE((Value("zzz") <=> Value(make_bag({}))) < 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_TRUE((Value("abc") <=> Value("abd")) < 0);
  EXPECT_EQ(Value("abc"), Value("abc"));
}

TEST(ValueTest, BagOrderingBySizeThenContent) {
  const Bag small = make_bag({Tuple({Value(std::int64_t{9})})});
  const Bag big = make_bag({Tuple({Value(std::int64_t{1})}),
                            Tuple({Value(std::int64_t{1})})});
  EXPECT_TRUE((Value(small) <=> Value(big)) < 0);

  const Bag a = make_bag({Tuple({Value(std::int64_t{1})})});
  const Bag b = make_bag({Tuple({Value(std::int64_t{2})})});
  EXPECT_TRUE((Value(a) <=> Value(b)) < 0);
  EXPECT_EQ(Value(a), Value(make_bag({Tuple({Value(std::int64_t{1})})})));
}

TEST(ValueTest, SerializationDistinguishesTypes) {
  // The long 1 and the string "1" must not collide in digests.
  std::string a, b;
  Value(std::int64_t{1}).serialize(a);
  Value("1").serialize(b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, SerializationDistinguishesNullFromZero) {
  std::string a, b;
  Value::null().serialize(a);
  Value(std::int64_t{0}).serialize(b);
  EXPECT_NE(a, b);
}

TEST(ValueTest, SerializationIsInjectiveOnSamples) {
  std::vector<Value> values{
      Value::null(),        Value(std::int64_t{0}),  Value(std::int64_t{1}),
      Value(std::int64_t{-1}), Value(0.0),           Value(1.0),
      Value(0.1),           Value(""),               Value("a"),
      Value("ab"),          Value(make_bag({})),
      Value(make_bag({Tuple({Value(std::int64_t{1})})}))};
  std::set<std::string> seen;
  for (const Value& v : values) {
    std::string s;
    v.serialize(s);
    EXPECT_TRUE(seen.insert(s).second) << "collision for " << v.to_string();
  }
}

TEST(ValueTest, DoubleSerializationRoundTrips) {
  // %.17g must distinguish adjacent doubles.
  std::string a, b;
  Value(0.1).serialize(a);
  Value(0.1 + 1e-17).serialize(b);  // same double after rounding
  Value x(0.30000000000000004);     // 0.1+0.2
  Value y(0.3);
  std::string sx, sy;
  x.serialize(sx);
  y.serialize(sy);
  EXPECT_NE(sx, sy);
}

TEST(TupleTest, ComparisonIsLexicographic) {
  const Tuple a({Value(std::int64_t{1}), Value("b")});
  const Tuple b({Value(std::int64_t{1}), Value("c")});
  const Tuple c({Value(std::int64_t{1})});
  EXPECT_TRUE((a <=> b) < 0);
  EXPECT_TRUE((c <=> a) < 0);  // prefix sorts first
  EXPECT_TRUE((a <=> Tuple({Value(std::int64_t{1}), Value("b")})) == 0);
}

TEST(TupleTest, AtBoundsChecked) {
  Tuple t({Value(std::int64_t{1})});
  EXPECT_THROW(t.at(1), CheckError);
}

TEST(TupleTest, KeyHashDeterministicAndPrefixSensitive) {
  const Tuple t({Value(std::int64_t{42}), Value("x")});
  EXPECT_EQ(tuple_key_hash(t, 1), tuple_key_hash(t, 1));
  const Tuple u({Value(std::int64_t{42}), Value("y")});
  EXPECT_EQ(tuple_key_hash(t, 1), tuple_key_hash(u, 1));  // same prefix
  EXPECT_NE(tuple_key_hash(t, 0), tuple_key_hash(u, 0));  // whole tuple
}

TEST(TupleTest, SerializeTupleConcatenatesFields) {
  const Tuple t({Value(std::int64_t{1}), Value("a")});
  std::string expect;
  t.at(0).serialize(expect);
  t.at(1).serialize(expect);
  EXPECT_EQ(serialize_tuple(t), expect);
}

}  // namespace
}  // namespace clusterbft::dataflow
