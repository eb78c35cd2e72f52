// Self-tests of the benchmark harness: the statistics it reports, span
// self-time accounting, and the reference comparer.
#include <gtest/gtest.h>

#include "compare.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace df = clusterbft::dataflow;
namespace proto = clusterbft::protocol;

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
  const auto two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const auto five = quartiles({5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(five[0], 1.5);
  EXPECT_DOUBLE_EQ(five[1], 3.0);
  EXPECT_DOUBLE_EQ(five[2], 4.5);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);
  const Tail t = tail(twenty);
  EXPECT_DOUBLE_EQ(t.value, 10);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(t.percentile, 50);
  EXPECT_EQ(t.samples, 20u);

  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  const Tail e = tail(eleven);
  EXPECT_DOUBLE_EQ(e.value, 1);
  EXPECT_EQ(e.beyond, 10u);
  EXPECT_NEAR(e.percentile, 100.0 / 11.0, 1e-12);

  // Too few samples for any rank with ten beyond: the minimum, at p0.
  const Tail few = tail({5, 3, 4});
  EXPECT_DOUBLE_EQ(few.value, 3);
  EXPECT_EQ(few.beyond, 2u);
  EXPECT_DOUBLE_EQ(few.percentile, 0);
}

Span span(std::int64_t start, std::int64_t end, std::int32_t parent,
          bool to_computation) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.to_computation = to_computation;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // 0: [0,100) command; 1: [10,40) event in 0; 2: [20,30) command in 1;
  // 3: [50,90) event in 0; 4: [120,130) event at top level.
  const std::vector<Span> spans = {
      span(0, 100, -1, true), span(10, 40, 0, false), span(20, 30, 1, true),
      span(50, 90, 0, false), span(120, 130, -1, false)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 20, 10, 40, 10}));

  const SpanSummary s = summarize(spans);
  EXPECT_EQ(s.cmds, 2u);
  EXPECT_EQ(s.msgs, 3u);
  EXPECT_NEAR(s.cmd_self_s, 40e-9, 1e-18);
  EXPECT_NEAR(s.msg_self_s, 70e-9, 1e-18);
  // Self times partition the covered time exactly.
  EXPECT_NEAR(s.covered_s, 110e-9, 1e-18);
  EXPECT_NEAR(s.cmd_self_s + s.msg_self_s, s.covered_s, 1e-18);
}

TEST(Spans, TransportRecordsNestedDeliveries) {
  SpanRecorder rec;
  TracingTransport transport(rec);
  // The computation side answers every command with one event, inline,
  // like the service does for a SubmitRun that dispatches tasks.
  transport.bind_computation([&transport](const proto::Message& m) {
    if (const auto* submit = std::get_if<proto::SubmitRun>(&m)) {
      transport.to_control(proto::NodeStatus{submit->run, 3});
    }
  });
  transport.bind_control([](const proto::Message&) {});

  transport.to_computation(proto::SubmitRun{});  // disarmed: not recorded
  EXPECT_TRUE(rec.spans().empty());

  rec.arm();
  proto::SubmitRun submit;
  submit.run = 7;
  submit.session = 2;
  transport.to_computation(submit);
  transport.to_control(proto::Heartbeat{.run = 7});
  rec.disarm();

  const std::vector<Span>& spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, 0u);  // SubmitRun
  EXPECT_TRUE(spans[0].to_computation);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(std::string(message_name(spans[1].kind)), "NodeStatus");
  EXPECT_FALSE(spans[1].to_computation);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].session, 2u);  // learnt from the SubmitRun
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].session, 2u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(Compare, RejectsOnePerturbedRow) {
  const std::string script =
      "edges = LOAD 'in' AS (user:long, follower:long);\n"
      "grp = GROUP edges BY user;\n"
      "counts = FOREACH grp GENERATE group AS user, COUNT(edges) AS n;\n"
      "STORE counts INTO 'out';\n";
  df::Relation in(df::Schema::of({{"user", df::ValueType::kLong},
                                  {"follower", df::ValueType::kLong}}));
  for (std::int64_t i = 0; i < 50; ++i) {
    in.add(df::Tuple({df::Value(std::int64_t{i % 7}), df::Value(std::int64_t{i})}));
  }
  const Reference ref = make_reference(script, {{"in", in}});
  ASSERT_EQ(ref.size(), 1u);
  ASSERT_EQ(ref.at("out").size(), 7u);

  // The reference itself, in another row order, matches.
  std::vector<df::Tuple> rows = ref.at("out");
  std::reverse(rows.begin(), rows.end());
  const df::Schema schema = df::Schema::of(
      {{"user", df::ValueType::kLong}, {"n", df::ValueType::kLong}});
  std::map<std::string, df::Relation> got = {{"out", df::Relation(schema, rows)}};
  EXPECT_EQ(compare_outputs(ref, got), "");

  // One field of one row changed: rejected.
  got.at("out").rows()[3].fields[1] = df::Value(std::int64_t{999});
  EXPECT_NE(compare_outputs(ref, got), "");

  // A missing or an extra STORE is rejected too.
  EXPECT_NE(compare_outputs(ref, {}), "");
  got = {{"out", df::Relation(schema, ref.at("out"))},
         {"extra", df::Relation(schema)}};
  EXPECT_NE(compare_outputs(ref, got), "");
}

}  // namespace
}  // namespace perfbench
