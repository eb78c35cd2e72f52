#include "core/verifier.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace clusterbft::core {
namespace {

using mapreduce::DigestKey;
using mapreduce::DigestReport;

DigestReport report(const std::string& sid, std::size_t partition,
                    const std::string& content) {
  DigestReport r;
  r.key = DigestKey{sid, /*vertex=*/3, /*reduce_side=*/true, 0, partition, 0};
  r.digest = crypto::Digest256::of(content);
  return r;
}

/// Feed a run that reports `partitions` digests derived from `content`.
void feed_run(Verifier& v, const std::string& sid, std::size_t run,
              const std::string& content, std::size_t partitions = 2,
              bool complete = true) {
  for (std::size_t p = 0; p < partitions; ++p) {
    v.add_report(sid, run, report(sid, p, content + std::to_string(p)));
  }
  if (complete) v.mark_run_complete(sid, run);
}

TEST(VerifierTest, DecidesWithFPlusOneAgreement) {
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  feed_run(v, "j", 0, "good");
  EXPECT_FALSE(v.try_decide("j").has_value());  // only one complete run
  feed_run(v, "j", 1, "good");
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->verified);
  EXPECT_EQ(d->majority_runs, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(d->deviant_runs.empty());
}

TEST(VerifierTest, DeviantRunsIdentified) {
  Verifier v(1);
  for (std::size_t r = 0; r < 3; ++r) v.expect_run("j", r, true);
  feed_run(v, "j", 0, "good");
  feed_run(v, "j", 1, "BAD");
  feed_run(v, "j", 2, "good");
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->majority_runs, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(d->deviant_runs, (std::vector<std::size_t>{1}));
}

TEST(VerifierTest, OneVsOneCannotDecide) {
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  feed_run(v, "j", 0, "good");
  feed_run(v, "j", 1, "BAD");
  EXPECT_FALSE(v.try_decide("j").has_value());
}

TEST(VerifierTest, FTwoNeedsThreeMatching) {
  Verifier v(2);
  for (std::size_t r = 0; r < 4; ++r) v.expect_run("j", r, true);
  feed_run(v, "j", 0, "good");
  feed_run(v, "j", 1, "good");
  EXPECT_FALSE(v.try_decide("j").has_value());
  feed_run(v, "j", 2, "BAD");
  EXPECT_FALSE(v.try_decide("j").has_value());
  feed_run(v, "j", 3, "good");
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->majority_runs.size(), 3u);
  EXPECT_EQ(d->deviant_runs, (std::vector<std::size_t>{2}));
}

TEST(VerifierTest, MissingDigestKeyBreaksAgreement) {
  // A replica that reports only half its digests (e.g. a task never ran)
  // does not match complete replicas.
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  v.expect_run("j", 2, true);
  feed_run(v, "j", 0, "good", 2);
  feed_run(v, "j", 1, "good", 1);  // one partition missing
  feed_run(v, "j", 2, "good", 2);
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->majority_runs, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(d->deviant_runs, (std::vector<std::size_t>{1}));
}

TEST(VerifierTest, NonGatingJobsNeverDecide) {
  Verifier v(1);
  v.expect_run("j", 0, false);
  v.expect_run("j", 1, false);
  v.mark_run_complete("j", 0);
  v.mark_run_complete("j", 1);
  EXPECT_FALSE(v.is_gating("j"));
  EXPECT_FALSE(v.try_decide("j").has_value());
}

TEST(VerifierTest, EmptyDigestVectorsAgreeForGatingJobs) {
  // Gating with zero reports (e.g. an empty stream still emits digests in
  // production, but guard the degenerate case): completion alone agrees.
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  v.mark_run_complete("j", 0);
  v.mark_run_complete("j", 1);
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->majority_runs.size(), 2u);
}

TEST(VerifierTest, FZeroDecidesOnFirstCompletion) {
  Verifier v(0);
  v.expect_run("j", 0, true);
  feed_run(v, "j", 0, "whatever");
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->majority_runs, (std::vector<std::size_t>{0}));
}

TEST(VerifierTest, BookkeepingCounters) {
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  v.expect_run("j", 2, true);
  feed_run(v, "j", 1, "x");
  EXPECT_EQ(v.expected_runs("j"), 3u);
  EXPECT_EQ(v.completed_runs("j"), 1u);
  EXPECT_EQ(v.incomplete_runs("j"), (std::vector<std::size_t>{0, 2}));
}

TEST(VerifierTest, ReportFromUnknownRunThrows) {
  Verifier v(1);
  v.expect_run("j", 0, true);
  EXPECT_THROW(v.add_report("j", 99, report("j", 0, "x")), CheckError);
  EXPECT_THROW(v.mark_run_complete("j", 99), CheckError);
}

TEST(VerifierTest, ReportAfterCompletionThrows) {
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.mark_run_complete("j", 0);
  EXPECT_THROW(v.add_report("j", 0, report("j", 0, "late")), CheckError);
}

TEST(VerifierTest, DoubleReportLastWriteWins) {
  // A Byzantine task double-reporting a key simply ends up with whatever
  // it sent last — and will not match honest replicas.
  Verifier v(1);
  v.expect_run("j", 0, true);
  v.expect_run("j", 1, true);
  v.expect_run("j", 2, true);
  v.add_report("j", 0, report("j", 0, "good0"));
  v.add_report("j", 0, report("j", 0, "SNEAKY"));
  v.mark_run_complete("j", 0);
  feed_run(v, "j", 1, "good", 1);
  feed_run(v, "j", 2, "good", 1);
  const auto d = v.try_decide("j");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->deviant_runs, (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace clusterbft::core
