#include "cluster/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "protocol/control_plane.hpp"
#include "protocol/loopback.hpp"

namespace clusterbft::cluster {
namespace {

ResourceEntry node_with_sids(std::initializer_list<const char*> sids) {
  ResourceEntry e;
  e.nid = 0;
  e.total_ru = 3;
  for (const char* s : sids) {
    e.sids.insert(s);
    ++e.used_ru;
  }
  return e;
}

std::vector<TaskCandidate> candidates(std::initializer_list<const char*> sids) {
  std::vector<TaskCandidate> out;
  std::size_t i = 0;
  for (const char* s : sids) {
    TaskCandidate c;
    c.run_id = i++;
    c.sid = s;
    out.push_back(std::move(c));
  }
  return out;
}

TEST(SchedulerTest, FifoPicksFirst) {
  FifoScheduler fifo;
  const auto safe = candidates({"a", "b"});
  EXPECT_EQ(fifo.pick(node_with_sids({}), safe), 0u);
}

TEST(SchedulerTest, FifoDeclinesNothing) {
  FifoScheduler fifo;
  EXPECT_EQ(fifo.pick(node_with_sids({}), {}), std::nullopt);
}

TEST(SchedulerTest, OverlapPrefersNewSid) {
  OverlapScheduler ov;
  // Node already runs "a": the scheduler should pick the "b" task to
  // maximise job-cluster intersections.
  const auto safe = candidates({"a", "b"});
  EXPECT_EQ(ov.pick(node_with_sids({"a"}), safe), 1u);
}

TEST(SchedulerTest, OverlapFallsBackToFirstWhenAllSidsPresent) {
  OverlapScheduler ov;
  const auto safe = candidates({"a", "b"});
  EXPECT_EQ(ov.pick(node_with_sids({"a", "b"}), safe), 0u);
}

TEST(SchedulerTest, OverlapOnEmptyNodeActsLikeFifo) {
  OverlapScheduler ov;
  const auto safe = candidates({"a", "b"});
  EXPECT_EQ(ov.pick(node_with_sids({}), safe), 0u);
}

TEST(ResourceTableTest, AllocateReleaseLifecycle) {
  ResourceTable rt;
  rt.add_nodes(2, 3);
  EXPECT_EQ(rt.size(), 2u);
  rt.allocate(0, "a");
  rt.allocate(0, "a");
  EXPECT_EQ(rt.entry(0).free_ru(), 1u);
  EXPECT_EQ(rt.entry(0).sids.count("a"), 2u);
  rt.release(0, "a");
  EXPECT_EQ(rt.entry(0).free_ru(), 2u);
  EXPECT_EQ(rt.entry(0).sids.count("a"), 1u);
}

TEST(ResourceTableTest, OverAllocationThrows) {
  ResourceTable rt;
  rt.add_nodes(1, 1);
  rt.allocate(0, "a");
  EXPECT_THROW(rt.allocate(0, "b"), CheckError);
}

TEST(ResourceTableTest, ReleasingUnknownSidThrows) {
  ResourceTable rt;
  rt.add_nodes(1, 2);
  rt.allocate(0, "a");
  EXPECT_THROW(rt.release(0, "b"), CheckError);
}

// The suspicion ledger (s = faults / jobs, §4.1) is control-tier data:
// it lives in the ControlPlane mirror, which learns jobs from NodeStatus
// events and faults from the controller's attribution. The resource table
// above only honours the exclusions it leads to.

/// Dispatch one run that `node` serves: one job in its denominator.
void run_on(protocol::ControlPlane& cp, std::uint64_t node) {
  cp.inject(protocol::NodeStatus{cp.submit_run({}), node});
}

TEST(ResourceTableTest, SuspicionIsFaultsOverJobs) {
  protocol::LoopbackTransport transport;
  protocol::ControlPlane cp(transport);
  cp.inject(protocol::NodeAnnounce{0, 1});
  EXPECT_DOUBLE_EQ(cp.suspicion(0), 0.0);
  run_on(cp, 0);
  run_on(cp, 0);
  cp.record_fault(0);
  EXPECT_DOUBLE_EQ(cp.suspicion(0), 0.5);
}

TEST(ResourceTableTest, ThresholdExcludesOnce) {
  protocol::LoopbackTransport transport;
  protocol::ControlPlane cp(transport);
  cp.inject(protocol::NodeAnnounce{0, 3});
  run_on(cp, 0);
  run_on(cp, 1);
  cp.record_fault(0);  // s = 1.0; node 1: s = 0.0; node 2 never ran
  const auto excluded = cp.apply_suspicion_threshold(0.8);
  ASSERT_EQ(excluded.size(), 1u);
  EXPECT_EQ(excluded[0], 0u);
  // The exclusion lands with the computation tier's NodeDrained echo.
  cp.inject(protocol::NodeDrained{0});
  EXPECT_TRUE(cp.node_excluded(0));
  EXPECT_EQ(cp.excluded_nodes(), (std::vector<std::uint64_t>{0}));
  // Idempotent: already-excluded nodes are not reported again.
  EXPECT_TRUE(cp.apply_suspicion_threshold(0.8).empty());
}

TEST(ControlPlaneTest, MembershipEventsForUnannouncedNodesAreDropped) {
  protocol::LoopbackTransport transport;
  protocol::ControlPlane cp(transport);
  cp.inject(protocol::NodeAnnounce{0, 4});
  for (std::uint64_t n = 0; n < 4; ++n) cp.inject(protocol::NodeDrained{n});
  // Ids no NodeAnnounce introduced, below and above the old id ceiling.
  cp.inject(protocol::NodeDrained{99});
  cp.inject(protocol::NodeDrained{1ULL << 30});
  EXPECT_EQ(cp.cluster_size(), 4u);
  EXPECT_EQ(cp.excluded_nodes(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_FALSE(cp.node_excluded(99));

  cp.inject(protocol::NodeReadmitted{99});
  cp.inject(protocol::NodeReadmitted{2});
  EXPECT_EQ(cp.excluded_nodes(), (std::vector<std::uint64_t>{0, 1, 3}));
  // A duplicated announce neither grows the pool nor readmits anyone.
  cp.inject(protocol::NodeAnnounce{0, 4});
  EXPECT_EQ(cp.cluster_size(), 4u);
  EXPECT_EQ(cp.excluded_nodes(), (std::vector<std::uint64_t>{0, 1, 3}));
}

}  // namespace
}  // namespace clusterbft::cluster
