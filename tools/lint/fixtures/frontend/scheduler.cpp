// Lint self-test fixture for the session-isolation rule: the front end
// (src/frontend) may not mutate pool membership or suspicion state, nor
// reach the control plane directly — it schedules sessions, the
// controller owns the BFT substrate. The rule must fire exactly once on
// this file and the lint:allow occurrence must be suppressed. This file
// is never compiled; it only needs to look like C++.

namespace fixture_frontend {

// Stand-in for the controller; member declarations are elided so only
// the *call sites* below exercise the rule (this file is never compiled).
struct FakeController;

struct Scheduler {
  FakeController* ctl = nullptr;

  // Rule session-isolation: must fire on the next line (a scheduling
  // layer punishing a node rewrites pool membership behind the BFT
  // substrate's back).
  void punish(int node) { ctl->record_fault(node, 1); }

  // ...and must NOT fire here:
  void shed(int node) { ctl->drain_node(node); }  // lint:allow(session-isolation)

  // Read-only queries stay legal without any marker.
  int capacity() const { return ctl->placement_capacity(0); }
};

}  // namespace fixture_frontend
