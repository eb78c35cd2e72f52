// Lint self-test fixture for the suspicion-ledger rule: suspicion
// (s = faults / jobs executed) is control-tier data, kept only in
// protocol::ControlPlane. The computation tier (src/cluster and the
// protocol service and multi-cloud seam) may not keep a second ledger.
// The rule must fire exactly once on this file and the lint:allow
// occurrence must be suppressed. This file is never compiled; it only
// needs to look like C++.

namespace fixture_cluster {

struct Node {
  unsigned jobs = 0;
  unsigned faults = 0;
  bool excluded = false;
};

struct Table {
  Node nodes[4];

  // Rule suspicion-ledger: must fire on the next line (an untrusted
  // tracker counting faults could evict honest nodes on its own).
  void record_fault(int nid) { ++nodes[nid].faults; }

  // ...and must NOT fire here:
  double suspicion(int nid) const { return nodes[nid].faults; }  // lint:allow(suspicion-ledger)

  // Honouring an exclusion the control plane decided stays legal.
  void drain(int nid) { nodes[nid].excluded = true; }
};

}  // namespace fixture_cluster
