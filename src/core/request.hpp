// Client-facing request and result types for ClusterBFT (§4.1: the client
// submits a script together with f, a replication factor r, and the number
// of verification points n, based on the perceived threat level).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/resource_table.hpp"
#include "dataflow/relation.hpp"

namespace clusterbft::core {

/// §2.3: a weak adversary may only cause omission/commission faults, so
/// any vertex may carry a verification point; a strong adversary controls
/// a node completely, so only data materialised at job boundaries can be
/// meaningfully digested (§4.1 graph analyzer).
enum class AdversaryModel { kWeak, kStrong };

/// What the controller does when suspicion-driven exclusion (plus node
/// crashes) shrinks the healthy pool below what the replication factor r
/// needs. kReadmit re-admits the least-suspect excluded nodes and marks
/// the script degraded — every job is then force-verified and nothing is
/// ever promoted unverified. kFail refuses to run on suspect hardware and
/// fails the script honestly with FailureReason::kPoolExhausted.
enum class DegradedMode { kReadmit, kFail };

/// How the replication degree is chosen (ROADMAP: "Adaptive checkpointing
/// and dynamic replication degree"). kStatic runs the client's r replica
/// chains up front; kAdaptive starts every chain at f+1 (the minimum that
/// can produce an f+1 agreement) and escalates a sub-graph's degree — up
/// to 3f+1 — only when its evidence fails to agree or times out, i.e.
/// when its candidate nodes have earned nonzero suspicion. Escalations
/// are journaled (kEscalation) and audited.
enum class Assurance { kStatic, kAdaptive };

/// Multi-cloud replica placement (Medusa-style, ISSUE 10): which cloud
/// each of a script's r replica chains is assigned to. kSingleCloud runs
/// everything in the lowest-id cloud — with one cloud attached this is
/// bit-identical to the pre-multi-cloud controller, the default.
/// kSpread round-robins the chains across the up clouds so a whole-cloud
/// fault (outage, correlated commission) touches at most ceil(r/n)
/// chains. kCheapestFirst orders clouds by advertised price and fills
/// the cheapest first, spilling to pricier clouds only on failover or
/// exhaustion. Failover re-placement (moving a disputed closure to a
/// different cloud) applies under every policy whenever more than one
/// cloud is attached.
enum class Placement { kSingleCloud, kSpread, kCheapestFirst };

inline const char* to_string(Placement placement) {
  switch (placement) {
    case Placement::kSingleCloud: return "single-cloud";
    case Placement::kSpread: return "spread";
    case Placement::kCheapestFirst: return "cheapest-first";
  }
  return "?";
}

struct ClientRequest {
  std::string script;            ///< PigLatin-subset source text
  std::string name = "script";   ///< sid prefix / scoping name

  std::size_t f = 1;             ///< expected failures
  std::size_t r = 2;             ///< initial replication factor
  std::size_t n = 2;             ///< internal verification points
  AdversaryModel adversary = AdversaryModel::kWeak;

  /// Records per digest (d in §6.4); 0 = one digest per stream.
  std::uint64_t records_per_digest = 0;

  /// Explicit verification points, named by operator alias. When
  /// non-empty this overrides the marker function — used by the Fig. 10
  /// benchmark, which places digests at specific operators (Join,
  /// Project, Filter) rather than letting the graph analyzer choose.
  std::vector<std::string> explicit_vp_aliases;

  /// Verify the final outputs (always on for ClusterBFT and for the "P"
  /// baseline; off reproduces unreplicated "Pure Pig").
  bool verify_final_output = true;

  /// Run the logical-plan optimizer (constant folding, filter merging /
  /// pushdown, identity elimination) before analysis and compilation.
  bool optimize_plan = false;

  /// Naive BFT (Fig. 1 part ii / challenge C2): a job may only start once
  /// every upstream job is *verified* — synchronisation after every
  /// stage. ClusterBFT's offline comparison (false) lets each replica
  /// chain proceed on its own outputs while digests are compared in the
  /// background. Requires every job to carry verification points (pair
  /// with the "individual" preset).
  bool synchronous_verification = false;

  /// Time the control tier needs to reach a verification decision (e.g.
  /// one PBFT round among 3f+1 request-handler replicas, §6.4). Offline
  /// comparison hides it off the critical path; synchronous verification
  /// pays it at every job boundary.
  double decision_latency_s = 0.0;

  /// Pipelined DAG execution: at most this many runs of one replica
  /// chain may be in flight (submitted, not yet complete) at once; the
  /// scheduler dispatches ready jobs critical-path-first under the cap.
  /// 0 = unbounded (dispatch every ready job immediately); 1 = one job
  /// at a time per chain. Purely a scheduling knob: digests, outputs and
  /// suspicion decisions are identical for every width.
  std::size_t pipeline_width = 0;

  /// Worker threads for offline digest comparison: the verifier folds
  /// each completed run's digest vector into a fingerprint on a control-
  /// tier thread pool instead of deep-comparing maps on the scheduler
  /// thread. 0 = compare inline. The pool is joined when the session
  /// finishes.
  std::size_t verifier_threads = 0;

  /// Simulated seconds the verifier waits for replicas of a job before
  /// declaring omissions and rescheduling with a larger r.
  double verifier_timeout_s = 300.0;

  /// Give up (unverified) after this many rerun waves.
  std::size_t max_rerun_waves = 6;

  std::size_t reducers_per_job = 4;

  /// Pool-exhaustion policy (see DegradedMode).
  DegradedMode degraded_mode = DegradedMode::kReadmit;

  /// Digest-keyed verified-result cache: when on, every job's sub-graph
  /// is keyed by (canonical logical-plan fingerprint, input content
  /// digests, r-policy) and a key that matches an earlier *verified*
  /// sub-graph adopts the cached digest vector and materialised relation
  /// instead of re-running it. Adoption is journaled (kCacheHit) and
  /// audited; convicting a contributing node invalidates its entries.
  bool use_result_cache = false;

  /// Assurance class: static r up front, or adaptive f+1-first with
  /// suspicion-driven escalation (see Assurance).
  Assurance assurance = Assurance::kStatic;

  /// Adaptive checkpointing: materialise cost-model-selected verified
  /// intermediate relations as durable, content-addressed entries of the
  /// verified-result store (journaled kCheckpoint), and scope rerun/
  /// escalation waves to the unverified-ancestor closure of the
  /// disagreeing job — restart from the nearest verified checkpoint
  /// instead of the chain inputs.
  bool adaptive_checkpoints = false;

  /// Multi-cloud replica placement policy (see Placement). Irrelevant —
  /// and bit-identical to the old behaviour — when only one cloud is
  /// attached.
  Placement placement = Placement::kSingleCloud;
};

/// Replica chains a request launches up front: the client's r for the
/// static assurance class, f+1 for the adaptive one. The frontend's
/// admission control and the controller's wave scheduling must agree on
/// this number, so both call here.
inline std::size_t base_replication(const ClientRequest& req) {
  if (req.assurance == Assurance::kAdaptive) return req.f + 1;
  return req.r > 1 ? req.r : std::size_t{1};
}

/// Aggregated cost of executing one script, over all replicas and waves —
/// the columns of Table 3.
struct ScriptMetrics {
  double latency_s = 0;          ///< submit -> final outputs verified
  double cpu_seconds = 0;        ///< total task time across all replicas
  std::uint64_t file_read = 0;
  std::uint64_t file_write = 0;
  std::uint64_t hdfs_write = 0;
  std::uint64_t digested = 0;
  std::size_t runs = 0;          ///< job-replica executions
  std::size_t waves = 0;         ///< initial replicas + rerun waves
  /// Runs cancelled because a late-verified upstream mismatch tainted
  /// their inputs (targeted rollback under pipelined execution).
  std::size_t rollbacks = 0;
  /// Digest messages the verifier processed — with a BFT-replicated
  /// control tier (§6.4) each must be totally ordered among the request
  /// handler replicas, so this scales the control-tier cost with the
  /// digest granularity d.
  std::size_t digest_reports = 0;
  /// Jobs whose verified result was adopted from the result cache
  /// instead of being re-executed (use_result_cache).
  std::size_t cache_hits = 0;
  /// Verified intermediate relations checkpointed (materialised or
  /// adopted) by this script (adaptive_checkpoints).
  std::size_t checkpoints = 0;
  /// Bytes this script freshly materialised into the checkpoint store.
  std::uint64_t checkpoint_bytes = 0;
  /// Replica-chain escalations under the adaptive assurance class.
  std::size_t escalations = 0;
  /// Disputed closures re-executed in a different cloud (multi-cloud
  /// failover after a digest mismatch, timeout, or unresponsive cloud).
  std::size_t cloud_failovers = 0;
};

/// Why a script that did not verify stopped. Structured so callers can
/// distinguish honest refusal (pool exhausted, missing output) from a
/// verification give-up, instead of parsing audit text.
enum class FailureReason {
  kNone,                  ///< script verified (or legacy unverified success)
  kRerunBudgetExhausted,  ///< max_rerun_waves reached without agreement
  kPoolExhausted,         ///< healthy pool below r with DegradedMode::kFail
  kOutputMissing,         ///< a final STORE never materialised in the DFS
  kStalled,               ///< event queue drained with jobs still pending
};

inline const char* to_string(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kRerunBudgetExhausted: return "rerun-budget-exhausted";
    case FailureReason::kPoolExhausted: return "pool-exhausted";
    case FailureReason::kOutputMissing: return "output-missing";
    case FailureReason::kStalled: return "stalled";
  }
  return "?";
}

struct ScriptResult {
  bool verified = false;
  /// Set when the pool-exhaustion path re-admitted suspect nodes; every
  /// job in a degraded script is force-verified before promotion.
  bool degraded = false;
  FailureReason failure = FailureReason::kNone;
  /// Verified output relations, keyed by STORE path.
  std::map<std::string, dataflow::Relation> outputs;
  ScriptMetrics metrics;
  /// Nodes the fault analyzer currently narrows faults down to.
  std::vector<cluster::NodeId> suspects;
  std::size_t commission_faults_seen = 0;
  std::size_t omission_faults_seen = 0;
  /// Per verified gating job: hex SHA-256 fingerprint of the agreed
  /// digest vector, keyed by sid. A cache hit must reproduce these
  /// byte-identically to a cold execution.
  std::map<std::string, std::string> verified_digest_hex;
};

}  // namespace clusterbft::core
