// The output verifier (§4.1/§4.2): collects digests streamed from tasks
// at verification points and, per sub-graph, asserts that at least f+1
// replicas produced byte-identical digest vectors.
//
// Comparison is *offline*: replicas report digests as their tasks run and
// downstream jobs of a replica chain proceed without waiting; the verifier
// decides as soon as enough complete, matching replicas exist. With a
// thread pool, the comparison is offloaded too: each completed run's
// digest vector is folded into a single SHA-256 fingerprint on a worker
// thread, and decision time only compares fingerprints. The fingerprint
// is a pure function of the (frozen) digest vector, so pooling changes
// wall-clock only — never which runs agree.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/guarded.hpp"
#include "common/thread_pool.hpp"
#include "crypto/digest.hpp"
#include "mapreduce/job.hpp"

namespace clusterbft::core {

class Verifier {
 public:
  /// `threads` > 0 runs the per-run digest-vector fingerprinting on a
  /// pool of that many workers, off the scheduler thread.
  explicit Verifier(std::size_t f, std::size_t threads = 0)
      : f_(f),
        pool_(threads > 0 ? std::make_unique<common::ThreadPool>(threads)
                          : nullptr) {}

  std::size_t f() const { return f_; }

  /// Join the fingerprint workers. Runs completed later are folded
  /// inline, which gives the same bytes; fingerprints already handed to
  /// the pool stay valid, because the pool runs queued work before its
  /// workers join.
  void release_pool() { pool_.reset(); }

  /// Announce that `run_id` executes a replica of sub-graph `sid` and
  /// whether that job carries verification points ("gating": only gating
  /// jobs can be declared verified — a job without digests offers no
  /// evidence).
  void expect_run(const std::string& sid, std::size_t run_id, bool gating);

  /// Digest message from a task of `run_id`.
  void add_report(const std::string& sid, std::size_t run_id,
                  const mapreduce::DigestReport& report);

  /// The run finished (its digest vector is complete). Kicks off the
  /// offline fingerprint computation when a pool is attached.
  void mark_run_complete(const std::string& sid, std::size_t run_id);

  /// Drop every record of `run_id` (it was rolled back: its inputs were
  /// tainted, so its digests are not evidence about `sid`). No-op for
  /// unknown runs.
  void forget_run(const std::string& sid, std::size_t run_id);

  struct Decision {
    bool verified = false;
    std::vector<std::size_t> majority_runs;  ///< agreeing, completed runs
    std::vector<std::size_t> deviant_runs;   ///< completed, disagreeing
  };

  /// Decide `sid` if possible: verified when >= f+1 completed runs agree
  /// on the entire digest vector. Returns nullopt for non-gating jobs and
  /// for jobs without enough agreement yet. Deviants exist only relative
  /// to a verified majority: without one there is no ground truth, so a
  /// 1-vs-1 tie names no deviant (the controller escalates instead).
  std::optional<Decision> try_decide(const std::string& sid);

  /// Whether two completed runs of `sid` produced identical digest
  /// vectors — used to classify a replica that completes only after its
  /// job was already verified.
  bool run_agrees(const std::string& sid, std::size_t a, std::size_t b);

  bool is_gating(const std::string& sid) const;
  std::size_t expected_runs(const std::string& sid) const;
  std::size_t completed_runs(const std::string& sid) const;
  std::vector<std::size_t> incomplete_runs(const std::string& sid) const;

  /// Fingerprint of a *completed* run's digest vector — the value the
  /// verification decision compared. Exposed so the result cache can key
  /// and replay verified evidence; nullopt for unknown/incomplete runs.
  std::optional<crypto::Digest256> completed_fingerprint(
      const std::string& sid, std::size_t run_id);

 private:
  struct RunState {
    std::map<mapreduce::DigestKey, crypto::Digest256> digests;
    bool complete = false;
    /// Fingerprint of `digests`, once computed (drained from `pending`
    /// or computed inline on first use).
    std::optional<crypto::Digest256> fingerprint;
    /// In-flight pool computation of the fingerprint.
    std::future<crypto::Digest256> pending;
  };
  struct JobState {
    bool gating = false;
    std::map<std::size_t, RunState> runs;  ///< by run id
  };

  /// The run's fingerprint, draining the pool future or computing inline.
  /// Requires a complete run (digest vector frozen).
  const crypto::Digest256& fingerprint(RunState& run)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  /// Group completed runs by identical digest vectors (fingerprint
  /// equality); returns groups of run ids, largest first.
  std::vector<std::vector<std::size_t>> agreement_groups(JobState& job)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  const JobState* find(const std::string& sid) const
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);
  JobState* find(const std::string& sid)
      CLUSTERBFT_REQUIRES(common::scheduler_thread_role);

  std::size_t f_;
  std::unique_ptr<common::ThreadPool> pool_;
  /// Thread-confined to the scheduler thread: the pool only ever touches
  /// a value-captured snapshot of a run's digest vector, never `jobs_`.
  std::map<std::string, JobState> jobs_
      CLUSTERBFT_GUARDED_BY(common::scheduler_thread_role);
};

}  // namespace clusterbft::core
