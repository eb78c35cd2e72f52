// The benchmark's three workloads and one execution of each.
//
// A workload is generated from the benchmark seed (input generator seeds,
// the tracker seed and the request stream), together with the reference
// output of every distinct script in it. An execution builds a fresh
// deployment (simulator, DFS loaded with the inputs, tracker, seam,
// controller, optional file journal) outside the timed interval, times
// only the calls a user waits on, and checks every result afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/tracker.hpp"
#include "compare.hpp"
#include "core/request.hpp"
#include "frontend/frontend.hpp"

namespace perfbench {

class SpanRecorder;

struct WorkloadSpec {
  std::uint64_t block_size = 256 << 10;
  clusterbft::cluster::TrackerConfig tracker;
  /// Generated inputs, keyed by LOAD path.
  std::map<std::string, clusterbft::dataflow::Relation> inputs;
  /// Write the controller journal through to a file.
  bool file_journal = false;
  /// The one script an execution runs, when `stream` is empty.
  clusterbft::core::ClientRequest request;
  /// Otherwise: the request stream served through the multi-tenant front
  /// end, all queued at simulated time 0.
  std::vector<clusterbft::frontend::Submission> stream;
  clusterbft::frontend::FrontendOptions frontend;
  /// Reference outputs per distinct script text.
  std::map<std::string, Reference> reference;

  std::size_t scripts_per_execution() const {
    return stream.empty() ? 1 : stream.size();
  }
  /// Every request an execution submits, in submission order.
  std::vector<const clusterbft::core::ClientRequest*> requests() const;
};

const std::vector<std::string>& workload_names();

/// Generate workload `name` from `seed`, references included. Throws
/// std::invalid_argument for an unknown name.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);

/// Model outputs (simulated quantities and counts) of one execution. They
/// are a deterministic function of the workload, so every execution of a
/// workload must reproduce them exactly.
struct ModelOutputs {
  /// Per script in submission order: runs, waves, digest reports,
  /// simulated latency.
  std::vector<std::array<double, 4>> per_script;
  clusterbft::core::ScriptMetrics totals;  ///< summed over scripts

  friend bool operator==(const ModelOutputs& a, const ModelOutputs& b) {
    return a.per_script == b.per_script;
  }
};

struct Execution {
  double wall_s = 0;  ///< timed interval
  double cpu_s = 0;   ///< process user+sys CPU over the timed interval
  std::size_t scripts = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics
  ModelOutputs model;
  std::size_t threads_peak = 0;  ///< process threads at the end of the run
  double frontend_submit_s = 0;  ///< time spent in Frontend::submit
};

struct ExecOptions {
  /// Armed around the timed interval; null runs the plain LoopbackSeam.
  SpanRecorder* tracer = nullptr;
  /// File the journal is written through to (spec.file_journal).
  std::string journal_path;
};

Execution execute(const WorkloadSpec& spec, const ExecOptions& opts);

/// Process resident-set high-water mark, MiB.
double peak_rss_mb();

}  // namespace perfbench
