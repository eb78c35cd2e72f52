// perfbench: end-to-end wall-clock benchmark of the ClusterBFT libraries
// on three paper workloads, with a separate traced run for per-layer
// costs. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <twitter_bft|airline_faulty|mixed_tenants>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Journals go to a
// per-process directory under .bench_build/run (removed on exit) and the
// traced run's spans to .bench_build/traces, relative to the working
// directory.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "core/journal.hpp"
#include "protocol/codec.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

namespace cbft = clusterbft;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::Execution;
using perfbench::ModelOutputs;
using perfbench::WorkloadSpec;

/// No workload may run more threads than this, the main thread included.
constexpr std::size_t kMaxThreads = 4;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed executions per run, at least, whatever --seconds says.
constexpr std::size_t kMinExecutions = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

constexpr const char* kWorkdir = ".bench_build/run";
constexpr const char* kTraceDir = ".bench_build/traces";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Scratch directory for this process's journal files, removed on exit.
class Workdir {
 public:
  explicit Workdir(const std::string& base, const std::string& workload)
      : path_(fs::path(base) /
              (workload + "-" + std::to_string(static_cast<long>(getpid())))) {
    fs::create_directories(path_);
  }
  ~Workdir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  Workdir(const Workdir&) = delete;
  Workdir& operator=(const Workdir&) = delete;
  std::string file(const char* name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

/// Attempted/failed scripts plus everything else that makes a run
/// incorrect, with the first few diagnostics.
class Tally {
 public:
  /// Count one execution's scripts; the first execution fixes the model
  /// outputs every later one must reproduce.
  void add(const Execution& ex) {
    attempted_ += ex.scripts;
    std::size_t failed = ex.failed;
    for (const std::string& f : ex.failures) note(f);
    if (!baseline_set_) {
      baseline_ = ex.model;
      baseline_set_ = true;
    } else if (!(ex.model == baseline_)) {
      std::size_t differing = 0;
      const auto& a = ex.model.per_script;
      const auto& b = baseline_.per_script;
      for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++differing;
      }
      failed = std::max(failed, std::min(differing, ex.scripts));
      note("model outputs differ from the first execution in " +
           std::to_string(differing) + " script(s)");
    }
    failed_ += failed;
    threads_peak_ = std::max(threads_peak_, ex.threads_peak);
    if (ex.threads_peak > kMaxThreads) {
      note("ran " + std::to_string(ex.threads_peak) + " threads, limit " +
           std::to_string(kMaxThreads));
      harness_ok_ = false;
    }
  }
  /// A check outside the scripts themselves failed (replay, codec).
  void harness_error(const std::string& why) {
    note(why);
    harness_ok_ = false;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && harness_ok_ && attempted_ > 0; }
  std::size_t threads_peak() const { return threads_peak_; }
  const ModelOutputs& baseline() const { return baseline_; }

 private:
  void note(const std::string& why) {
    if (notes_ < 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
    ++notes_;
  }

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t notes_ = 0;
  std::size_t threads_peak_ = 0;
  bool harness_ok_ = true;
  bool baseline_set_ = false;
  ModelOutputs baseline_;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              tally.correct() ? "true" : "false", tally.attempted(),
              tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------------ end to end

void print_series(const char* label, const std::vector<double>& xs) {
  std::printf("  %s:", label);
  for (double x : xs) std::printf(" %.4f", x);
  std::printf("\n");
}

int run_untraced(const Args& args, const Workdir& dir) {
  perfbench::ExecOptions opts;
  opts.journal_path = dir.file("journal.bin");
  Tally tally;
  // Calibration kernel timings around every set-up and execution; their
  // median turns raw times into calibrated ones (calibrate.hpp).
  std::vector<double> kernel_s;

  // Set-up: inputs, references and one untimed warm-up execution.
  std::vector<double> setups;
  WorkloadSpec spec;
  for (int i = 0; i < kSetups; ++i) {
    spec = WorkloadSpec{};
    perfbench::sample_calibration(kernel_s);
    const auto t0 = Clock::now();
    spec = perfbench::make_workload(args.workload, args.seed);
    tally.add(perfbench::execute(spec, opts));
    setups.push_back(since(t0));
  }

  // Per execution: wall, verified scripts per wall second, CPU per script.
  std::vector<double> walls;
  std::vector<double> throughput;
  std::vector<double> cpu_per_script;
  const auto start = Clock::now();
  while (walls.size() < kMinExecutions || since(start) < args.seconds) {
    perfbench::sample_calibration(kernel_s);
    const Execution ex = perfbench::execute(spec, opts);
    tally.add(ex);
    walls.push_back(ex.wall_s);
    throughput.push_back(
        static_cast<double>(ex.scripts - std::min(ex.scripts, ex.failed)) /
        ex.wall_s);
    cpu_per_script.push_back(
        ex.cpu_s / static_cast<double>(std::max<std::size_t>(1, ex.scripts)));
  }
  perfbench::sample_calibration(kernel_s);
  const double scale = perfbench::host_scale(kernel_s);

  const perfbench::Tail t = perfbench::tail(walls);
  const std::array<double, 3> q = perfbench::quartiles(walls);
  std::printf("perfbench %s seed %llu: %zu timed executions of %zu "
              "script(s), %zu threads at most, failed_ratio %.6g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              walls.size(), spec.scripts_per_execution(), tally.threads_peak(),
              static_cast<double>(tally.failed()) /
                  static_cast<double>(std::max<std::size_t>(1, tally.attempted())));
  std::printf("  host scale %.4f (median of %zu kernel timings); raw exec "
              "wall quartiles %.6f %.6f %.6f s, tail %.6f s at p%.1f "
              "(%zu beyond, n=%zu)\n",
              scale, kernel_s.size(), q[0], q[1], q[2], t.value, t.percentile,
              t.beyond, t.samples);
  print_series("raw exec walls (s)", walls);
  print_series("raw set-ups (s)", setups);
  print_result(
      tally,
      {
          {"setup_s", perfbench::median(setups) * scale, "s"},
          {"exec_wall_p50_s", perfbench::median(walls) * scale, "s"},
          {"scripts_per_s", perfbench::median(throughput) / scale, "1/s"},
          {"cpu_s_per_script", perfbench::median(cpu_per_script) * scale, "s"},
          {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
          {"verified_ratio",
           static_cast<double>(tally.attempted() - tally.failed()) /
               static_cast<double>(tally.attempted()),
           "ratio"},
      });
  return 0;
}

// ------------------------------------------------------------- per layer

/// Named metrics in report order.
struct Metrics {
  std::vector<Metric> list;
  void add(std::string name, double value, std::string unit) {
    list.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One traced execution's span accounting.
struct TracedExec {
  double wall_s = 0;
  perfbench::SpanSummary spans;
  double untraced_s() const { return wall_s - spans.covered_s; }
};

double median_of(const std::vector<TracedExec>& v,
                 const std::function<double(const TracedExec&)>& f) {
  std::vector<double> xs;
  for (const TracedExec& e : v) xs.push_back(f(e));
  return perfbench::median(xs);
}

/// Median of `reps` timings of `f`.
double median_time(int reps, const std::function<void()>& f) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    xs.push_back(since(t0));
  }
  return perfbench::median(xs);
}

/// Transport spans: self time per layer, the untraced remainder, and how
/// the traced executions compare with the untraced ones.
void span_metrics(const std::vector<TracedExec>& traced,
                  const std::vector<double>& plain_walls, Metrics& out) {
  const perfbench::SpanSummary& first = traced.front().spans;
  const double traced_p50 =
      median_of(traced, [](const TracedExec& e) { return e.wall_s; });
  out.add("cluster.cmd_self_s",
          median_of(traced, [](const TracedExec& e) { return e.spans.cmd_self_s; }),
          "s");
  out.add("cluster.cmds", static_cast<double>(first.cmds), "count");
  out.add("loop.untraced_s",
          median_of(traced, [](const TracedExec& e) { return e.untraced_s(); }),
          "s");
  const double msg_self =
      median_of(traced, [](const TracedExec& e) { return e.spans.msg_self_s; });
  out.add("core.msg_self_s", msg_self, "s");
  out.add("core.msgs", static_cast<double>(first.msgs), "count");
  out.add("core.msg_self_us",
          first.msgs == 0 ? 0 : msg_self * 1e6 / static_cast<double>(first.msgs),
          "us");
  out.add("trace.exec_wall_s", traced_p50, "s");
  out.add("trace.accounted_ratio",
          median_of(traced,
                    [](const TracedExec& e) {
                      return (e.spans.cmd_self_s + e.spans.msg_self_s +
                              e.untraced_s()) /
                             e.wall_s;
                    }),
          "ratio");
  out.add("trace.overhead_ratio", traced_p50 / perfbench::median(plain_walls),
          "ratio");
  const perfbench::Tail t = perfbench::tail(plain_walls);
  out.add("trace.exec_wall_tail_s", t.value, "s");
  out.add("trace.exec_wall_tail_pct", t.percentile, "%");
  out.add("trace.exec_wall_tail_n", static_cast<double>(t.samples), "count");
}

/// Layer replay: the front end of every distinct script, and one honest
/// replica of every distinct script's job DAG, checked against the
/// reference.
void replay_metrics(const WorkloadSpec& spec,
                    const std::vector<cbft::protocol::Message>& captured,
                    double plain_p50, Tally& tally, Metrics& out) {
  std::vector<const cbft::core::ClientRequest*> distinct;
  std::set<std::string> seen;
  for (const cbft::core::ClientRequest* req : spec.requests()) {
    if (seen.insert(req->script).second) distinct.push_back(req);
  }
  const bool single = distinct.size() == 1;

  cbft::mapreduce::Dfs sizing(spec.block_size);
  std::map<std::string, std::uint64_t> sizes;
  for (const auto& [path, rel] : spec.inputs) {
    sizing.write(path, rel);
    sizes[path] = sizing.size_of(path);
  }
  // Front end, per script: one pass over a stream's distinct scripts, or
  // the median of repeated passes over a single script.
  std::vector<double> parse, analyze, compile;
  for (int r = 0; r < (single ? 25 : 1); ++r) {
    perfbench::FrontEndTimes sum;
    for (const auto* req : distinct) {
      const perfbench::FrontEndTimes ft = perfbench::time_front_end(*req, sizes);
      sum.parse_s += ft.parse_s;
      sum.analyze_s += ft.analyze_s;
      sum.compile_s += ft.compile_s;
    }
    const auto n = static_cast<double>(distinct.size());
    parse.push_back(sum.parse_s / n);
    analyze.push_back(sum.analyze_s / n);
    compile.push_back(sum.compile_s / n);
  }
  out.add("dataflow.parse_s", perfbench::median(parse), "s");
  out.add("core.analyze_s", perfbench::median(analyze), "s");
  out.add("mapreduce.compile_s", perfbench::median(compile), "s");

  // Data plane: the replay with the median replica time of three (one for
  // a stream, whose thousands of DAGs already average out).
  std::vector<perfbench::DataPlaneReplay> replays;
  for (int r = 0; r < (single ? 3 : 1); ++r) {
    perfbench::DataPlaneReplay all;
    for (const auto* req : distinct) {
      perfbench::DataPlaneReplay one =
          perfbench::replay_data_plane(*req, spec.inputs, spec.block_size);
      const std::string diff =
          perfbench::compare_outputs(spec.reference.at(req->script), one.stores);
      if (!diff.empty()) {
        tally.harness_error("replay of " + req->name + ": " + diff);
      }
      all.accumulate(one);
      if (single) all.job_s = std::move(one.job_s);
    }
    replays.push_back(std::move(all));
  }
  std::sort(replays.begin(), replays.end(), [](const auto& a, const auto& b) {
    return a.replica_s() < b.replica_s();
  });
  const perfbench::DataPlaneReplay& dp = replays[replays.size() / 2];
  out.add("mapreduce.split_read_s", dp.split_read_s, "s");
  out.add("mapreduce.map_task_s", dp.map_task_s, "s");
  out.add("mapreduce.reduce_task_s", dp.reduce_task_s, "s");
  out.add("mapreduce.dfs_write_s", dp.dfs_write_s, "s");
  out.add("mapreduce.jobs", static_cast<double>(dp.jobs), "count");
  out.add("mapreduce.splits", static_cast<double>(dp.splits), "count");
  out.add("mapreduce.reduce_tasks", static_cast<double>(dp.reduce_tasks), "count");
  out.add("mapreduce.records_in", static_cast<double>(dp.records_in), "count");
  out.add("mapreduce.records_out", static_cast<double>(dp.records_out), "count");
  out.add("mapreduce.bytes_in", static_cast<double>(dp.bytes_in), "bytes");
  out.add("mapreduce.bytes_out", static_cast<double>(dp.bytes_out), "bytes");
  out.add("dataflow.byte_size_s", dp.byte_size_s, "s");
  out.add("dataflow.sort_s", dp.sort_s, "s");
  out.add("dataflow.serialize_s", dp.serialize_s, "s");
  out.add("crypto.digest_s", dp.digest_s, "s");
  out.add("crypto.sha256_mb_per_s",
          dp.digest_s > 0
              ? static_cast<double>(dp.serialized_bytes) / 1e6 / dp.digest_s
              : 0,
          "MB/s");
  out.add("replay.replica_s", dp.replica_s(), "s");

  // Data-plane share of an execution: each dispatched run (SubmitRun job
  // index) costs its job's replayed replica time. A stream mixes many
  // DAGs, so there the mean replica time per job stands in for every run.
  double dataplane_s = 0;
  if (single) {
    for (const cbft::protocol::Message& msg : captured) {
      if (const auto* run = std::get_if<cbft::protocol::SubmitRun>(&msg)) {
        if (run->job_index < dp.job_s.size()) {
          dataplane_s += dp.job_s[run->job_index];
        }
      }
    }
  } else {
    dataplane_s = dp.replica_s() /
                  static_cast<double>(std::max<std::uint64_t>(1, dp.jobs)) *
                  static_cast<double>(tally.baseline().totals.runs);
  }
  out.add("replay.dataplane_share", dataplane_s / plain_p50, "ratio");
}

/// The recorded journal file, loaded back and re-appended record by
/// record to a fresh write-through journal.
void journal_metrics(const WorkloadSpec& spec, const std::string& path,
                     const Workdir& dir, Tally& tally, Metrics& out) {
  double load_s = 0;
  double append_us = 0;
  std::vector<cbft::core::JournalRecord> recs;
  std::uint64_t bytes = 0;
  if (spec.file_journal) {
    bytes = fs::file_size(path);
    load_s = median_time(3, [&] {
      cbft::core::Journal j;
      if (!cbft::core::Journal::load_file(path, j)) {
        tally.harness_error("journal file did not load cleanly");
      }
      recs.clear();
      for (std::size_t i = 0; i < j.size(); ++i) recs.push_back(j.at(i));
    });
    std::vector<double> per_append;
    for (int r = 0; r < 3; ++r) {
      std::vector<cbft::core::JournalRecord> copy = recs;
      cbft::core::Journal j;
      if (!j.attach_file(dir.file("append.bin"))) {
        tally.harness_error("cannot write the append replay journal");
        break;
      }
      const auto t0 = Clock::now();
      for (cbft::core::JournalRecord& rec : copy) {
        j.append(rec.kind, rec.time, std::move(rec.payload), rec.session);
      }
      per_append.push_back(
          since(t0) * 1e6 /
          static_cast<double>(std::max<std::size_t>(1, recs.size())));
    }
    if (!per_append.empty()) append_us = perfbench::median(per_append);
  }
  out.add("core.journal_records", static_cast<double>(recs.size()), "count");
  out.add("core.journal_bytes", static_cast<double>(bytes), "bytes");
  out.add("core.journal_append_us", append_us, "us");
  out.add("core.journal_load_s", load_s, "s");
}

/// Every message of one traced execution through the codec, as a remote
/// transport would ship it.
void codec_metrics(const std::vector<cbft::protocol::Message>& captured,
                   Tally& tally, Metrics& out) {
  std::vector<std::vector<std::uint8_t>> frames(captured.size());
  const double encode_s = median_time(3, [&] {
    for (std::size_t i = 0; i < captured.size(); ++i) {
      frames[i] = cbft::protocol::encode(captured[i]);
    }
  });
  std::size_t decoded = 0;
  const double decode_s = median_time(3, [&] {
    decoded = 0;
    for (const auto& f : frames) {
      if (cbft::protocol::decode(f).has_value()) ++decoded;
    }
  });
  if (decoded != frames.size()) {
    tally.harness_error(std::to_string(frames.size() - decoded) +
                        " captured messages failed to decode");
  }
  std::uint64_t wire = 0;
  for (const auto& f : frames) wire += f.size();
  out.add("protocol.frames", static_cast<double>(frames.size()), "count");
  out.add("protocol.wire_bytes", static_cast<double>(wire), "bytes");
  out.add("protocol.encode_s", encode_s, "s");
  out.add("protocol.decode_s", decode_s, "s");
}

/// Simulation-model outputs of the workload: never a speed-up.
void model_metrics(const Tally& tally, Metrics& out) {
  const cbft::core::ScriptMetrics& m = tally.baseline().totals;
  out.add("core.sim_latency_s", m.latency_s, "sim_s");
  out.add("core.sim_cpu_s", m.cpu_seconds, "sim_s");
  out.add("core.runs", static_cast<double>(m.runs), "count");
  out.add("core.waves", static_cast<double>(m.waves), "count");
  out.add("core.digest_reports", static_cast<double>(m.digest_reports), "count");
  out.add("core.rollbacks", static_cast<double>(m.rollbacks), "count");
  out.add("core.cache_hits", static_cast<double>(m.cache_hits), "count");
  out.add("core.checkpoints", static_cast<double>(m.checkpoints), "count");
  out.add("mapreduce.digested_bytes", static_cast<double>(m.digested), "bytes");
}

int run_traced(const Args& args, const Workdir& dir) {
  perfbench::ExecOptions plain;
  plain.journal_path = dir.file("journal.bin");
  perfbench::SpanRecorder recorder;
  perfbench::ExecOptions traced = plain;
  traced.tracer = &recorder;
  Tally tally;

  const WorkloadSpec spec = perfbench::make_workload(args.workload, args.seed);
  tally.add(perfbench::execute(spec, plain));  // warm-up

  // Alternate untraced and traced executions, so drift hits both alike.
  std::vector<double> plain_walls;
  std::vector<TracedExec> traced_execs;
  std::vector<double> submit_us;
  std::vector<cbft::protocol::Message> captured;
  const auto start = Clock::now();
  while (plain_walls.size() < 2 || traced_execs.size() < 2 ||
         since(start) < args.seconds) {
    const bool trace_this = plain_walls.size() > traced_execs.size();
    recorder.capture = traced_execs.empty() && trace_this ? &captured : nullptr;
    const Execution ex = perfbench::execute(spec, trace_this ? traced : plain);
    tally.add(ex);
    submit_us.push_back(ex.frontend_submit_s * 1e6 /
                        static_cast<double>(std::max<std::size_t>(1, ex.scripts)));
    if (!trace_this) {
      plain_walls.push_back(ex.wall_s);
      continue;
    }
    traced_execs.push_back({ex.wall_s, perfbench::summarize(recorder.spans())});
    if (traced_execs.size() == 1) {
      fs::create_directories(kTraceDir);
      const std::string path = std::string(kTraceDir) + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      if (perfbench::write_chrome_trace(path, recorder.spans(), args.workload)) {
        std::printf("perfbench: wrote %zu spans to %s\n",
                    recorder.spans().size(), path.c_str());
      }
    }
  }
  recorder.capture = nullptr;

  Metrics out;
  span_metrics(traced_execs, plain_walls, out);
  replay_metrics(spec, captured, perfbench::median(plain_walls), tally, out);
  journal_metrics(spec, plain.journal_path, dir, tally, out);
  codec_metrics(captured, tally, out);
  out.add("frontend.submit_us", perfbench::median(submit_us), "us");
  model_metrics(tally, out);
  out.add("cluster.threads_peak", static_cast<double>(tally.threads_peak()),
          "count");

  const perfbench::SpanSummary& first = traced_execs.front().spans;
  std::printf("perfbench %s seed %llu (traced): %zu untraced + %zu traced "
              "executions\n  messages per execution:",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain_walls.size(), traced_execs.size());
  for (std::size_t k = 0; k < perfbench::kMessageKinds; ++k) {
    if (first.per_kind[k] != 0) {
      std::printf(" %s=%zu", perfbench::message_name(k), first.per_kind[k]);
    }
  }
  std::printf("\n");
  print_result(tally, out.list);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const Workdir dir(kWorkdir, args.workload);
    return args.trace ? run_traced(args, dir) : run_untraced(args, dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
