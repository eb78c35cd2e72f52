#include "mapreduce/compiler.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.hpp"

namespace clusterbft::mapreduce {

using dataflow::LogicalPlan;
using dataflow::OpId;
using dataflow::OpKind;
using dataflow::OpNode;

namespace {

/// Prefix for intermediate (non-STORE) job outputs.
constexpr const char* kTmpPrefix = "tmp/";

/// An un-materialised map-side computation: branches of streaming work.
struct Pipeline {
  std::vector<MapBranch> branches;
  OpId tail = 0;                   ///< vertex the pipeline currently produces
  std::vector<std::size_t> deps;   ///< upstream job indices
};

class Compiler {
 public:
  Compiler(const LogicalPlan& plan, const CompileOptions& opts)
      : plan_(plan), opts_(opts) {}

  JobDag run(const std::vector<VerificationPoint>& vps) {
    count_consumers();
    for (const OpNode& n : plan_.nodes()) visit(n);
    assign_vps(vps);
    finalize_sids();
    return std::move(dag_);
  }

 private:
  // ------------------------------------------------------------ origins --

  struct Origin {
    enum class Kind { kNone, kPipeline, kJob } kind = Kind::kNone;
    Pipeline pipe;        // kPipeline
    std::size_t job = 0;  // kJob
  };

  void count_consumers() {
    consumers_.assign(plan_.size(), 0);
    for (const OpNode& n : plan_.nodes()) {
      for (OpId in : n.inputs) ++consumers_[in];
    }
  }

  MRJobSpec& job(std::size_t j) { return dag_.jobs[j]; }

  bool job_open(std::size_t j) const { return !closed_[j]; }

  void close_job(std::size_t j) {
    if (closed_[j]) return;
    closed_[j] = true;
    if (job(j).output_path.empty()) {
      job(j).output_path = kTmpPrefix + opts_.sid_prefix + "/j" +
                           std::to_string(j) + ".out";
    }
  }

  /// Turn whatever produces `v` into map-side branches readable by a new
  /// consumer, materialising open jobs as needed.
  Pipeline to_pipeline(OpId v) {
    Origin& o = origin_[v];
    CBFT_CHECK_MSG(o.kind != Origin::Kind::kNone,
                   "compiler: vertex has no origin");
    if (o.kind == Origin::Kind::kPipeline) return o.pipe;
    const std::size_t j = o.job;
    close_job(j);
    Pipeline p;
    MapBranch b;
    b.input_path = job(j).output_path;
    b.source_vertex = job(j).output_vertex;
    p.branches.push_back(std::move(b));
    p.tail = job(j).output_vertex;
    p.deps.push_back(j);
    return p;
  }

  std::size_t new_job_from(Pipeline p, std::optional<OpId> blocking,
                           OpId output_vertex, std::size_t reducers) {
    MRJobSpec spec;
    spec.job_index = dag_.jobs.size();
    spec.branches = std::move(p.branches);
    spec.blocking = blocking;
    spec.output_vertex = output_vertex;
    spec.num_reducers = blocking ? reducers : 1;
    spec.deps = std::move(p.deps);
    std::sort(spec.deps.begin(), spec.deps.end());
    spec.deps.erase(std::unique(spec.deps.begin(), spec.deps.end()),
                    spec.deps.end());
    dag_.jobs.push_back(std::move(spec));
    closed_.push_back(false);
    return dag_.jobs.size() - 1;
  }

  /// If a vertex feeds several consumers, its producing job must be
  /// materialised so each consumer can read the DFS output independently.
  void maybe_materialize(OpId v) {
    if (consumers_[v] <= 1) return;
    Origin& o = origin_[v];
    if (o.kind == Origin::Kind::kJob) {
      close_job(o.job);
      return;
    }
    if (o.pipe.branches.size() == 1 && o.pipe.branches[0].map_ops.empty()) {
      return;  // plain source (LOAD or closed-job output): shareable as-is
    }
    // Materialise the streaming pipeline as a map-only job.
    const std::size_t j = new_job_from(o.pipe, std::nullopt, v, 1);
    close_job(j);
    o = Origin{};
    o.kind = Origin::Kind::kJob;
    o.job = j;
  }

  // -------------------------------------------------------------- visit --

  void visit(const OpNode& n) {
    switch (n.kind) {
      case OpKind::kLoad:
        visit_load(n);
        break;
      case OpKind::kFilter:
      case OpKind::kForeach:
        visit_streaming(n);
        break;
      case OpKind::kUnion:
        visit_union(n);
        break;
      case OpKind::kGroup:
      case OpKind::kDistinct:
      case OpKind::kOrder:
        visit_blocking_unary(n);
        break;
      case OpKind::kJoin:
      case OpKind::kCogroup:
        visit_join(n);
        break;
      case OpKind::kLimit:
        visit_limit(n);
        break;
      case OpKind::kStore:
        visit_store(n);
        break;
    }
    if (n.kind != OpKind::kStore) maybe_materialize(n.id);
  }

  void visit_load(const OpNode& n) {
    Origin o;
    o.kind = Origin::Kind::kPipeline;
    MapBranch b;
    b.input_path = n.path;
    b.source_vertex = n.id;
    o.pipe.branches.push_back(std::move(b));
    o.pipe.tail = n.id;
    origin_[n.id] = std::move(o);
  }

  void visit_streaming(const OpNode& n) {
    const OpId in = n.inputs[0];
    Origin& io = origin_[in];
    if (io.kind == Origin::Kind::kJob && job_open(io.job) &&
        consumers_[in] == 1) {
      // Absorb into the producing job's reduce chain.
      const std::size_t j = io.job;
      job(j).reduce_ops.push_back(n.id);
      job(j).output_vertex = n.id;
      Origin o;
      o.kind = Origin::Kind::kJob;
      o.job = j;
      origin_[n.id] = std::move(o);
      return;
    }
    Pipeline p = to_pipeline(in);
    for (MapBranch& b : p.branches) b.map_ops.push_back(n.id);
    p.tail = n.id;
    Origin o;
    o.kind = Origin::Kind::kPipeline;
    o.pipe = std::move(p);
    origin_[n.id] = std::move(o);
  }

  void visit_union(const OpNode& n) {
    Pipeline merged;
    for (OpId in : n.inputs) {
      Pipeline p = to_pipeline(in);
      for (MapBranch& b : p.branches) {
        // The union vertex itself is a pass-through marker on each branch,
        // so verification points on it have a position.
        b.map_ops.push_back(n.id);
        merged.branches.push_back(std::move(b));
      }
      merged.deps.insert(merged.deps.end(), p.deps.begin(), p.deps.end());
    }
    merged.tail = n.id;
    Origin o;
    o.kind = Origin::Kind::kPipeline;
    o.pipe = std::move(merged);
    origin_[n.id] = std::move(o);
  }

  void visit_blocking_unary(const OpNode& n) {
    Pipeline p = to_pipeline(n.inputs[0]);
    const std::size_t reducers =
        (n.kind == OpKind::kOrder) ? 1 : opts_.default_reducers;
    const std::size_t j = new_job_from(std::move(p), n.id, n.id, reducers);
    Origin o;
    o.kind = Origin::Kind::kJob;
    o.job = j;
    origin_[n.id] = std::move(o);
  }

  void visit_join(const OpNode& n) {
    Pipeline left = to_pipeline(n.inputs[0]);
    Pipeline right = to_pipeline(n.inputs[1]);
    Pipeline p;
    for (MapBranch& b : left.branches) {
      b.tag = 0;
      p.branches.push_back(std::move(b));
    }
    for (MapBranch& b : right.branches) {
      b.tag = 1;
      p.branches.push_back(std::move(b));
    }
    p.deps = left.deps;
    p.deps.insert(p.deps.end(), right.deps.begin(), right.deps.end());
    const std::size_t j =
        new_job_from(std::move(p), n.id, n.id, opts_.default_reducers);
    Origin o;
    o.kind = Origin::Kind::kJob;
    o.job = j;
    origin_[n.id] = std::move(o);
  }

  void visit_limit(const OpNode& n) {
    const OpId in = n.inputs[0];
    Origin& io = origin_[in];
    if (io.kind == Origin::Kind::kJob && job_open(io.job) &&
        consumers_[in] == 1 && job(io.job).num_reducers == 1) {
      // e.g. LIMIT right after ORDER: apply in the single reducer.
      const std::size_t j = io.job;
      job(j).reduce_ops.push_back(n.id);
      job(j).output_vertex = n.id;
      Origin o;
      o.kind = Origin::Kind::kJob;
      o.job = j;
      origin_[n.id] = std::move(o);
      return;
    }
    // Global cut needs a single-reducer pass of its own.
    Pipeline p = to_pipeline(in);
    const std::size_t j = new_job_from(std::move(p), n.id, n.id, 1);
    Origin o;
    o.kind = Origin::Kind::kJob;
    o.job = j;
    origin_[n.id] = std::move(o);
  }

  void visit_store(const OpNode& n) {
    const OpId in = n.inputs[0];
    Origin& io = origin_[in];
    if (io.kind == Origin::Kind::kJob && job_open(io.job)) {
      const std::size_t j = io.job;
      job(j).output_path = n.path;
      job(j).is_final_store = true;
      close_job(j);
      store_vertex_to_output_[n.id] = job(j).output_vertex;
      return;
    }
    // Map-only job writing the store path (covers pipelines and already
    // materialised inputs alike).
    Pipeline p = to_pipeline(in);
    const OpId out_v = p.tail;
    const std::size_t j = new_job_from(std::move(p), std::nullopt, out_v, 1);
    job(j).output_path = n.path;
    job(j).is_final_store = true;
    close_job(j);
    store_vertex_to_output_[n.id] = out_v;
  }

  // ----------------------------------------------------------------- vps --

  void assign_vps(const std::vector<VerificationPoint>& vps) {
    for (VerificationPoint vp : vps) {
      // Normalise STORE points to the stored vertex.
      if (plan_.node(vp.vertex).kind == OpKind::kStore) {
        auto it = store_vertex_to_output_.find(vp.vertex);
        CBFT_CHECK(it != store_vertex_to_output_.end());
        vp.vertex = it->second;
      }
      bool placed = false;
      for (MRJobSpec& j : dag_.jobs) {
        const bool reduce_side =
            (j.blocking && *j.blocking == vp.vertex) ||
            std::find(j.reduce_ops.begin(), j.reduce_ops.end(), vp.vertex) !=
                j.reduce_ops.end();
        if (reduce_side || j.is_map_side(vp.vertex)) {
          j.vps.push_back(vp);
          placed = true;
        }
      }
      CBFT_CHECK_MSG(placed, "verification point on a vertex outside any job");
    }

    // Boundary coverage: when a gating job is verified, the controller
    // promotes one majority run's materialised output as the trusted input
    // for every downstream consumer. Those exact bytes must therefore be
    // part of the attested evidence. A job whose only VPs sit upstream of
    // its output vertex (e.g. map-side before the shuffle) leaves a
    // window: a commission fault inside the reduce task corrupts the
    // written output while every digest stays honest, and f+1 agreement
    // then promotes corrupt bytes as "verified". Close it by ensuring
    // every job that carries any VP also digests its output vertex.
    for (MRJobSpec& j : dag_.jobs) {
      if (j.vps.empty()) continue;  // non-gating: nothing gets promoted
      const bool covered = std::any_of(
          j.vps.begin(), j.vps.end(),
          [&](const VerificationPoint& vp) { return vp.vertex == j.output_vertex; });
      if (!covered) {
        j.vps.push_back({j.output_vertex, j.vps.front().records_per_digest});
      }
    }
  }

  void finalize_sids() {
    for (MRJobSpec& j : dag_.jobs) {
      j.sid = opts_.sid_prefix + ":j" + std::to_string(j.job_index);
    }
    // Every open job must have been closed by a STORE.
    for (std::size_t j = 0; j < dag_.jobs.size(); ++j) {
      CBFT_CHECK_MSG(closed_[j], "compiler: job never closed (dangling op?)");
    }
  }

  const LogicalPlan& plan_;
  const CompileOptions& opts_;
  JobDag dag_;
  std::vector<bool> closed_;
  std::vector<std::size_t> consumers_;
  std::map<OpId, Origin> origin_;
  std::map<OpId, OpId> store_vertex_to_output_;
};

}  // namespace

JobDag compile(const LogicalPlan& plan, const std::vector<VerificationPoint>& vps,
               const CompileOptions& opts) {
  plan.validate();
  Compiler c(plan, opts);
  return c.run(vps);
}

}  // namespace clusterbft::mapreduce
