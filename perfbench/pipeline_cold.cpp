// pipeline-cold: the paper's cold pipeline (Theorem 1.1), one fresh
// instance per op: generate, Hierarchy::build, HierarchicalBoruvka::run,
// then an untimed exactness check. Closed loop, one thread.
//
// Instances cycle through random_regular(n, 6) and two connected G(n, p)
// at p = 2.5 ln n / n so the degree distribution varies between ops. The
// 1:2 mix is deliberate: a G(n, p) build costs about twice a regular one,
// so a 1:1 mix puts the median op right at the edge between two cost
// clusters, where it jumps with the seed; at 1:2 it lands inside the
// G(n, p) cluster. About
// 95% of an op is the build, mostly walk sweeps in the level waves, so
// hierarchy and randwalk changes show here; the engine and the server are
// absent.

#include <cmath>
#include <optional>

#include "amix_layers.hpp"

namespace perfbench {

using namespace amix;

namespace {

constexpr std::uint64_t kInstanceStream = 0x7069706531323800ULL;
constexpr std::uint64_t kParamStream = 0x7069706570617200ULL;
// The warm-up op's instance, far from the timed sequence's indices.
constexpr std::uint64_t kWarmupOp = 1ULL << 40;
// Timed ops per requested second: sized so one run takes about
// --seconds on a 4-vCPU x86 VM.
constexpr double kOpsPerSecond = 4.0;

struct Op {
  double latency_ms = 0;
  std::uint64_t rounds = 0;
  std::uint64_t build_rounds = 0;
  std::uint32_t retries = 0;
  std::uint32_t iterations = 0;
  std::string error;  // empty when the MST is exact
};

Op pipeline_op(NodeId n, std::uint64_t seed, std::uint64_t index,
               bool corrupt, Tracer* t, obs::TraceRecorder* rec) {
  Op op;
  const std::uint64_t key = keyed_u64(seed, kInstanceStream, index);
  Graph g;
  Weights w;
  std::optional<Hierarchy> h;
  MstStats mst;
  RoundLedger ledger;
  std::int32_t build_span = -1;
  const auto t0 = Clock::now();
  {
    const Scope root(t, "pipeline.op");
    {
      const Scope s(t, "graph.generate");
      Rng rng(key);
      g = index % 3 == 0
              ? gen::random_regular(n, 6, rng)
              : gen::connected_gnp(
                    n, 2.5 * std::log(static_cast<double>(n)) / n, rng);
      w = distinct_random_weights(g, rng);
    }
    HierarchyParams hp;
    hp.seed = keyed_u64(key, kParamStream, 0);
    {
      const Scope s(t, "hierarchy.build");
      if (t != nullptr) build_span = t->current();
      h.emplace(Hierarchy::build(g, hp, ledger));
    }
    MstParams mp;
    mp.seed = keyed_u64(key, kParamStream, 1);
    const Scope s(t, "mst.run");
    mst = HierarchicalBoruvka(*h, w).run(ledger, mp);
  }
  op.latency_ms = ms_between(t0, Clock::now());

  if (t != nullptr && rec != nullptr) {
    import_build_spans(*rec, *t, build_span, true);
  }
  op.rounds = ledger.total();
  op.build_rounds = h->stats().build_rounds;
  op.retries = h->stats().retries;
  op.iterations = mst.iterations;
  if (corrupt && !mst.edges.empty()) mst.edges.pop_back();
  if (!is_exact_mst(g, w, mst.edges)) {
    op.error = "op " + std::to_string(index) + ": MST is not exact";
  }
  return op;
}

}  // namespace

Result run_pipeline_cold(const Config& cfg) {
  Result r;
  const NodeId n = cfg.tiny ? 48 : 128;
  const std::size_t ops = op_count(cfg, kOpsPerSecond);
  auto check = [&r](const Op& op) {
    ++r.attempted;
    if (!op.error.empty()) r.fail(op.error);
  };

  // Set-up is one untimed warm-up op, run three times on one instance.
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    const Op op =
        pipeline_op(n, cfg.seed, kWarmupOp, false, nullptr, nullptr);
    check(op);
    setup_s.push_back(op.latency_ms / 1e3);
  }

  PassTimes p;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Op op = pipeline_op(n, cfg.seed, i, cfg.inject_failure && i == 1,
                              nullptr, nullptr);
    check(op);
    p.latency_ms.push_back(op.latency_ms);
    p.rounds += op.rounds;
  }
  p.ops = ops;
  p.loops = {Loop{p.latency_ms}};
  // Every op answers on a topology it has never seen: its write latency
  // (time until an answer on a changed topology) is its latency.
  p.write_ms = p.latency_ms;
  add_end_to_end(r, setup_s, p);
  if (!cfg.trace) return r;

  LayerCounts c;
  c.untraced_ops_per_s = ops_per_s(p.loops);
  obs::TraceRecorder rec;
  Loop traced;
  {
    const obs::ScopedRecorder sr(&rec);
    for (std::uint64_t i = 0; i < ops; ++i) {
      r.spans.set_op(static_cast<std::int64_t>(i));
      const Op op = pipeline_op(n, cfg.seed, i, false, &r.spans, &rec);
      check(op);
      traced.ms.push_back(op.latency_ms);
      c.builds += 1;
      c.build_rounds += static_cast<double>(op.build_rounds);
      c.retries += op.retries;
      c.mst_runs += 1;
      c.mst_iterations += op.iterations;
    }
  }
  c.traced_ops_per_s = ops_per_s({traced});
  const std::uint64_t counted = std::min<std::uint64_t>(ops, 4);
  counting_pass(c, counted, [&] {
    for (std::uint64_t i = 0; i < counted; ++i) {
      check(pipeline_op(n, cfg.seed, i, false, nullptr, nullptr));
    }
  });
  add_layer_metrics(r, r.spans, c);
  return r;
}

}  // namespace perfbench
