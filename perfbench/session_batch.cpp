// session-batch: the warm-cache query path. Each op is one
// Session::batch of {mst, route perm 1, matching, sssp <k mod n> 0,
// walks 64 16} with per-op seeds, on a Session over random_regular(n, 6).
// Closed loop, one thread. MST is most of an op, so Boruvka, the router
// and the engine's capture/multiplex/fold show here; the hierarchy
// appears only in set-up and in the write phase.
//
// Ops run on kSessions sessions, each on its own graph, in one contiguous
// block per session. Charged rounds and op cost depend strongly on the
// one hierarchy a session holds, so a single session makes every metric
// jump with the seed; several average that out. Each session's set-up
// (generate, open, first cold batch) is one set-up sample.
//
// The write phase follows the timed queries: Session::mutate (delete one
// edge, re-insert it on that session's next turn) plus the same batch,
// timed together as "time until an answer on the changed topology"
// through the engine cache's in-place repair.
//
// The traced pass runs each op as execute_query per spec + fold_batch on
// the session's cached entry, and its JSON must be byte-equal to the
// untraced pass's Session::batch of the same specs.

#include <memory>
#include <sstream>

#include "amix_layers.hpp"
#include "server/mix.hpp"

namespace perfbench {

using namespace amix;

namespace {

constexpr std::uint64_t kGraphStream = 0x7365737367726100ULL;
constexpr std::uint64_t kSpecStream = 0x7365737373706500ULL;
constexpr std::uint64_t kEdgeStream = 0x7365737365646700ULL;
// Warm-up batches draw specs far from the timed sequence's indices.
constexpr std::uint64_t kWarmupOp = 1ULL << 40;
constexpr std::uint64_t kSessions = 4;
// Timed query ops per requested second, and write ops per run: sized so
// one run takes about --seconds on a 4-vCPU x86 VM.
constexpr double kOpsPerSecond = 15.0;
constexpr std::size_t kWrites = 160;

struct Instance {
  NodeId n = 0;
  std::uint32_t walks = 0;
  Graph g;
  SessionOptions options;
};

Instance make_instance(const Config& cfg, std::uint64_t session) {
  Instance in;
  in.n = cfg.tiny ? 64 : 256;
  in.walks = cfg.tiny ? 16 : 64;
  const std::uint64_t key = keyed_u64(cfg.seed, kGraphStream, session);
  Rng rng(key);
  in.g = gen::random_regular(in.n, 6, rng);
  in.options.seed = keyed_u64(key, kGraphStream, 1);
  in.options.hierarchy.seed = keyed_u64(key, kGraphStream, 2);
  return in;
}

// Session is neither copyable nor movable; this holds one on the heap.
struct SessionBox {
  SessionBox(const Graph& g, const SessionOptions& o)
      : s(Session::open(g, o)) {}
  Session s;
};

struct Batch {
  std::vector<QuerySpec> specs;
  Weights mst_weights;
  std::string error;
};

Batch make_batch(const Instance& in, const Graph& g, std::uint64_t seed,
                 std::uint64_t k, bool unsupported) {
  std::vector<std::string> lines = {
      "mst", "route perm 1", "matching",
      "sssp " + std::to_string(k % in.n) + " 0",
      "walks " + std::to_string(in.walks) + " 16"};
  if (unsupported) lines.push_back("frobnicate");
  Batch b;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    QuerySpec spec;
    std::string err;
    const server::MixParse mp = server::parse_mix_line(
        g, nullptr, lines[i], i, keyed_u64(seed, kSpecStream, k * 8 + i),
        &spec, &err);
    if (mp != server::MixParse::kQuery) {
      b.error = "op " + std::to_string(k) + ": '" + lines[i] + "': " + err;
      return b;
    }
    if (const auto* q = std::get_if<MstQuery>(&spec.op)) {
      b.mst_weights = q->weights;
    }
    b.specs.push_back(std::move(spec));
  }
  return b;
}

/// Every report ok and the MST exact; returns the failure, or "".
std::string check_batch(const Graph& g, const Batch& in, const BatchReport& b,
                        std::uint64_t k) {
  const std::string at = "op " + std::to_string(k) + ": ";
  if (!b.all_ok()) return at + "a query report is not ok";
  for (const QueryReport& q : b.queries) {
    if (q.mst.has_value() && !is_exact_mst(g, in.mst_weights, q.mst->edges)) {
      return at + "MST is not exact";
    }
  }
  return {};
}

std::string to_json(const BatchReport& b) {
  std::ostringstream os;
  b.to_json(os);
  return os.str();
}


/// One session's set-up: generate, open, first (cold) batch. Returns the
/// warm batch's failure, or "". When tracing, the build the first batch
/// ran is imported from `rec` under the batch's span.
std::string open_session(const Config& cfg, std::uint64_t session,
                         Instance& in, std::unique_ptr<SessionBox>& box,
                         Tracer* t, obs::TraceRecorder* rec) {
  const Scope root(t, "session.setup");
  {
    const Scope s(t, "graph.generate");
    in = make_instance(cfg, session);
  }
  box = std::make_unique<SessionBox>(in.g, in.options);
  const Batch warm = make_batch(in, in.g, cfg.seed, kWarmupOp, false);
  BatchReport b;
  std::int32_t span = -1;
  {
    const Scope s(t, "session.batch");
    if (t != nullptr) span = t->current();
    b = box->s.batch(warm.specs);
  }
  if (t != nullptr) import_build_spans(*rec, *t, span, false);
  return warm.error.empty() ? check_batch(in.g, warm, b, kWarmupOp)
                            : warm.error;
}

}  // namespace

Result run_session_batch(const Config& cfg) {
  Result r;
  const std::size_t ops = op_count(cfg, kOpsPerSecond);
  const std::size_t writes = cfg.tiny ? 4 : kWrites;
  const std::uint64_t sessions = cfg.tiny ? 2 : kSessions;
  auto record = [&r](const std::string& error) {
    ++r.attempted;
    if (!error.empty()) r.fail(error);
  };
  // Op k of n runs on session k * sessions / n: one contiguous block per
  // session, so an op finds its session's hierarchy warm in cache.
  auto of = [sessions](std::uint64_t k, std::uint64_t n) {
    return k * sessions / n;
  };

  std::vector<double> setup_s;
  std::vector<Instance> in(sessions);
  std::vector<std::unique_ptr<SessionBox>> box(sessions);
  for (std::uint64_t s = 0; s < sessions; ++s) {
    const auto t0 = Clock::now();
    const std::string err =
        open_session(cfg, s, in[s], box[s], nullptr, nullptr);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    record(err);
  }

  PassTimes p;
  LayerCounts c;
  std::vector<std::string> expected_json;  // per op, for the traced pass
  for (std::uint64_t k = 0; k < ops; ++k) {
    const Instance& at = in[of(k, ops)];
    const Batch batch =
        make_batch(at, at.g, cfg.seed, k, cfg.inject_failure && k == 1);
    if (!batch.error.empty()) {
      record(batch.error);
      expected_json.emplace_back();
      continue;
    }
    const auto t0 = Clock::now();
    const BatchReport b = box[of(k, ops)]->s.batch(batch.specs);
    const auto t1 = Clock::now();
    p.latency_ms.push_back(ms_between(t0, t1));
    p.rounds += b.engine_rounds;
    ++p.ops;
    c.cache_hits += static_cast<double>(b.cache_hits);
    c.cache_lookups += static_cast<double>(b.cache_hits + b.cache_misses);
    record(check_batch(at.g, batch, b, k));
    expected_json.push_back(cfg.trace ? to_json(b) : std::string("-"));
  }

  for (std::uint64_t j = 0; j < writes; ++j) {
    const std::uint64_t at = of(j, writes);
    Session& session = box[at]->s;
    // The session's turn: the writes it has had before this one.
    const std::uint64_t first = (at * writes + sessions - 1) / sessions;
    const GraphDelta delta = toggle_edge(
        in[at].g, keyed_u64(in[at].options.seed, kEdgeStream, 0), j - first);
    const auto t0 = Clock::now();
    const Session::MutationReport m = session.mutate(delta);
    const Batch batch = make_batch(in[at], session.graph(),
                                   cfg.seed, ops + j, false);
    const BatchReport b = session.batch(batch.specs);
    p.write_ms.push_back(ms_between(t0, Clock::now()));
    c.mutates += 1;
    c.fallback_drops += static_cast<double>(m.entries_dropped);
    record(batch.error.empty()
               ? check_batch(session.graph(), batch, b, ops + j)
               : batch.error);
  }
  p.loops = {Loop{p.latency_ms}};
  add_end_to_end(r, setup_s, p);
  if (!cfg.trace) return r;

  // Traced pass: fresh sessions on the same inputs, traced from set-up.
  c.uses_engine = true;
  c.untraced_ops_per_s = ops_per_s(p.loops);
  obs::TraceRecorder rec;
  Tracer& t = r.spans;
  Loop traced;
  {
    const obs::ScopedRecorder sr(&rec);
    std::vector<const engine::CacheEntry*> entry(sessions);
    for (std::uint64_t s = 0; s < sessions; ++s) {
      record(open_session(cfg, s, in[s], box[s], &t, &rec));
      entry[s] = box[s]->s.engine().cache().find(in[s].g,
                                                 in[s].options.hierarchy);
      const HierarchyStats& build = entry[s]->hierarchy().stats();
      c.builds += 1;
      c.build_rounds += static_cast<double>(build.build_rounds);
      c.retries += build.retries;
    }

    for (std::uint64_t k = 0; k < ops; ++k) {
      if (expected_json[k].empty()) continue;  // failed in the untraced pass
      const Instance& at = in[of(k, ops)];
      const Batch batch = make_batch(at, at.g, cfg.seed, k, false);
      t.set_op(static_cast<std::int64_t>(k));
      BatchReport b;
      const auto t0 = Clock::now();
      {
        const Scope op(&t, "session.op");
        b = execute_and_fold(*entry[of(k, ops)], batch.specs, &t);
      }
      traced.ms.push_back(ms_between(t0, Clock::now()));
      rec.clear();
      ++r.attempted;
      if (to_json(b) != expected_json[k]) {
        r.fail("op " + std::to_string(k) +
               ": execute_query + fold_batch JSON differs from "
               "Session::batch");
      }
      c.merged_groups += static_cast<double>(b.merged_groups);
      c.shared_groups += static_cast<double>(b.merged_shared_groups);
      for (const QueryReport& q : b.queries) {
        if (!q.mst.has_value()) continue;
        c.mst_runs += 1;
        c.mst_iterations += q.mst->iterations;
      }
    }
  }
  c.traced_ops_per_s = ops_per_s({traced});
  const std::uint64_t counted = std::min<std::uint64_t>(ops, 4);
  counting_pass(c, counted, [&] {
    for (std::uint64_t k = 0; k < counted; ++k) {
      const Instance& at = in[of(k, ops)];
      const Batch batch = make_batch(at, at.g, cfg.seed, k, false);
      record(check_batch(at.g, batch, box[of(k, ops)]->s.batch(batch.specs),
                         k));
    }
  });
  add_layer_metrics(r, t, c);
  return r;
}

}  // namespace perfbench
