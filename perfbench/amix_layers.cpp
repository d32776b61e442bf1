#include "amix_layers.hpp"

#include <algorithm>
#include <string_view>

namespace perfbench {

using namespace amix;

const char* kind_span(QueryKind k) {
  switch (k) {
    case QueryKind::kMst:
      return "mst.run";
    case QueryKind::kRoute:
      return "routing.route";
    case QueryKind::kMatching:
      return "matching.run";
    case QueryKind::kSssp:
      return "sssp.run";
    case QueryKind::kWalks:
      return "randwalk.walks_query";
    default:
      return "engine.execute";
  }
}

const std::vector<std::string>& kind_spans() {
  static const std::vector<std::string> names = {
      "mst.run", "routing.route", "matching.run", "sssp.run",
      "randwalk.walks_query", "engine.execute"};
  return names;
}

namespace {

/// Layer name of a library span inside a hierarchy build, or nullptr for
/// spans whose time stays in the nearest imported ancestor.
const char* build_layer(std::string_view lib) {
  if (lib == "hierarchy/build") return "hierarchy.build";
  if (lib == "hierarchy/leader+seed") return "hierarchy.leader_seed";
  if (lib == "hierarchy/g0-embed") return "hierarchy.g0_embed";
  if (lib.starts_with("hierarchy/level-")) return "hierarchy.levels";
  if (lib == "hierarchy/portals") return "hierarchy.portals";
  if (lib == "walks/run") return "randwalk.sweep";
  return nullptr;
}

}  // namespace

void import_build_spans(obs::TraceRecorder& rec, Tracer& t,
                        std::int32_t parent, bool parent_is_build) {
  const std::vector<obs::SpanRecord>& lib = rec.spans();
  // mapped[i]: the benchmark span library span i's time lands in; -2 for
  // spans outside any build subtree.
  std::vector<std::int32_t> mapped(lib.size(), -2);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const obs::SpanRecord& s = lib[i];
    const std::int32_t up =
        s.parent >= 0 ? mapped[static_cast<std::size_t>(s.parent)] : -2;
    if (s.name == "hierarchy/build" && up == -2) {
      mapped[i] = parent_is_build
                      ? parent
                      : t.add("hierarchy.build",
                              static_cast<std::int64_t>(s.wall_ns), parent);
      continue;
    }
    if (up == -2) continue;
    const char* layer = build_layer(s.name);
    mapped[i] = layer == nullptr
                    ? up
                    : t.add(layer, static_cast<std::int64_t>(s.wall_ns), up);
  }
  rec.clear();
}

BatchReport execute_and_fold(const engine::CacheEntry& entry,
                             const std::vector<QuerySpec>& specs, Tracer* t) {
  std::vector<engine::QueryExecution> execs;
  execs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Scope s(t, kind_span(query_kind(specs[i])));
    execs.push_back(engine::execute_query(entry.graph(), entry.hierarchy(),
                                          specs[i],
                                          static_cast<std::uint32_t>(i),
                                          congest::instrument()));
  }
  BatchReport b;
  {
    const Scope s(t, "engine.fold");
    engine::fold_batch(std::move(execs), b);
  }
  b.cache_hits = 1;
  b.engine_rounds = b.multiplexed_transport_rounds + b.serialized_rounds;
  b.standalone_total_rounds =
      b.standalone_query_rounds + specs.size() * entry.build_rounds();
  return b;
}

GraphDelta toggle_edge(const Graph& original, std::uint64_t key,
                       std::uint64_t turn) {
  const auto e = static_cast<EdgeId>(
      keyed_below(key, 0, turn / 2, original.num_edges()));
  return {EdgeDelta{original.edge_u(e), original.edge_v(e), turn % 2 == 1}};
}

void add_layer_metrics(Result& r, const Tracer& t, const LayerCounts& c) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double builds = static_cast<double>(t.count("hierarchy.build"));
  const double build_ms = t.total_ms("hierarchy.build");
  // Every execute_query call is one kind span; pipeline-cold's "mst.run"
  // is a direct HierarchicalBoruvka::run and does not count.
  double exec_ms = 0, exec_calls = 0;
  if (c.uses_engine) {
    for (const std::string& k : kind_spans()) {
      exec_ms += t.total_ms(k);
      exec_calls += static_cast<double>(t.count(k));
    }
  }

  r.layer("graph.generate_ms", t.mean_ms("graph.generate"), "ms");
  r.layer("hierarchy.build_ms", t.mean_ms("hierarchy.build"), "ms");
  r.layer("hierarchy.g0_embed_ms",
          ratio(t.total_ms("hierarchy.g0_embed"), builds), "ms");
  r.layer("hierarchy.levels_ms",
          ratio(t.total_ms("hierarchy.levels"), builds), "ms");
  r.layer("hierarchy.portals_ms",
          ratio(t.total_ms("hierarchy.portals"), builds), "ms");
  r.layer("hierarchy.build_rounds", ratio(c.build_rounds, c.builds), "rounds");
  r.layer("hierarchy.retries_per_build", ratio(c.retries, c.builds), "ratio");
  r.layer("hierarchy.repair_fallback_ratio",
          ratio(c.fallback_drops, c.mutates), "ratio");
  r.layer("hierarchy.busy_drops", c.busy_drops, "count");
  r.layer("hierarchy.repair_ms", t.mean_ms("hierarchy.repair"), "ms");
  r.layer("randwalk.sweep_ms",
          ratio(t.total_ms("randwalk.sweep"), builds), "ms");
  r.layer("randwalk.sweep_share_of_build",
          ratio(t.total_ms("randwalk.sweep"), build_ms), "ratio");
  r.layer("randwalk.walks_query_ms", t.mean_ms("randwalk.walks_query"), "ms");
  r.layer("congest.token_moves_per_op",
          ratio(c.token_moves, c.counted_ops), "count");
  r.layer("congest.step_commits_per_op",
          ratio(c.step_commits, c.counted_ops), "count");
  r.layer("mst.run_ms", t.mean_ms("mst.run"), "ms");
  r.layer("mst.iterations", ratio(c.mst_iterations, c.mst_runs), "count");
  r.layer("routing.route_ms", t.mean_ms("routing.route"), "ms");
  r.layer("matching.run_ms", t.mean_ms("matching.run"), "ms");
  r.layer("sssp.run_ms", t.mean_ms("sssp.run"), "ms");
  r.layer("engine.execute_ms", ratio(exec_ms, exec_calls), "ms");
  r.layer("engine.fold_ms", t.mean_ms("engine.fold"), "ms");
  r.layer("engine.report_json_ms", t.mean_ms("engine.report_json"), "ms");
  r.layer("engine.cache_hit_ratio",
          ratio(c.cache_hits, c.cache_lookups), "ratio");
  r.layer("engine.shared_group_ratio",
          ratio(c.shared_groups, c.merged_groups), "ratio");
  r.layer("server.request_ms", t.mean_ms("server.request"), "ms");
  r.layer("server.parse_ms", t.mean_ms("server.parse"), "ms");
  r.layer("server.overhead_ms", c.server_overhead_ms, "ms");
  r.layer("server.mutate_ms", t.mean_ms("server.mutate"), "ms");
  r.layer("server.errors", c.server_errors, "count");
  r.layer("obs.trace_overhead_ratio",
          ratio(c.untraced_ops_per_s, c.traced_ops_per_s), "ratio");
}

}  // namespace perfbench
