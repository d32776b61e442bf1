#pragma once

// The amix-facing half of the benchmark's plumbing: spec execution with a
// span per query kind, import of the library's own hierarchy spans into
// the benchmark's span tree, and the per-layer metric list every
// workload reports (zero where a workload does not exercise a layer).

#include <cstdint>
#include <string>
#include <vector>

#include "amix/amix.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// Span name of one execute_query call, by query kind: the layer that
/// does the kind's work ("mst.run", "routing.route", ...).
const char* kind_span(amix::QueryKind k);
/// Every kind span name the workloads use (for engine.execute_ms).
const std::vector<std::string>& kind_spans();

/// Copy the hierarchy-build subtrees `rec` recorded (library spans
/// "hierarchy/build", its g0/level/portal phases and the walk sweeps
/// inside them) into `t` under `parent`, renamed to layer names. When
/// `parent_is_build`, `parent` already is the benchmark's span around
/// Hierarchy::build, and the library root's children attach to it.
/// Clears `rec`.
void import_build_spans(amix::obs::TraceRecorder& rec, Tracer& t,
                        std::int32_t parent, bool parent_is_build);

/// execute_query on every spec, one kind span each, then fold_batch and
/// the engine's cache-hit accounting (what QueryEngine::run adds on a
/// warm cache), so the report serializes byte-identically to a
/// Session::batch of the same specs.
amix::BatchReport execute_and_fold(const amix::engine::CacheEntry& entry,
                                   const std::vector<amix::QuerySpec>& specs,
                                   Tracer* t);

/// The `turn`-th write of a delete/re-insert cycle on `original`: even
/// turns delete edge keyed_below(key, turn / 2), odd turns re-insert it,
/// so the topology returns to `original`'s edge set every second turn.
amix::GraphDelta toggle_edge(const amix::Graph& original, std::uint64_t key,
                             std::uint64_t turn);

/// Inputs to the per-layer metrics that are counts, not spans.
struct LayerCounts {
  bool uses_engine = false;  // specs run through engine::execute_query
  double builds = 0;
  double build_rounds = 0;
  double retries = 0;
  double mst_runs = 0;
  double mst_iterations = 0;
  double mutates = 0;
  double fallback_drops = 0;
  double busy_drops = 0;
  double cache_hits = 0;
  double cache_lookups = 0;
  double merged_groups = 0;
  double shared_groups = 0;
  double counted_ops = 0;
  double token_moves = 0;
  double step_commits = 0;
  double server_errors = 0;
  double server_overhead_ms = 0;
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
};

/// Runs `body` with a TraceRecorder and an obs::ObsInstrument installed
/// and adds the recorder's token-move and step-commit counters to `c`.
template <typename Body>
void counting_pass(LayerCounts& c, std::uint64_t ops, Body&& body) {
  amix::obs::TraceRecorder rec;
  amix::obs::ObsInstrument ins(rec);
  {
    const amix::obs::ScopedRecorder sr(&rec);
    const amix::congest::ScopedInstrument si(&ins);
    body();
  }
  c.counted_ops += static_cast<double>(ops);
  c.token_moves += static_cast<double>(rec.token_moves());
  c.step_commits += static_cast<double>(rec.step_commits());
}

/// The full per-layer metric list, from the traced pass's spans and `c`.
void add_layer_metrics(Result& r, const Tracer& t, const LayerCounts& c);

}  // namespace perfbench
