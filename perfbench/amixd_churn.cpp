// amixd-churn: an in-process amixd (server::Server, 2 workers, no tenant
// bound, default params) serving two instances with different content,
// g0 and g1, each random_regular(n, 6) with its own seed. Two persistent
// connections, each a closed loop on its own thread:
//
//   A: query requests on g0 with body
//      {route perm 1, matching, sssp <src> 0, walks 64 16};
//   B: one mutate on g1 (delete one edge; re-insert it on the next turn)
//      followed by the same query body on g1.
//
// This is the only workload with the wire, admission, the shared cache
// and the repair path: reads are lock-free cache hits, writes go through
// apply_delta repair, which can fall back to a rebuild. It has no mst
// line. Only B touches g1, so patch-or-fallback outcomes are
// deterministic; g0 and g1 differ in content because the content-keyed
// cache would merge equal instances, and B's mutates would then drop A's
// entry at random times.
//
// After the timed phase every response's replayable tail is compared
// byte for byte with an in-process serial replay (parse_mix_line +
// execute_query + fold_batch with Session::call_seed; g1 replayed through
// the same mutate history on a second SharedHierarchyCache): the
// `amixctl client --verify` contract. A cycles through kVariants request
// bodies, so its replay is one execution per distinct body.
//
// The process is confined to two CPUs first. Each request hands off
// client -> worker -> client; on four mostly idle vCPUs every hand-off
// wakes a halted vCPU the hypervisor must schedule first, and under host
// load those wake-ups made latency_p90 swing by 30% between runs. On two
// CPUs the woken thread lands on a CPU that is already running. Both
// workers still compute in parallel.

#include <sched.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "amix_layers.hpp"
#include "server/client.hpp"
#include "server/mix.hpp"
#include "server/server.hpp"

namespace perfbench {

using namespace amix;

namespace {

constexpr std::uint64_t kGraphStream = 0x616d697864677200ULL;
constexpr std::uint64_t kEdgeStream = 0x616d697864656400ULL;
// Timed requests per requested second on A, and mutate+query pairs per
// run on B: sized so one run takes about --seconds on a 4-vCPU x86 VM
// and both connections stay busy for most of it.
constexpr double kReadsPerSecond = 130.0;
constexpr double kWritesPerSecond = 8.0;
constexpr std::uint64_t kVariants = 64;
constexpr std::uint32_t kLines = 4;

struct Instance {
  NodeId n = 0;
  std::uint32_t walks = 0;
  Graph g0, g1;
  HierarchyParams params;
  std::uint64_t seed_a = 0, seed_b = 0;
};

Instance make_instance(const Config& cfg) {
  Instance in;
  in.n = cfg.tiny ? 64 : 256;
  in.walks = cfg.tiny ? 16 : 64;
  Rng r0(keyed_u64(cfg.seed, kGraphStream, 0));
  in.g0 = gen::random_regular(in.n, 6, r0);
  Rng r1(keyed_u64(cfg.seed, kGraphStream, 1));
  in.g1 = gen::random_regular(in.n, 6, r1);
  in.params.seed = keyed_u64(cfg.seed, kGraphStream, 2);
  in.seed_a = keyed_u64(cfg.seed, kGraphStream, 3);
  in.seed_b = keyed_u64(cfg.seed, kGraphStream, 4);
  return in;
}

std::vector<std::string> query_body(const Instance& in, std::uint64_t src,
                                    bool unsupported) {
  std::vector<std::string> lines = {
      "route perm 1", "matching", "sssp " + std::to_string(src % in.n) + " 0",
      "walks " + std::to_string(in.walks) + " 16"};
  if (unsupported) lines.push_back("frobnicate");
  return lines;
}

server::RequestHeader query_header(const std::string& graph,
                                   const std::string& tenant,
                                   std::uint64_t seed, std::uint64_t base,
                                   std::size_t lines) {
  server::RequestHeader h;
  h.verb = server::Verb::kQuery;
  h.graph = graph;
  h.tenant = tenant;
  h.seed = seed;
  h.base = base;
  h.lines = static_cast<std::uint32_t>(lines);
  return h;
}

// A's request r uses body variant r mod kVariants; B's turn t queries with
// base kLines * t.
std::uint64_t a_base(std::uint64_t v) { return kLines * v; }
std::uint64_t a_src(std::uint64_t v) { return 37 * v + 5; }
std::uint64_t b_src(std::uint64_t t) { return 37 * t + 11; }

GraphDelta write_delta(const Instance& in, std::uint64_t t) {
  return toggle_edge(in.g1, keyed_u64(in.seed_b, kEdgeStream, 0), t);
}

std::string delta_line(const EdgeDelta& d) {
  return std::string(d.insert ? "insert " : "delete ") + std::to_string(d.u) +
         " " + std::to_string(d.v);
}

/// The u64 after "key": in a flat JSON body, or 0 when absent.
std::uint64_t json_u64(const std::string& body, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = body.find(pat);
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + pat.size(), nullptr, 10);
}

/// Everything from "batch_rounds" on: the part of a query response that
/// is a pure function of (graph content, params, seed, base, body).
std::string response_tail(const std::string& body) {
  const auto pos = body.find("\"batch_rounds\"");
  return pos == std::string::npos ? std::string() : body.substr(pos);
}

/// One completed round trip as the client saw it.
struct Reply {
  bool ok = false;
  std::string body;   // when ok
  std::string error;  // transport failure or typed wire error
  Clock::time_point start;
  double ms = 0;
  std::int32_t span = -1;  // its server.request / server.mutate span
};

Reply send(server::Client& c, const server::RequestHeader& h,
           const std::vector<std::string>& lines, Tracer* t,
           const char* span) {
  Reply rep;
  server::ResponseHeader resp;
  std::string err;
  const auto t0 = rep.start = Clock::now();
  bool transport = false;
  {
    const Scope s(t, span);
    if (t != nullptr) rep.span = t->current();
    transport = c.request(h, lines, &resp, &rep.body, &err);
  }
  rep.ms = ms_between(t0, Clock::now());
  if (!transport) {
    rep.error = "transport: " + err;
  } else if (!resp.ok) {
    rep.error = std::string(server::error_code_name(resp.code)) + ": " +
                resp.error_msg;
  } else {
    rep.ok = true;
  }
  return rep;
}

/// Restrict this thread, and so every thread it starts later (server
/// workers, client loops), to the last two CPUs it may run on.
void confine_to_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
      CPU_COUNT(&allowed) <= 2) {
    return;
  }
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = CPU_SETSIZE - 1, picked = 0; cpu >= 0 && picked < 2; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  sched_setaffinity(0, sizeof two, &two);
}

struct Daemon {
  std::unique_ptr<server::Server> srv;
  server::Client a, b;
};

void stop_daemon(Daemon& d) {
  d.a.close();
  d.b.close();
  if (d.srv) d.srv->shutdown();
}

/// Start a server on `in`, connect both clients, and build both cached
/// hierarchies with one warm query each (untimed by the caller's ops).
std::string start_daemon(const Instance& in, Daemon& d) {
  server::ServerOptions opt;
  opt.workers = 2;
  opt.tenant_inflight = 0;
  opt.hierarchy = in.params;
  d.srv = std::make_unique<server::Server>(opt);
  d.srv->register_graph("g0", in.g0);
  d.srv->register_graph("g1", in.g1);
  std::string err;
  if (!d.srv->start(&err) || !d.a.connect_to(d.srv->port(), &err) ||
      !d.b.connect_to(d.srv->port(), &err)) {
    return "start: " + err;
  }
  const auto body = query_body(in, 0, false);
  // Warm bases sit past every timed request's call indices.
  const std::uint64_t warm = 1ULL << 40;
  for (auto [c, g] : {std::pair{&d.a, "g0"}, std::pair{&d.b, "g1"}}) {
    const Reply r = send(*c, query_header(g, "warm", in.seed_a, warm,
                                          body.size()),
                         body, nullptr, "");
    if (!r.ok) return std::string("warm query on ") + g + ": " + r.error;
  }
  return {};
}

/// The serial in-process replay of one query request: the same grammar,
/// call seeds and execute/fold path the server workers use, formatted as
/// the response tail. When tracing, its spans go to `t` as roots, with
/// any hierarchy build the cache lookup ran imported from `rec`.
std::string replay_query(const server::GraphState& gs,
                         server::SharedHierarchyCache& cache,
                         std::uint64_t seed, std::uint64_t base,
                         const std::vector<std::string>& lines, Tracer* t,
                         obs::TraceRecorder* rec, BatchReport* out) {
  std::vector<QuerySpec> specs;
  {
    const Scope s(t, "server.parse");
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      QuerySpec spec;
      std::string err;
      if (server::parse_mix_line(gs.graph, nullptr, lines[i], base + i,
                                 Session::call_seed(seed, base + i), &spec,
                                 &err) != server::MixParse::kQuery) {
        return {};
      }
      specs.push_back(std::move(spec));
    }
  }
  server::SharedHierarchyCache::Lookup lk;
  std::int32_t lookup = -1;
  {
    const Scope s(t, "engine.cache_lookup");
    if (t != nullptr) lookup = t->current();
    lk = cache.get_or_build(gs);
  }
  if (t != nullptr) import_build_spans(*rec, *t, lookup, false);
  *out = execute_and_fold(*lk.entry, specs, t);
  const Scope s(t, "engine.report_json");
  const BatchReport& b = *out;
  std::ostringstream os;
  os << "\"batch_rounds\":"
     << b.multiplexed_transport_rounds + b.serialized_rounds
     << ",\"multiplexed_transport_rounds\":" << b.multiplexed_transport_rounds
     << ",\"serialized_rounds\":" << b.serialized_rounds
     << ",\"standalone_query_rounds\":" << b.standalone_query_rounds
     << ",\"queries\":[";
  for (std::size_t i = 0; i < b.queries.size(); ++i) {
    if (i != 0) os << ',';
    b.queries[i].to_json(os);
  }
  os << "]}";
  return os.str();
}

/// Copy `from`'s spans under `parent` in `to` (roots of `from` become
/// children of `parent`): the in-process work the server did for one
/// request, measured by its serial replay. Returns the roots' total ms.
double attach_replay(const Tracer& from, Tracer& to, std::int32_t parent) {
  to.set_op(to.spans()[static_cast<std::size_t>(parent)].op);
  std::vector<std::int32_t> idx(from.spans().size());
  double root_ms = 0;
  for (std::size_t i = 0; i < from.spans().size(); ++i) {
    const SpanRec& s = from.spans()[i];
    if (s.parent < 0) root_ms += static_cast<double>(s.dur_ns) / 1e6;
    idx[i] = to.add(s.name, s.dur_ns,
                    s.parent < 0 ? parent
                                 : idx[static_cast<std::size_t>(s.parent)]);
  }
  return root_ms;
}

struct Timed {
  std::vector<Reply> a;                         // A's query replies
  std::vector<std::pair<Reply, Reply>> b;       // B's (mutate, query)
  std::vector<double> write_ms;
  Tracer ta, tb;
};

/// The timed phase: both connections' closed loops, concurrently.
void timed_phase(const Instance& in, Daemon& d, std::size_t reads,
                 std::size_t writes, bool inject, bool trace, Timed& out) {
  out.a.resize(reads);
  out.b.resize(writes);
  out.write_ms.resize(writes);
  Tracer* ta = trace ? &out.ta : nullptr;
  Tracer* tb = trace ? &out.tb : nullptr;
  std::jthread thread_a([&] {
    for (std::uint64_t r = 0; r < reads; ++r) {
      const std::uint64_t v = r % kVariants;
      const auto body = query_body(in, a_src(v), inject && r == 1);
      if (ta != nullptr) ta->set_op(static_cast<std::int64_t>(r));
      out.a[r] = send(d.a,
                      query_header("g0", "a", in.seed_a, a_base(v),
                                   body.size()),
                      body, ta, "server.request");
    }
  });
  std::jthread thread_b([&] {
    for (std::uint64_t t = 0; t < writes; ++t) {
      server::RequestHeader mh;
      mh.verb = server::Verb::kMutate;
      mh.graph = "g1";
      mh.tenant = "b";
      mh.lines = 1;
      const std::vector<std::string> mbody = {
          delta_line(write_delta(in, t)[0])};
      const auto body = query_body(in, b_src(t), false);
      if (tb != nullptr) tb->set_op(static_cast<std::int64_t>(reads + t));
      const auto w0 = Clock::now();
      const Scope s(tb, "amixd.write");
      out.b[t].first = send(d.b, mh, mbody, tb, "server.mutate");
      out.b[t].second = send(d.b,
                             query_header("g1", "b", in.seed_b, kLines * t,
                                          body.size()),
                             body, tb, "server.request");
      out.write_ms[t] = ms_between(w0, Clock::now());
    }
  });
  thread_a.join();
  thread_b.join();
}

/// Replays a timed phase serially and compares every response with it;
/// fills the pass's latency, write and round samples. `corrupt_first`
/// (self-test) corrupts the first expected B tail. When `traced`, the
/// replay's spans are attached under each request's client-side span and
/// the per-request server overhead (request minus replay) is collected.
void verify_phase(const Instance& in, Timed& tm, bool traced,
                  bool corrupt_first, Result& r, PassTimes& p,
                  LayerCounts& c, std::vector<double>& overhead_ms) {
  obs::TraceRecorder rec;
  std::optional<obs::ScopedRecorder> installed;
  if (traced) installed.emplace(&rec);
  server::SharedHierarchyCache cache(in.params);
  cache.register_graph("g0", in.g0);
  cache.register_graph("g1", in.g1);
  // The daemon's set-up built both entries before the timed phase.
  cache.get_or_build(*cache.graph("g0"));
  cache.get_or_build(*cache.graph("g1"));
  rec.clear();
  auto check = [&r](const Reply& rep, const std::string& want,
                    const std::string& what) {
    ++r.attempted;
    if (!rep.ok) {
      r.fail(what + ": " + rep.error);
    } else if (response_tail(rep.body) != want) {
      r.fail(what + ": response differs from the serial replay");
    }
  };
  std::vector<std::pair<Clock::time_point, double>> queries;
  Loop loop_a;
  auto account = [&c](const BatchReport& b) {
    c.merged_groups += static_cast<double>(b.merged_groups);
    c.shared_groups += static_cast<double>(b.merged_shared_groups);
  };

  const std::uint64_t variants =
      std::min<std::uint64_t>(kVariants, tm.a.size());
  std::vector<std::string> expected(variants);
  std::vector<Tracer> variant_spans(variants);
  for (std::uint64_t v = 0; v < variants; ++v) {
    BatchReport b;
    Tracer* vt = traced ? &variant_spans[v] : nullptr;
    expected[v] = replay_query(*cache.graph("g0"), cache, in.seed_a,
                               a_base(v), query_body(in, a_src(v), false), vt,
                               &rec, &b);
    account(b);
  }
  for (std::uint64_t q = 0; q < tm.a.size(); ++q) {
    const Reply& rep = tm.a[q];
    check(rep, expected[q % kVariants], "A request " + std::to_string(q));
    if (!rep.ok) continue;
    queries.emplace_back(rep.start, rep.ms);
    loop_a.ms.push_back(rep.ms);
    p.rounds += json_u64(rep.body, "build_rounds") +
                json_u64(rep.body, "batch_rounds");
    if (traced) {
      overhead_ms.push_back(
          rep.ms - attach_replay(variant_spans[q % kVariants], tm.ta,
                                 rep.span));
    }
  }

  for (std::uint64_t w = 0; w < tm.b.size(); ++w) {
    const auto& [mut, qry] = tm.b[w];
    const std::string at = "B turn " + std::to_string(w);
    Tracer mutate_spans, query_spans;
    server::SharedHierarchyCache::MutateResult m;
    {
      const Scope s(traced ? &mutate_spans : nullptr, "hierarchy.repair");
      m = cache.mutate("g1", write_delta(in, w));
    }
    rec.clear();  // the repair's own spans stay inside hierarchy.repair
    ++r.attempted;
    if (!mut.ok) {
      r.fail(at + " mutate: " + mut.error);
    } else if (json_u64(mut.body, "new_fp") != m.new_fp ||
               json_u64(mut.body, "patched") != (m.patched ? 1u : 0u) ||
               json_u64(mut.body, "dropped_fallback") !=
                   (m.dropped_fallback ? 1u : 0u) ||
               json_u64(mut.body, "repair_rounds") != m.repair_rounds) {
      r.fail(at + " mutate: outcome differs from the serial replay");
    }
    BatchReport b;
    std::string want = replay_query(
        *cache.graph("g1"), cache, in.seed_b, kLines * w,
        query_body(in, b_src(w), false), traced ? &query_spans : nullptr,
        &rec, &b);
    account(b);
    if (corrupt_first && w == 0) want += "corrupted";
    check(qry, want, at + " query");
    if (!mut.ok || !qry.ok) continue;
    queries.emplace_back(qry.start, qry.ms);
    p.write_ms.push_back(tm.write_ms[w]);
    p.rounds += json_u64(mut.body, "repair_rounds") +
                json_u64(qry.body, "build_rounds") +
                json_u64(qry.body, "batch_rounds");
    if (traced) {
      attach_replay(mutate_spans, tm.tb, mut.span);
      overhead_ms.push_back(qry.ms -
                            attach_replay(query_spans, tm.tb, qry.span));
    }
  }
  std::sort(queries.begin(), queries.end());
  for (const auto& q : queries) p.latency_ms.push_back(q.second);
  // A completes one request per sample, B two (mutate + query).
  p.loops = {loop_a, Loop{p.write_ms, 2}};
  p.ops = tm.a.size() + 2 * tm.b.size();
}

}  // namespace

Result run_amixd_churn(const Config& cfg) {
  Result r;
  const std::size_t reads = op_count(cfg, kReadsPerSecond);
  const std::size_t writes = op_count(cfg, kWritesPerSecond);
  const Instance in = make_instance(cfg);
  confine_to_two_cpus();

  // Set-up: server start, connects, both cold builds. Three times; the
  // last daemon serves the timed phase.
  std::vector<double> setup_s;
  Daemon d;
  for (int i = 0; i < 3; ++i) {
    stop_daemon(d);
    d = Daemon{};
    const auto t0 = Clock::now();
    const std::string err = start_daemon(in, d);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    ++r.attempted;
    if (!err.empty()) {
      r.fail(err);
      stop_daemon(d);
      return r;
    }
  }

  Timed tm;
  timed_phase(in, d, reads, writes, cfg.inject_failure, false, tm);
  const server::SharedHierarchyCache::Stats cs = d.srv->cache().stats();
  const server::Server::Stats ss = d.srv->stats();
  stop_daemon(d);
  PassTimes p;
  LayerCounts c;
  std::vector<double> overhead_ms;
  verify_phase(in, tm, false, cfg.inject_failure, r, p, c, overhead_ms);
  add_end_to_end(r, setup_s, p);
  if (!cfg.trace) return r;

  c.uses_engine = true;
  c.untraced_ops_per_s = ops_per_s(p.loops);
  c.mutates = static_cast<double>(writes);
  c.fallback_drops = static_cast<double>(cs.fallback_drops);
  c.busy_drops = static_cast<double>(cs.busy_drops);
  c.cache_hits = static_cast<double>(cs.hits);
  c.cache_lookups = static_cast<double>(cs.hits + cs.misses);
  c.server_errors = static_cast<double>(ss.shed_overloaded + ss.shed_tenant +
                                        ss.bad_requests + ss.timeouts +
                                        ss.internal_errors);

  // Traced pass: the same sequence on a fresh daemon, with client-side
  // spans; the set-up builds are traced through a serial cache.
  Tracer& t = r.spans;
  {
    obs::TraceRecorder rec;
    const obs::ScopedRecorder installed(&rec);
    server::SharedHierarchyCache cache(in.params);
    for (const auto& [name, g] :
         {std::pair{"g0", &in.g0}, std::pair{"g1", &in.g1}}) {
      cache.register_graph(name, *g);
      std::int32_t span = -1;
      server::SharedHierarchyCache::Lookup lk;
      {
        const Scope s(&t, "amixd.setup_build");
        span = t.current();
        lk = cache.get_or_build(*cache.graph(name));
      }
      import_build_spans(rec, t, span, false);
      c.builds += 1;
      c.build_rounds += static_cast<double>(lk.entry->build_rounds());
      c.retries += lk.entry->hierarchy().stats().retries;
    }
  }
  d = Daemon{};
  if (const std::string err = start_daemon(in, d); !err.empty()) {
    r.fail(err);
    stop_daemon(d);
    return r;
  }
  Timed traced;
  timed_phase(in, d, reads, writes, false, true, traced);
  stop_daemon(d);
  PassTimes tp;
  verify_phase(in, traced, true, false, r, tp, c, overhead_ms);
  c.traced_ops_per_s = ops_per_s(tp.loops);
  c.server_overhead_ms = median(overhead_ms);
  t.merge(traced.ta);
  t.merge(traced.tb);

  server::SharedHierarchyCache cache(in.params);
  cache.register_graph("g0", in.g0);
  cache.get_or_build(*cache.graph("g0"));
  const std::uint64_t counted = std::min<std::uint64_t>(reads, 4);
  counting_pass(c, counted, [&] {
    for (std::uint64_t q = 0; q < counted; ++q) {
      BatchReport b;
      replay_query(*cache.graph("g0"), cache, in.seed_a,
                   a_base(q % kVariants),
                   query_body(in, a_src(q % kVariants), false), nullptr,
                   nullptr, &b);
    }
  });
  add_layer_metrics(r, t, c);
  return r;
}

}  // namespace perfbench
