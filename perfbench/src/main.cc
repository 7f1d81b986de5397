// tcfbench — the serving benchmark of the disconnection set approach.
//
// Drives the stack the daemon assembles (MaintainedDatabase -> QueryService
// -> net::Server on loopback, daemon defaults) with one of three seeded
// workloads, checks every answer against a point-to-point Dijkstra oracle,
// times the same Dijkstra as the single-thread baseline, and prints the
// metrics as one JSON line. perfbench/run.py builds and runs it; see
// perfbench/README.md.
//
//   tcfbench write-db --seed N --out PATH
//       Builds graph B ("keyhole"), saves it as a paged database at PATH
//       and writes the paged-mixed update list to PATH.updates.
//   tcfbench run --workload W --seed N --seconds S --trace 0|1
//                [--db PATH] [--trace-out PATH] [--corrupt-oracle]
//       --trace 0: the measured run, end-to-end metrics.
//       --trace 1: an untraced reference run, a traced run and a per-layer
//                  replay; per-layer metrics. --trace-out writes the spans.
//       --corrupt-oracle: corrupts one expected answer (never the program's
//                  input or output), so the run must report correct=false.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "dsa/service.h"
#include "load.h"
#include "net/server.h"
#include "replay.h"
#include "storage/database_io.h"
#include "trace.h"

using namespace tcfbench;

namespace {

struct Flags {
  std::string mode;
  Workload workload = Workload::kLoneRpc;
  bool have_workload = false;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string db;
  std::string out;
  std::string trace_out;
  bool corrupt_oracle = false;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  if (argc < 2) return false;
  f->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--corrupt-oracle") {
      f->corrupt_oracle = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      if (!ParseWorkload(v, &f->workload)) return false;
      f->have_workload = true;
    } else if (arg == "--seed") {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      f->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      f->trace = std::string(v) == "1";
    } else if (arg == "--db") {
      f->db = v;
    } else if (arg == "--out") {
      f->out = v;
    } else if (arg == "--trace-out") {
      f->trace_out = v;
    } else {
      return false;
    }
  }
  if (f->mode == "write-db") return !f->out.empty();
  if (f->mode != "run" || !f->have_workload || !(f->seconds > 0.0)) {
    return false;
  }
  return f->workload != Workload::kPagedMixed || !f->db.empty();
}

constexpr size_t kBusyFragments = 2;
constexpr size_t kUpdateListLength = 2000;
constexpr size_t kHotPairs = 64;
constexpr double kHotShare = 0.8;
constexpr size_t kSetupRepeats = 9;
/// Measured parts of an untraced run; query figures are their median.
constexpr size_t kParts = 4;

// ---------------------------------------------------------------- write-db

int WriteDb(const Flags& f) {
  const GraphShape shape = KeyholeShape();
  const tcf::TransportationGraph gen = MakeGraph(shape);
  const double t = Now();
  const tcf::Fragmentation frag = FragmentGraph(gen.graph, shape.fragments);
  const tcf::DsaDatabase db(&frag);
  const double build_s = Now() - t;
  const tcf::Status saved = tcf::SaveDatabase(db, f.out);
  if (!saved.ok()) {
    std::fprintf(stderr, "tcfbench: save %s: %s\n", f.out.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  // The updater raises weights inside a fixed pair of "busy" fragments:
  // copy-on-write makes a dirtied fragment resident, so confining updates
  // keeps the other fragments paged and the run steady. The pair is part of
  // the workload, like the graph; the seed picks the edges within it.
  tcf::Rng rng(SubSeed(/*seed=*/1, 3));
  std::vector<size_t> busy = rng.SampleWithoutReplacement(
      frag.NumFragments(), std::min(kBusyFragments, frag.NumFragments()));
  std::vector<uint32_t> edges;
  for (size_t b : busy) {
    const auto& fe = frag.FragmentEdges(static_cast<tcf::FragmentId>(b));
    edges.insert(edges.end(), fe.begin(), fe.end());
  }
  std::sort(edges.begin(), edges.end());
  const std::vector<EdgeUpdate> updates = RaisingUpdates(
      gen.graph, edges, kUpdateListLength, SubSeed(f.seed, 4));
  if (!WriteUpdates(f.out + ".updates", updates)) {
    std::fprintf(stderr, "tcfbench: cannot write %s.updates\n", f.out.c_str());
    return 1;
  }
  std::printf(
      "keyhole database: %zu nodes, %zu edges, %zu fragments, %zu "
      "complementary tuples, built in %.3f s, %.2f MiB\n",
      gen.graph.NumNodes(), gen.graph.NumEdges(), frag.NumFragments(),
      db.complementary().total_tuples, build_s,
      static_cast<double>(std::filesystem::file_size(f.out)) / (1 << 20));
  return 0;
}

// ------------------------------------------------------------- the stack

/// The serving stack as the daemon assembles it. Members are destroyed in
/// reverse order: server first (drains replies), then the service.
struct Stack {
  std::unique_ptr<tcf::MaintainedDatabase> mdb;
  std::shared_ptr<tcf::PagedFile> paged;
  std::unique_ptr<tcf::QueryService> service;
  std::unique_ptr<tcf::Server> server;
  double setup_s = 0.0;
};

size_t PoolBudget(const std::string& path) {
  // About 1/32 of the file, whole pages, never below the pool's floor.
  const size_t page = tcf::kDefaultPageSize;
  const size_t size = static_cast<size_t>(std::filesystem::file_size(path));
  return std::max(2 * page, size / 32 / page * page);
}

/// Set-up: from the start of the database build (or open) until the
/// server accepts connections.
std::unique_ptr<Stack> BuildStack(Workload w, const Graph& g,
                                  size_t fragments, const std::string& db,
                                  size_t budget, SpanLog* log,
                                  std::string* error) {
  auto st = std::make_unique<Stack>();
  ScopedSpan setup(log, "setup");
  const double t0 = Now();
  if (w == Workload::kPagedMixed) {
    ScopedSpan open(log, "storage.open", setup.id());
    tcf::OpenOptions opts;
    opts.mode = tcf::OpenMode::kPaged;
    opts.memory_budget_bytes = budget;
    auto opened = tcf::OpenMaintainedDatabase(db, opts, &st->paged);
    if (!opened.ok()) {
      *error = "open " + db + ": " + opened.status().ToString();
      return nullptr;
    }
    st->mdb = std::move(opened).value();
  } else {
    std::vector<tcf::FragmentId> fragment_of_edge;
    size_t num_fragments = 0;
    {
      ScopedSpan part(log, "fragment.partition", setup.id());
      const tcf::Fragmentation frag = FragmentGraph(g, fragments);
      fragment_of_edge = frag.fragment_of_edge();
      num_fragments = frag.NumFragments();
    }
    ScopedSpan build(log, "dsa.maintained_database", setup.id());
    st->mdb = std::make_unique<tcf::MaintainedDatabase>(
        Graph(g), std::move(fragment_of_edge), num_fragments);
  }
  {
    ScopedSpan start(log, "service.start", setup.id());
    tcf::ServiceOptions sopts;  // the daemon's defaults, spelled out
    sopts.max_batch = 64;
    sopts.max_wait = std::chrono::microseconds(2000);
    sopts.admission_shards = 4;
    sopts.flush_workers = 0;  // one per core
    st->service = std::make_unique<tcf::QueryService>(st->mdb.get(), sopts);
  }
  {
    ScopedSpan start(log, "net.server.start", setup.id());
    st->server = std::make_unique<tcf::Server>(st->service.get());
    const tcf::Status started = st->server->Start();
    if (!started.ok()) {
      *error = "server start: " + started.ToString();
      return nullptr;
    }
  }
  st->setup_s = Now() - t0;
  return st;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Key(Pair p) { return (static_cast<uint64_t>(p.from) << 32) | p.to; }

// ---------------------------------------------------------------- inputs

/// Everything one run sends and everything it checks against, generated
/// from the seed before the stack exists.
struct Inputs {
  Workload workload = Workload::kLoneRpc;
  GraphShape shape;
  TrafficPlan plan;
  tcf::TransportationGraph gen;
  std::vector<QueryStream> streams;
  std::vector<EdgeUpdate> updates;  // updater list (paged) or probes
  std::string db;
  size_t budget = 0;

  // Oracle: exact answers per distinct pair (resident workloads), or the
  // initial- and final-graph distance bounds of a fixed sample (paged).
  std::unique_ptr<PointToPoint> p2p;
  std::unordered_map<uint64_t, Weight> exact;
  struct Bound {
    Weight lo = 0.0;
    Weight hi = 0.0;
  };
  std::map<std::pair<uint32_t, uint32_t>, Bound> bounds;
  double oracle_s = 0.0;

  // Baseline: single-thread point-to-point Dijkstra over the head of
  // connection 0's query list, timed in rounds spread over the run (one
  // before set-up, one after each measured part).
  std::vector<Pair> baseline;
  std::vector<std::vector<double>> baseline_us;  // per query, per round
  std::vector<double> baseline_rounds;           // seconds per round

  void BaselineRound() {
    double total = 0.0;
    baseline_us.resize(baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      const double t0 = Now();
      const Weight d = p2p->Distance(baseline[i].from, baseline[i].to);
      const double us = (Now() - t0) * 1e6;
      if (std::isnan(d)) continue;  // keeps the call observable
      baseline_us[i].push_back(us);
      total += us * 1e-6;
    }
    baseline_rounds.push_back(total);
  }
  /// Queries per second of the median round.
  double DijkstraQps() const {
    const double total = Median(baseline_rounds);
    return total > 0.0 ? static_cast<double>(baseline.size()) / total : 0.0;
  }
  /// Each query's median time over the rounds, in microseconds.
  std::vector<double> DijkstraUs() const {
    std::vector<double> out;
    for (const std::vector<double>& times : baseline_us) {
      out.push_back(Median(times));
    }
    return out;
  }
};

/// Number of open-loop sends whose due time falls inside `duration`.
size_t SendsWithin(double rate, double duration) {
  size_t n = 0;
  while (static_cast<double>(n) / rate < duration) ++n;
  return n;
}

bool MakeInputs(const Flags& f, double duration, Inputs* in,
                std::string* error) {
  in->workload = f.workload;
  in->shape = ShapeOf(f.workload);
  in->plan = PlanOf(f.workload);
  in->gen = MakeGraph(in->shape);
  in->db = f.db;
  const Graph& g = in->gen.graph;
  const size_t n = g.NumNodes();
  const bool paged = f.workload == Workload::kPagedMixed;

  // Hot pairs are stratified: pair i joins clusters (i mod C, i / C mod C),
  // so every seed draws the same mix of ring distances and only the
  // endpoints within each cluster change.
  std::vector<Pair> hot;
  if (f.workload == Workload::kHotSaturate) {
    const size_t clusters = in->shape.clusters;
    std::vector<std::vector<NodeId>> members(clusters);
    for (NodeId v = 0; v < n; ++v) {
      members[static_cast<size_t>(in->gen.cluster_of_node[v])].push_back(v);
    }
    tcf::Rng rng(SubSeed(f.seed, 5));
    for (size_t i = 0; hot.size() < kHotPairs; ++i) {
      const auto& a = members[i % clusters];
      const auto& b = members[i / clusters % clusters];
      const Pair p{a[rng.NextBounded(a.size())], b[rng.NextBounded(b.size())]};
      if (p.from != p.to) hot.push_back(p);
    }
  }
  for (size_t c = 0; c < in->plan.readers; ++c) {
    in->streams.emplace_back(SubSeed(f.seed, 10 + c), n, hot,
                             hot.empty() ? 0.0 : kHotShare);
  }
  if (paged) {
    in->budget = PoolBudget(f.db);
    if (!ReadUpdates(f.db + ".updates", &in->updates) ||
        in->updates.empty()) {
      *error = "cannot read " + f.db + ".updates";
      return false;
    }
  } else {
    in->updates = RestoringProbes(g, kParts, in->plan.probe_updates / kParts,
                                  SubSeed(f.seed, 4));
  }

  // The prefix of each stream a run is expected to send.
  size_t prefix = 0;
  if (in->plan.open_loop) {
    prefix = SendsWithin(in->plan.query_rate / in->plan.readers, duration);
  } else {
    const double per_conn_rate = hot.empty() ? 250.0 : 1500.0;
    prefix = static_cast<size_t>(per_conn_rate * duration) + 1;
  }
  for (QueryStream& s : in->streams) s.At(prefix - 1);

  in->p2p = std::make_unique<PointToPoint>(&g);
  const double t = Now();
  if (!paged) {
    for (QueryStream& s : in->streams) {
      for (const Pair& p : s.generated()) {
        if (!in->exact.count(Key(p))) {
          in->exact[Key(p)] = in->p2p->Distance(p.from, p.to);
        }
      }
    }
    if (f.corrupt_oracle) in->exact[Key(in->streams[0].At(0))] += 1.0;
  } else {
    // Updates only raise weights, so an answer from any epoch lies between
    // the initial-graph and the final-graph distance.
    // Each measured part rounds its sends up, hence the slack of kParts.
    const size_t sent =
        std::min(in->updates.size(),
                 SendsWithin(in->plan.update_rate, duration) + kParts);
    const Graph final_graph = ApplyReweights(
        g, std::vector<EdgeUpdate>(in->updates.begin(),
                                   in->updates.begin() + sent));
    PointToPoint final_p2p(&final_graph);
    tcf::Rng rng(SubSeed(f.seed, 6));
    for (uint32_t c = 0; c < in->streams.size(); ++c) {
      const size_t span = std::min<size_t>(prefix, 600);
      std::vector<size_t> picks = rng.SampleWithoutReplacement(
          span, std::min<size_t>(span, 150));
      picks.push_back(0);
      for (size_t i : picks) {
        const Pair p = in->streams[c].At(i);
        in->bounds[{c, static_cast<uint32_t>(i)}] =
            Inputs::Bound{in->p2p->Distance(p.from, p.to),
                          final_p2p.Distance(p.from, p.to)};
      }
    }
    if (f.corrupt_oracle) in->bounds[{0, 0}].lo += 1e9;
  }
  in->oracle_s = Now() - t;

  const size_t baseline = std::min<size_t>(paged ? 1000 : 2000, prefix);
  for (size_t i = 0; i < baseline; ++i) {
    in->baseline.push_back(in->streams[0].At(i));
  }
  in->BaselineRound();
  return true;
}

// ---------------------------------------------------------------- checks

struct Check {
  size_t checked = 0;
  size_t violations = 0;
};

Check CheckAnswers(Inputs* in, const std::vector<QueryRecord>& queries) {
  Check out;
  for (const QueryRecord& r : queries) {
    if (!r.ok) continue;
    bool good = true;
    if (in->workload != Workload::kPagedMixed) {
      auto it = in->exact.find(Key(r.pair));
      if (it == in->exact.end()) {
        // Past the prefix the oracle answered before the run.
        const Weight d = in->p2p->Distance(r.pair.from, r.pair.to);
        it = in->exact.emplace(Key(r.pair), d).first;
      }
      ++out.checked;
      good = SameCost(r.value, it->second);
      if (!good && out.violations < 5) {
        std::printf("oracle violation: %u -> %u answered %.17g, expected "
                    "%.17g\n",
                    r.pair.from, r.pair.to, r.value, it->second);
      }
    } else {
      auto it = in->bounds.find({r.conn, r.index});
      if (it == in->bounds.end()) continue;
      ++out.checked;
      const Inputs::Bound& b = it->second;
      good = (r.value >= b.lo || SameCost(r.value, b.lo)) &&
             (r.value <= b.hi || SameCost(r.value, b.hi));
      if (!good && out.violations < 5) {
        std::printf("oracle violation: %u -> %u answered %.17g, expected "
                    "within [%.17g, %.17g]\n",
                    r.pair.from, r.pair.to, r.value, b.lo, b.hi);
      }
    }
    if (!good) ++out.violations;
  }
  return out;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.12g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Percentile that warns when fewer than ten samples lie beyond it.
double Tail(const std::vector<double>& v, double p, const char* what) {
  const double beyond = static_cast<double>(v.size()) * (100.0 - p) / 100.0;
  if (beyond < 10.0) {
    std::printf("warning: %s p%g has only %.1f samples beyond it (n=%zu)\n",
                what, p, beyond, v.size());
  }
  return Percentile(v, p);
}

std::vector<double> WindowLatenciesMs(const TrafficResult& tr) {
  std::vector<double> out;
  for (const QueryRecord& r : tr.queries) {
    if (r.ok && r.due >= tr.window_start && r.due < tr.window_end) {
      out.push_back((r.done - r.due) * 1e3);
    }
  }
  return out;
}

std::vector<double> UpdateLatenciesMs(const std::vector<UpdateRecord>& ups,
                                      double from, double to) {
  std::vector<double> out;
  for (const UpdateRecord& r : ups) {
    if (r.ok && r.due >= from && r.due < to) {
      out.push_back((r.done - r.due) * 1e3);
    }
  }
  return out;
}

/// Queries due in the window, answered, per second from the window's start
/// until the last of them was answered.
double Throughput(const TrafficResult& tr) {
  size_t answered = 0;
  double last = tr.window_start;
  for (const QueryRecord& r : tr.queries) {
    if (r.ok && r.due >= tr.window_start && r.due < tr.window_end) {
      ++answered;
      last = std::max(last, r.done);
    }
  }
  return last > tr.window_start
             ? static_cast<double>(answered) / (last - tr.window_start)
             : 0.0;
}

size_t FailedUpdates(const std::vector<UpdateRecord>& ups) {
  size_t n = 0;
  for (const UpdateRecord& r : ups) n += r.ok ? 0 : 1;
  return n;
}

/// One serving run on one stack: `parts` consecutive measured parts,
/// each followed by a round of update probes and, untraced, a round of the
/// Dijkstra baseline.
struct Phase {
  std::vector<TrafficResult> parts;
  TrafficResult traffic;  // every part's records, merged
  std::vector<UpdateRecord> probes;
  tcf::ServiceStats service;
  tcf::ServerStats server;
  tcf::BufferPoolStats pool_before;
  tcf::BufferPoolStats pool_after;
  std::string error;
};

Phase Serve(Stack* stack, Inputs* in, double warm, double seconds,
            size_t parts, Tracer* tracer, SpanLog* log) {
  Phase ph;
  if (stack->paged) ph.pool_before = stack->paged->stats();
  auto tick = [&] {
    if (log == nullptr) return;
    {
      ScopedSpan s(log, "service.stats");
      stack->service->Stats();
    }
    ScopedSpan s(log, "net.server.stats");
    stack->server->stats();
  };
  const uint16_t port = stack->server->port();
  const size_t probes_per_part = in->plan.probe_updates / parts;
  StreamCursor cursor;
  TrafficResult& all = ph.traffic;
  for (size_t k = 0; k < parts && ph.error.empty(); ++k) {
    TrafficResult tr =
        RunTraffic(port, in->plan, &in->streams, in->updates, &cursor,
                   k == 0 ? warm : 0.0, seconds / parts, tracer, tick);
    ph.error = tr.error;
    // Each probe round leaves the graph as it found it (RestoringProbes),
    // so the next part's answers still meet the exact oracle.
    const size_t first = k * probes_per_part;
    if (ph.error.empty() && probes_per_part > 0 &&
        first + probes_per_part <= in->updates.size()) {
      const std::vector<EdgeUpdate> round(
          in->updates.begin() + first,
          in->updates.begin() + first + probes_per_part);
      for (UpdateRecord r : RunProbes(port, round, tracer, &ph.error)) {
        r.index += static_cast<uint32_t>(first);
        ph.probes.push_back(r);
      }
    }
    if (tracer == nullptr) in->BaselineRound();
    if (k == 0) all.window_start = tr.window_start;
    all.window_end = tr.window_end;
    all.queries.insert(all.queries.end(), tr.queries.begin(),
                       tr.queries.end());
    all.updates.insert(all.updates.end(), tr.updates.begin(),
                       tr.updates.end());
    all.lag_ms.insert(all.lag_ms.end(), tr.lag_ms.begin(), tr.lag_ms.end());
    all.falling_behind |= tr.falling_behind;
    all.attempted += tr.attempted;
    all.failed += tr.failed;
    ph.parts.push_back(std::move(tr));
  }
  {
    ScopedSpan s(log, "service.stats");
    ph.service = stack->service->Stats();
  }
  {
    ScopedSpan s(log, "net.server.stats");
    ph.server = stack->server->stats();
  }
  if (stack->paged) ph.pool_after = stack->paged->stats();
  return ph;
}

void PrintPhase(const Phase& ph, const Check& check) {
  const TrafficResult& tr = ph.traffic;
  std::printf(
      "traffic: %zu queries, %zu updates, %zu probes; %zu failed; %zu "
      "parts; answers checked %zu, violations %zu\n",
      tr.queries.size(), tr.updates.size(), ph.probes.size(),
      tr.failed + FailedUpdates(ph.probes), ph.parts.size(), check.checked,
      check.violations);
  if (!tr.lag_ms.empty()) {
    std::printf("open loop: generator lag p99 %.3f ms over %zu sends%s\n",
                Percentile(tr.lag_ms, 99), tr.lag_ms.size(),
                tr.falling_behind ? "; FLAGGED: lag or backlog grew" : "");
  }
  std::printf(
      "service: %zu batches, mean fill %.1f, latency p50 %.3f ms, %zu "
      "rejected; server: %llu requests, %llu error replies\n",
      ph.service.batches, ph.service.MeanBatchFill(),
      ph.service.LatencyPercentileMs(50), ph.service.rejected,
      static_cast<unsigned long long>(ph.server.requests),
      static_cast<unsigned long long>(ph.server.replies_error));
}

// ------------------------------------------------------------------- run

int Run(const Flags& f) {
  const double warm = std::min(1.0, 0.2 * f.seconds);
  const double duration = warm + f.seconds;
  std::printf("tcfbench: workload %s, seed %llu, %g s measured after %g s "
              "warm-up, trace %d\n",
              WorkloadName(f.workload),
              static_cast<unsigned long long>(f.seed), f.seconds, warm,
              f.trace ? 1 : 0);
  Inputs in;
  std::string error;
  if (!MakeInputs(f, duration, &in, &error)) {
    std::fprintf(stderr, "tcfbench: %s\n", error.c_str());
    return 1;
  }
  const Graph& g = in.gen.graph;
  std::printf(
      "inputs: %zu nodes, %zu edges, %zu updates listed; oracle %.3f s "
      "(%zu exact pairs, %zu bounded samples)\n",
      g.NumNodes(), g.NumEdges(), in.updates.size(), in.oracle_s,
      in.exact.size(), in.bounds.size());
  auto print_baseline = [&in] {
    std::printf("Dijkstra baseline: %.0f q/s, p50 %.1f us over %zu queries, "
                "%zu rounds\n",
                in.DijkstraQps(), Percentile(in.DijkstraUs(), 50),
                in.baseline.size(), in.baseline_rounds.size());
  };

  if (!f.trace) {
    std::vector<double> setups;
    std::unique_ptr<Stack> stack;
    for (size_t r = 0; r < kSetupRepeats; ++r) {
      stack.reset();
      stack = BuildStack(f.workload, g, in.shape.fragments, in.db, in.budget,
                         nullptr, &error);
      if (stack == nullptr) {
        std::fprintf(stderr, "tcfbench: %s\n", error.c_str());
        return 1;
      }
      setups.push_back(stack->setup_s);
    }
    Phase ph = Serve(stack.get(), &in, warm, f.seconds, kParts, nullptr,
                     nullptr);
    stack.reset();
    if (!ph.error.empty()) {
      std::fprintf(stderr, "tcfbench: %s\n", ph.error.c_str());
      return 1;
    }
    const Check check = CheckAnswers(&in, ph.traffic.queries);
    PrintPhase(ph, check);

    // Figures are medians over the parts (and over the probe rounds), so a
    // stretch of interference from outside the benchmark moves at most one
    // of them.
    const TrafficResult& tr = ph.traffic;
    std::vector<double> p50s, p90s, qpss, u50s, u75s;
    size_t samples = 0;
    for (const TrafficResult& part : ph.parts) {
      const std::vector<double> lat = WindowLatenciesMs(part);
      samples += lat.size();
      p50s.push_back(Percentile(lat, 50));
      p90s.push_back(Tail(lat, 90, "query latency"));
      qpss.push_back(Throughput(part));
    }
    size_t update_samples = 0;
    if (in.plan.update_rate > 0.0) {
      // A part holds only ~20 updates: pool them past the warm-up.
      const std::vector<double> upd =
          UpdateLatenciesMs(tr.updates, tr.window_start, 1e300);
      update_samples = upd.size();
      u50s.push_back(Percentile(upd, 50));
      u75s.push_back(Tail(upd, 75, "update latency"));
    } else {
      const size_t per_round = in.plan.probe_updates / kParts;
      for (size_t r = 0; r < kParts; ++r) {
        std::vector<UpdateRecord> round;
        for (const UpdateRecord& u : ph.probes) {
          if (u.index / per_round == r) round.push_back(u);
        }
        const std::vector<double> upd = UpdateLatenciesMs(round, 0.0, 1e300);
        update_samples += upd.size();
        u50s.push_back(Percentile(upd, 50));
        u75s.push_back(Tail(upd, 75, "update latency"));
      }
    }
    const double qps = Median(qpss);
    const double q50 = Median(p50s);
    print_baseline();
    std::printf("samples: %zu query latencies in %zu parts, %zu update "
                "latencies, %zu set-ups\n",
                samples, ph.parts.size(), update_samples, setups.size());
    const double dijkstra_qps = in.DijkstraQps();
    const double dijkstra_p50_ms = Percentile(in.DijkstraUs(), 50) / 1e3;
    const std::vector<Metric> metrics = {
        {"setup_s", Percentile(setups, 50), "s"},
        {"query_p50_ms", q50, "ms"},
        {"query_p90_ms", Median(p90s), "ms"},
        {"throughput_qps", qps, "1/s"},
        {"update_p50_ms", Median(u50s), "ms"},
        {"update_p75_ms", Median(u75s), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"qps_vs_dijkstra", dijkstra_qps > 0 ? qps / dijkstra_qps : 0.0,
         "ratio"},
        {"p50_vs_dijkstra", q50 > 0 ? dijkstra_p50_ms / q50 : 0.0, "ratio"},
    };
    const size_t failed = tr.failed + FailedUpdates(ph.probes);
    PrintResult(check.violations == 0 && check.checked > 0,
                tr.attempted + ph.probes.size(), failed, metrics);
    return 0;
  }

  // --trace 1: an untraced reference, then the traced run on a fresh stack,
  // each for half the measured time.
  const double half = f.seconds / 2;
  print_baseline();
  double reference_p50 = 0.0;
  double reference_p99 = 0.0;
  {
    std::unique_ptr<Stack> stack = BuildStack(
        f.workload, g, in.shape.fragments, in.db, in.budget, nullptr, &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "tcfbench: %s\n", error.c_str());
      return 1;
    }
    Phase ref = Serve(stack.get(), &in, warm, half, 1, nullptr, nullptr);
    if (!ref.error.empty()) {
      std::fprintf(stderr, "tcfbench: %s\n", ref.error.c_str());
      return 1;
    }
    const std::vector<double> lat = WindowLatenciesMs(ref.traffic);
    reference_p50 = Percentile(lat, 50);
    reference_p99 = Tail(lat, 99, "query latency");
  }
  Tracer tracer;
  SpanLog* log = tracer.NewLog();
  std::unique_ptr<Stack> stack = BuildStack(f.workload, g, in.shape.fragments,
                                            in.db, in.budget, log, &error);
  if (stack == nullptr) {
    std::fprintf(stderr, "tcfbench: %s\n", error.c_str());
    return 1;
  }
  Phase ph = Serve(stack.get(), &in, warm, half, 1, &tracer, log);
  stack.reset();
  if (!ph.error.empty()) {
    std::fprintf(stderr, "tcfbench: %s\n", ph.error.c_str());
    return 1;
  }
  const Check check = CheckAnswers(&in, ph.traffic.queries);
  PrintPhase(ph, check);
  const TrafficResult& tr = ph.traffic;

  // The recorded stream, in send order, for the replay.
  std::vector<QueryRecord> sent = tr.queries;
  std::sort(sent.begin(), sent.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.sent < b.sent;
            });
  ReplayInput rin;
  rin.workload = f.workload;
  rin.graph = &g;
  rin.fragments = in.shape.fragments;
  rin.db_path = in.db;
  rin.budget_bytes = in.budget;
  for (const QueryRecord& r : sent) rin.stream.push_back(r.pair);
  rin.batch_fills = ph.service.batch_fill.samples();
  rin.batch_budget_seconds = std::max(1.0, f.seconds / 4);
  // Acknowledged updates grouped by the epoch that applied them.
  const std::vector<UpdateRecord>& acked =
      in.plan.update_rate > 0.0 ? tr.updates : ph.probes;
  std::map<uint64_t, std::vector<const UpdateRecord*>> by_epoch;
  for (const UpdateRecord& u : acked) {
    if (u.ok) by_epoch[u.epoch].push_back(&u);
  }
  for (auto& [epoch, ups] : by_epoch) {
    std::sort(ups.begin(), ups.end(),
              [](const UpdateRecord* a, const UpdateRecord* b) {
                return a->index < b->index;
              });
    std::vector<EdgeUpdate> batch;
    double applied_at = 1e300;
    for (const UpdateRecord* u : ups) {
      batch.push_back(in.updates[u->index]);
      applied_at = std::min(applied_at, u->done);
    }
    rin.epochs.push_back(std::move(batch));
    rin.epoch_after.push_back(static_cast<size_t>(
        std::lower_bound(sent.begin(), sent.end(), applied_at,
                         [](const QueryRecord& r, double t) {
                           return r.sent < t;
                         }) -
        sent.begin()));
  }
  // Decomposition sample with its initial-graph answers.
  if (f.workload == Workload::kPagedMixed) {
    for (const auto& [pos, bound] : in.bounds) {
      if (rin.sample.size() >= 150) break;
      if (pos.second >= in.streams[pos.first].generated().size()) continue;
      rin.sample.push_back(in.streams[pos.first].At(pos.second));
      rin.sample_want.push_back(bound.lo);
    }
  } else {
    for (size_t i = 0; i < std::min<size_t>(400, rin.stream.size()); ++i) {
      const Pair p = rin.stream[i];
      rin.sample.push_back(p);
      rin.sample_want.push_back(in.exact.count(Key(p))
                                    ? in.exact[Key(p)]
                                    : in.p2p->Distance(p.from, p.to));
    }
  }
  ReplayOutput ro = ReplayLayers(rin, log);
  if (!ro.error.empty()) {
    std::fprintf(stderr, "tcfbench: %s\n", ro.error.c_str());
    return 1;
  }
  std::printf("replay: %zu queries decomposed (%zu off the oracle), %.0f "
              "replayed in batches, %zu epochs\n",
              rin.sample.size(), ro.violations,
              ro.metrics["batch.replayed_queries"], rin.epochs.size());

  const std::vector<Span> spans = tracer.Collect();
  const SelfTimes self = ComputeSelfTimes(spans);
  std::printf("spans: %zu recorded, %zu self-time violations\n",
              spans.size(), self.violations);
  std::printf("  %-28s %10s %14s\n", "span", "count", "self ms total");
  for (const auto& [name, seconds] : self.self_seconds) {
    std::printf("  %-28s %10zu %14.3f\n", name.c_str(), self.count.at(name),
                seconds * 1e3);
  }
  if (!f.trace_out.empty() && !WriteSpans(f.trace_out, spans)) {
    std::fprintf(stderr, "tcfbench: cannot write %s\n", f.trace_out.c_str());
    return 1;
  }

  std::vector<double> all_lat;
  size_t ok_queries = 0;
  for (const QueryRecord& r : tr.queries) {
    if (!r.ok) continue;
    ++ok_queries;
    all_lat.push_back((r.done - r.due) * 1e3);
  }
  const double traced_p50 = Percentile(WindowLatenciesMs(tr), 50);
  const double svc_p50 = ph.service.LatencyPercentileMs(50);
  const tcf::BufferPoolStats& p0 = ph.pool_before;
  const tcf::BufferPoolStats& p1 = ph.pool_after;
  const double hits = static_cast<double>(p1.hits - p0.hits);
  const double misses = static_cast<double>(p1.misses - p0.misses);
  const size_t failed = tr.failed + FailedUpdates(ph.probes);
  const size_t attempted = tr.attempted + ph.probes.size();
  auto& m = ro.metrics;
  std::vector<Metric> metrics = {
      {"net.overhead_p50_ms", Percentile(all_lat, 50) - svc_p50, "ms"},
      {"net.requests", static_cast<double>(ph.server.requests), "count"},
      {"net.replies_error", static_cast<double>(ph.server.replies_error),
       "count"},
      {"service.latency_p50_ms", svc_p50, "ms"},
      {"service.latency_p99_ms", ph.service.LatencyPercentileMs(99), "ms"},
      {"service.wait_p50_ms", svc_p50 - Percentile(ro.exec_ms, 50), "ms"},
      {"service.batch_fill_mean", ph.service.MeanBatchFill(), "queries"},
      {"service.rejected", static_cast<double>(ph.service.rejected), "count"},
  };
  const std::vector<std::pair<const char*, const char*>> replayed = {
      {"batch.plan_ms", "ms/kq"},
      {"batch.phase1_ms", "ms/kq"},
      {"batch.assemble_ms", "ms/kq"},
      {"batch.dedup_savings", "ratio"},
      {"batch.plan_memo_hit_rate", "ratio"},
      {"batch.interned_plan_hit_rate", "ratio"},
      {"batch.skeleton_hit_rate", "ratio"},
      {"plan.us_per_query", "us"},
      {"plan.chains_per_query", "count"},
      {"site.subqueries_per_query", "count"},
      {"site.sources_per_subquery", "count"},
      {"site.settled_per_subquery", "count"},
      {"site.subquery_us_p50", "us"},
      {"site.subquery_us_p99", "us"},
      {"executor.fanout_gap_us", "us"},
      {"assemble.us_per_query", "us"},
      {"assemble.join_tuples_per_query", "count"},
      {"complementary.precompute_ms", "ms"},
      {"complementary.tuples", "count"},
      {"complementary.searches", "count"},
      {"fragment.ms", "ms"},
      {"fragment.avg_ds_nodes", "count"},
      {"fragment.avg_fragment_edges", "count"},
      {"fragment.dev_fragment_edges", "count"},
      {"storage.open_ms", "ms"},
  };
  for (const auto& [name, unit] : replayed) {
    metrics.push_back({name, m[name], unit});
  }
  const std::vector<Metric> rest = {
      {"storage.pool_hit_rate",
       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"storage.misses_per_query",
       ok_queries > 0 ? misses / static_cast<double>(ok_queries) : 0.0,
       "count"},
      {"storage.evictions", static_cast<double>(p1.evictions - p0.evictions),
       "count"},
      {"storage.pin_failures",
       static_cast<double>(p1.pin_failures - p0.pin_failures), "count"},
      {"maint.epoch_ms_p50", m["maint.epoch_ms_p50"], "ms"},
      {"maint.epoch_ms_p99", m["maint.epoch_ms_p99"], "ms"},
      {"maint.updates_per_epoch", m["maint.updates_per_epoch"], "count"},
      {"maint.dirty_borders", m["maint.dirty_borders"], "count"},
      {"maint.reused_borders", m["maint.reused_borders"], "count"},
      {"graph.dijkstra_us_p50", Percentile(in.DijkstraUs(), 50), "us"},
      {"bench.query_p99_ms", reference_p99, "ms"},
      {"bench.generator_lag_p99_ms", Percentile(tr.lag_ms, 99), "ms"},
      {"bench.tracing_overhead",
       reference_p50 > 0 ? traced_p50 / reference_p50 - 1.0 : 0.0, "ratio"},
      {"bench.fail_frac",
       attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
       "ratio"},
      {"bench.falling_behind", tr.falling_behind ? 1.0 : 0.0, "flag"},
      {"bench.span_violations", static_cast<double>(self.violations),
       "count"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  PrintResult(check.violations == 0 && check.checked > 0 &&
                  ro.violations == 0 && self.violations == 0,
              attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s write-db --seed N --out PATH\n"
                 "       %s run --workload lone-rpc|hot-saturate|paged-mixed "
                 "--seed N --seconds S --trace 0|1 [--db PATH] "
                 "[--trace-out PATH] [--corrupt-oracle]\n",
                 argv[0], argv[0]);
    return 2;
  }
  return flags.mode == "write-db" ? WriteDb(flags) : Run(flags);
}
