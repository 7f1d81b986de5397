#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "dsa/batch.h"
#include "dsa/executor.h"
#include "dsa/query_api.h"
#include "fragment/metrics.h"
#include "storage/database_io.h"

namespace tcfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t r = std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size());
  return v[r - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

double Ratio(size_t hits, size_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) / (hits + misses);
}

/// Plans, runs and assembles each sampled query through the executor's
/// free functions, timing every stage.
void Decompose(const tcf::Fragmentation& frag, const tcf::DsaDatabase& db,
               const ReplayInput& in, SpanLog* log, ReplayOutput* out) {
  // A plan cache of the database's default capacities, warmed by the
  // sample itself as the database's own cache is warmed by the stream.
  tcf::ChainPlanCache cache;
  const tcf::ComplementaryInfo* comp = &db.complementary();
  const tcf::LocalEngine engine = db.options().engine;
  std::vector<double> plan_us, chains, subqueries, sources, settled, site_us,
      gap_us, assemble_us, join_tuples;
  for (size_t i = 0; i < in.sample.size(); ++i) {
    const Pair p = in.sample[i];
    const uint64_t req = i + 1;
    ScopedSpan query(log, "replay.query", 0, req);

    tcf::SpecTable specs;
    double t = Now();
    const tcf::QueryPlan plan = tcf::BuildQueryPlan(
        frag, p.from, p.to, db.options().max_chains, &cache, &specs);
    double t1 = Now();
    log->Add("dsa.plan", query.id(), req, t, t1);
    plan_us.push_back((t1 - t) * 1e6);
    chains.push_back(static_cast<double>(plan.chains.size()));
    subqueries.push_back(static_cast<double>(specs.size()));

    tcf::ExecutionReport sites_report;
    t = Now();
    const std::vector<tcf::LocalQueryResult> results = tcf::RunSites(
        frag, comp, specs.specs(), engine, db.pool(), &sites_report);
    t1 = Now();
    log->Add("dsa.run_sites", query.id(), req, t, t1);
    const double fanout = t1 - t;

    double slowest = 0.0;
    for (const tcf::LocalQuerySpec& spec : specs.specs()) {
      t = Now();
      const tcf::LocalQueryResult local =
          tcf::RunLocalQuery(frag, comp, spec, engine);
      t1 = Now();
      log->Add("dsa.local_query", query.id(), req, t, t1);
      site_us.push_back((t1 - t) * 1e6);
      slowest = std::max(slowest, t1 - t);
      sources.push_back(static_cast<double>(spec.sources.size()));
      settled.push_back(static_cast<double>(local.stats.iterations));
    }
    gap_us.push_back((fanout - slowest) * 1e6);

    tcf::ExecutionReport assembly;
    t = Now();
    const tcf::QueryAnswer answer = tcf::AssembleCostAnswer(
        frag, plan, specs.specs(), p.from, p.to, results, &assembly);
    t1 = Now();
    log->Add("dsa.assemble", query.id(), req, t, t1);
    assemble_us.push_back((t1 - t) * 1e6);
    join_tuples.push_back(static_cast<double>(assembly.assembly_join_tuples));

    bool sites_ok = true;
    for (const tcf::LocalQueryResult& r : results) sites_ok &= r.status.ok();
    if (!sites_ok || !answer.status.ok() ||
        !SameCost(answer.cost, in.sample_want[i])) {
      ++out->violations;
    }
  }
  auto& m = out->metrics;
  m["plan.us_per_query"] = Mean(plan_us);
  m["plan.chains_per_query"] = Mean(chains);
  m["site.subqueries_per_query"] = Mean(subqueries);
  m["site.sources_per_subquery"] = Mean(sources);
  m["site.settled_per_subquery"] = Mean(settled);
  m["site.subquery_us_p50"] = Percentile(site_us, 50);
  m["site.subquery_us_p99"] = Percentile(site_us, 99);
  m["executor.fanout_gap_us"] = Percentile(gap_us, 50);
  m["assemble.us_per_query"] = Mean(assemble_us);
  m["assemble.join_tuples_per_query"] = Mean(join_tuples);
}

struct EpochMeter {
  std::vector<double> ms, ops, dirty, reused;

  void Apply(tcf::MaintainedDatabase* mdb,
             const std::vector<EdgeUpdate>& updates, SpanLog* log) {
    const double t = Now();
    const tcf::EpochStats stats = mdb->ApplyEpoch(updates);
    const double t1 = Now();
    log->Add("dsa.apply_epoch", 0, 0, t, t1);
    ms.push_back((t1 - t) * 1e3);
    ops.push_back(static_cast<double>(stats.ops_applied));
    dirty.push_back(static_cast<double>(stats.dirty_border_nodes));
    reused.push_back(static_cast<double>(stats.reused_border_nodes));
  }
};

}  // namespace

ReplayOutput ReplayLayers(const ReplayInput& in, SpanLog* log) {
  ReplayOutput out;
  auto& m = out.metrics;
  const bool paged = in.workload == Workload::kPagedMixed;

  // Build from scratch: fragmenter, characteristics, database constructor
  // (whose cost is the complementary precompute).
  const uint64_t build = log->Open("replay.build");
  double t = Now();
  const tcf::Fragmentation frag = FragmentGraph(*in.graph, in.fragments);
  double t1 = Now();
  log->Add("fragment.partition", build, 0, t, t1);
  m["fragment.ms"] = (t1 - t) * 1e3;
  t = Now();
  const tcf::FragmentationCharacteristics ch =
      tcf::ComputeCharacteristics(frag);
  t1 = Now();
  log->Add("fragment.characteristics", build, 0, t, t1);
  m["fragment.avg_ds_nodes"] = ch.avg_ds_nodes;
  m["fragment.avg_fragment_edges"] = ch.avg_fragment_edges;
  m["fragment.dev_fragment_edges"] = ch.dev_fragment_edges;
  t = Now();
  auto fresh = std::make_unique<tcf::DsaDatabase>(&frag);
  t1 = Now();
  log->Add("dsa.database", build, 0, t, t1);
  log->Close(build);
  m["complementary.precompute_ms"] = (t1 - t) * 1e3;
  m["complementary.tuples"] =
      static_cast<double>(fresh->complementary().total_tuples);
  m["complementary.searches"] =
      static_cast<double>(fresh->complementary().searches);

  // The database the stream is replayed on: the fresh build, or a fresh
  // paged open of the served file.
  std::unique_ptr<tcf::MaintainedDatabase> mdb;
  tcf::DsaSnapshot snapshot;
  const tcf::DsaDatabase* db = fresh.get();
  const tcf::Fragmentation* qfrag = &frag;
  m["storage.open_ms"] = 0.0;
  if (paged) {
    fresh.reset();
    tcf::OpenOptions opts;
    opts.mode = tcf::OpenMode::kPaged;
    opts.memory_budget_bytes = in.budget_bytes;
    t = Now();
    auto opened = tcf::OpenMaintainedDatabase(in.db_path, opts);
    t1 = Now();
    if (!opened.ok()) {
      out.error = "replay open: " + opened.status().ToString();
      return out;
    }
    log->Add("storage.open", 0, 0, t, t1);
    m["storage.open_ms"] = (t1 - t) * 1e3;
    mdb = std::move(opened).value();
    snapshot = mdb->Snapshot();
    db = snapshot.db.get();
    qfrag = snapshot.frag.get();
  }

  Decompose(*qfrag, *db, in, log, &out);

  // Batch replay in send order, chunked by the recorded batch sizes, with
  // the acknowledged epochs applied where they landed in the stream.
  EpochMeter epochs;
  size_t next_epoch = 0;
  size_t pos = 0;
  size_t queries = 0;
  tcf::BatchStats sum;
  const double stop_at = Now() + in.batch_budget_seconds;
  for (double fill : in.batch_fills) {
    if (pos >= in.stream.size() || Now() > stop_at) break;
    while (mdb != nullptr && next_epoch < in.epochs.size() &&
           in.epoch_after[next_epoch] <= pos) {
      epochs.Apply(mdb.get(), in.epochs[next_epoch++], log);
      snapshot = mdb->Snapshot();
      db = snapshot.db.get();
    }
    const size_t n = std::min(static_cast<size_t>(std::max(1.0, fill)),
                              in.stream.size() - pos);
    std::vector<tcf::Query> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(tcf::Query{in.stream[pos + i].from, in.stream[pos + i].to,
                                 tcf::QueryKind::kCost});
    }
    const tcf::BatchExecutor executor(db);
    t = Now();
    const tcf::BatchResult result = executor.Execute(batch);
    t1 = Now();
    log->Add("dsa.batch_execute", 0, 0, t, t1);
    out.exec_ms.insert(out.exec_ms.end(), n, (t1 - t) * 1e3);
    const tcf::BatchStats& s = result.stats;
    sum.subqueries_requested += s.subqueries_requested;
    sum.subqueries_executed += s.subqueries_executed;
    sum.plan_cache_hits += s.plan_cache_hits;
    sum.plan_cache_misses += s.plan_cache_misses;
    sum.plan_memo_hits += s.plan_memo_hits;
    sum.plan_memo_misses += s.plan_memo_misses;
    sum.interned_plan_hits += s.interned_plan_hits;
    sum.interned_plan_misses += s.interned_plan_misses;
    sum.plan_seconds += s.plan_seconds;
    sum.phase1_seconds += s.phase1_seconds;
    sum.assemble_seconds += s.assemble_seconds;
    pos += n;
    queries += n;
  }
  const double per_kq = queries == 0 ? 0.0 : 1e6 / static_cast<double>(queries);
  m["batch.plan_ms"] = sum.plan_seconds * per_kq;
  m["batch.phase1_ms"] = sum.phase1_seconds * per_kq;
  m["batch.assemble_ms"] = sum.assemble_seconds * per_kq;
  m["batch.dedup_savings"] = sum.DedupSavings();
  m["batch.plan_memo_hit_rate"] = sum.PlanMemoHitRate();
  m["batch.interned_plan_hit_rate"] = sum.InternedPlanHitRate();
  m["batch.skeleton_hit_rate"] =
      Ratio(sum.plan_cache_hits, sum.plan_cache_misses);
  m["batch.replayed_queries"] = static_cast<double>(queries);

  // Epochs the batch replay did not reach (all of them for the resident
  // workloads, whose updates follow the query stream).
  if (mdb == nullptr && !in.epochs.empty()) {
    mdb = std::make_unique<tcf::MaintainedDatabase>(
        Graph(*in.graph), frag.fragment_of_edge(), frag.NumFragments());
  }
  while (next_epoch < in.epochs.size()) {
    epochs.Apply(mdb.get(), in.epochs[next_epoch++], log);
  }
  m["maint.epoch_ms_p50"] = Percentile(epochs.ms, 50);
  m["maint.epoch_ms_p99"] = Percentile(epochs.ms, 99);
  m["maint.updates_per_epoch"] = Mean(epochs.ops);
  m["maint.dirty_borders"] = Mean(epochs.dirty);
  m["maint.reused_borders"] = Mean(epochs.reused);
  return out;
}

}  // namespace tcfbench
