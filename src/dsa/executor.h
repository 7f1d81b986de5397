// Phase orchestration of the disconnection set approach: run the per-site
// subqueries in parallel ("neither communication nor synchronization is
// required during the first phase"), then assemble the answer with "a
// sequence of binary joins between a number of very small relations"
// (Sec. 2.1), accounting for the communication the final phase causes.
//
// This header is the *re-entrant execution core* under the one
// coordinator, BatchExecutor (dsa/batch.h), which serves single queries
// (dsa/query_api.h) as batches of one: planning (chain lookup + subquery
// interning), phase-1 fan-out, and per-chain assembly are all free
// functions over immutable inputs, so any number of coordinator threads
// may run queries against the same fragmentation and complementary
// information concurrently. The one-query pieces (SpecTable,
// BuildQueryPlan) stay public for callers that time each stage alone.
#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "dsa/chains.h"
#include "dsa/complementary.h"
#include "dsa/local_query.h"
#include "util/sharded_table.h"
#include "util/thread_pool.h"

namespace tcf {

/// Per-site execution record.
struct SiteReport {
  FragmentId fragment = 0;
  TcStats stats;
  double seconds = 0.0;       // site compute time
  size_t result_tuples = 0;   // tuples shipped to the coordinator
};

/// Whole-query execution record — the quantities behind the paper's
/// performance claims (speed-up, workload balance, keyhole selectivity).
struct ExecutionReport {
  std::vector<SiteReport> sites;

  double phase1_wall_seconds = 0.0;  // parallel elapsed time
  double phase1_cpu_seconds = 0.0;   // sum of site seconds (1-processor cost)
  double assembly_seconds = 0.0;
  size_t assembly_join_tuples = 0;   // pre-aggregation join cardinality
  size_t communication_tuples = 0;   // phase-2 input tuples moved

  /// Max site seconds: the straggler that bounds the parallel finish time
  /// (Sec. 2.2's workload-balance issue).
  double SlowestSiteSeconds() const;
  double TotalSiteSeconds() const;

  /// Folds `other`'s counters and site records into this report.
  void Merge(const ExecutionReport& other);
};

/// Answer to one query. `status` is OK for every successful evaluation —
/// including a clean "not connected" — and non-OK when a phase-1 subquery
/// could not read its (paged) storage: then connected/cost are
/// meaningless and the caller must surface the error, not the answer.
struct QueryAnswer {
  bool connected = false;
  Weight cost = kInfinity;            // shortest-path cost (min-plus)
  size_t chains_considered = 0;
  std::vector<FragmentId> fragments_involved;  // distinct, phase-1 sites
  Status status = Status::OK();
};

/// Answer to a route query: the cost plus the realizing node sequence in
/// the base graph (shortcut hops expanded through the complementary
/// witnesses). `route` is empty when unconnected, {from} when from == to.
struct RouteAnswer {
  QueryAnswer answer;
  std::vector<NodeId> route;
};

/// Canonical identity of a keyhole subquery: (fragment, sorted sources,
/// sorted targets). The key carries everything a LocalQuerySpec holds, so
/// interning tables materialize the spec from the key on first sight.
using SpecKey =
    std::tuple<FragmentId, std::vector<NodeId>, std::vector<NodeId>>;

/// Builds the canonical key of `spec` (sorts its node sets).
SpecKey MakeSpecKey(const LocalQuerySpec& spec);
/// Materializes the spec a key denotes.
LocalQuerySpec SpecFromKey(const SpecKey& key);

struct SpecKeyHash {
  size_t operator()(const SpecKey& key) const;
};

/// Where a planner interns its keyhole subqueries. Intern returns an
/// opaque ref: for SpecTable it is the flat index into specs(); for
/// ShardedSpecTable it is a shard-encoded handle that Flatten() later maps
/// to a flat index. Refs from one sink must never be mixed with another's.
class SpecSink {
 public:
  virtual ~SpecSink() = default;

  /// Returns the ref of the subquery `key` denotes, interning it if new.
  virtual size_t Intern(SpecKey key) = 0;
};

/// Interning table for keyhole subqueries: one entry per distinct
/// (fragment, sources, targets) triple, so a fragment computes each
/// selection once no matter how many chains need it. Not internally
/// synchronized — for one caller planning one query at a time; the batch
/// executor interns concurrently into a ShardedSpecTable instead.
class SpecTable : public SpecSink {
 public:
  /// Returns the index of the spec `key` denotes, inserting it if new.
  size_t Intern(SpecKey key) override;

  const std::vector<LocalQuerySpec>& specs() const { return specs_; }
  size_t size() const { return specs_.size(); }

 private:
  std::map<SpecKey, size_t> index_;
  std::vector<LocalQuerySpec> specs_;
};

/// The batch executor's interning table: mutex-striped shards keyed by the
/// hash of the (fragment, sources, targets) triple, so any number of
/// coordinator threads intern concurrently and contend only on hash
/// collisions. Refs are shard-encoded handles; after the parallel planning
/// phase, Flatten() seals the table into the flat spec vector the phase-1
/// fan-out consumes and maps every handle to its flat index.
class ShardedSpecTable : public SpecSink {
 public:
  explicit ShardedSpecTable(size_t num_shards = 64);

  /// Thread-safe. Returns a shard-encoded handle, NOT a flat index.
  size_t Intern(SpecKey key) override;

  size_t size() const { return table_.size(); }

  struct Flat {
    std::vector<LocalQuerySpec> specs;
    std::vector<size_t> offsets;

    /// Maps an Intern handle to its index in `specs`.
    size_t IndexOf(size_t ref) const;
  };

  /// Moves all specs into one flat vector (shard-major order) and leaves
  /// the table empty. Callers must be quiescent (no concurrent Intern).
  Flat Flatten();

 private:
  ShardedTable<SpecKey, LocalQuerySpec, SpecKeyHash> table_;
};

/// The shared front half of every query: the chains connecting the two
/// endpoint fragments, with each hop resolved to an interned subquery.
struct QueryPlan {
  std::vector<FragmentChain> chains;
  /// chain_specs[c][i]: SpecTable index for hop i of chain c.
  std::vector<std::vector<size_t>> chain_specs;
  /// Plan-cache accounting for this plan's chain lookups (zero when no
  /// cache was supplied).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// Builds the plan for a (from, to) query. With a cache, the (from, to)
/// node pair's *interned plan* is fetched (built through the cache's
/// skeletons on a miss — it survives batch boundaries, so hot pairs skip
/// fragment location, skeleton lookups, and chain dedup on every later
/// query) and instantiated into `specs`; without one, every skeleton is
/// expanded on the spot. Either way each chain hop's subquery is interned
/// into `specs` with the query constants stamped into the endpoint slots.
/// Requires from != to. Thread-safe for concurrent callers sharing one
/// cache, as long as the sink is its own (SpecTable) or internally
/// synchronized (ShardedSpecTable).
QueryPlan BuildQueryPlan(const Fragmentation& frag, NodeId from, NodeId to,
                         size_t max_chains, ChainPlanCache* chain_cache,
                         SpecSink* specs);

/// Stamps an interned plan's endpoints into its skeleton-relative hop
/// templates and interns one subquery per hop into `specs` — the
/// cross-batch fast path of BuildQueryPlan. `(from, to)` is the pair the
/// CALLER is planning: it must equal the plan's own endpoints in either
/// orientation (ChainPlanCache::PlanFor aliases the unordered pair onto
/// one entry). In the forward orientation the produced QueryPlan is
/// bit-identical to building from scratch; in the reverse orientation
/// every chain and its hops are emitted element-wise reversed with the
/// source/target selections swapped — valid because disconnection sets
/// and fragment adjacency are symmetric, and answer assembly minimizes
/// over chains, so chain direction is immaterial to cost and route
/// correctness. cache_hits/cache_misses are zero either way
/// (instantiation performs no skeleton lookups).
QueryPlan InstantiateInternedPlan(const InternedPlan& plan, NodeId from,
                                  NodeId to, SpecSink* specs);

/// A whole batch of endpoint pairs planned in parallel: one plan pointer
/// per pair (nullptr for trivial from == to pairs), the sealed flat spec
/// vector phase 1 consumes, and the sharing/cache accounting.
struct ParallelPlanResult {
  std::vector<const QueryPlan*> plans;
  ShardedSpecTable::Flat flat;
  /// Owns the distinct plans `plans` points into.
  std::unique_ptr<ShardedTable<uint64_t, QueryPlan, PairKeyHash>> memo;
  /// Pairs whose (from, to) plan was already interned — they skipped
  /// chain lookup and subquery interning outright.
  size_t memo_hits = 0;
  /// Cross-batch interned-plan cache accounting, counted per distinct
  /// pair planned this batch: a hit instantiated a plan interned by an
  /// earlier batch (or single query); a miss built and published it.
  size_t interned_plan_hits = 0;
  size_t interned_plan_misses = 0;
  /// Skeleton-cache accounting summed over the distinct plans.
  size_t cache_hits = 0;
  size_t cache_misses = 0;

  size_t distinct_plans() const { return memo->size(); }
};

/// The planning stage of BatchExecutor: plans every endpoint pair in
/// parallel on `pool` (sequentially when null). Whole plans intern into a
/// sharded memo by (from, to) so repeats skip planning, keyhole subqueries
/// intern into one ShardedSpecTable batch-wide, and the table is sealed
/// with every plan's refs rewritten to flat spec indices. Both tables get
/// min(pairs, 64) shards, so a batch of one builds no idle stripes.
/// Endpoints must be in range (callers validate); from == to pairs yield a
/// null plan.
ParallelPlanResult PlanBatchInParallel(
    const Fragmentation& frag,
    const std::vector<std::pair<NodeId, NodeId>>& endpoints,
    size_t max_chains, ChainPlanCache* chain_cache, ThreadPool* pool);

/// The distinct fragments the plan's subqueries touch, ascending. `specs`
/// is the flat spec vector the plan's refs index (SpecTable::specs(), or a
/// sealed ShardedSpecTable::Flat::specs).
std::vector<FragmentId> InvolvedFragments(
    const Fragmentation& frag, const QueryPlan& plan,
    const std::vector<LocalQuerySpec>& specs);

/// Runs all `specs` in parallel on `pool` (or sequentially when pool is
/// null) and appends one SiteReport each. Results are returned in spec
/// order. Safe to call concurrently from several coordinator threads
/// sharing one pool.
std::vector<LocalQueryResult> RunSites(const Fragmentation& frag,
                                       const ComplementaryInfo* complementary,
                                       const std::vector<LocalQuerySpec>& specs,
                                       LocalEngine engine, ThreadPool* pool,
                                       ExecutionReport* report);

/// Left-fold min-plus join over a chain's local results; returns the final
/// small relation. Join statistics are added to `report`.
Relation AssembleChain(const std::vector<const Relation*>& chain_results,
                       ExecutionReport* report);

/// Assembles the shortest-path cost answer from phase-1 results, where
/// `results[i]` answers `specs`' i-th subquery. Handles the empty-plan
/// (disconnected fragments) case; `from == to` must be short-circuited by
/// the caller. Only reads shared state, so concurrent assembly of
/// different queries over one results vector is safe.
QueryAnswer AssembleCostAnswer(const Fragmentation& frag,
                               const QueryPlan& plan,
                               const std::vector<LocalQuerySpec>& specs,
                               NodeId from, NodeId to,
                               const std::vector<LocalQueryResult>& results,
                               ExecutionReport* report);

/// Assembles the cost *and* the realizing route: a dynamic program over
/// each chain's relay layers picks the winning chain and relay sequence,
/// then each leg is re-expanded inside its fragment with shortcut hops
/// replaced by their complementary witnesses. Same concurrency contract as
/// AssembleCostAnswer.
RouteAnswer AssembleRouteAnswer(const Fragmentation& frag,
                                const ComplementaryInfo& complementary,
                                const QueryPlan& plan,
                                const std::vector<LocalQuerySpec>& specs,
                                NodeId from, NodeId to,
                                const std::vector<LocalQueryResult>& results,
                                ExecutionReport* report);

}  // namespace tcf
