#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.h"
#include "fragment/center_based.h"
#include "graph/builder.h"

namespace tcfbench {

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "lone-rpc") {
    *out = Workload::kLoneRpc;
  } else if (name == "hot-saturate") {
    *out = Workload::kHotSaturate;
  } else if (name == "paged-mixed") {
    *out = Workload::kPagedMixed;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLoneRpc:
      return "lone-rpc";
    case Workload::kHotSaturate:
      return "hot-saturate";
    case Workload::kPagedMixed:
      return "paged-mixed";
  }
  return "?";
}

GraphShape RailShape() { return GraphShape{8, 300, 1200.0, 2, 8}; }
GraphShape KeyholeShape() { return GraphShape{16, 500, 2000.0, 4, 16}; }

GraphShape ShapeOf(Workload w) {
  return w == Workload::kPagedMixed ? KeyholeShape() : RailShape();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): independent, reproducible streams.
  uint64_t z =
      seed * 0x9e3779b97f4a7c15ull + (stream + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

tcf::TransportationGraph MakeGraph(const GraphShape& shape) {
  tcf::Rng rng(SubSeed(/*seed=*/1, 1));
  tcf::TransportationGraphOptions opts;
  opts.num_clusters = shape.clusters;
  opts.nodes_per_cluster = shape.nodes_per_cluster;
  opts.target_edges_per_cluster = shape.edges_per_cluster;
  opts.cell_margin = shape.cell_margin;
  for (size_t c = 0; c < shape.clusters; ++c) {
    opts.links.push_back(
        tcf::InterClusterLink{c, (c + 1) % shape.clusters, shape.link_edges});
  }
  return tcf::GenerateTransportationGraph(opts, &rng);
}

tcf::Fragmentation FragmentGraph(const Graph& g, size_t fragments) {
  tcf::CenterBasedOptions opts;
  opts.num_fragments = fragments;
  opts.distributed_centers = true;
  return tcf::CenterBasedFragmentation(g, opts);
}

QueryStream::QueryStream(uint64_t seed, size_t num_nodes,
                         std::vector<Pair> hot, double hot_share)
    : rng_(seed),
      num_nodes_(num_nodes),
      hot_(std::move(hot)),
      hot_share_(hot_share) {}

Pair QueryStream::At(size_t i) {
  while (pairs_.size() <= i) {
    Pair p;
    if (!hot_.empty() && rng_.NextBool(hot_share_)) {
      p = hot_[rng_.NextBounded(hot_.size())];
      if (rng_.NextBool(0.5)) std::swap(p.from, p.to);
    } else {
      p.from = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      do {
        p.to = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      } while (p.to == p.from);
    }
    pairs_.push_back(p);
  }
  return pairs_[i];
}

TrafficPlan PlanOf(Workload w) {
  TrafficPlan plan;
  switch (w) {
    case Workload::kLoneRpc:
      plan.readers = 1;
      plan.open_loop = true;
      plan.query_rate = 200.0;
      plan.probe_updates = 200;
      break;
    case Workload::kHotSaturate:
      plan.readers = 4;
      plan.depth = 64;
      plan.probe_updates = 200;
      break;
    case Workload::kPagedMixed:
      plan.readers = 2;
      plan.depth = 16;
      plan.update_rate = 4.0;
      break;
  }
  return plan;
}

std::vector<EdgeUpdate> RaisingUpdates(const Graph& g,
                                       const std::vector<uint32_t>& edges,
                                       size_t count, uint64_t seed) {
  tcf::Rng rng(seed);
  // Current weight per (src, dst): a reweight sets every tuple of the pair,
  // so raise from the heaviest one.
  std::map<std::pair<NodeId, NodeId>, Weight> current;
  for (const tcf::Edge& e : g.edges()) {
    Weight& w = current[{e.src, e.dst}];
    w = std::max(w, e.weight);
  }
  std::vector<EdgeUpdate> updates;
  updates.reserve(count);
  for (size_t i = 0; i < count && !edges.empty(); ++i) {
    const tcf::Edge& e = g.edge(edges[rng.NextBounded(edges.size())]);
    Weight& w = current[{e.src, e.dst}];
    w = w * 1.25 + 1.0;
    updates.push_back(EdgeUpdate::Reweight(e.src, e.dst, w));
  }
  return updates;
}

std::vector<EdgeUpdate> RestoringProbes(const Graph& g, size_t rounds,
                                        size_t per_round, uint64_t seed) {
  // A reweight sets every tuple of its (src, dst) pair, so only pairs with
  // a single tuple can be restored exactly.
  std::map<std::pair<NodeId, NodeId>, size_t> tuples;
  for (const tcf::Edge& e : g.edges()) ++tuples[{e.src, e.dst}];
  std::vector<uint32_t> single;
  for (uint32_t id = 0; id < g.NumEdges(); ++id) {
    const tcf::Edge& e = g.edge(id);
    if (tuples[{e.src, e.dst}] == 1) single.push_back(id);
  }
  tcf::Rng rng(seed);
  std::vector<EdgeUpdate> probes;
  for (size_t r = 0; r < rounds && !single.empty(); ++r) {
    std::map<std::pair<NodeId, NodeId>, Weight> current;
    std::vector<EdgeUpdate> restores;
    for (size_t i = 0; i < per_round / 2; ++i) {
      const tcf::Edge& e = g.edge(single[rng.NextBounded(single.size())]);
      auto it = current.emplace(std::make_pair(e.src, e.dst), e.weight).first;
      const Weight before = it->second;
      it->second = before * 1.25 + 1.0;
      probes.push_back(EdgeUpdate::Reweight(e.src, e.dst, it->second));
      restores.push_back(EdgeUpdate::Reweight(e.src, e.dst, before));
    }
    probes.insert(probes.end(), restores.rbegin(), restores.rend());
  }
  return probes;
}

Graph ApplyReweights(const Graph& g, const std::vector<EdgeUpdate>& updates) {
  std::map<std::pair<NodeId, NodeId>, Weight> last;
  for (const EdgeUpdate& u : updates) last[{u.src, u.dst}] = u.weight;
  tcf::GraphBuilder builder(g.NumNodes());
  for (const tcf::Edge& e : g.edges()) {
    auto it = last.find({e.src, e.dst});
    builder.AddEdge(e.src, e.dst, it == last.end() ? e.weight : it->second);
  }
  return builder.Build();
}

bool WriteUpdates(const std::string& path,
                  const std::vector<EdgeUpdate>& updates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const EdgeUpdate& u : updates) {
    std::fprintf(f, "%u %u %a\n", u.src, u.dst, u.weight);
  }
  return std::fclose(f) == 0;
}

bool ReadUpdates(const std::string& path, std::vector<EdgeUpdate>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  unsigned src = 0;
  unsigned dst = 0;
  double weight = 0.0;
  while (std::fscanf(f, "%u %u %la", &src, &dst, &weight) == 3) {
    out->push_back(EdgeUpdate::Reweight(src, dst, weight));
  }
  std::fclose(f);
  return true;
}

PointToPoint::PointToPoint(const Graph* g)
    : g_(g),
      dist_(g->NumNodes(), tcf::kInfinity),
      seen_(g->NumNodes(), 0),
      done_(g->NumNodes(), 0) {}

Weight PointToPoint::Distance(NodeId from, NodeId to) {
  if (from == to) return 0.0;
  if (++stamp_ == 0) {  // wrapped: every stale stamp must read as unseen
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  auto greater = [](const std::pair<Weight, NodeId>& a,
                    const std::pair<Weight, NodeId>& b) { return a > b; };
  heap_.clear();
  dist_[from] = 0.0;
  seen_[from] = stamp_;
  done_[from] = 0;
  heap_.emplace_back(0.0, from);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), greater);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (done_[u] || d > dist_[u]) continue;
    if (u == to) return d;
    done_[u] = 1;
    for (const tcf::OutEdge& e : g_->OutEdges(u)) {
      const Weight nd = d + e.weight;
      if (seen_[e.dst] != stamp_) {
        seen_[e.dst] = stamp_;
        done_[e.dst] = 0;
        dist_[e.dst] = nd;
      } else if (done_[e.dst] || nd >= dist_[e.dst]) {
        continue;
      } else {
        dist_[e.dst] = nd;
      }
      heap_.emplace_back(nd, e.dst);
      std::push_heap(heap_.begin(), heap_.end(), greater);
    }
  }
  return tcf::kInfinity;
}

bool SameCost(Weight got, Weight want) {
  if (got == want) return true;
  if (std::isinf(got) || std::isinf(want)) return false;
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace tcfbench
