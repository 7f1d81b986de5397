// Tests for the message-passing site simulation: protocol correctness
// (answers of a BatchExecutor whose phase 1 runs on the network equal the
// oracle), the phase-1 no-communication property (the fabric carries
// exactly the subquery and result messages), site failures surfacing as
// per-query Status on both fabrics, and the Channel primitive the network
// is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "dsa/batch.h"
#include "dsa/sites.h"
#include "dsa_sweep.h"
#include "fragment/bond_energy.h"
#include "fragment/linear.h"
#include "graph/algorithms.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "storage/database_io.h"
#include "util/channel.h"

namespace tcf {
namespace {

// ----------------------------------------------------------------- Channel

TEST(Channel, SendReceiveInOrder) {
  Channel<int> ch;
  ch.Send(1);
  ch.Send(2);
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_EQ(ch.Receive(), 2);
}

TEST(Channel, TryReceiveEmpty) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryReceive().has_value());
  ch.Send(7);
  EXPECT_EQ(ch.TryReceive(), 7);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> ch;
  ch.Send(1);
  ch.Close();
  EXPECT_FALSE(ch.Send(2));  // dropped
  EXPECT_EQ(ch.Receive(), 1);
  EXPECT_FALSE(ch.Receive().has_value());
  EXPECT_TRUE(ch.closed());
}

TEST(Channel, BlockingReceiveWakesOnSend) {
  Channel<int> ch;
  std::atomic<int> got{0};
  std::thread receiver([&]() {
    auto v = ch.Receive();
    got = v.value_or(-1);
  });
  ch.Send(42);
  receiver.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(Channel, ManyProducersOneConsumer) {
  Channel<int> ch;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&ch, p]() {
      for (int i = 0; i < 50; ++i) ch.Send(p * 100 + i);
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.size(), 200u);
  int received = 0;
  while (ch.TryReceive().has_value()) ++received;
  EXPECT_EQ(received, 200);
}

// ------------------------------------------------------------- SiteNetwork

TransportationGraph MakeTransport(uint64_t seed) {
  TransportationGraphOptions opts;
  opts.num_clusters = 4;
  opts.nodes_per_cluster = 12;
  opts.target_edges_per_cluster = 48;
  Rng rng(seed);
  return GenerateTransportationGraph(opts, &rng);
}

/// A database, a site network over it, and the executor that runs phase 1
/// on that network — the coordinator/site deployment under test.
struct Sites {
  explicit Sites(const Fragmentation* frag,
                 SiteTransportKind kind = SiteTransportKind::kInProcess)
      : db(frag), net(&db, kind), executor(&db, &net) {}

  /// Answers `queries` in order; `traffic`, if given, receives the
  /// messages this call caused (callers measure from one thread).
  std::vector<Weight> Costs(
      const std::vector<std::pair<NodeId, NodeId>>& queries,
      SiteTraffic* traffic = nullptr) {
    const SiteTraffic before =
        traffic != nullptr ? net.traffic() : SiteTraffic{};
    std::vector<Query> batch;
    for (const auto& [from, to] : queries) batch.push_back({from, to});
    std::vector<Weight> costs;
    for (const RouteAnswer& a : executor.Execute(batch).answers) {
      costs.push_back(a.answer.cost);
    }
    if (traffic != nullptr) {
      const SiteTraffic after = net.traffic();
      traffic->subquery_messages =
          after.subquery_messages - before.subquery_messages;
      traffic->result_messages =
          after.result_messages - before.result_messages;
      traffic->result_tuples = after.result_tuples - before.result_tuples;
      traffic->fabric_messages =
          after.fabric_messages - before.fabric_messages;
    }
    return costs;
  }

  Weight Cost(NodeId from, NodeId to, SiteTraffic* traffic = nullptr) {
    return Costs({{from, to}}, traffic).front();
  }

  DsaDatabase db;
  SiteNetwork net;
  BatchExecutor executor;
};

/// Sites talk only to the coordinator: every message the fabric carried
/// is one of the protocol's subqueries or results.
void ExpectNoInterSiteMessages(const SiteTraffic& traffic) {
  EXPECT_EQ(traffic.fabric_messages,
            traffic.subquery_messages + traffic.result_messages);
}

TEST(SiteNetwork, SpawnsOneSitePerFragment) {
  auto t = MakeTransport(1);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);
  EXPECT_EQ(sites.net.NumSites(), frag.NumFragments());
}

TEST(SiteNetwork, AnswersMatchOracle) {
  auto t = MakeTransport(2);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  Sites sites(&frag);
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    const Weight got = sites.Cost(s, u);
    if (oracle == kInfinity) {
      EXPECT_EQ(got, kInfinity);
    } else {
      EXPECT_NEAR(got, oracle, 1e-9) << s << "->" << u;
    }
  }
}

TEST(SiteNetwork, Phase1HasNoInterSiteCommunication) {
  auto t = MakeTransport(3);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);
  SiteTraffic traffic;
  sites.Cost(0, static_cast<NodeId>(t.graph.NumNodes() - 1), &traffic);
  ExpectNoInterSiteMessages(traffic);  // the paper's property
  EXPECT_GT(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, traffic.subquery_messages);
}

TEST(SiteNetwork, TrafficIsSmall) {
  // The point of the approach: what crosses the network are the small
  // border-to-border relations, not fragments.
  auto t = MakeTransport(4);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  Sites sites(&frag);
  SiteTraffic traffic;
  sites.Cost(0, static_cast<NodeId>(t.graph.NumNodes() - 1), &traffic);
  EXPECT_LT(traffic.result_tuples, t.graph.NumEdges() / 4);
}

TEST(SiteNetwork, IntraFragmentQueryUsesOneSite) {
  auto t = MakeTransport(5);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);
  // Two interior nodes of fragment 0.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId v : frag.FragmentNodes(0)) {
    if (frag.IsBorderNode(v)) continue;
    if (a == kInvalidNode) {
      a = v;
    } else {
      b = v;
      break;
    }
  }
  ASSERT_NE(b, kInvalidNode);
  SiteTraffic traffic;
  sites.Cost(a, b, &traffic);
  EXPECT_EQ(traffic.subquery_messages, 1u);
}

TEST(SiteNetwork, BatchedFanOutHasNoInterSiteCommunication) {
  // The paper's phase-1 property must survive batching: a whole batch is
  // one fan-out of independent subqueries, and sites still never talk to
  // each other — only coordinator -> site and site -> coordinator.
  auto t = MakeTransport(7);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  Sites sites(&frag);

  Rng rng(11);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 20; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())));
  }
  queries.emplace_back(3, 3);                  // trivial
  queries.push_back(queries.front());          // exact repeat: pure sharing

  SiteTraffic traffic;
  const std::vector<Weight> got = sites.Costs(queries, &traffic);
  ASSERT_EQ(got.size(), queries.size());
  ExpectNoInterSiteMessages(traffic);  // the paper's property
  EXPECT_GT(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, traffic.subquery_messages);

  // Element-wise identical to the single-query protocol, whose fan-outs
  // must also stay phase-1 silent; batching the queries must cost *fewer*
  // messages than issuing them one by one (cross-query dedup).
  size_t single_messages = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SiteTraffic single;
    const Weight want =
        sites.Cost(queries[i].first, queries[i].second, &single);
    SCOPED_TRACE(i);
    ExpectNoInterSiteMessages(single);
    single_messages += single.subquery_messages;
    if (want == kInfinity) {
      EXPECT_EQ(got[i], kInfinity) << "query " << i;
    } else {
      EXPECT_NEAR(got[i], want, 1e-9) << "query " << i;
    }
  }
  EXPECT_LT(traffic.subquery_messages, single_messages);
}

TEST(SiteNetwork, BatchAnswersMatchOracle) {
  auto t = MakeTransport(8);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);

  Rng rng(13);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 15; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())));
  }
  SiteTraffic traffic;
  const std::vector<Weight> got = sites.Costs(queries, &traffic);
  ExpectNoInterSiteMessages(traffic);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [s, u] = queries[i];
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    if (oracle == kInfinity) {
      EXPECT_EQ(got[i], kInfinity) << s << "->" << u;
    } else {
      EXPECT_NEAR(got[i], oracle, 1e-9) << s << "->" << u;
    }
  }
}

TEST(SiteNetwork, EmptyBatchIsANoop) {
  auto t = MakeTransport(9);
  LinearOptions lopts;
  lopts.num_fragments = 2;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);
  SiteTraffic traffic;
  EXPECT_TRUE(sites.Costs({}, &traffic).empty());
  EXPECT_EQ(traffic.subquery_messages, 0u);
  EXPECT_EQ(traffic.result_messages, 0u);
  EXPECT_EQ(traffic.fabric_messages, 0u);
}

TEST(SiteNetwork, SelfAndDisconnected) {
  GraphBuilder gb(4);
  gb.AddSymmetricEdge(0, 1);
  gb.AddSymmetricEdge(2, 3);
  Graph g = gb.Build();
  Fragmentation frag(&g, {0, 0, 1, 1}, 2);
  Sites sites(&frag);
  EXPECT_DOUBLE_EQ(sites.Cost(1, 1), 0.0);
  EXPECT_EQ(sites.Cost(0, 3), kInfinity);
}

TEST(SiteNetwork, ConcurrentQueriesFromManyThreads) {
  // The exchange is mutex-guarded: queries and batches may be issued from
  // any number of threads (the admission service's flush workers depend on
  // this), and every answer must still match the oracle — no crossed
  // request ids, no inbox mixups.
  auto t = MakeTransport(10);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  Sites sites(&frag);

  // Sequentially precomputed expected answers.
  Rng rng(17);
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<Weight> expected;
  for (int i = 0; i < 24; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    queries.emplace_back(s, u);
    expected.push_back(s == u ? 0.0 : Dijkstra(t.graph, s).distance[u]);
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t th = 0; th < 8; ++th) {
    threads.emplace_back([&, th]() {
      if (th % 2 == 0) {
        // Single-query threads, each walking from its own offset.
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t j = (i + th * 5) % queries.size();
          const Weight got =
              sites.Cost(queries[j].first, queries[j].second);
          if (!(got == expected[j] ||
                std::abs(got - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      } else {
        // Whole-batch threads racing the single-query threads.
        const std::vector<Weight> got = sites.Costs(queries);
        for (size_t j = 0; j < queries.size(); ++j) {
          if (!(got[j] == expected[j] ||
                std::abs(got[j] - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------- socket site transport

// The same protocol over loopback TCP (net/site_transport.h): every
// subquery and result crosses a real socket as a wire frame. The contract
// is answer-equality with the in-process fabric — the transport must be
// invisible to the protocol.

TEST(SiteNetworkSocket, AnswersMatchInProcessTransport) {
  auto t = MakeTransport(21);
  LinearOptions lopts;
  lopts.num_fragments = 4;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites in_process(&frag, SiteTransportKind::kInProcess);
  Sites socket_net(&frag, SiteTransportKind::kSocket);

  Rng rng(23);
  for (int i = 0; i < 16; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight want = in_process.Cost(s, u);
    const Weight got = socket_net.Cost(s, u);
    if (want == kInfinity) {
      EXPECT_EQ(got, kInfinity) << s << "->" << u;
    } else {
      EXPECT_NEAR(got, want, 1e-12) << s << "->" << u;
    }
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    if (oracle == kInfinity) {
      EXPECT_EQ(got, kInfinity) << s << "->" << u;
    } else {
      EXPECT_NEAR(got, oracle, 1e-9) << s << "->" << u;
    }
  }
}

TEST(SiteNetworkSocket, BatchMatchesInProcessTransport) {
  auto t = MakeTransport(22);
  BondEnergyOptions bopts;
  bopts.num_fragments = 4;
  Fragmentation frag = BondEnergyFragmentation(t.graph, bopts);
  Sites in_process(&frag, SiteTransportKind::kInProcess);
  Sites socket_net(&frag, SiteTransportKind::kSocket);

  Rng rng(29);
  std::vector<std::pair<NodeId, NodeId>> queries;
  for (int i = 0; i < 20; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
        static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())));
  }
  queries.emplace_back(5, 5);          // trivial
  queries.push_back(queries.front());  // repeat: exercises dedup + sharing

  SiteTraffic in_process_traffic, socket_traffic;
  const std::vector<Weight> want =
      in_process.Costs(queries, &in_process_traffic);
  const std::vector<Weight> got =
      socket_net.Costs(queries, &socket_traffic);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (want[i] == kInfinity) {
      EXPECT_EQ(got[i], kInfinity) << "query " << i;
    } else {
      EXPECT_NEAR(got[i], want[i], 1e-12) << "query " << i;
    }
  }
  // Same protocol, same plan, same fabric-independent message count.
  EXPECT_EQ(socket_traffic.subquery_messages,
            in_process_traffic.subquery_messages);
  EXPECT_EQ(socket_traffic.result_messages,
            in_process_traffic.result_messages);
  ExpectNoInterSiteMessages(in_process_traffic);
  ExpectNoInterSiteMessages(socket_traffic);
}

TEST(SiteNetworkSocket, ConcurrentQueriesMatchOracle) {
  auto t = MakeTransport(24);
  LinearOptions lopts;
  lopts.num_fragments = 3;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag, SiteTransportKind::kSocket);

  Rng rng(31);
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<Weight> expected;
  for (int i = 0; i < 16; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    queries.emplace_back(s, u);
    expected.push_back(s == u ? 0.0 : Dijkstra(t.graph, s).distance[u]);
  }

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t th = 0; th < 4; ++th) {
    threads.emplace_back([&, th]() {
      if (th % 2 == 0) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t j = (i + th * 3) % queries.size();
          const Weight got =
              sites.Cost(queries[j].first, queries[j].second);
          if (!(got == expected[j] || std::abs(got - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      } else {
        const std::vector<Weight> got = sites.Costs(queries);
        for (size_t j = 0; j < queries.size(); ++j) {
          if (!(got[j] == expected[j] ||
                std::abs(got[j] - expected[j]) < 1e-9)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SiteNetwork, ManySequentialQueries) {
  auto t = MakeTransport(6);
  LinearOptions lopts;
  lopts.num_fragments = 3;
  Fragmentation frag = LinearFragmentation(t.graph, lopts).fragmentation;
  Sites sites(&frag);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()));
    const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
    const Weight got = sites.Cost(s, u);
    if (oracle == kInfinity) {
      EXPECT_EQ(got, kInfinity);
    } else {
      EXPECT_NEAR(got, oracle, 1e-9);
    }
  }
}

// ----------------------------------------------------------- site failures

// A site whose local query cannot read its storage answers with that
// Status instead of a partial relation, on both fabrics: every query that
// needs it fails with a non-OK status and no cost, every other query still
// matches the oracle, and the process survives.
TEST(SiteNetworkFailure, CorruptPagedStorageFailsQueriesNotProcess) {
  const std::string path = ::testing::TempDir() + "sites_test_corrupt.tcfdb";
  const auto t = dsa_sweep::MakeTransport(23, 4, 12);
  const Fragmentation frag = dsa_sweep::MakeFragmentation(
      t.graph, dsa_sweep::Fragmenter::kCenter, 5);
  {
    const DsaDatabase fresh(&frag);
    SaveOptions save;
    save.page_size = kMinPageSize;
    ASSERT_TRUE(SaveDatabase(fresh, path, save).ok());
  }
  OpenOptions paged;
  paged.mode = OpenMode::kPaged;
  paged.buffer_pool_frames = 2;
  Result<StoredDatabase> opened = OpenDatabase(path, paged);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(dsa_sweep::CorruptPagesAfterHeader(path, kMinPageSize));
  const DsaDatabase* db = opened.value().db.get();

  for (SiteTransportKind kind :
       {SiteTransportKind::kInProcess, SiteTransportKind::kSocket}) {
    SiteNetwork net(db, kind);
    const BatchExecutor executor(db, &net);
    Rng rng(9);
    std::vector<Query> batch;
    for (int i = 0; i < 24; ++i) {
      batch.push_back(
          {static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes())),
           static_cast<NodeId>(rng.NextBounded(t.graph.NumNodes()))});
    }
    const BatchResult result = executor.Execute(batch);
    size_t failed = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const NodeId s = batch[i].from;
      const NodeId u = batch[i].to;
      const QueryAnswer& answer = result.answers[i].answer;
      if (!answer.status.ok()) {
        ++failed;
        EXPECT_FALSE(answer.connected) << s << "->" << u;
        EXPECT_EQ(answer.cost, kInfinity) << s << "->" << u;
        continue;
      }
      const Weight oracle = s == u ? 0.0 : Dijkstra(t.graph, s).distance[u];
      if (oracle == kInfinity) {
        EXPECT_EQ(answer.cost, kInfinity) << s << "->" << u;
      } else {
        EXPECT_NEAR(answer.cost, oracle, 1e-9) << s << "->" << u;
      }
    }
    EXPECT_GT(failed, 0u) << "no query surfaced the corrupted storage";
    // The network still serves after failed rounds.
    EXPECT_DOUBLE_EQ(executor.Execute({{3, 3}}).answers[0].answer.cost, 0.0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcf
