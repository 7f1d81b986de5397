// Per-layer replay of a traced run: the recorded query stream, batch
// compositions and acknowledged update epochs are fed again through each
// module's public functions, one layer at a time, with a span around
// every call.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace tcfbench {

struct ReplayInput {
  Workload workload = Workload::kLoneRpc;
  const Graph* graph = nullptr;  // the initial graph
  size_t fragments = 0;
  /// Paged workloads: the database file and the pool budget to open with.
  std::string db_path;
  size_t budget_bytes = 0;
  /// Queries in send order, and the service's micro-batch sizes in
  /// execution order: consecutive chunks of the stream of those sizes
  /// stand in for the batch compositions, which the service keeps to
  /// itself.
  std::vector<Pair> stream;
  std::vector<double> batch_fills;
  /// Acknowledged update batches (one per epoch, in epoch order), each
  /// applied after `epoch_after[i]` queries of the stream.
  std::vector<std::vector<EdgeUpdate>> epochs;
  std::vector<size_t> epoch_after;
  /// Queries decomposed layer by layer, with their initial-graph answers.
  std::vector<Pair> sample;
  std::vector<Weight> sample_want;
  /// Wall-time budget of the batch replay.
  double batch_budget_seconds = 5.0;
};

struct ReplayOutput {
  std::map<std::string, double> metrics;
  /// Per-query execution time of the replayed batches (ms).
  std::vector<double> exec_ms;
  /// Decomposed queries whose assembled answer missed the oracle.
  size_t violations = 0;
  std::string error;
};

ReplayOutput ReplayLayers(const ReplayInput& in, SpanLog* log);

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Mean(const std::vector<double>& v);
/// Middle value; the mean of the two middle values for an even count.
double Median(std::vector<double> v);

}  // namespace tcfbench
