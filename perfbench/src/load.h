// The load generator: one client process driving a net::Server on
// loopback through net::Client connections, open or closed loop.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace tcfbench {

struct QueryRecord {
  uint32_t conn = 0;
  uint32_t index = 0;  // position in the connection's stream
  Pair pair;
  double due = 0.0;   // scheduled send time (== sent in closed loop)
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  Weight value = 0.0;
};

struct UpdateRecord {
  uint32_t index = 0;  // position in the update list
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  uint64_t epoch = 0;
};

struct TrafficResult {
  /// The measured window, in Now() seconds; ops due before it are warm-up.
  double window_start = 0.0;
  double window_end = 0.0;
  std::vector<QueryRecord> queries;
  std::vector<UpdateRecord> updates;
  /// Open-loop send lateness (actual minus due), window only.
  std::vector<double> lag_ms;
  /// Open-loop generator fell behind: its lag or its backlog (sent minus
  /// answered) grew from the first to the last quarter of the window.
  bool falling_behind = false;
  size_t attempted = 0;
  size_t failed = 0;  // error replies and time-outs
  std::string error;  // set when the run could not start (e.g. connect)
};

/// Where the next run of traffic resumes each stream, so consecutive runs
/// continue the sequences instead of repeating them.
struct StreamCursor {
  std::vector<uint32_t> next_query;  // per reader connection
  uint32_t next_update = 0;
};

/// Runs `plan` against 127.0.0.1:`port` for `warm_s` + `seconds`, then
/// drains. Queries come from `streams` (one per reader connection); the
/// open-loop updater, when the plan has one, sends `updates` in order.
/// Both resume at `cursor`, which is advanced past what was sent.
/// `on_tick` runs on the calling thread about every 250 ms while the load
/// runs. A null `tracer` records no spans.
TrafficResult RunTraffic(uint16_t port, const TrafficPlan& plan,
                         std::vector<QueryStream>* streams,
                         const std::vector<EdgeUpdate>& updates,
                         StreamCursor* cursor, double warm_s, double seconds,
                         Tracer* tracer, const std::function<void()>& on_tick);

/// Sends `updates` one at a time over one connection, each after the
/// previous one is acknowledged.
std::vector<UpdateRecord> RunProbes(uint16_t port,
                                    const std::vector<EdgeUpdate>& updates,
                                    Tracer* tracer, std::string* error);

}  // namespace tcfbench
