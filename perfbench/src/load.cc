#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "net/client.h"
#include "util/channel.h"

namespace tcfbench {
namespace {

/// How long after the window closes an operation may still be answered
/// before it counts as timed out.
constexpr double kDrainSeconds = 60.0;

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Waits for `fut` until `deadline` (Now() seconds); false on time-out.
template <typename T>
bool WaitUntil(std::future<T>& fut, double deadline) {
  const double wait = std::max(0.0, deadline - Now());
  return fut.wait_for(std::chrono::duration<double>(wait)) ==
         std::future_status::ready;
}

/// Span request ids: (connection + 1) << 32 | position, with two reserved
/// "connections" for the open-loop updater and the probes.
constexpr uint32_t kUpdaterConn = 0xfffffffeu;
constexpr uint32_t kProbeConn = 0xfffffffdu;

uint64_t RequestId(uint32_t conn, uint32_t index) {
  return (static_cast<uint64_t>(conn) + 1) << 32 | index;
}

struct InFlightQuery {
  QueryRecord rec;
  double submitted = 0.0;  // when SubmitShortestPath returned
  std::future<tcf::Result<Weight>> fut;
};

struct InFlightUpdate {
  UpdateRecord rec;
  double submitted = 0.0;
  std::future<tcf::Result<uint64_t>> fut;
};

InFlightQuery SubmitQuery(tcf::Client* client, uint32_t conn, uint32_t index,
                          Pair pair, double due) {
  InFlightQuery f;
  f.rec.conn = conn;
  f.rec.index = index;
  f.rec.pair = pair;
  f.rec.due = due;
  f.rec.sent = Now();
  f.fut = client->SubmitShortestPath(pair.from, pair.to);
  f.submitted = Now();
  return f;
}

InFlightUpdate SubmitUpdate(tcf::Client* client, uint32_t index,
                            const EdgeUpdate& update, double due) {
  InFlightUpdate f;
  f.rec.index = index;
  f.rec.due = due;
  f.rec.sent = Now();
  f.fut = client->SubmitUpdate(update);
  f.submitted = Now();
  return f;
}

/// Resolves one in-flight call and records its spans: the request span
/// from due time to answer, with the generator's lateness and the client
/// submit call as children.
template <typename InFlight, typename Value>
void Complete(InFlight* f, double deadline, SpanLog* log, const char* name,
              uint64_t request, Value* value) {
  auto& rec = f->rec;
  if (WaitUntil(f->fut, deadline)) {
    auto result = f->fut.get();
    rec.done = Now();
    rec.ok = result.ok();
    if (result.ok()) *value = result.value();
  } else {
    rec.done = Now();
    rec.ok = false;
  }
  if (log != nullptr) {
    const uint64_t root = log->Add(name, 0, request, rec.due, rec.done);
    if (rec.sent > rec.due) {
      log->Add("bench.generator_lag", root, request, rec.due, rec.sent);
    }
    log->Add("net.client.submit", root, request, rec.sent, f->submitted);
  }
}

/// Shared by the open-loop senders: lateness and backlog samples in the
/// window, for the falling-behind check.
struct OpenLoopMeter {
  std::mutex mutex;
  std::vector<double> lag_ms;
  std::vector<std::pair<double, double>> lag_at;      // (time, lag ms)
  std::vector<std::pair<double, double>> backlog_at;  // (time, backlog)
};

bool GrowsOverWindow(const std::vector<std::pair<double, double>>& samples,
                     double start, double end, double slack) {
  const double quarter = (end - start) / 4.0;
  std::vector<double> first;
  std::vector<double> last;
  for (const auto& [t, v] : samples) {
    if (t < start || t >= end) continue;
    if (t < start + quarter) first.push_back(v);
    if (t >= end - quarter) last.push_back(v);
  }
  if (first.empty() || last.empty()) return false;
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return median(last) > 2.0 * median(first) + slack;
}

}  // namespace

TrafficResult RunTraffic(uint16_t port, const TrafficPlan& plan,
                         std::vector<QueryStream>* streams,
                         const std::vector<EdgeUpdate>& updates,
                         StreamCursor* cursor, double warm_s, double seconds,
                         Tracer* tracer, const std::function<void()>& on_tick) {
  TrafficResult out;
  const bool updater = plan.update_rate > 0.0;
  cursor->next_query.resize(plan.readers, 0);
  std::vector<std::unique_ptr<tcf::Client>> clients;
  for (size_t c = 0; c < plan.readers + (updater ? 1 : 0); ++c) {
    auto connected = tcf::Client::Connect("127.0.0.1", port);
    if (!connected.ok()) {
      out.error = "connect: " + connected.status().ToString();
      return out;
    }
    clients.push_back(std::move(connected).value());
  }

  const double t0 = Now() + 0.05;
  out.window_start = t0 + warm_s;
  out.window_end = out.window_start + seconds;
  const double t_end = out.window_end;
  const double deadline = t_end + kDrainSeconds;

  std::mutex records_mutex;  // guards out.queries / out.updates
  OpenLoopMeter meter;
  std::vector<std::thread> threads;

  // Open-loop pair: the sender keeps the schedule, the waiter resolves
  // answers in send order, so a slow answer never delays a send.
  auto open_loop = [&](auto submit, auto complete, double rate, size_t limit,
                       uint32_t* next) {
    using InFlight = decltype(submit(0u, 0.0));
    auto channel = std::make_shared<tcf::Channel<InFlight>>();
    auto answered = std::make_shared<std::atomic<size_t>>(0);
    threads.emplace_back([&, channel, answered, submit, rate, limit, next] {
      uint32_t k = 0;
      for (; *next + k < limit; ++k) {
        const double due = t0 + k / rate;
        if (due >= t_end) break;
        SleepUntil(due);
        InFlight f = submit(*next + k, due);
        if (due >= out.window_start) {
          const double lag = (f.rec.sent - due) * 1e3;
          std::lock_guard<std::mutex> lock(meter.mutex);
          meter.lag_ms.push_back(lag);
          meter.lag_at.emplace_back(due, lag);
          meter.backlog_at.emplace_back(
              due, static_cast<double>(k + 1 - answered->load()));
        }
        channel->Send(std::move(f));
      }
      *next += k;
      channel->Close();
    });
    threads.emplace_back([&, channel, answered, complete] {
      SpanLog* log = tracer ? tracer->NewLog() : nullptr;
      while (std::optional<InFlight> f = channel->Receive()) {
        complete(&*f, log);
        answered->fetch_add(1);
      }
    });
  };

  auto record_query = [&](InFlightQuery* f, SpanLog* log) {
    Complete(f, deadline, log, "client.query",
             RequestId(f->rec.conn, f->rec.index), &f->rec.value);
    std::lock_guard<std::mutex> lock(records_mutex);
    out.queries.push_back(f->rec);
  };
  auto record_update = [&](InFlightUpdate* f, SpanLog* log) {
    Complete(f, deadline, log, "client.update",
             RequestId(kUpdaterConn, f->rec.index), &f->rec.epoch);
    std::lock_guard<std::mutex> lock(records_mutex);
    out.updates.push_back(f->rec);
  };

  if (plan.open_loop) {
    for (size_t c = 0; c < plan.readers; ++c) {
      tcf::Client* client = clients[c].get();
      QueryStream* stream = &(*streams)[c];
      const auto conn = static_cast<uint32_t>(c);
      open_loop(
          [client, stream, conn](uint32_t i, double due) {
            return SubmitQuery(client, conn, i, stream->At(i), due);
          },
          record_query, plan.query_rate / plan.readers, UINT32_MAX,
          &cursor->next_query[c]);
    }
  } else {
    for (size_t c = 0; c < plan.readers; ++c) {
      threads.emplace_back([&, c] {
        tcf::Client* client = clients[c].get();
        QueryStream* stream = &(*streams)[c];
        SpanLog* log = tracer ? tracer->NewLog() : nullptr;
        std::deque<InFlightQuery> window;
        uint32_t& next = cursor->next_query[c];
        SleepUntil(t0);
        while (true) {
          if (Now() < t_end) {
            while (window.size() < plan.depth) {
              const double now = Now();
              window.push_back(SubmitQuery(client, static_cast<uint32_t>(c),
                                           next, stream->At(next), now));
              ++next;
            }
          }
          if (window.empty()) break;
          record_query(&window.front(), log);
          window.pop_front();
        }
      });
    }
  }
  if (updater) {
    tcf::Client* client = clients.back().get();
    open_loop(
        [client, &updates](uint32_t i, double due) {
          return SubmitUpdate(client, i, updates[i], due);
        },
        record_update, plan.update_rate, static_cast<uint32_t>(updates.size()),
        &cursor->next_update);
  }

  while (Now() < t_end) {
    SleepUntil(std::min(t_end, Now() + 0.25));
    if (on_tick) on_tick();
  }
  for (std::thread& t : threads) t.join();
  clients.clear();

  for (const QueryRecord& r : out.queries) {
    ++out.attempted;
    if (!r.ok) ++out.failed;
  }
  for (const UpdateRecord& r : out.updates) {
    ++out.attempted;
    if (!r.ok) ++out.failed;
  }
  out.lag_ms = std::move(meter.lag_ms);
  out.falling_behind =
      GrowsOverWindow(meter.lag_at, out.window_start, t_end, 5.0) ||
      GrowsOverWindow(meter.backlog_at, out.window_start, t_end, 10.0);
  return out;
}

std::vector<UpdateRecord> RunProbes(uint16_t port,
                                    const std::vector<EdgeUpdate>& updates,
                                    Tracer* tracer, std::string* error) {
  std::vector<UpdateRecord> out;
  auto connected = tcf::Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    *error = "connect: " + connected.status().ToString();
    return out;
  }
  std::unique_ptr<tcf::Client> client = std::move(connected).value();
  SpanLog* log = tracer ? tracer->NewLog() : nullptr;
  for (size_t i = 0; i < updates.size(); ++i) {
    InFlightUpdate f =
        SubmitUpdate(client.get(), static_cast<uint32_t>(i), updates[i], Now());
    Complete(&f, Now() + kDrainSeconds, log, "client.update",
             RequestId(kProbeConn, f.rec.index), &f.rec.epoch);
    out.push_back(f.rec);
  }
  return out;
}

}  // namespace tcfbench
