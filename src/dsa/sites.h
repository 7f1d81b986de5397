// Message-passing simulation of the distributed deployment the paper
// targets (the PRISMA multiprocessor of Sec. 5): each fragment R_i is
// "stored at a different computer or processor" — here, a Site thread
// owning its fragment and complementary information, reachable only
// through its mailbox. The network is phase 1 only: planning and the
// final joins stay with the one coordinator, BatchExecutor (dsa/batch.h),
// which an executor built as BatchExecutor(db, &net) routes through
// Exchange instead of the database's pool. That lets tests *verify*
// rather than assume the paper's phase-1 property: "neither communication
// nor synchronization is required during the first phase of the
// computation; ... Only at the end of the computation, communication is
// required for computing the final joins."
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsa/query_api.h"
#include "net/site_transport.h"

namespace tcf {

/// Which fabric carries the coordinator/site messages (the protocol on
/// top is identical — see net/site_transport.h).
enum class SiteTransportKind {
  kInProcess,  // per-site Channel mailboxes (simulation default)
  kSocket,     // one loopback TCP connection per site, real wire frames
};

/// Communication accounting, by protocol phase, summed over every
/// exchange since the network was built.
struct SiteTraffic {
  size_t subquery_messages = 0;  // coordinator -> sites (phase 0)
  size_t result_messages = 0;    // sites -> coordinator (phase 2)
  size_t result_tuples = 0;      // tuple volume of phase 2
  /// Messages the fabric itself carried, counted by the transport. Equal
  /// to subquery_messages + result_messages exactly when no site talked
  /// to another site (the paper's phase-1 property).
  size_t fabric_messages = 0;
};

/// A network of per-fragment site threads over one DsaDatabase, plus the
/// coordinator side of its message round. Exchange may be called from any
/// number of threads: one round at a time holds the exchange lock (request
/// ids and the shared inbox admit one round in flight); planning and
/// assembly around it run unlocked in the calling executors.
class SiteNetwork {
 public:
  /// Spawns one thread per fragment of `db`, which must outlive the
  /// network. Sites read the database's fragments and complementary
  /// information (one copy per site in a real deployment; shared read-only
  /// storage, possibly paged, in the simulation) and run its engine.
  /// `transport` picks the message fabric; kSocket runs every subquery and
  /// result through the tcfrag wire codec over loopback TCP.
  explicit SiteNetwork(const DsaDatabase* db,
                       SiteTransportKind transport =
                           SiteTransportKind::kInProcess);
  ~SiteNetwork();

  SiteNetwork(const SiteNetwork&) = delete;
  SiteNetwork& operator=(const SiteNetwork&) = delete;

  size_t NumSites() const { return sites_.size(); }
  const DsaDatabase& database() const { return *db_; }

  /// Phase 1 as one message round: sends one subquery message per spec
  /// (all before awaiting any result), then collects the results back
  /// into spec order. A site whose local query failed (e.g. unreadable
  /// paged storage) answers with that Status; a result that never arrives
  /// because the fabric shut down fails its spec the same way.
  std::vector<LocalQueryResult> Exchange(
      const std::vector<LocalQuerySpec>& specs);

  /// Snapshot of the traffic of every exchange so far.
  SiteTraffic traffic() const;

 private:
  void SiteLoop(FragmentId fragment);

  const DsaDatabase* db_;
  /// The message fabric (mailboxes or loopback sockets); every subquery
  /// and result crosses it — SiteNetwork itself never hands a site a
  /// pointer.
  std::unique_ptr<SiteTransport> transport_;
  std::vector<std::thread> sites_;

  /// Guards one exchange round and the counters below.
  mutable std::mutex exchange_mutex_;
  uint64_t next_request_id_ = 1;
  SiteTraffic traffic_;
};

}  // namespace tcf
