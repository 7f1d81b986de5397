// The transport seam under dsa/sites.h: the coordinator/site message
// protocol (one subquery message per (fragment, selection), one result
// message back, nothing site-to-site) expressed as an interface so the
// SAME SiteNetwork protocol logic can run over two fabrics:
//
//   - MakeInProcessSiteTransport: per-site Channel mailboxes plus a
//     shared coordinator inbox — the original simulation fabric.
//   - MakeSocketSiteTransport: one loopback TCP connection per site,
//     messages as kSiteSubquery / kSiteResult frames of the tcfrag wire
//     protocol (net/frame.h, net/protocol.h) — the deployment shape the
//     paper's PRISMA target implies, with real serialization on every
//     hop. tests/sites_test.cc asserts answer-equality between the two.
//
// Threading contract (what SiteNetwork provides): one coordinator thread
// at a time drives SendSubquery/ReceiveResult (serialized by the
// network's exchange lock, which covers exactly one send-all/collect-all
// round); each site f has exactly one thread calling
// ReceiveSubquery(f)/SendResult(f). Shutdown() may race with blocked
// receivers on either side and unblocks them all with nullopt.
// messages_carried() may be read from any thread at any time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "dsa/local_query.h"
#include "util/status.h"

namespace tcf {

/// Coordinator -> site: run this local query, tag the answer with the id.
struct SiteWireSubquery {
  uint64_t request_id = 0;
  LocalQuerySpec spec;
};

/// Site -> coordinator: the phase-1 result relation for one subquery, or
/// the Status of a local query that failed (then `paths` is empty).
struct SiteWireResult {
  uint64_t request_id = 0;
  FragmentId fragment = 0;
  Relation paths;
  Status status = Status::OK();
};

class SiteTransport {
 public:
  virtual ~SiteTransport() = default;

  // -- coordinator side --------------------------------------------------
  virtual void SendSubquery(FragmentId site, SiteWireSubquery message) = 0;
  /// Blocks for the next result from ANY site; nullopt after Shutdown().
  virtual std::optional<SiteWireResult> ReceiveResult() = 0;

  // -- site side ---------------------------------------------------------
  /// Blocks for the next subquery addressed to `site`; nullopt means the
  /// transport shut down and the site loop should exit.
  virtual std::optional<SiteWireSubquery> ReceiveSubquery(FragmentId site) = 0;
  virtual void SendResult(FragmentId site, SiteWireResult message) = 0;

  /// Unblocks every receiver on both sides with nullopt. Idempotent; must
  /// only run when no protocol round is in flight (the SiteNetwork
  /// destructor, which holds that guarantee by construction).
  virtual void Shutdown() = 0;

  /// Messages this fabric has carried in either direction: channel sends
  /// in process, frames written over sockets. Each is counted before it
  /// is handed over, so once a receiver holds a message it is counted.
  size_t messages_carried() const { return carried_.load(); }

 protected:
  /// Fabrics count a message just before sending it and take the count
  /// back when the send fails.
  void CountMessage() { ++carried_; }
  void UncountMessage() { --carried_; }

 private:
  std::atomic<size_t> carried_{0};
};

std::unique_ptr<SiteTransport> MakeInProcessSiteTransport(size_t num_sites);

/// Builds num_sites loopback socket pairs. Fails (without leaking threads
/// or fds) if loopback listen/connect fails.
Result<std::unique_ptr<SiteTransport>> MakeSocketSiteTransport(
    size_t num_sites);

}  // namespace tcf
