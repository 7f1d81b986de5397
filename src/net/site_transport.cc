#include "net/site_transport.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "util/channel.h"

namespace tcf {

namespace {

// ---------------------------------------------------------------------------
// In-process fabric: the original mailboxes, behind the seam.
// ---------------------------------------------------------------------------

class InProcessSiteTransport final : public SiteTransport {
 public:
  explicit InProcessSiteTransport(size_t num_sites) {
    mailboxes_.reserve(num_sites);
    for (size_t i = 0; i < num_sites; ++i) {
      mailboxes_.push_back(std::make_unique<Channel<SiteWireSubquery>>());
    }
  }

  ~InProcessSiteTransport() override { Shutdown(); }

  void SendSubquery(FragmentId site, SiteWireSubquery message) override {
    CountMessage();
    if (!mailboxes_[site]->Send(std::move(message))) UncountMessage();
  }

  std::optional<SiteWireResult> ReceiveResult() override {
    return coordinator_inbox_.Receive();
  }

  std::optional<SiteWireSubquery> ReceiveSubquery(FragmentId site) override {
    return mailboxes_[site]->Receive();
  }

  void SendResult(FragmentId /*site*/, SiteWireResult message) override {
    CountMessage();
    if (!coordinator_inbox_.Send(std::move(message))) UncountMessage();
  }

  void Shutdown() override {
    for (auto& mailbox : mailboxes_) mailbox->Close();
    coordinator_inbox_.Close();
  }

 private:
  std::vector<std::unique_ptr<Channel<SiteWireSubquery>>> mailboxes_;
  Channel<SiteWireResult> coordinator_inbox_;
};

// ---------------------------------------------------------------------------
// Socket fabric: one loopback TCP connection per site; every message is a
// real kSiteSubquery / kSiteResult frame (serialize, send, receive,
// deserialize) so the simulation exercises the actual wire codec. A site
// whose local query failed replies with a request-scoped kError frame.
// ---------------------------------------------------------------------------

class SocketSiteTransport final : public SiteTransport {
 public:
  /// `coordinator_ends[f]` / `site_ends[f]` are the two ends of site f's
  /// connection. Spawns one coordinator-side demux thread per site that
  /// funnels kSiteResult / kError frames into the shared result channel.
  SocketSiteTransport(std::vector<Socket> coordinator_ends,
                      std::vector<Socket> site_ends)
      : coordinator_ends_(std::move(coordinator_ends)),
        site_ends_(std::move(site_ends)) {
    demuxers_.reserve(coordinator_ends_.size());
    for (size_t f = 0; f < coordinator_ends_.size(); ++f) {
      demuxers_.emplace_back([this, f]() { DemuxLoop(f); });
    }
  }

  ~SocketSiteTransport() override { Shutdown(); }

  void SendSubquery(FragmentId site, SiteWireSubquery message) override {
    SiteSubqueryMsg msg;
    msg.spec = std::move(message.spec);
    // A send failure means the link died; the matching result will never
    // arrive and ReceiveResult reports the shutdown via nullopt instead.
    Write(coordinator_ends_[site], MessageType::kSiteSubquery,
          message.request_id, EncodeSiteSubquery(msg));
  }

  std::optional<SiteWireResult> ReceiveResult() override {
    return results_.Receive();
  }

  std::optional<SiteWireSubquery> ReceiveSubquery(FragmentId site) override {
    Result<Frame> read = ReadFrame(site_ends_[site], kMaxPayloadBytes);
    if (!read.ok()) return std::nullopt;  // shutdown or dead link
    const Frame& frame = read.value();
    if (frame.header.type != MessageType::kSiteSubquery) return std::nullopt;
    SiteSubqueryMsg msg;
    if (!DecodeSiteSubquery(frame.payload_view(), &msg).ok()) {
      return std::nullopt;
    }
    SiteWireSubquery out;
    out.request_id = frame.header.request_id;
    out.spec = std::move(msg.spec);
    return out;
  }

  void SendResult(FragmentId site, SiteWireResult message) override {
    if (!message.status.ok()) {
      ErrorResponseMsg error;
      error.code = message.status.code();
      error.message = message.status.message();
      Write(site_ends_[site], MessageType::kError, message.request_id,
            EncodeErrorResponse(error));
      return;
    }
    SiteResultMsg msg;
    msg.fragment = message.fragment;
    msg.paths = std::move(message.paths);
    Write(site_ends_[site], MessageType::kSiteResult, message.request_id,
          EncodeSiteResult(msg));
  }

  void Shutdown() override {
    if (shut_down_.exchange(true)) {
      for (auto& t : demuxers_) {
        if (t.joinable()) t.join();
      }
      return;
    }
    // Both ends wake out of recv with an error: site loops and demuxers
    // exit; an exiting demuxer closes the result channel, which is what
    // unblocks a coordinator parked in ReceiveResult.
    for (const Socket& s : coordinator_ends_) s.ShutdownBoth();
    for (const Socket& s : site_ends_) s.ShutdownBoth();
    for (auto& t : demuxers_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void Write(const Socket& socket, MessageType type, uint64_t request_id,
             const std::string& payload) {
    CountMessage();
    if (!WriteFrame(socket, type, request_id, payload).ok()) {
      UncountMessage();
    }
  }

  void DemuxLoop(size_t site) {
    for (;;) {
      Result<Frame> read = ReadFrame(coordinator_ends_[site], kMaxPayloadBytes);
      if (!read.ok()) break;
      const Frame& frame = read.value();
      SiteWireResult result;
      result.request_id = frame.header.request_id;
      if (frame.header.type == MessageType::kError) {
        ErrorResponseMsg error;
        if (!DecodeErrorResponse(frame.payload_view(), &error).ok()) break;
        result.status = error.ToStatus();
        if (result.status.ok()) break;  // an error frame must carry one
      } else if (frame.header.type == MessageType::kSiteResult) {
        SiteResultMsg msg;
        if (!DecodeSiteResult(frame.payload_view(), &msg).ok()) break;
        result.fragment = msg.fragment;
        result.paths = std::move(msg.paths);
      } else {
        break;
      }
      results_.Send(std::move(result));
    }
    // A dead or garbled link means some result may never arrive: close the
    // channel so the coordinator fails the round instead of waiting on it.
    results_.Close();
  }

  std::vector<Socket> coordinator_ends_;
  std::vector<Socket> site_ends_;
  Channel<SiteWireResult> results_;
  std::vector<std::thread> demuxers_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace

std::unique_ptr<SiteTransport> MakeInProcessSiteTransport(size_t num_sites) {
  return std::make_unique<InProcessSiteTransport>(num_sites);
}

Result<std::unique_ptr<SiteTransport>> MakeSocketSiteTransport(
    size_t num_sites) {
  std::vector<Socket> coordinator_ends;
  std::vector<Socket> site_ends;
  coordinator_ends.reserve(num_sites);
  site_ends.reserve(num_sites);
  for (size_t f = 0; f < num_sites; ++f) {
    Result<Socket> listener = ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    Result<uint16_t> port = LocalPort(listener.value());
    if (!port.ok()) return port.status();
    Result<Socket> coordinator_end = ConnectTcp("127.0.0.1", port.value());
    if (!coordinator_end.ok()) return coordinator_end.status();
    Result<Socket> site_end = AcceptConnection(listener.value());
    if (!site_end.ok()) return site_end.status();
    coordinator_ends.push_back(std::move(coordinator_end).value());
    site_ends.push_back(std::move(site_end).value());
  }
  return std::unique_ptr<SiteTransport>(new SocketSiteTransport(
      std::move(coordinator_ends), std::move(site_ends)));
}

}  // namespace tcf
