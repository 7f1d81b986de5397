#include "dsa/sites.h"

#include <string>
#include <utility>

namespace tcf {

SiteNetwork::SiteNetwork(const DsaDatabase* db, SiteTransportKind transport)
    : db_(db) {
  TCF_CHECK(db != nullptr);
  const size_t num_sites = db_->fragmentation().NumFragments();
  if (transport == SiteTransportKind::kSocket) {
    Result<std::unique_ptr<SiteTransport>> made =
        MakeSocketSiteTransport(num_sites);
    TCF_CHECK_MSG(made.ok(), made.status().ToString());
    transport_ = std::move(made).value();
  } else {
    transport_ = MakeInProcessSiteTransport(num_sites);
  }
  sites_.reserve(num_sites);
  for (FragmentId f = 0; f < num_sites; ++f) {
    sites_.emplace_back([this, f]() { SiteLoop(f); });
  }
}

SiteNetwork::~SiteNetwork() {
  transport_->Shutdown();
  for (auto& site : sites_) site.join();
}

void SiteNetwork::SiteLoop(FragmentId fragment) {
  const ComplementaryInfo* comp = db_->options().use_complementary
                                      ? &db_->complementary()
                                      : nullptr;
  while (true) {
    std::optional<SiteWireSubquery> message =
        transport_->ReceiveSubquery(fragment);
    if (!message.has_value()) return;  // transport shut down
    // Phase 1: purely local work — the site touches only its own fragment
    // and its own complementary relation; no other site is contacted.
    LocalQueryResult local = RunLocalQuery(
        db_->fragmentation(), comp, message->spec, db_->options().engine);
    SiteWireResult result;
    result.request_id = message->request_id;
    result.fragment = fragment;
    result.paths = std::move(local.paths);
    result.status = std::move(local.status);
    transport_->SendResult(fragment, std::move(result));
  }
}

std::vector<LocalQueryResult> SiteNetwork::Exchange(
    const std::vector<LocalQuerySpec>& specs) {
  std::vector<LocalQueryResult> results(specs.size());
  std::vector<bool> answered(specs.size(), false);
  std::lock_guard<std::mutex> lock(exchange_mutex_);

  // Phase 0: all subquery messages are sent before any result is awaited;
  // request ids are spec indices offset by this round's base.
  const uint64_t base = next_request_id_;
  next_request_id_ += specs.size();
  for (size_t s = 0; s < specs.size(); ++s) {
    SiteWireSubquery message;
    message.request_id = base + s;
    message.spec = specs[s];
    transport_->SendSubquery(specs[s].fragment, std::move(message));
    ++traffic_.subquery_messages;
  }

  // Phase 2: collect the (small) result relations back into spec order.
  size_t outstanding = specs.size();
  while (outstanding > 0) {
    std::optional<SiteWireResult> result = transport_->ReceiveResult();
    if (!result.has_value()) break;  // the fabric shut down mid-round
    // Ids below `base` wrap past specs.size(): not replies to this round.
    const uint64_t index = result->request_id - base;
    if (index >= specs.size() || answered[index]) continue;
    ++traffic_.result_messages;
    traffic_.result_tuples += result->paths.size();
    results[index].paths = std::move(result->paths);
    results[index].status = std::move(result->status);
    answered[index] = true;
    --outstanding;
  }
  for (size_t s = 0; s < specs.size() && outstanding > 0; ++s) {
    if (!answered[s]) {
      results[s].status = Status::IOError(
          "site " + std::to_string(specs[s].fragment) +
          " did not answer: the site transport closed");
    }
  }
  return results;
}

SiteTraffic SiteNetwork::traffic() const {
  std::lock_guard<std::mutex> lock(exchange_mutex_);
  SiteTraffic out = traffic_;
  out.fabric_messages = transport_->messages_carried();
  return out;
}

}  // namespace tcf
