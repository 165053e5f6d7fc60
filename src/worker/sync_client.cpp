#include "src/worker/sync_client.hpp"

#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace entk {

SyncClient::SyncClient(mq::BrokerHandlePtr broker, std::string component,
                       std::string states_queue, std::string ack_queue)
    : broker_(std::move(broker)),
      component_(std::move(component)),
      states_queue_(std::move(states_queue)),
      ack_queue_(std::move(ack_queue)) {
  broker_->declare_queue(ack_queue_);
}

bool SyncClient::sync(const Transition& t, bool await_ack) {
  json::Array ids;
  ids.emplace_back(t.id);
  return request(std::move(ids), t.kind, t.from, t.to, await_ack);
}

bool SyncClient::sync_batch(const std::vector<std::uint32_t>& ids,
                            TaskState from, TaskState to, bool await_ack) {
  if (ids.empty()) return true;
  return request(json::Array(ids.begin(), ids.end()), ObjectKind::Task,
                 static_cast<std::uint8_t>(from),
                 static_cast<std::uint8_t>(to), await_ack);
}

bool SyncClient::request(json::Array ids, ObjectKind kind, std::uint8_t from,
                         std::uint8_t to, bool await_ack) {
  const std::uint64_t corr = next_corr_++;
  json::Value msg;
  msg["ids"] = std::move(ids);
  msg["kind"] = to_string(kind);
  msg["from"] = state_name(kind, from);
  msg["to"] = state_name(kind, to);
  msg["component"] = component_;
  msg["corr"] = corr;
  if (await_ack) msg["reply_to"] = ack_queue_;
  try {
    broker_->publish(states_queue_,
                     mq::Message::json_body(states_queue_, std::move(msg)));
  } catch (const MqError&) {
    return false;  // broker shutting down
  }
  if (!await_ack) return true;
  // Acks for this component arrive in request order (single synchronizer,
  // single blocked requester per ack queue).
  for (int spins = 0; spins < 2000; ++spins) {
    auto delivery = broker_->get(ack_queue_, 0.005);
    if (!delivery) {
      if (broker_->closed()) return false;
      continue;
    }
    broker_->ack(ack_queue_, delivery->delivery_tag);
    std::shared_ptr<const json::Value> ack;
    try {
      ack = delivery->message.payload();  // shared, no copy/parse in-process
    } catch (const json::ParseError&) {
      continue;
    }
    if (static_cast<std::uint64_t>(ack->get_int("corr", 0)) != corr) {
      ENTK_WARN(component_) << "out-of-order ack (corr "
                            << ack->get_int("corr", 0) << ")";
      continue;
    }
    return ack->get_bool("ok", false);
  }
  return false;
}

}  // namespace entk
