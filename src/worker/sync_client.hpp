// Component-side client of the state-synchronization protocol (paper
// Fig 2, message 6).
//
// Lives in the worker library — below core — because remote workers sync
// task states through the broker exactly like the in-process components
// do: the client only needs a BrokerHandle, never the live objects. The
// AppManager-side Synchronizer (src/core/sync.hpp) is the single consumer.
//
// Wire form (the only one): {"ids": [...], "kind", "from", "to",
// "component", "corr", "reply_to"?} — every id moves kind/from -> to; the
// reply is {"corr", "applied", "ok"}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/states.hpp"
#include "src/mq/channel.hpp"

namespace entk {

/// Component-side client of the sync protocol. Not thread-safe: each
/// component thread owns its own client (and ack queue), like an AMQP
/// channel.
class SyncClient {
 public:
  /// `ack_queue` must be unique per component; it is declared on demand.
  SyncClient(mq::BrokerHandlePtr broker, std::string component,
             std::string states_queue, std::string ack_queue);

  /// Request a transition. With `await_ack`, blocks until the Synchronizer
  /// confirms the commit (or the broker closes); returns false when the
  /// transition was rejected or the confirmation never arrived. Without
  /// it, the request goes out through publish_unconfirmed and the call
  /// returns without waiting on the broker.
  bool sync(const Transition& t, bool await_ack = false);

  /// Vectored sync: every task in `ids` moves `from` -> `to`, shipped as
  /// ONE states-queue message; the Synchronizer applies them as one
  /// uninterrupted sequence and — with `await_ack` — confirms them with ONE
  /// reply, so a batch of N transitions costs one round-trip instead of N.
  /// Returns false when any transition was rejected or the confirmation
  /// never arrived.
  bool sync_batch(const std::vector<std::uint32_t>& ids, TaskState from,
                  TaskState to, bool await_ack = false);

 private:
  bool request(json::Array ids, ObjectKind kind, std::uint8_t from,
               std::uint8_t to, bool await_ack);

  mq::BrokerHandlePtr broker_;
  const std::string component_;
  const std::string states_queue_;
  const std::string ack_queue_;
  std::uint64_t next_corr_ = 1;  ///< correlates requests with replies
};

}  // namespace entk
