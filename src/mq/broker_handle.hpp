// BrokerHandle: the narrow broker surface EnTK components program against.
//
// The paper's components are "topology-unaware" (§II-C): they talk to the
// broker by queue name and never care where it runs. This interface is
// that contract made explicit — exactly the publish/get/ack slice (plus
// the batch variants, the unconfirmed publish and the restart-path
// requeue) that WFProcessor, ExecManager and the Synchronizer use. Two
// implementations exist:
//
//   * mq::Broker           — the in-process broker (zero-copy fast path);
//   * net::RemoteBroker    — a TCP client speaking the src/net framed wire
//                            protocol to an entk_broker daemon.
//
// AppManager picks one from AppManagerConfig::broker_endpoint and the
// components run unmodified against either backend.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/mq/message.hpp"
#include "src/mq/queue.hpp"

namespace entk::mq {

class Queue;

class BrokerHandle {
 public:
  virtual ~BrokerHandle() = default;

  /// Idempotent declare. The in-process broker returns the live queue
  /// object; remote handles return nullptr (the queue lives in the broker
  /// daemon's address space).
  virtual std::shared_ptr<Queue> declare_queue(const std::string& queue,
                                               QueueOptions options = {}) = 0;
  virtual bool has_queue(const std::string& queue) const = 0;

  /// Publish one message; returns the broker-assigned sequence number.
  /// Throws MqError on unknown queue / closed broker.
  virtual std::uint64_t publish(const std::string& queue, Message msg) = 0;

  /// Publish without waiting for the broker's confirm, for senders that
  /// never read the sequence number (unconfirmed state syncs, sync
  /// replies). Delivery is the same at-least-once as publish(); only the
  /// wait moves off the caller. The default is publish(), which is all the
  /// in-process broker needs. The remote handle pipelines it: the frame is
  /// sent now, its confirm is collected later, and an unconfirmed frame is
  /// resent after a reconnect. Either way, one handle's publishes arrive in
  /// the order they were made.
  virtual void publish_unconfirmed(const std::string& queue, Message msg) {
    publish(queue, std::move(msg));
  }

  /// Publish a batch to one queue; messages get a contiguous sequence
  /// range starting at the returned number.
  virtual std::uint64_t publish_batch(const std::string& queue,
                                      std::vector<Message> msgs) = 0;

  /// Consume one message, waiting up to `timeout_s`; nullopt on timeout.
  virtual std::optional<Delivery> get(const std::string& queue,
                                      double timeout_s) = 0;

  /// Consume up to `max_n` messages; may be partial or empty on timeout.
  virtual std::vector<Delivery> get_batch(const std::string& queue,
                                          std::size_t max_n,
                                          double timeout_s) = 0;

  /// Release a delivery. In process the result says whether the tag was
  /// unacked; over the wire acks are pipelined, so it only says the ack was
  /// sent (a lost one leaves the delivery to the disconnect requeue).
  virtual bool ack(const std::string& queue, std::uint64_t delivery_tag) = 0;
  virtual bool nack(const std::string& queue, std::uint64_t delivery_tag,
                    bool requeue) = 0;
  virtual std::size_t ack_batch(
      const std::string& queue,
      const std::vector<std::uint64_t>& delivery_tags) = 0;

  /// Requeue every unacked delivery of `queue` (component-restart path).
  virtual std::size_t requeue_unacked(const std::string& queue) = 0;

  /// Per-queue ready/unacked backlog snapshot (heartbeat depth gauges).
  virtual std::vector<QueueDepth> depth_snapshot() const = 0;

  /// Stop accepting operations. For the in-process broker this closes all
  /// queues; for a remote handle it closes this client's connection (the
  /// daemon and its queues keep serving other clients).
  virtual void close() = 0;
  virtual bool closed() const = 0;

  /// Durability health: "" when healthy, otherwise the sticky failure
  /// description (e.g. a journal-flusher I/O error). Probed by the
  /// AppManager-level Supervisor so a broker that can no longer persist
  /// fails the run loudly instead of silently dropping durability.
  virtual std::string health() const { return ""; }
};

using BrokerHandlePtr = std::shared_ptr<BrokerHandle>;

}  // namespace entk::mq
