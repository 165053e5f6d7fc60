#include "src/net/remote_broker.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/log.hpp"
#include "src/mq/tenant.hpp"
#include "src/net/socket.hpp"

namespace entk::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
/// Pipelined publishes in flight before publish_unconfirmed blocks.
constexpr std::size_t kMaxUnconfirmed = 1024;

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::chrono::duration<double> secs(double s) {
  return std::chrono::duration<double>(s);
}

Clock::duration ticks(double s) {
  return std::chrono::duration_cast<Clock::duration>(secs(s));
}

}  // namespace

RemoteBroker::RemoteBroker(RemoteBrokerConfig config)
    : config_(std::move(config)) {
  if (!split_endpoint(config_.endpoint, host_, port_)) {
    throw NetError("net: malformed endpoint '" + config_.endpoint +
                   "' (want host:port)");
  }
  const int fd = connect_tcp(host_, port_, config_.connect_timeout_s);
  if (fd < 0) {
    throw NetError("net: cannot connect to " + config_.endpoint);
  }
  fd_ = fd;
  send_hello();
  announce_worker();
  last_pong_us_.store(now_us(), std::memory_order_relaxed);
  connected_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
}

RemoteBroker::~RemoteBroker() { close(); }

void RemoteBroker::set_metrics(obs::MetricsPtr metrics) {
  metrics_ = std::move(metrics);
  if (metrics_ == nullptr) {
    frames_in_ = frames_out_ = bytes_in_ = bytes_out_ = nullptr;
    reconnects_metric_ = quota_throttled_metric_ = nullptr;
    async_errors_metric_ = resent_metric_ = nullptr;
    publish_us_ = publish_batch_us_ = get_us_ = get_batch_us_ = ack_us_ =
        ack_batch_us_ = nullptr;
    return;
  }
  frames_in_ = &metrics_->counter("net.client.frames_in");
  frames_out_ = &metrics_->counter("net.client.frames_out");
  bytes_in_ = &metrics_->counter("net.client.bytes_in");
  bytes_out_ = &metrics_->counter("net.client.bytes_out");
  reconnects_metric_ = &metrics_->counter("net.client.reconnects");
  quota_throttled_metric_ = &metrics_->counter("net.client.quota_throttled");
  async_errors_metric_ = &metrics_->counter("net.client.async_errors");
  resent_metric_ = &metrics_->counter("net.client.resent");
  publish_us_ = &metrics_->histogram("net.client.publish_us");
  publish_batch_us_ = &metrics_->histogram("net.client.publish_batch_us");
  get_us_ = &metrics_->histogram("net.client.get_us");
  get_batch_us_ = &metrics_->histogram("net.client.get_batch_us");
  ack_us_ = &metrics_->histogram("net.client.ack_us");
  ack_batch_us_ = &metrics_->histogram("net.client.ack_batch_us");
}

// --- io thread -------------------------------------------------------------

void RemoteBroker::io_loop() {
  double backoff = config_.initial_backoff_s;
  while (!closed_.load(std::memory_order_acquire)) {
    int fd;
    {
      std::lock_guard<std::mutex> lk(write_mutex_);
      fd = fd_;
    }
    if (fd < 0) {
      fd = connect_tcp(host_, port_, config_.connect_timeout_s);
      if (fd < 0) {
        std::unique_lock<std::mutex> lk(conn_mutex_);
        conn_cv_.wait_for(lk, secs(backoff), [this] {
          return closed_.load(std::memory_order_acquire);
        });
        backoff = std::min(backoff * 2, config_.max_backoff_s);
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(write_mutex_);
        fd_ = fd;
      }
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (reconnects_metric_ != nullptr) reconnects_metric_->add();
      // Re-bind: every new connection starts in the default tenant.
      send_hello();
      announce_worker();
      // Re-declare before announcing connected: TCP ordering then puts
      // the declares ahead of any operation retried by a caller thread.
      {
        std::lock_guard<std::mutex> lk(declared_mutex_);
        for (const auto& [queue, durable] : declared_) {
          Frame declare;
          declare.op = Op::kDeclare;
          declare.corr = 0;
          declare.queue = queue;
          declare.flags = durable ? kFlagDurable : 0;
          send_frame(declare);
        }
      }
      {
        // Then the unconfirmed window, in corr order. connected_ flips
        // under the same mutex, so no caller sends one of these frames
        // on this connection a second time.
        std::lock_guard<std::mutex> lk(window_mutex_);
        for (const auto& [corr, frame] : window_) send_frame(frame);
        if (resent_metric_ != nullptr) resent_metric_->add(window_.size());
        last_pong_us_.store(now_us(), std::memory_order_relaxed);
        connected_.store(true, std::memory_order_release);
      }
      conn_cv_.notify_all();
    }

    serve_connection(fd);

    {
      std::lock_guard<std::mutex> lk(window_mutex_);
      connected_.store(false, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lk(write_mutex_);
      if (fd_ >= 0) {
        ::shutdown(fd_, SHUT_RDWR);
        close_fd(fd_);
        fd_ = -1;
      }
    }
    fail_pending("net: connection to " + config_.endpoint + " lost");
    backoff = config_.initial_backoff_s;
  }
}

void RemoteBroker::serve_connection(int fd) {
  std::string rbuf;
  std::size_t rbuf_off = 0;
  char chunk[kReadChunk];
  auto next_heartbeat = Clock::now() + secs(config_.heartbeat_interval_s);
  const std::int64_t stale_us = static_cast<std::int64_t>(
      std::max(4 * config_.heartbeat_interval_s, 1.0) * 1e6);

  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 20);
    if (r < 0 && errno != EINTR) return;
    if (r > 0) {
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) return;
      if (pfd.revents & POLLIN) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0) return;
        if (n < 0) {
          if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
            return;
          }
        } else {
          if (bytes_in_ != nullptr) {
            bytes_in_->add(static_cast<std::uint64_t>(n));
          }
          rbuf.append(chunk, static_cast<std::size_t>(n));
          try {
            while (true) {
              std::optional<Frame> frame = decode_frame(rbuf, rbuf_off);
              if (!frame.has_value()) break;
              if (frames_in_ != nullptr) frames_in_->add();
              dispatch(std::move(*frame));
            }
          } catch (const MqError&) {
            return;  // corrupt stream: reconnect from scratch
          }
          if (rbuf_off > 0) {
            rbuf.erase(0, rbuf_off);
            rbuf_off = 0;
          }
        }
      }
    }

    const auto now = Clock::now();
    if (now >= next_heartbeat) {
      Frame heartbeat;
      heartbeat.op = Op::kHeartbeat;
      heartbeat.corr = 0;
      if (!send_frame(heartbeat)) return;
      next_heartbeat = now + secs(config_.heartbeat_interval_s);
    }
    if (now_us() - last_pong_us_.load(std::memory_order_relaxed) > stale_us) {
      return;  // server stopped echoing heartbeats: assume it is gone
    }
  }
}

void RemoteBroker::dispatch(Frame&& resp) {
  // Any inbound frame proves the server is alive.
  last_pong_us_.store(now_us(), std::memory_order_relaxed);
  if (resp.corr == 0 && resp.op == Op::kHeartbeat) {
    // io-thread-originated traffic: heartbeat echoes carry broker health;
    // hello, worker-hello and re-declare acks need no handling beyond the
    // kError report in settle(). A refused tenant hello needs none
    // either: the server drops the connection.
    std::lock_guard<std::mutex> lk(health_mutex_);
    last_health_ = std::move(resp.body);
    return;
  }
  if (resp.corr != 0) {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    auto it = pending_.find(resp.corr);
    if (it != pending_.end()) {
      it->second.done = true;
      it->second.response = std::move(resp);
      pending_cv_.notify_all();
      return;
    }
  }
  settle(std::move(resp));
}

void RemoteBroker::settle(Frame&& resp) {
  {
    std::lock_guard<std::mutex> lk(window_mutex_);
    if (resp.corr != 0 && window_.erase(resp.corr) > 0) {
      window_cv_.notify_all();
    }
  }
  if (resp.op != Op::kError) return;
  if (async_errors_metric_ != nullptr) async_errors_metric_->add();
  ENTK_WARN("remote_broker") << "unawaited request " << resp.corr << " to "
                             << config_.endpoint
                             << " failed: " << resp.body;
}

std::size_t RemoteBroker::unconfirmed() const {
  std::lock_guard<std::mutex> lk(window_mutex_);
  return window_.size();
}

void RemoteBroker::fail_pending(const std::string& why) {
  std::lock_guard<std::mutex> lk(pending_mutex_);
  for (auto& [corr, slot] : pending_) {
    if (slot.done) continue;
    slot.failed = true;
    slot.error = why;
  }
  pending_cv_.notify_all();
}

void RemoteBroker::send_hello() {
  if (config_.tenant.empty()) return;
  Frame hello;
  hello.op = Op::kHello;
  hello.corr = 0;
  hello.body = config_.tenant;
  send_frame(hello);
}

void RemoteBroker::announce_worker() {
  if (config_.worker_id.empty()) return;
  // Fire-and-forget like the tenant hello.
  Frame hello;
  hello.op = Op::kWorkerHello;
  hello.corr = 0;
  hello.body = config_.worker_id;
  send_frame(hello);
}

// --- request path ----------------------------------------------------------

bool RemoteBroker::send_frame(const Frame& frame) const {
  // Scatter-gather write: only the small fixed header is materialized; the
  // body — a whole publish_batch, potentially megabytes — goes to the
  // socket straight from the frame, so a batch costs one sendmsg and zero
  // body copies.
  std::string header;
  append_frame_header(header, frame, frame.body.size());
  iovec iov[2];
  iov[0] = {header.data(), header.size()};
  iov[1] = {const_cast<char*>(frame.body.data()), frame.body.size()};
  const std::size_t total = header.size() + frame.body.size();

  std::lock_guard<std::mutex> lk(write_mutex_);
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  std::size_t idx = 0;
  while (sent < total) {
    msghdr mh{};
    mh.msg_iov = iov + idx;
    mh.msg_iovlen = 2 - idx;
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Half-dead socket: shut it down so the io thread's poll wakes and
      // runs the reconnect path instead of waiting for a heartbeat miss.
      ::shutdown(fd_, SHUT_RDWR);
      return false;
    }
    sent += static_cast<std::size_t>(n);
    std::size_t advance = static_cast<std::size_t>(n);
    while (idx < 2 && advance >= iov[idx].iov_len) {
      advance -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < 2 && advance > 0) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + advance;
      iov[idx].iov_len -= advance;
    }
  }
  if (frames_out_ != nullptr) frames_out_->add();
  if (bytes_out_ != nullptr) bytes_out_->add(total);
  return true;
}

bool RemoteBroker::wait_connected(double timeout_s) const {
  if (connected_.load(std::memory_order_acquire)) return true;
  if (closed_.load(std::memory_order_acquire) || timeout_s <= 0) {
    return connected_.load(std::memory_order_acquire);
  }
  std::unique_lock<std::mutex> lk(conn_mutex_);
  conn_cv_.wait_for(lk, secs(timeout_s), [this] {
    return connected_.load(std::memory_order_acquire) ||
           closed_.load(std::memory_order_acquire);
  });
  return connected_.load(std::memory_order_acquire);
}

std::optional<Frame> RemoteBroker::roundtrip(Frame req, double wait_s,
                                             std::string* why) const {
  const std::uint64_t corr =
      next_corr_.fetch_add(1, std::memory_order_relaxed);
  req.corr = corr;
  {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    pending_.emplace(corr, PendingSlot{});
  }
  if (!send_frame(req)) {
    std::lock_guard<std::mutex> lk(pending_mutex_);
    pending_.erase(corr);
    *why = "not connected";
    return std::nullopt;
  }

  std::unique_lock<std::mutex> lk(pending_mutex_);
  pending_cv_.wait_for(lk, secs(wait_s), [this, corr] {
    auto it = pending_.find(corr);
    return it == pending_.end() || it->second.done || it->second.failed;
  });
  auto it = pending_.find(corr);
  PendingSlot slot = std::move(it->second);
  pending_.erase(it);
  lk.unlock();

  if (slot.done) {
    if (slot.response.op == Op::kError) throw MqError(slot.response.body);
    return std::move(slot.response);
  }
  *why = slot.failed ? slot.error : "response timed out";
  return std::nullopt;
}

Frame RemoteBroker::roundtrip_retry(const Frame& req,
                                    const char* op_name) const {
  const auto deadline = Clock::now() + secs(config_.retry_deadline_s);
  std::string why = "not connected";
  bool throttled = false;
  double slice = std::max(config_.initial_backoff_s, 0.01);
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      throw MqError("net: broker handle closed");
    }
    if (wait_connected(slice)) {
      std::string err;
      std::optional<Frame> resp =
          roundtrip(req, config_.response_grace_s, &err);
      if (resp.has_value()) {
        if (resp->op != Op::kErrQuota) return std::move(*resp);
        // Per-tenant backpressure, not a failure: honor the server's
        // retry-after hint (bounded — a large hint must not overshoot the
        // deadline, a zero hint must not busy-spin) and try again.
        throttled = true;
        why = resp->body.empty() ? "tenant quota exceeded" : resp->body;
        quota_throttled_.fetch_add(1, std::memory_order_relaxed);
        if (quota_throttled_metric_ != nullptr) quota_throttled_metric_->add();
        const double remaining =
            std::chrono::duration<double>(deadline - Clock::now()).count();
        const double pause = std::clamp(
            std::min(static_cast<double>(resp->arg) * 1e-6, remaining),
            0.001, 0.2);
        std::this_thread::sleep_for(secs(pause));
      } else {
        throttled = false;
        why = err;
      }
    }
    slice = std::min(slice * 2, config_.max_backoff_s);
    if (Clock::now() >= deadline) {
      const std::string detail = std::string("net: ") + op_name + " to " +
                                 config_.endpoint + " failed after " +
                                 std::to_string(config_.retry_deadline_s) +
                                 "s of retries: " + why;
      if (throttled) throw mq::QuotaError(detail);
      throw NetError(detail);
    }
  }
}

void RemoteBroker::observe_op(obs::Histogram* h,
                              Clock::time_point started) const {
  if (h == nullptr) return;
  h->observe(
      std::chrono::duration<double, std::micro>(Clock::now() - started)
          .count());
}

// --- BrokerHandle ----------------------------------------------------------

std::shared_ptr<mq::Queue> RemoteBroker::declare_queue(
    const std::string& queue, mq::QueueOptions options) {
  {
    // Recorded before the first attempt so a reconnect mid-declare still
    // re-declares it.
    std::lock_guard<std::mutex> lk(declared_mutex_);
    declared_[queue] = options.durable;
  }
  Frame req;
  req.op = Op::kDeclare;
  req.queue = queue;
  req.flags = options.durable ? kFlagDurable : 0;
  roundtrip_retry(req, "declare");
  return nullptr;  // the queue lives in the daemon's address space
}

bool RemoteBroker::has_queue(const std::string& queue) const {
  Frame req;
  req.op = Op::kHasQueue;
  req.queue = queue;
  const Frame resp = roundtrip_retry(req, "has_queue");
  return (resp.flags & kFlagTrue) != 0;
}

std::uint64_t RemoteBroker::publish(const std::string& queue,
                                    mq::Message msg) {
  const auto started = Clock::now();
  Frame req;
  req.op = Op::kPublish;
  req.queue = queue;
  append_message_binary(req.body, msg);
  const Frame resp = roundtrip_retry(req, "publish");
  observe_op(publish_us_, started);
  return resp.arg;
}

std::uint64_t RemoteBroker::publish_batch(const std::string& queue,
                                          std::vector<mq::Message> msgs) {
  const auto started = Clock::now();
  Frame req;
  req.op = Op::kPublishBatch;
  req.queue = queue;
  put_u32(req.body, static_cast<std::uint32_t>(msgs.size()));
  for (const mq::Message& msg : msgs) append_message_binary(req.body, msg);
  const Frame resp = roundtrip_retry(req, "publish_batch");
  observe_op(publish_batch_us_, started);
  return resp.arg;
}

void RemoteBroker::publish_unconfirmed(const std::string& queue,
                                       mq::Message msg) {
  if (!config_.tenant.empty()) {
    // Only a tenant can be throttled. A throttled pipelined frame would be
    // resent behind later frames of this handle, and callers rely on
    // per-handle order (a state transition must reach the Synchronizer
    // before the next one), so a tenant publishes confirmed: the quota
    // retry then waits on this caller's thread.
    publish(queue, std::move(msg));
    return;
  }
  const auto started = Clock::now();
  Frame req;
  req.op = Op::kPublish;
  req.queue = queue;
  append_message_binary(req.body, msg);
  std::unique_lock<std::mutex> lk(window_mutex_);
  const bool room = window_cv_.wait_until(
      lk, started + ticks(config_.retry_deadline_s), [this] {
        return closed_.load(std::memory_order_acquire) ||
               window_.size() < kMaxUnconfirmed;
      });
  if (closed_.load(std::memory_order_acquire)) {
    throw MqError("net: broker handle closed");
  }
  if (!room) {
    throw NetError("net: publish to " + config_.endpoint + " stalled: " +
                   std::to_string(kMaxUnconfirmed) +
                   " frames still unconfirmed after " +
                   std::to_string(config_.retry_deadline_s) + "s");
  }
  req.corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
  const Frame& frame = window_.emplace(req.corr, std::move(req)).first->second;
  // While disconnected the frame just waits for the reconnect resend.
  if (connected_.load(std::memory_order_acquire)) send_frame(frame);
}

std::optional<mq::Delivery> RemoteBroker::get(const std::string& queue,
                                              double timeout_s) {
  const auto started = Clock::now();
  if (!wait_connected(timeout_s)) return std::nullopt;
  Frame req;
  req.op = Op::kGet;
  req.queue = queue;
  put_u64(req.body, static_cast<std::uint64_t>(timeout_s * 1e6));
  std::string why;
  std::optional<Frame> resp =
      roundtrip(req, timeout_s + config_.response_grace_s, &why);
  observe_op(get_us_, started);
  if (!resp.has_value() || resp->op != Op::kDelivery) return std::nullopt;
  std::size_t off = 0;
  mq::Delivery delivery;
  delivery.delivery_tag = resp->arg;
  delivery.message = decode_message_binary(resp->body, off);
  return delivery;
}

std::vector<mq::Delivery> RemoteBroker::get_batch(const std::string& queue,
                                                  std::size_t max_n,
                                                  double timeout_s) {
  const auto started = Clock::now();
  if (max_n == 0 || !wait_connected(timeout_s)) return {};
  Frame req;
  req.op = Op::kGetBatch;
  req.queue = queue;
  req.arg = max_n;
  put_u64(req.body, static_cast<std::uint64_t>(timeout_s * 1e6));
  std::string why;
  std::optional<Frame> resp =
      roundtrip(req, timeout_s + config_.response_grace_s, &why);
  observe_op(get_batch_us_, started);
  if (!resp.has_value() || resp->op != Op::kDeliveryBatch) return {};
  std::size_t off = 0;
  const std::uint32_t count = get_count(resp->body, off, 8 + kMinMessageBytes);
  std::vector<mq::Delivery> deliveries;
  deliveries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    mq::Delivery delivery;
    delivery.delivery_tag = get_u64(resp->body, off);
    delivery.message = decode_message_binary(resp->body, off);
    deliveries.push_back(std::move(delivery));
  }
  return deliveries;
}

bool RemoteBroker::ack(const std::string& queue, std::uint64_t delivery_tag) {
  // Pipelined, never resent: if the connection died, the server already
  // requeued this delivery and the message will be redelivered, so an ack
  // that missed its connection has nothing left to release.
  const auto started = Clock::now();
  Frame req;
  req.op = Op::kAck;
  req.corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
  req.queue = queue;
  req.arg = delivery_tag;
  const bool sent = connected_.load(std::memory_order_acquire) && send_frame(req);
  observe_op(ack_us_, started);
  return sent;
}

bool RemoteBroker::nack(const std::string& queue, std::uint64_t delivery_tag,
                        bool requeue) {
  if (!wait_connected(1.0)) return false;
  Frame req;
  req.op = Op::kNack;
  req.queue = queue;
  req.arg = delivery_tag;
  if (requeue) req.flags |= kFlagRequeue;
  std::string why;
  std::optional<Frame> resp =
      roundtrip(req, config_.response_grace_s, &why);
  return resp.has_value() && (resp->flags & kFlagTrue) != 0;
}

std::size_t RemoteBroker::ack_batch(
    const std::string& queue,
    const std::vector<std::uint64_t>& delivery_tags) {
  // Pipelined like ack(); returns the number of tags sent.
  const auto started = Clock::now();
  if (delivery_tags.empty() || !connected_.load(std::memory_order_acquire)) {
    return 0;
  }
  Frame req;
  req.op = Op::kAckBatch;
  req.corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
  req.queue = queue;
  put_u32(req.body, static_cast<std::uint32_t>(delivery_tags.size()));
  for (std::uint64_t tag : delivery_tags) put_u64(req.body, tag);
  const bool sent = send_frame(req);
  observe_op(ack_batch_us_, started);
  return sent ? delivery_tags.size() : 0;
}

std::size_t RemoteBroker::requeue_unacked(const std::string& queue) {
  // Best effort: a dead connection already requeued everything this
  // client held (the server's disconnect path), so 0 is not a loss.
  if (!wait_connected(1.0)) return 0;
  Frame req;
  req.op = Op::kRequeue;
  req.queue = queue;
  std::string why;
  std::optional<Frame> resp =
      roundtrip(req, config_.response_grace_s, &why);
  return resp.has_value() ? static_cast<std::size_t>(resp->arg) : 0;
}

std::vector<mq::QueueDepth> RemoteBroker::depth_snapshot() const {
  if (!connected_.load(std::memory_order_acquire)) return {};
  Frame req;
  req.op = Op::kDepth;
  std::string why;
  try {
    std::optional<Frame> resp =
        roundtrip(req, config_.response_grace_s, &why);
    if (!resp.has_value() || resp->op != Op::kDepthReport) return {};
    std::size_t off = 0;
    const std::uint32_t count = get_count(resp->body, off, 2 + 8 + 8);
    std::vector<mq::QueueDepth> depths;
    depths.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      mq::QueueDepth depth;
      const std::uint16_t name_len = get_u16(resp->body, off);
      if (resp->body.size() - off < name_len) return depths;
      depth.queue.assign(resp->body, off, name_len);
      off += name_len;
      depth.ready = static_cast<std::size_t>(get_u64(resp->body, off));
      depth.unacked = static_cast<std::size_t>(get_u64(resp->body, off));
      depths.push_back(std::move(depth));
    }
    return depths;
  } catch (const MqError&) {
    return {};
  }
}

void RemoteBroker::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (connected_.load(std::memory_order_acquire)) {
    Frame bye;
    bye.op = Op::kClose;
    bye.corr = 0;
    send_frame(bye);  // best effort: lets the daemon requeue eagerly
  }
  conn_cv_.notify_all();
  {
    // Wake publish_unconfirmed callers blocked on a full window.
    std::lock_guard<std::mutex> lk(window_mutex_);
  }
  window_cv_.notify_all();
  {
    // Wake the io thread's poll immediately.
    std::lock_guard<std::mutex> lk(write_mutex_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard<std::mutex> lk(write_mutex_);
    if (fd_ >= 0) {
      close_fd(fd_);
      fd_ = -1;
    }
  }
  connected_.store(false, std::memory_order_release);
  fail_pending("net: broker handle closed");
}

std::string RemoteBroker::health() const {
  std::lock_guard<std::mutex> lk(health_mutex_);
  return last_health_;
}

}  // namespace entk::net
