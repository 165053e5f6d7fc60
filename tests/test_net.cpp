// Networked broker transport tests: frame codec properties, loopback
// BrokerServer <-> RemoteBroker operation semantics (at-least-once
// redelivery, long-poll gets, disconnect requeue, daemon kill/restart),
// and AppManager end-to-end parity between the in-process and networked
// backends.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <random>
#include <thread>

#include "src/common/clock.hpp"
#include "src/core/app_manager.hpp"
#include "src/core/state_store.hpp"
#include "src/core/sync.hpp"
#include "src/mq/tenant.hpp"
#include "src/net/broker_server.hpp"
#include "src/net/frame.hpp"
#include "src/net/remote_broker.hpp"
#include "src/net/socket.hpp"
#include "src/obs/metrics.hpp"
#include "tests/raw_conn.hpp"

namespace entk {
namespace {

// ---------------------------------------------------------- frame codec

net::Frame random_frame(std::mt19937& rng) {
  std::uniform_int_distribution<int> op_pick(0, 17);
  static const net::Op kOps[] = {
      net::Op::kDeclare,   net::Op::kHasQueue,     net::Op::kPublish,
      net::Op::kPublishBatch, net::Op::kGet,       net::Op::kGetBatch,
      net::Op::kAck,       net::Op::kAckBatch,     net::Op::kNack,
      net::Op::kRequeue,   net::Op::kDepth,        net::Op::kHeartbeat,
      net::Op::kClose,     net::Op::kOk,           net::Op::kError,
      net::Op::kDelivery,  net::Op::kDeliveryBatch, net::Op::kDepthReport};
  std::uniform_int_distribution<std::uint64_t> u64;
  std::uniform_int_distribution<std::uint32_t> u32;
  std::uniform_int_distribution<std::size_t> queue_len(0, 64);
  std::uniform_int_distribution<std::size_t> body_len(0, 4096);
  std::uniform_int_distribution<int> byte(0, 255);

  net::Frame f;
  f.op = kOps[op_pick(rng)];
  f.corr = u64(rng);
  f.arg = u64(rng);
  f.flags = u32(rng);
  f.queue.resize(queue_len(rng));
  for (char& c : f.queue) c = static_cast<char>(byte(rng));
  f.body.resize(body_len(rng));
  for (char& c : f.body) c = static_cast<char>(byte(rng));
  return f;
}

TEST(FrameCodec, RandomFramesRoundTrip) {
  std::mt19937 rng(20260806);  // seeded: failures must reproduce
  for (int i = 0; i < 200; ++i) {
    const net::Frame frame = random_frame(rng);
    const std::string wire = net::encode_frame(frame);
    std::size_t offset = 0;
    const auto decoded = net::decode_frame(wire, offset);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_EQ(offset, wire.size());
  }
}

TEST(FrameCodec, PartialBufferDecodesToNulloptAtEverySplitPoint) {
  net::Frame frame;
  frame.op = net::Op::kPublish;
  frame.corr = 7;
  frame.arg = 42;
  frame.flags = net::kFlagDurable;
  frame.queue = "q.pending";
  frame.body = "payload-bytes";
  const std::string wire = net::encode_frame(frame);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t offset = 0;
    const auto decoded =
        net::decode_frame(std::string_view(wire.data(), cut), offset);
    EXPECT_FALSE(decoded.has_value()) << "cut at " << cut;
    EXPECT_EQ(offset, 0u) << "cut at " << cut;
  }
}

TEST(FrameCodec, ConsecutiveFramesDecodeInOrder) {
  std::mt19937 rng(7);
  std::string wire;
  std::vector<net::Frame> frames;
  for (int i = 0; i < 16; ++i) {
    frames.push_back(random_frame(rng));
    net::append_frame(wire, frames.back());
  }
  std::size_t offset = 0;
  for (const net::Frame& expected : frames) {
    const auto decoded = net::decode_frame(wire, offset);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, expected);
  }
  EXPECT_EQ(offset, wire.size());
  EXPECT_FALSE(net::decode_frame(wire, offset).has_value());
}

TEST(FrameCodec, OversizedLengthPrefixThrowsInsteadOfAllocating) {
  // A corrupt length prefix must kill the connection, not reserve 4 GiB.
  std::string wire;
  net::put_u32(wire, 0xffffffffu);
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_frame(wire, offset), net::NetError);
}

TEST(FrameCodec, QueueLengthOverrunningFrameThrows) {
  // Frame length admits the header but the queue_len field promises more
  // bytes than the frame carries: a framing violation, not a partial read.
  std::string payload;
  payload.push_back(static_cast<char>(net::Op::kGet));
  net::put_u64(payload, 1);   // corr
  net::put_u64(payload, 0);   // arg
  net::put_u32(payload, 0);   // flags
  net::put_u16(payload, 200); // queue_len, but no queue bytes follow
  std::string wire;
  net::put_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire += payload;
  std::size_t offset = 0;
  EXPECT_THROW(net::decode_frame(wire, offset), net::NetError);
}

TEST(MessageCodec, StructuredMessageRoundTripsThroughBytes) {
  json::Value payload;
  payload["uid"] = "task.42";
  payload["outcome"] = "DONE";
  json::Value headers;
  headers["reply_to"] = "q.ack.emgr";
  mq::Message msg = mq::Message::json_body("q.completed", payload, headers);
  msg.seq = 99;

  std::string wire;
  net::append_message_binary(wire, msg);
  std::size_t offset = 0;
  const mq::Message decoded = net::decode_message_binary(wire, offset);
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(decoded.seq, 99u);
  EXPECT_EQ(decoded.headers.get_string("reply_to", ""), "q.ack.emgr");
  EXPECT_EQ(decoded.payload()->get_string("uid", ""), "task.42");
  EXPECT_EQ(decoded.payload()->get_string("outcome", ""), "DONE");
}

TEST(MessageCodec, NullHeadersAndEmptyBodySurvive) {
  mq::Message msg;
  msg.routing_key = "q.x";
  msg.seq = 1;
  std::string wire;
  net::append_message_binary(wire, msg);
  std::size_t offset = 0;
  const mq::Message decoded = net::decode_message_binary(wire, offset);
  EXPECT_TRUE(decoded.headers.is_null());
  EXPECT_EQ(decoded.seq, 1u);
  EXPECT_EQ(decoded.body(), "");
}

// ------------------------------------------------------- loopback fixture

mq::Message text_message(const std::string& queue, const std::string& text) {
  json::Value payload;
  payload["text"] = text;
  return mq::Message::json_body(queue, std::move(payload));
}

std::string text_of(const mq::Delivery& d) {
  return d.message.payload()->get_string("text", "");
}

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("loopback");
    server_ = std::make_unique<net::BrokerServer>(
        broker_, net::BrokerServerConfig{}, std::make_shared<Profiler>());
    server_->start();
    net::RemoteBrokerConfig cfg;
    cfg.endpoint = server_->endpoint();
    cfg.retry_deadline_s = 10.0;
    client_ = std::make_unique<net::RemoteBroker>(cfg);
    client_->declare_queue("q.t", {});
  }

  void TearDown() override {
    if (client_) client_->close();
    if (server_) server_->stop();
    if (broker_) broker_->close();
  }

  mq::BrokerPtr broker_;
  std::unique_ptr<net::BrokerServer> server_;
  std::unique_ptr<net::RemoteBroker> client_;
};

TEST_F(LoopbackTest, PublishGetAckRoundTrip) {
  const std::uint64_t seq = client_->publish("q.t", text_message("q.t", "m1"));
  EXPECT_GT(seq, 0u);
  auto delivery = client_->get("q.t", 1.0);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(text_of(*delivery), "m1");
  EXPECT_TRUE(client_->ack("q.t", delivery->delivery_tag));
  // Acked: nothing left to deliver.
  EXPECT_FALSE(client_->get("q.t", 0.0).has_value());
}

TEST_F(LoopbackTest, BatchOpsMoveWholeChunks) {
  std::vector<mq::Message> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(text_message("q.t", 'm' + std::to_string(i)));
  }
  const std::uint64_t last_seq = client_->publish_batch("q.t", std::move(batch));
  EXPECT_GT(last_seq, 0u);

  const std::vector<mq::Delivery> got = client_->get_batch("q.t", 10, 1.0);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(text_of(got[static_cast<std::size_t>(i)]),
              'm' + std::to_string(i));
  }
  std::vector<std::uint64_t> tags;
  for (const mq::Delivery& d : got) tags.push_back(d.delivery_tag);
  EXPECT_EQ(client_->ack_batch("q.t", tags), 10u);
  EXPECT_TRUE(client_->get_batch("q.t", 10, 0.0).empty());
}

TEST_F(LoopbackTest, FreshConnectionIsTypedFromItsFirstFrame) {
  // No handshake precedes the typed-value codec: a brand-new client's very
  // first operation is a publish, and nothing on the path renders JSON.
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = server_->endpoint();
  cfg.retry_deadline_s = 10.0;
  const std::uint64_t renders_before = mq::body_render_count();
  net::RemoteBroker fresh(cfg);
  fresh.publish("q.t", text_message("q.t", "first"));
  auto d = fresh.get("q.t", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "first");
  EXPECT_TRUE(fresh.ack("q.t", d->delivery_tag));
  EXPECT_EQ(mq::body_render_count(), renders_before);
  fresh.close();
}

TEST_F(LoopbackTest, BinaryPathNeverRendersJsonText) {
  const std::uint64_t renders_before = mq::body_render_count();
  std::vector<mq::Message> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(text_message("q.t", "zc" + std::to_string(i)));
  }
  client_->publish_batch("q.t", std::move(batch));
  const std::vector<mq::Delivery> got = client_->get_batch("q.t", 8, 1.0);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(text_of(got[static_cast<std::size_t>(i)]),
              "zc" + std::to_string(i));
  }
  // Client encode, server relay, client decode: structured the whole way.
  EXPECT_EQ(mq::body_render_count(), renders_before);
}

TEST_F(LoopbackTest, HasQueueReflectsDeclares) {
  EXPECT_TRUE(client_->has_queue("q.t"));
  EXPECT_FALSE(client_->has_queue("q.never_declared"));
  client_->declare_queue("q.second", {});
  EXPECT_TRUE(client_->has_queue("q.second"));
  EXPECT_TRUE(broker_->has_queue("q.second"));  // declared in the daemon
}

TEST_F(LoopbackTest, PublishToUnknownQueueRaisesMqError) {
  // Semantic broker errors cross the wire as kError and rethrow —
  // immediately, not after the retry deadline.
  EXPECT_THROW(client_->publish("q.missing", text_message("q.missing", "x")),
               MqError);
}

TEST_F(LoopbackTest, MalformedPublishBodyIsAnErrorNotAServerFault) {
  // A publish whose message bytes are not the typed-value encoding (here
  // the old JSON text form with headers "{not json") fails that one
  // request with kError; the server keeps serving every connection.
  test::RawConn raw(server_->endpoint());
  net::Frame publish;
  publish.op = net::Op::kPublish;
  publish.corr = 41;
  publish.queue = "q.t";
  net::put_u32(publish.body, 9);
  publish.body += "{not json";
  net::put_u64(publish.body, 0);
  net::put_u32(publish.body, 0);
  raw.send(publish);
  const auto resp = raw.recv_frame();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, net::Op::kError);
  EXPECT_EQ(resp->corr, 41u);
  EXPECT_EQ(server_->state(), ComponentState::Running);

  client_->publish("q.t", text_message("q.t", "after"));
  auto d = client_->get("q.t", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "after");
  EXPECT_TRUE(client_->ack("q.t", d->delivery_tag));
}

TEST_F(LoopbackTest, LyingBatchCountsAreErrorsNotAllocations) {
  // A batch count the frame body cannot possibly hold is refused before
  // anything is reserved for it — the reserve would otherwise throw
  // std::bad_alloc past the server's error path.
  test::RawConn raw(server_->endpoint());
  std::uint64_t corr = 50;
  for (const net::Op op : {net::Op::kPublishBatch, net::Op::kAckBatch}) {
    net::Frame batch;
    batch.op = op;
    batch.corr = ++corr;
    batch.queue = "q.t";
    net::put_u32(batch.body, 0xffffffffu);
    raw.send(batch);
    const auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->op, net::Op::kError);
    EXPECT_EQ(resp->corr, corr);
  }
  EXPECT_EQ(server_->state(), ComponentState::Running);
  EXPECT_TRUE(client_->has_queue("q.t"));
}

TEST_F(LoopbackTest, EmptyGetHonorsTimeout) {
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client_->get("q.t", 0.05).has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.04);
  EXPECT_LT(waited, 2.0);
}

TEST_F(LoopbackTest, LongPollGetWakesOnConcurrentPublish) {
  std::thread publisher([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    client_->publish("q.t", text_message("q.t", "late"));
  });
  // The server parks this get and answers it when the publish arrives —
  // well before the 5 s deadline.
  const auto t0 = std::chrono::steady_clock::now();
  auto delivery = client_->get("q.t", 5.0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  publisher.join();
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(text_of(*delivery), "late");
  EXPECT_LT(waited, 4.0);
  client_->ack("q.t", delivery->delivery_tag);
}

TEST_F(LoopbackTest, NackWithRequeueRedelivers) {
  client_->publish("q.t", text_message("q.t", "bounce"));
  auto first = client_->get("q.t", 1.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(client_->nack("q.t", first->delivery_tag, true));
  auto second = client_->get("q.t", 1.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(text_of(*second), "bounce");
  client_->ack("q.t", second->delivery_tag);
}

TEST_F(LoopbackTest, RequeueUnackedRestoresBacklog) {
  client_->publish("q.t", text_message("q.t", "a"));
  client_->publish("q.t", text_message("q.t", "b"));
  ASSERT_TRUE(client_->get("q.t", 1.0).has_value());
  ASSERT_TRUE(client_->get("q.t", 1.0).has_value());
  EXPECT_EQ(client_->requeue_unacked("q.t"), 2u);
  EXPECT_EQ(client_->get_batch("q.t", 4, 1.0).size(), 2u);
}

TEST_F(LoopbackTest, DepthSnapshotCountsReadyAndUnacked) {
  client_->publish("q.t", text_message("q.t", "a"));
  client_->publish("q.t", text_message("q.t", "b"));
  ASSERT_TRUE(client_->get("q.t", 1.0).has_value());  // 1 unacked, 1 ready
  const std::vector<mq::QueueDepth> depths = client_->depth_snapshot();
  bool found = false;
  for (const mq::QueueDepth& d : depths) {
    if (d.queue != "q.t") continue;
    found = true;
    EXPECT_EQ(d.ready, 1u);
    EXPECT_EQ(d.unacked, 1u);
  }
  EXPECT_TRUE(found);
}

TEST_F(LoopbackTest, DisconnectRequeuesClientsUnackedDeliveries) {
  client_->publish("q.t", text_message("q.t", "orphan"));

  net::RemoteBrokerConfig cfg;
  cfg.endpoint = server_->endpoint();
  auto consumer = std::make_unique<net::RemoteBroker>(cfg);
  auto delivery = consumer->get("q.t", 1.0);
  ASSERT_TRUE(delivery.has_value());
  // The consumer dies holding the delivery unacked: the server must
  // requeue it so another client sees it again (at-least-once).
  consumer->close();

  auto redelivered = client_->get("q.t", 2.0);
  ASSERT_TRUE(redelivered.has_value());
  EXPECT_EQ(text_of(*redelivered), "orphan");
  client_->ack("q.t", redelivered->delivery_tag);
}

TEST_F(LoopbackTest, ServerRestartOnSamePortIsTransparentToClient) {
  client_->publish("q.t", text_message("q.t", "pre-restart"));
  const std::uint16_t port = server_->port();

  server_->stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->start();  // rebinds the same port
  EXPECT_EQ(server_->port(), port);

  // Publish retries across the reconnect; the pre-restart message is still
  // in the broker (the server fronts it, killing the server loses nothing).
  client_->publish("q.t", text_message("q.t", "post-restart"));
  const std::vector<mq::Delivery> got = client_->get_batch("q.t", 4, 2.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(text_of(got[0]), "pre-restart");
  EXPECT_EQ(text_of(got[1]), "post-restart");
  EXPECT_GE(client_->reconnects(), 1u);
}

// ------------------------------------------------ pipelined (window) ops

/// Spin until `done` holds or `timeout_s` passes; returns `done()`.
template <typename Pred>
bool eventually(Pred done, double timeout_s = 5.0) {
  const double deadline = wall_now_s() + timeout_s;
  while (!done() && wall_now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::size_t ready_of(const mq::BrokerPtr& broker, const std::string& queue) {
  for (const mq::QueueDepth& d : broker->depth_snapshot()) {
    if (d.queue == queue) return d.ready;
  }
  return 0;
}

TEST_F(LoopbackTest, UnconfirmedPublishMadeWhileDownIsDeliveredAfterReconnect) {
  server_->stop();
  ASSERT_TRUE(eventually([this] { return !client_->connected(); }));
  // Nothing to send it on: it waits in the window and returns at once.
  client_->publish_unconfirmed("q.t", text_message("q.t", "while-down"));
  EXPECT_EQ(client_->unconfirmed(), 1u);
  server_->start();
  ASSERT_TRUE(eventually([this] { return client_->unconfirmed() == 0; }));
  auto d = client_->get("q.t", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "while-down");
  EXPECT_FALSE(client_->get("q.t", 0.05).has_value());  // resent once
}

TEST_F(LoopbackTest, UnconfirmedFramesAreResentAfterRestartButAcksAreNot) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  client_->set_metrics(metrics);
  client_->publish("q.t", text_message("q.t", "held"));
  auto held = client_->get("q.t", 1.0);
  ASSERT_TRUE(held.has_value());
  const std::uint16_t port = server_->port();
  server_->stop();  // requeues "held": the connection holding it is gone
  ASSERT_TRUE(eventually([this] { return !client_->connected(); }));
  EXPECT_EQ(ready_of(broker_, "q.t"), 1u);

  // A stand-in daemon on the same port accepts the reconnect and reads
  // nothing, so every pipelined frame sent to it stays unconfirmed.
  const int listener = net::listen_tcp("127.0.0.1", port);
  net::set_nonblocking(listener, true);
  int conn = -1;
  ASSERT_TRUE(eventually([&] {
    if (conn < 0) conn = ::accept(listener, nullptr, nullptr);
    return conn >= 0 && client_->connected();
  }));
  client_->publish_unconfirmed("q.t", text_message("q.t", "limbo"));
  EXPECT_TRUE(client_->ack("q.t", held->delivery_tag));  // sent, never seen
  EXPECT_EQ(client_->unconfirmed(), 1u);  // the publish, not the ack

  // The stand-in dies; the real daemon comes back on the port.
  ::shutdown(conn, SHUT_RDWR);
  net::close_fd(conn);
  net::close_fd(listener);
  server_->start();
  ASSERT_TRUE(eventually([this] { return client_->unconfirmed() == 0; }));
  EXPECT_GE(metrics->counter("net.client.resent").value(), 1u);
  // The ack was not replayed: "held" is still ready beside "limbo".
  EXPECT_EQ(ready_of(broker_, "q.t"), 2u);
  const std::vector<mq::Delivery> got = client_->get_batch("q.t", 4, 1.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(text_of(got[0]), "held");
  EXPECT_EQ(text_of(got[1]), "limbo");
  client_->set_metrics(nullptr);
}

TEST_F(LoopbackTest, PipelinedErrorIsCountedNotDropped) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  client_->set_metrics(metrics);
  // No caller waits for these replies, so a kError must still surface.
  client_->publish_unconfirmed("q.missing", text_message("q.missing", "x"));
  EXPECT_TRUE(client_->ack("q.missing", 1));
  obs::Counter& async_errors = metrics->counter("net.client.async_errors");
  ASSERT_TRUE(eventually([&] { return async_errors.value() == 2; }));
  EXPECT_EQ(client_->unconfirmed(), 0u);  // an error retires the frame
  // The connection is unaffected.
  client_->publish_unconfirmed("q.t", text_message("q.t", "fine"));
  auto d = client_->get("q.t", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "fine");
  EXPECT_EQ(async_errors.value(), 2u);
  client_->set_metrics(nullptr);
}

TEST(RemoteBrokerWindow, TenantPipelinedPublishKeepsOrderUnderQuota) {
  auto broker = std::make_shared<mq::Broker>("window_quota");
  auto tenants = std::make_shared<mq::TenantRegistry>();
  mq::TenantQuota quota;
  quota.publish_rate = 200.0;
  quota.burst = 4.0;
  tenants->register_tenant("paced", quota);
  net::BrokerServerConfig server_cfg;
  server_cfg.tenants = tenants;
  net::BrokerServer server(broker, server_cfg, std::make_shared<Profiler>());
  server.start();
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = server.endpoint();
  cfg.tenant = "paced";
  net::RemoteBroker client(cfg);
  client.declare_queue("q.p", {});
  // 24 publishes against a 4-message burst: most are refused with
  // kErrQuota and go again after the retry-after hint, on the caller's
  // thread, so they still arrive in the order they were made.
  std::vector<std::string> sent;
  for (int i = 0; i < 24; ++i) {
    sent.push_back('m' + std::to_string(i));
    client.publish_unconfirmed("q.p", text_message("q.p", sent.back()));
    EXPECT_EQ(client.unconfirmed(), 0u);  // confirmed before it returned
  }
  EXPECT_GT(client.quota_throttled(), 0u);
  EXPECT_GT(server.quota_rejections(), 0u);
  std::vector<std::string> got;
  for (const mq::Delivery& d : client.get_batch("q.p", 32, 1.0)) {
    got.push_back(text_of(d));
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(tenants->find("paced")->published(), 24u);
  client.close();
  server.stop();
  broker->close();
}

TEST(RemoteBrokerWindow, TenantTransitionsReachSynchronizerInOrderUnderDepthQuota) {
  // Every transition of a task is sent unawaited, as the emgr and the
  // WFProcessor send them. The Synchronizer rejects one whose `from` is not
  // the task's current state, so a transition overtaken by a later one
  // under quota backpressure would leave its task short of DONE.
  auto broker = std::make_shared<mq::Broker>("sync_quota");
  auto tenants = std::make_shared<mq::TenantRegistry>();
  mq::TenantQuota quota;
  quota.max_queue_depth = 4;
  tenants->register_tenant("deep", quota);
  net::BrokerServerConfig server_cfg;
  server_cfg.tenants = tenants;
  net::BrokerServer server(broker, server_cfg, std::make_shared<Profiler>());
  server.start();
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = server.endpoint();
  cfg.tenant = "deep";
  auto client = std::make_shared<net::RemoteBroker>(cfg);
  client->declare_queue("q.states", {});

  ObjectRegistry registry;
  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back(std::make_shared<Task>('t' + std::to_string(i)));
    tasks.back()->duration_s = 1;
    stage->add_task(tasks.back());
  }
  pipeline->add_stage(stage);
  registry.add_pipeline(pipeline);
  StateStore store;
  // The AppManager side consumes the tenant's states queue in process.
  Synchronizer sync(broker, mq::qualify_queue("deep", "q.states"), &registry,
                    &store, std::make_shared<Profiler>());

  std::thread sender([&] {
    SyncClient sc(client, "test", "q.states", "q.ack.test");
    for (const TaskPtr& task : tasks) {
      for (int s = static_cast<int>(TaskState::Described);
           s < static_cast<int>(TaskState::Done); ++s) {
        sc.sync({task->id(), static_cast<TaskState>(s),
                 static_cast<TaskState>(s + 1)});
      }
    }
  });
  // Nothing drains the backlog until the depth quota has pushed back.
  EXPECT_TRUE(eventually([&] { return client->quota_throttled() > 0; }));
  sync.start();
  sender.join();
  EXPECT_TRUE(eventually(
      [&] {
        return std::all_of(tasks.begin(), tasks.end(), [](const TaskPtr& t) {
          return t->state() == TaskState::Done;
        });
      },
      10.0));
  EXPECT_EQ(sync.rejected(), 0u);
  EXPECT_EQ(sync.processed(),
            tasks.size() * static_cast<std::size_t>(TaskState::Done));
  sync.stop();
  client->close();
  server.stop();
  broker->close();
}

TEST(RemoteBrokerTest, UnreachableEndpointFailsFast) {
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = "127.0.0.1:1";  // nothing listens on port 1
  cfg.connect_timeout_s = 0.5;
  EXPECT_THROW(net::RemoteBroker{cfg}, net::NetError);
  cfg.endpoint = "no-port-here";
  EXPECT_THROW(net::RemoteBroker{cfg}, net::NetError);
}

// --------------------------------------------------- AppManager end-to-end

AppManagerConfig fast_config() {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = 16;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.resource.rts_teardown_per_unit_s = 0.0;
  cfg.clock_scale = 1e-4;
  return cfg;
}

PipelinePtr make_pipeline(int stages, int tasks_per_stage) {
  auto p = std::make_shared<Pipeline>("p");
  for (int s = 0; s < stages; ++s) {
    auto stage = std::make_shared<Stage>('s' + std::to_string(s));
    for (int t = 0; t < tasks_per_stage; ++t) {
      auto task = std::make_shared<Task>('t' + std::to_string(t));
      task->executable = "sleep";
      task->duration_s = 5.0;
      stage->add_task(task);
    }
    p->add_stage(stage);
  }
  return p;
}

TEST(NetE2E, WorkflowOverLoopbackDaemonMatchesInProcess) {
  // In-process reference run.
  AppManager reference(fast_config());
  reference.add_pipelines({make_pipeline(2, 4)});
  reference.run();
  ASSERT_EQ(reference.tasks_done(), 8u);
  ASSERT_EQ(reference.tasks_failed(), 0u);

  // Same workflow against a loopback daemon: identical results.
  auto daemon_broker = std::make_shared<mq::Broker>("daemon");
  net::BrokerServer daemon(daemon_broker, {}, std::make_shared<Profiler>());
  daemon.start();

  AppManagerConfig cfg = fast_config();
  cfg.broker_endpoint = daemon.endpoint();
  AppManager amgr(cfg);
  auto pipeline = make_pipeline(2, 4);
  amgr.add_pipelines({pipeline});
  amgr.run();

  EXPECT_EQ(amgr.tasks_done(), reference.tasks_done());
  EXPECT_EQ(amgr.tasks_failed(), reference.tasks_failed());
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  for (const StagePtr& stage : pipeline->stages()) {
    for (const TaskPtr& task : stage->tasks()) {
      EXPECT_EQ(task->state(), TaskState::Done);
    }
  }
  EXPECT_TRUE(amgr.overheads().failed_component.empty());

  daemon.stop();
  daemon_broker->close();
}

TEST(NetE2E, RunSurvivesBrokerKillAndRestartMidRun) {
  auto daemon_broker = std::make_shared<mq::Broker>("daemon");
  net::BrokerServer daemon(daemon_broker, {}, std::make_shared<Profiler>());
  daemon.start();

  // Stage 1 holds execution at a gate so the kill lands mid-run with the
  // task verifiably in flight; stage 2 only schedules after the restart,
  // proving the full sync/publish/get path works over the reconnected
  // transport.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto pipeline = std::make_shared<Pipeline>("p");
  auto s1 = std::make_shared<Stage>("s1");
  auto gate = std::make_shared<Task>("gate");
  gate->duration_s = 1.0;
  gate->function = [&started, &release] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return 0;
  };
  s1->add_task(gate);
  pipeline->add_stage(s1);
  auto s2 = std::make_shared<Stage>("s2");
  auto after = std::make_shared<Task>("after");
  after->executable = "sleep";
  after->duration_s = 2.0;
  s2->add_task(after);
  pipeline->add_stage(s2);

  AppManagerConfig cfg = fast_config();
  cfg.broker_endpoint = daemon.endpoint();
  AppManager amgr(cfg);
  amgr.add_pipelines({pipeline});
  std::thread runner([&amgr] { amgr.run(); });

  // Wait for the gate task to be executing, then kill the daemon under it.
  for (int spins = 0; spins < 2000 && !started.load(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(started.load());
  daemon.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  daemon.start();  // same port: clients reconnect on their own
  release.store(true);
  runner.join();

  EXPECT_EQ(amgr.tasks_done(), 2u);
  EXPECT_EQ(amgr.tasks_failed(), 0u);
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_TRUE(amgr.overheads().failed_component.empty());

  daemon.stop();
  daemon_broker->close();
}

TEST(NetE2E, DaemonBackendRejectsLocalBrokerRecovery) {
  // recover_broker_journal replays into the *in-process* broker; a daemon
  // recovers its own journal via --recover. Mixing the two is a config
  // error, caught before anything dials out.
  AppManagerConfig cfg = fast_config();
  cfg.broker_endpoint = "127.0.0.1:1";
  cfg.recover_broker_journal = "/tmp/nonexistent.journal";
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline(1, 1)});
  EXPECT_THROW(amgr.run(), ValueError);
}

TEST(NetE2E, InProcessBackendKeepsZeroCopyGuarantee) {
  // No broker_endpoint: the seam must hand back the in-process broker and
  // its zero-copy fast path — every delivered message avoids render/parse.
  AppManagerConfig cfg = fast_config();
  cfg.obs.metrics = true;
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline(2, 4)});
  amgr.run();
  ASSERT_EQ(amgr.tasks_done(), 8u);
  const obs::MetricsPtr reg = amgr.metrics();
  ASSERT_NE(reg, nullptr);
  const std::uint64_t delivered = reg->counter("mq.delivered").value();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(reg->counter("mq.serialize_avoided").value(), delivered);
}

}  // namespace
}  // namespace entk
