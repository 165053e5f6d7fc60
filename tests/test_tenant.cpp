// Multi-tenant broker tests: queue namespacing, tenant registry and token
// bucket semantics, hello-handshake edge cases (old clients, invalid ids,
// rebinds, tenant-bound typed payloads), per-tenant quota backpressure
// (kErrQuota -> bounded retry -> QuotaError), cross-tenant isolation of
// identically-named queues, the connection accept cap, fair-scheduling
// smoke, and per-tenant journal partition recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/clock.hpp"
#include "src/mq/broker.hpp"
#include "src/mq/tenant.hpp"
#include "src/net/broker_server.hpp"
#include "src/net/frame.hpp"
#include "src/net/remote_broker.hpp"
#include "src/net/socket.hpp"
#include "tests/raw_conn.hpp"

namespace entk {
namespace {

mq::Message text_message(const std::string& queue, const std::string& text) {
  json::Value payload;
  payload["text"] = text;
  return mq::Message::json_body(queue, std::move(payload));
}

std::string text_of(const mq::Delivery& d) {
  return d.message.payload()->get_string("text", "");
}

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_tenant_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(entk::wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------ namespacing unit

TEST(TenantNamespacing, DefaultTenantIsIdentity) {
  EXPECT_EQ(mq::tenant_queue_prefix(""), "");
  EXPECT_EQ(mq::qualify_queue("", "q.pending"), "q.pending");
  EXPECT_EQ(mq::tenant_of_queue("q.pending"), "");
  EXPECT_EQ(mq::unqualify_queue("q.pending"), "q.pending");
}

TEST(TenantNamespacing, QualifyAndStripRoundTrip) {
  EXPECT_EQ(mq::tenant_queue_prefix("md-1"), "t.md-1/");
  const std::string physical = mq::qualify_queue("md-1", "q.pending");
  EXPECT_EQ(physical, "t.md-1/q.pending");
  EXPECT_EQ(mq::tenant_of_queue(physical), "md-1");
  EXPECT_EQ(mq::unqualify_queue(physical), "q.pending");
}

TEST(TenantNamespacing, PrefixesNeverAliasAcrossTenants) {
  // "t.a" is a valid tenant id but its prefix "t.t.a/" cannot collide
  // with tenant "a"'s "t.a/" because '/' is not a valid id character.
  EXPECT_EQ(mq::tenant_of_queue(mq::qualify_queue("t.a", "q")), "t.a");
  EXPECT_EQ(mq::tenant_of_queue(mq::qualify_queue("a", "t.q")), "a");
  EXPECT_FALSE(mq::valid_tenant_id("a/b"));
}

TEST(TenantNamespacing, IdValidation) {
  EXPECT_TRUE(mq::valid_tenant_id(""));  // the default tenant
  EXPECT_TRUE(mq::valid_tenant_id("Ensemble_42.v-1"));
  EXPECT_TRUE(mq::valid_tenant_id("9starts-with-digit"));
  EXPECT_FALSE(mq::valid_tenant_id("has space"));
  EXPECT_FALSE(mq::valid_tenant_id("semi;colon"));
  EXPECT_FALSE(mq::valid_tenant_id(std::string(65, 'a')));
  EXPECT_TRUE(mq::valid_tenant_id(std::string(64, 'a')));
}

TEST(TenantNamespacing, IdValidationRejectsPathTraversal) {
  // Tenant ids name journal subdirectories: "." would alias the default
  // tenant's journal file (two writers on one file) and ".." would write
  // outside --journal-dir entirely. The leading-alphanumeric rule keeps
  // both — and every other dot- or dash-led name — out.
  EXPECT_FALSE(mq::valid_tenant_id("."));
  EXPECT_FALSE(mq::valid_tenant_id(".."));
  EXPECT_FALSE(mq::valid_tenant_id("..."));
  EXPECT_FALSE(mq::valid_tenant_id(".hidden"));
  EXPECT_FALSE(mq::valid_tenant_id("-dash-led"));
  EXPECT_FALSE(mq::valid_tenant_id("_underscore-led"));
  EXPECT_TRUE(mq::valid_tenant_id("a..b"));  // interior dots are fine
}

// ------------------------------------------------------------ token bucket

TEST(TenantQuotaBucket, BurstAdmittedThenRateLimited) {
  mq::TenantQuota quota;
  quota.publish_rate = 100.0;
  quota.burst = 5.0;
  mq::Tenant tenant("b", quota);
  double retry_after = 0.0;
  // The bucket starts full: the first burst is admitted outright.
  EXPECT_TRUE(tenant.try_acquire_rate(5, &retry_after));
  // Empty bucket: rejected, with a finite analytic retry hint.
  EXPECT_FALSE(tenant.try_acquire_rate(1, &retry_after));
  EXPECT_GT(retry_after, 0.0);
  EXPECT_LE(retry_after, 1.0);
  // After the hinted wait the tokens have accrued.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(retry_after + 0.01));
  EXPECT_TRUE(tenant.try_acquire_rate(1, &retry_after));
}

TEST(TenantQuotaBucket, BatchLargerThanBucketRunsUpTokenDebt) {
  mq::TenantQuota quota;
  quota.publish_rate = 1000.0;
  quota.burst = 4.0;
  mq::Tenant tenant("b", quota);
  double retry_after = 0.0;
  // need=100 can never fit the 4-token bucket; it is admitted against a
  // full bucket by overdrawing (otherwise a big publish_batch could never
  // be admitted at all)...
  EXPECT_TRUE(tenant.try_acquire_rate(100, &retry_after));
  // ...and the debt throttles what follows: the next single message has
  // to wait for ~(1 - (4 - 100)) / 1000 seconds of refill, so the
  // sustained rate still holds.
  EXPECT_FALSE(tenant.try_acquire_rate(1, &retry_after));
  EXPECT_GT(retry_after, 90.0 / 1000.0);
  EXPECT_LE(retry_after, 100.0 / 1000.0);
}

TEST(TenantQuotaBucket, NoRateQuotaAlwaysAdmits) {
  mq::Tenant tenant("free", mq::TenantQuota{});
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(tenant.try_acquire_rate(1000, nullptr));
  }
}

// --------------------------------------------------------------- registry

TEST(TenantRegistry, AutoRegisterAndLookup) {
  mq::TenantRegistry registry;
  EXPECT_TRUE(registry.has_tenant(""));  // default always exists
  EXPECT_FALSE(registry.has_tenant("a"));
  auto a = registry.bind("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(registry.find("a"), a);
  EXPECT_EQ(registry.bind("a"), a);  // stable across re-binds
  ASSERT_EQ(registry.tenants().size(), 1u);
  EXPECT_EQ(registry.tenants()[0]->id(), "a");
}

TEST(TenantRegistry, ClosedRegistryRejectsUnknownIds) {
  mq::TenantRegistryConfig cfg;
  cfg.auto_register = false;
  mq::TenantRegistry registry(cfg);
  registry.register_tenant("known", {});
  EXPECT_NE(registry.bind("known"), nullptr);
  EXPECT_EQ(registry.bind("ghost"), nullptr);
  EXPECT_NE(registry.bind(""), nullptr);  // default always binds
}

TEST(TenantRegistry, RejectsInvalidIdsAndDefaultQuota) {
  mq::TenantRegistry registry;
  EXPECT_THROW(registry.register_tenant("bad/id", {}), ValueError);
  EXPECT_THROW(registry.register_tenant("", {}), ValueError);
  EXPECT_EQ(registry.bind("bad/id"), nullptr);
  // Path-traversal ids never reach ensure_partition via auto-register.
  EXPECT_THROW(registry.register_tenant(".", {}), ValueError);
  EXPECT_THROW(registry.register_tenant("..", {}), ValueError);
  EXPECT_EQ(registry.bind("."), nullptr);
  EXPECT_EQ(registry.bind(".."), nullptr);
}

TEST(TenantRegistry, QuotaReplaceableOnlyBeforeTraffic) {
  mq::TenantRegistry registry;
  mq::TenantQuota quota;
  quota.max_queue_depth = 5;
  registry.register_tenant("a", quota);
  quota.max_queue_depth = 10;
  registry.register_tenant("a", quota);  // no traffic yet: fine
  EXPECT_EQ(registry.find("a")->quota().max_queue_depth, 10u);
  registry.find("a")->count_published(1);
  EXPECT_THROW(registry.register_tenant("a", quota), StateError);
}

// ------------------------------------------------------- loopback fixture

class TenantLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tenants_ = std::make_shared<mq::TenantRegistry>();
    StartServer();
  }

  void StartServer() {
    broker_ = std::make_shared<mq::Broker>("loopback");
    net::BrokerServerConfig cfg;
    cfg.tenants = tenants_;
    cfg.max_connections = max_connections_;
    server_ = std::make_unique<net::BrokerServer>(broker_, cfg,
                                                  std::make_shared<Profiler>());
    server_->start();
  }

  std::unique_ptr<net::RemoteBroker> Client(const std::string& tenant,
                                            double retry_deadline_s = 10.0) {
    net::RemoteBrokerConfig cfg;
    cfg.endpoint = server_->endpoint();
    cfg.tenant = tenant;
    cfg.retry_deadline_s = retry_deadline_s;
    return std::make_unique<net::RemoteBroker>(cfg);
  }

  void TearDown() override {
    if (server_) server_->stop();
    if (broker_) broker_->close();
  }

  std::size_t max_connections_ = 0;
  mq::TenantRegistryPtr tenants_;
  mq::BrokerPtr broker_;
  std::unique_ptr<net::BrokerServer> server_;
};

// ------------------------------------------------- isolation + collision

TEST_F(TenantLoopbackTest, DefaultTenantClientsCollideOnQueueNames) {
  // Regression capture of the pre-tenancy failure mode this PR exists
  // for: two ensembles sharing one daemon WITHOUT tenants land on the
  // same physical queue — one application's consumer steals the other's
  // messages.
  auto app1 = Client("");
  auto app2 = Client("");
  app1->declare_queue("q.pending", {});
  app2->declare_queue("q.pending", {});
  app1->publish("q.pending", text_message("q.pending", "belongs-to-app1"));
  auto stolen = app2->get("q.pending", 1.0);
  ASSERT_TRUE(stolen.has_value());  // app2 sees app1's message: collided
  EXPECT_EQ(text_of(*stolen), "belongs-to-app1");
  app2->close();
  app1->close();
}

TEST_F(TenantLoopbackTest, TwoEnsemblesOneDaemonIsolatedByTenant) {
  // The same scenario WITH tenants: identical client-visible queue names,
  // disjoint physical queues, no cross-talk in either direction.
  auto app1 = Client("app1");
  auto app2 = Client("app2");
  app1->declare_queue("q.pending", {});
  app2->declare_queue("q.pending", {});
  app1->publish("q.pending", text_message("q.pending", "for-app1"));
  app2->publish("q.pending", text_message("q.pending", "for-app2"));

  auto d2 = app2->get("q.pending", 1.0);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(text_of(*d2), "for-app2");
  EXPECT_TRUE(app2->ack("q.pending", d2->delivery_tag));
  EXPECT_FALSE(app2->get("q.pending", 0.0).has_value());  // nothing else

  auto d1 = app1->get("q.pending", 1.0);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(text_of(*d1), "for-app1");

  // The daemon's physical namespace holds the two qualified queues.
  EXPECT_TRUE(broker_->has_queue("t.app1/q.pending"));
  EXPECT_TRUE(broker_->has_queue("t.app2/q.pending"));
  EXPECT_FALSE(broker_->has_queue("q.pending"));
  app1->close();
  app2->close();
}

TEST_F(TenantLoopbackTest, DepthSnapshotIsTenantScoped) {
  auto app1 = Client("app1");
  auto app2 = Client("app2");
  auto legacy = Client("");
  app1->declare_queue("q.w", {});
  app2->declare_queue("q.w", {});
  legacy->declare_queue("q.w", {});
  app1->publish("q.w", text_message("q.w", "a"));
  app1->publish("q.w", text_message("q.w", "b"));
  app2->publish("q.w", text_message("q.w", "c"));

  // Each tenant sees its own depths under its *client-visible* names.
  const auto d1 = app1->depth_snapshot();
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0].queue, "q.w");
  EXPECT_EQ(d1[0].ready, 2u);
  const auto d2 = app2->depth_snapshot();
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].ready, 1u);
  // The default tenant sees only unqualified queues — tenant-qualified
  // ones are other applications' business.
  const auto d0 = legacy->depth_snapshot();
  ASSERT_EQ(d0.size(), 1u);
  EXPECT_EQ(d0[0].queue, "q.w");
  EXPECT_EQ(d0[0].ready, 0u);
  app1->close();
  app2->close();
  legacy->close();
}

// ----------------------------------------------------- hello edge cases

TEST_F(TenantLoopbackTest, OldClientWithoutHelloLandsInDefaultTenant) {
  // No tenant configured = the client never sends kHello at all.
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = server_->endpoint();
  net::RemoteBroker old_peer(cfg);
  old_peer.declare_queue("q.legacy", {});
  old_peer.publish("q.legacy", text_message("q.legacy", "old"));
  // Landed on the unqualified (default-tenant) physical queue.
  EXPECT_TRUE(broker_->has_queue("q.legacy"));
  auto d = old_peer.get("q.legacy", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "old");
  old_peer.close();
}

TEST_F(TenantLoopbackTest, BinaryCodecAndTenantHelloCombine) {
  // A tenant-bound connection moves structured payloads as typed values
  // from its first frame: no JSON text is rendered anywhere on the path.
  auto client = Client("combo");
  const std::uint64_t renders_before = mq::body_render_count();
  client->declare_queue("q.c", {});
  client->publish("q.c", text_message("q.c", "x"));
  EXPECT_TRUE(broker_->has_queue("t.combo/q.c"));
  auto d = client->get("q.c", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "x");
  EXPECT_EQ(mq::body_render_count(), renders_before);
  client->close();
}

TEST_F(TenantLoopbackTest, InvalidTenantIdIsRefusedNotDefaulted) {
  // A misaddressed ensemble must fail loudly, not silently run in the
  // default namespace: the server answers kError and drops the
  // connection, so the client's operations exhaust their retry budget.
  auto client = Client("not/valid", /*retry_deadline_s=*/0.5);
  EXPECT_THROW(client->declare_queue("q.x", {}), MqError);
  EXPECT_FALSE(broker_->has_queue("q.x"));
  client->close();
}

TEST_F(TenantLoopbackTest, UnknownTenantRejectedWhenAutoRegisterOff) {
  mq::TenantRegistryConfig reg_cfg;
  reg_cfg.auto_register = false;
  tenants_ = std::make_shared<mq::TenantRegistry>(reg_cfg);
  tenants_->register_tenant("enrolled", {});
  if (server_) server_->stop();
  if (broker_) broker_->close();
  StartServer();

  auto good = Client("enrolled");
  good->declare_queue("q.ok", {});
  EXPECT_TRUE(broker_->has_queue("t.enrolled/q.ok"));
  good->close();

  auto ghost = Client("ghost", /*retry_deadline_s=*/0.5);
  EXPECT_THROW(ghost->declare_queue("q.x", {}), MqError);
  ghost->close();
}

using test::RawConn;

net::Frame hello_frame(const std::string& tenant, std::uint64_t corr) {
  net::Frame f;
  f.op = net::Op::kHello;
  f.corr = corr;
  f.body = tenant;
  return f;
}

TEST_F(TenantLoopbackTest, HelloTwiceSameIdIsIdempotent) {
  RawConn raw(server_->endpoint());
  raw.send(hello_frame("dup", 1));
  auto first = raw.recv_frame();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->op, net::Op::kHello);
  EXPECT_EQ(first->corr, 1u);
  // Reconnect paths re-send the hello; the binding must not complain.
  raw.send(hello_frame("dup", 2));
  auto second = raw.recv_frame();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->op, net::Op::kHello);
  EXPECT_EQ(second->corr, 2u);
}

TEST_F(TenantLoopbackTest, HelloRebindToDifferentTenantIsRefused) {
  RawConn raw(server_->endpoint());
  raw.send(hello_frame("first", 1));
  auto ok = raw.recv_frame();
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->op, net::Op::kHello);
  raw.send(hello_frame("second", 2));
  auto refused = raw.recv_frame();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->op, net::Op::kError);
  EXPECT_NE(refused->body.find("cannot rebind"), std::string::npos);
  // The original binding survives the refused rebind: a declare still
  // lands inside "first".
  net::Frame declare;
  declare.op = net::Op::kDeclare;
  declare.corr = 3;
  declare.queue = "q.mine";
  raw.send(declare);
  auto resp = raw.recv_frame();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, net::Op::kOk);
  EXPECT_TRUE(broker_->has_queue("t.first/q.mine"));
  EXPECT_FALSE(broker_->has_queue("t.second/q.mine"));
}

TEST_F(TenantLoopbackTest, HelloWithDotTenantIdsIsRefused) {
  // "." and ".." are structurally invalid ids (they name journal
  // subdirectories, where they alias or escape --journal-dir): the hello
  // is refused even with auto-register on.
  for (const std::string id : {".", ".."}) {
    RawConn raw(server_->endpoint());
    raw.send(hello_frame(id, 1));
    auto resp = raw.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->op, net::Op::kError);
    EXPECT_NE(resp->body.find("invalid tenant"), std::string::npos);
  }
}

// ---------------------------------------------- namespace integrity on wire

TEST_F(TenantLoopbackTest, QualifiedQueueNamesRejectedOnTheWire) {
  // Regression for the isolation bypass: "t.<id>/" is the daemon's
  // reserved qualification prefix, so a client sending the *physical*
  // name of another tenant's queue would read and write that tenant's
  // messages while every quota check still looked at its own connection's
  // tenant. Such names are refused at the frame boundary, for every
  // connection — including tenant-less legacy ones.
  mq::TenantQuota quota;
  quota.max_queue_depth = 1;
  tenants_->register_tenant("victim", quota);
  auto victim = Client("victim");
  victim->declare_queue("q.pending", {});
  victim->publish("q.pending", text_message("q.pending", "secret"));

  // A tenant-less connection, which never sends kHello, gets kError on
  // every op naming the qualified queue — it can neither steal nor inject
  // nor evade the victim's depth quota by publishing into its namespace
  // directly.
  net::RemoteBrokerConfig snoop_cfg;
  snoop_cfg.endpoint = server_->endpoint();
  net::RemoteBroker snoop(snoop_cfg);
  EXPECT_THROW(snoop.get("t.victim/q.pending", 0.0), MqError);
  EXPECT_THROW(
      snoop.publish("t.victim/q.pending", text_message("q.pending", "inj")),
      MqError);
  EXPECT_THROW(snoop.declare_queue("t.victim/q.other", {}), MqError);
  snoop.close();

  // Same refusal for a tenant-bound connection naming a foreign
  // namespace (checked before its own prefix is applied).
  auto intruder = Client("intruder");
  EXPECT_THROW(intruder->declare_queue("t.victim/q.x", {}), MqError);
  intruder->close();

  // The refusal is a clean error frame naming the reservation.
  RawConn raw(server_->endpoint());
  net::Frame declare;
  declare.op = net::Op::kDeclare;
  declare.corr = 7;
  declare.queue = "t.victim/q.pending";
  raw.send(declare);
  auto resp = raw.recv_frame();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->op, net::Op::kError);
  EXPECT_NE(resp->body.find("reserved"), std::string::npos);

  // The victim's message never moved.
  auto d = victim->get("q.pending", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "secret");
  victim->close();
}

// ------------------------------------------------------- quota over wire

TEST_F(TenantLoopbackTest, RateQuotaThrottlesThenAdmits) {
  mq::TenantQuota quota;
  quota.publish_rate = 200.0;
  quota.burst = 4.0;
  tenants_->register_tenant("paced", quota);

  auto client = Client("paced");
  client->declare_queue("q.p", {});
  for (int i = 0; i < 24; ++i) {
    client->publish("q.p", text_message("q.p", 'm' + std::to_string(i)));
  }
  // Every message eventually landed...
  const auto got = client->get_batch("q.p", 24, 1.0);
  EXPECT_EQ(got.size(), 24u);
  // ...but the flood outran the bucket: throttles happened on both ends.
  EXPECT_GT(client->quota_throttled(), 0u);
  EXPECT_GT(server_->quota_rejections(), 0u);
  EXPECT_GT(tenants_->find("paced")->throttled(), 0u);
  EXPECT_EQ(tenants_->find("paced")->published(), 24u);
  client->close();
}

TEST_F(TenantLoopbackTest, RateQuotaExhaustionThrowsQuotaError) {
  mq::TenantQuota quota;
  quota.publish_rate = 0.5;  // one token every two seconds
  quota.burst = 1.0;
  tenants_->register_tenant("slow", quota);

  auto client = Client("slow", /*retry_deadline_s=*/0.4);
  client->declare_queue("q.s", {});
  client->publish("q.s", text_message("q.s", "first"));  // burst token
  EXPECT_THROW(
      client->publish("q.s", text_message("q.s", "second")),
      mq::QuotaError);
  client->close();
}

TEST_F(TenantLoopbackTest, DepthQuotaBlocksUntilBacklogDrains) {
  mq::TenantQuota quota;
  quota.max_queue_depth = 3;
  tenants_->register_tenant("bounded", quota);

  auto client = Client("bounded", /*retry_deadline_s=*/0.4);
  client->declare_queue("q.b", {});
  for (int i = 0; i < 3; ++i) {
    client->publish("q.b", text_message("q.b", 'm' + std::to_string(i)));
  }
  // Backlog full (ready counts): the 4th publish is backpressured.
  EXPECT_THROW(client->publish("q.b", text_message("q.b", "overflow")),
               mq::QuotaError);

  // Consuming is not publishing — the quota must never deadlock a tenant
  // that is draining. Ack one and the same publish goes through.
  auto d = client->get("q.b", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(client->ack("q.b", d->delivery_tag));
  client->publish("q.b", text_message("q.b", "fits-now"));
  client->close();
}

TEST_F(TenantLoopbackTest, ByteQuotaCountsPayloadBytes) {
  mq::TenantQuota quota;
  quota.max_bytes = 64;
  tenants_->register_tenant("thin", quota);

  auto client = Client("thin", /*retry_deadline_s=*/0.4);
  client->declare_queue("q.fat", {});
  client->publish("q.fat",
                  text_message("q.fat", std::string(256, 'x')));  // admitted
  EXPECT_THROW(client->publish("q.fat", text_message("q.fat", "one-more")),
               mq::QuotaError);
  // Draining the backlog readmits.
  auto d = client->get("q.fat", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(client->ack("q.fat", d->delivery_tag));
  client->publish("q.fat", text_message("q.fat", "fits"));
  client->close();
}

TEST_F(TenantLoopbackTest, ByteQuotaAccountsTheIncomingPublish) {
  // The byte check folds the incoming frame's size in (known before any
  // decode): a tenant sitting just under its limit cannot overshoot
  // max_bytes by one arbitrarily large publish.
  mq::TenantQuota quota;
  quota.max_bytes = 4096;
  tenants_->register_tenant("tight", quota);

  auto client = Client("tight", /*retry_deadline_s=*/0.4);
  client->declare_queue("q.t", {});
  client->publish("q.t", text_message("q.t", std::string(512, 'a')));
  // Backlog ~512 bytes, under the quota — but admitting another 8KiB
  // would blow well past max_bytes, so it is rejected up front.
  EXPECT_THROW(
      client->publish("q.t", text_message("q.t", std::string(8192, 'b'))),
      mq::QuotaError);
  // Against an EMPTY backlog the oversized publish is admitted (the
  // estimate is clamped to the quota, mirroring the token bucket's debt)
  // — otherwise a payload larger than max_bytes could never be published.
  auto d = client->get("q.t", 1.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(client->ack("q.t", d->delivery_tag));
  client->publish("q.t", text_message("q.t", std::string(8192, 'b')));
  client->close();
}

TEST_F(TenantLoopbackTest, QuotaNeverTouchesOtherTenants) {
  mq::TenantQuota quota;
  quota.max_queue_depth = 1;
  tenants_->register_tenant("capped", quota);

  auto capped = Client("capped", /*retry_deadline_s=*/0.4);
  auto free_rider = Client("free");
  capped->declare_queue("q.x", {});
  free_rider->declare_queue("q.x", {});
  capped->publish("q.x", text_message("q.x", "only"));
  EXPECT_THROW(capped->publish("q.x", text_message("q.x", "nope")),
               mq::QuotaError);
  // The other tenant's identically-named queue is unaffected.
  for (int i = 0; i < 16; ++i) {
    free_rider->publish("q.x", text_message("q.x", 'm' + std::to_string(i)));
  }
  EXPECT_EQ(free_rider->get_batch("q.x", 16, 1.0).size(), 16u);
  capped->close();
  free_rider->close();
}

// ------------------------------------------------------- fairness smoke

TEST_F(TenantLoopbackTest, FloodingTenantDoesNotStarveAnother) {
  // A flooder saturating the daemon with large batches while a light
  // tenant runs sequential round trips: the light tenant's requests keep
  // being served (DRR interleaves the two input streams). This is the
  // smoke version of the bench_tenant_fairness gate.
  auto flooder = Client("flood");
  auto light = Client("light");
  flooder->declare_queue("q.f", {});
  light->declare_queue("q.l", {});

  std::atomic<bool> stop{false};
  std::thread flood_thread([&] {
    while (!stop.load()) {
      std::vector<mq::Message> batch;
      for (int i = 0; i < 128; ++i) {
        batch.push_back(text_message("q.f", std::string(1024, 'f')));
      }
      flooder->publish_batch("q.f", std::move(batch));
      // Keep the backlog bounded so the test's memory stays flat.
      auto got = flooder->get_batch("q.f", 128, 0.0);
      std::vector<std::uint64_t> tags;
      for (const auto& d : got) tags.push_back(d.delivery_tag);
      if (!tags.empty()) flooder->ack_batch("q.f", tags);
    }
  });

  int completed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int i = 0; i < 40 && std::chrono::steady_clock::now() < deadline;
       ++i) {
    light->publish("q.l", text_message("q.l", "ping" + std::to_string(i)));
    auto d = light->get("q.l", 2.0);
    if (!d.has_value()) break;
    if (!light->ack("q.l", d->delivery_tag)) break;
    ++completed;
  }
  stop.store(true);
  flood_thread.join();
  // Under DRR the light tenant's tiny frames always fit a quantum; it
  // must complete its whole loop while the flood runs.
  EXPECT_EQ(completed, 40);
  flooder->close();
  light->close();
}

// ------------------------------------------------------------ accept cap

TEST_F(TenantLoopbackTest, MaxConnectionsRefusedWithErrorFrame) {
  max_connections_ = 2;
  if (server_) server_->stop();
  if (broker_) broker_->close();
  StartServer();

  auto c1 = Client("");
  auto c2 = Client("");
  c1->declare_queue("q.a", {});  // both fully served
  c2->declare_queue("q.b", {});

  // The third connection is accepted at the TCP level but refused with a
  // clean kError frame before any request is served.
  RawConn raw(server_->endpoint());
  auto refusal = raw.recv_frame();
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->op, net::Op::kError);
  EXPECT_NE(refusal->body.find("capacity"), std::string::npos);
  EXPECT_EQ(server_->rejected_at_capacity(), 1u);

  // Capacity frees when a connection leaves.
  c2->close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->connection_count() >= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto c3 = Client("");
  c3->declare_queue("q.c", {});
  EXPECT_TRUE(broker_->has_queue("q.c"));
  c3->close();
  c1->close();
}

// ------------------------------------------------- journal partitioning

TEST(TenantJournal, PartitionsJournalPerTenantAndRecovers) {
  const std::string dir = fresh_dir();
  const std::string journal_path = dir + "/part.journal";
  {
    mq::Broker broker("part", dir, {}, 1);
    broker.declare_queue("q.shared", {.durable = true});
    broker.declare_queue(mq::qualify_queue("app1", "q.shared"),
                         {.durable = true});
    broker.declare_queue(mq::qualify_queue("app2", "q.shared"),
                         {.durable = true});
    broker.publish("q.shared", text_message("q.shared", "default-msg"));
    broker.publish("t.app1/q.shared",
                   text_message("q.shared", "app1-msg"));
    broker.publish("t.app2/q.shared",
                   text_message("q.shared", "app2-msg"));
    broker.close();
  }
  // The layout is partitioned: one journal per tenant directory.
  EXPECT_TRUE(std::filesystem::exists(journal_path));
  EXPECT_TRUE(std::filesystem::exists(dir + "/app1/part.journal"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/app2/part.journal"));

  // Layout-aware recovery replays the default journal AND every tenant
  // partition beside it.
  mq::Broker recovered("recovered");
  EXPECT_EQ(recovered.recover(journal_path), 3u);
  auto d0 = recovered.get("q.shared", 0.1);
  ASSERT_TRUE(d0.has_value());
  EXPECT_EQ(text_of(*d0), "default-msg");
  auto d1 = recovered.get("t.app1/q.shared", 0.1);
  ASSERT_TRUE(d1.has_value());
  EXPECT_EQ(text_of(*d1), "app1-msg");
  auto d2 = recovered.get("t.app2/q.shared", 0.1);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(text_of(*d2), "app2-msg");
  recovered.close();
  std::filesystem::remove_all(dir);
}

TEST(TenantJournal, PartitionPathsAreShardAware) {
  const std::string dir = fresh_dir();
  mq::Broker broker("shardy", dir, {}, 4);
  EXPECT_EQ(broker.partition_journal_path("app", 0),
            dir + "/app/shardy.journal");
  EXPECT_EQ(broker.partition_journal_path("app", 2),
            dir + "/app/shardy.journal.2");
  broker.declare_queue(mq::qualify_queue("app", "q.d"), {.durable = true});
  broker.publish("t.app/q.d", text_message("q.d", "x"));
  broker.close();
  // Exactly the app partition directory appeared.
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/app"));
  std::filesystem::remove_all(dir);
}

TEST(TenantJournal, RecoverySkipsNonTenantDirectories) {
  const std::string dir = fresh_dir();
  const std::string journal_path = dir + "/keep.journal";
  {
    mq::Broker broker("keep", dir, {}, 1);
    broker.declare_queue("q.live", {.durable = true});
    broker.publish("q.live", text_message("q.live", "live"));
    broker.declare_queue("t.app/q.live", {.durable = true});
    broker.publish("t.app/q.live", text_message("q.live", "app-live"));
    broker.close();
  }
  // An operator's stash beside the live tree — a directory no tenant id
  // could name (write-side partition dirs are always valid ids) holding a
  // same-basename journal — must not replay as phantom live messages.
  std::filesystem::create_directories(dir + "/.backup");
  {
    std::ofstream stash(dir + "/.backup/keep.journal");
    stash << R"({"op":"pub","q":"q.ghost","seq":999,"body":"boo"})" << "\n";
  }

  mq::Broker recovered("r3");
  // Only the real journal and the app partition replay: 2, not 3.
  EXPECT_EQ(recovered.recover(journal_path), 2u);
  EXPECT_FALSE(recovered.has_queue("q.ghost"));
  EXPECT_TRUE(recovered.has_queue("q.live"));
  EXPECT_TRUE(recovered.has_queue("t.app/q.live"));
  recovered.close();
  std::filesystem::remove_all(dir);
}

TEST(TenantJournal, AcksReplayAcrossPartitions) {
  const std::string dir = fresh_dir();
  const std::string journal_path = dir + "/ackpart.journal";
  {
    mq::Broker broker("ackpart", dir, {}, 1);
    broker.declare_queue("t.a/q", {.durable = true});
    broker.publish("t.a/q", text_message("q", "acked"));
    broker.publish("t.a/q", text_message("q", "kept"));
    auto d = broker.get("t.a/q", 0.1);
    ASSERT_TRUE(d.has_value());
    ASSERT_TRUE(broker.ack("t.a/q", d->delivery_tag));
    broker.close();
  }
  mq::Broker recovered("r2");
  // Only the unacked message survives the two-phase replay.
  EXPECT_EQ(recovered.recover(journal_path), 1u);
  auto d = recovered.get("t.a/q", 0.1);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(text_of(*d), "kept");
  recovered.close();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace entk
