// Unit tests for the in-process message broker (queues, ack/nack,
// capacity, journaling and recovery, concurrency).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "src/common/clock.hpp"
#include "src/mq/channel.hpp"
#include "src/mq/journal.hpp"
#include "src/obs/metrics.hpp"

namespace entk::mq {
namespace {

Message text_message(const std::string& body) {
  Message m;
  m.set_body(body);
  return m;
}

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_mq_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(entk::wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Queue, FifoOrder) {
  Queue q("q", {});
  for (int i = 0; i < 5; ++i) q.publish(text_message(std::to_string(i)));
  for (int i = 0; i < 5; ++i) {
    auto d = q.try_get();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->message.body(), std::to_string(i));
    EXPECT_TRUE(q.ack(d->delivery_tag).has_value());
  }
  EXPECT_FALSE(q.try_get().has_value());
}

TEST(Queue, GetTimesOutOnEmpty) {
  Queue q("q", {});
  const double t0 = wall_now_s();
  EXPECT_FALSE(q.get(0.02).has_value());
  EXPECT_GE(wall_now_s() - t0, 0.015);
}

TEST(Queue, AckRemovesNackRequeues) {
  Queue q("q", {});
  q.publish(text_message("a"));
  auto d = q.try_get();
  ASSERT_TRUE(d);
  EXPECT_EQ(q.stats().unacked, 1u);
  // Nack with requeue puts it back at the head.
  EXPECT_TRUE(q.nack(d->delivery_tag, true).has_value());
  EXPECT_EQ(q.stats().unacked, 0u);
  auto d2 = q.try_get();
  ASSERT_TRUE(d2);
  EXPECT_EQ(d2->message.body(), "a");
  // Double ack fails.
  EXPECT_TRUE(q.ack(d2->delivery_tag).has_value());
  EXPECT_FALSE(q.ack(d2->delivery_tag).has_value());
}

TEST(Queue, NackWithoutRequeueDrops) {
  Queue q("q", {});
  q.publish(text_message("a"));
  auto d = q.try_get();
  ASSERT_TRUE(d);
  EXPECT_TRUE(q.nack(d->delivery_tag, false).has_value());
  EXPECT_FALSE(q.try_get().has_value());
}

TEST(Queue, RequeueUnackedPreservesOrder) {
  Queue q("q", {});
  for (int i = 0; i < 3; ++i) q.publish(text_message(std::to_string(i)));
  auto a = q.try_get();
  auto b = q.try_get();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(q.requeue_unacked(), 2u);
  for (int i = 0; i < 3; ++i) {
    auto d = q.try_get();
    ASSERT_TRUE(d);
    EXPECT_EQ(d->message.body(), std::to_string(i));
  }
}

TEST(Queue, CapacityBlocksPublisher) {
  Queue q("q", QueueOptions{.durable = false, .capacity = 2});
  q.publish(text_message("1"));
  q.publish(text_message("2"));
  std::atomic<bool> published{false};
  std::thread t([&] {
    q.publish(text_message("3"));
    published = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(published.load());
  auto d = q.try_get();
  ASSERT_TRUE(d);
  t.join();
  EXPECT_TRUE(published.load());
}

TEST(Queue, CloseWakesBlockedConsumer) {
  Queue q("q", {});
  std::atomic<bool> woke{false};
  std::thread t([&] {
    q.get(5.0);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
  EXPECT_TRUE(woke.load());
  EXPECT_FALSE(q.publish(text_message("x")));
}

TEST(Queue, PurgeDropsReady) {
  Queue q("q", {});
  for (int i = 0; i < 4; ++i) q.publish(text_message("x"));
  EXPECT_EQ(q.purge(), 4u);
  EXPECT_EQ(q.ready_count(), 0u);
}

TEST(Queue, PublishBatchGetBatchPreserveOrder) {
  Queue q("q", {});
  std::vector<Message> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(text_message(std::to_string(i)));
  EXPECT_EQ(q.publish_batch(std::move(batch)), 6u);
  const auto got = q.get_batch(4, 0.0);
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].message.body(),
              std::to_string(i));
  }
  const auto rest = q.get_batch(10, 0.0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].message.body(), "4");
  EXPECT_EQ(rest[1].message.body(), "5");
}

TEST(Queue, GetBatchPartialOnTimeout) {
  Queue q("q", {});
  q.publish(text_message("only"));
  // Asks for 8 but must return what is there once the deadline passes
  // instead of blocking for a full batch.
  const auto got = q.get_batch(8, 0.01);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].message.body(), "only");
  // Empty queue + elapsed timeout: empty batch, not a hang.
  EXPECT_TRUE(q.get_batch(8, 0.0).empty());
}

TEST(Queue, AckBatchSkipsStaleTags) {
  Queue q("q", {});
  for (int i = 0; i < 3; ++i) q.publish(text_message(std::to_string(i)));
  const auto got = q.get_batch(3, 0.0);
  ASSERT_EQ(got.size(), 3u);
  ASSERT_TRUE(q.ack(got[1].delivery_tag).has_value());  // now stale below
  const std::vector<std::uint64_t> tags = {got[0].delivery_tag,
                                           got[1].delivery_tag, 999999,
                                           got[2].delivery_tag};
  // Only the two still-unacked valid tags are acked.
  EXPECT_EQ(q.ack_batch(tags).size(), 2u);
  EXPECT_EQ(q.depth().unacked, 0u);
}

TEST(Queue, RequeueAfterBatchGetPreservesOrder) {
  Queue q("q", {});
  std::vector<Message> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(text_message(std::to_string(i)));
  q.publish_batch(std::move(batch));
  ASSERT_EQ(q.get_batch(4, 0.0).size(), 4u);
  EXPECT_EQ(q.requeue_unacked(), 4u);
  const auto again = q.get_batch(4, 0.0);
  ASSERT_EQ(again.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(again[static_cast<std::size_t>(i)].message.body(),
              std::to_string(i));
  }
}

TEST(Queue, RequeueIsExemptFromCapacity) {
  // Regression: redelivery must never deadlock against the capacity bound.
  // With capacity 1 and one unacked message, a publisher fills the ready
  // slot; nack(requeue) and requeue_unacked still return messages to the
  // head immediately even though ready is already at capacity.
  Queue q("q", QueueOptions{.durable = false, .capacity = 1});
  q.publish(text_message("first"));
  auto d = q.try_get();
  ASSERT_TRUE(d);
  q.publish(text_message("second"));  // ready back at capacity
  EXPECT_TRUE(q.nack(d->delivery_tag, true));
  EXPECT_EQ(q.ready_count(), 2u);  // above capacity, by design
  auto redelivered = q.try_get();
  ASSERT_TRUE(redelivered);
  EXPECT_EQ(redelivered->message.body(), "first");

  // Same for the bulk variant.
  auto d2 = q.try_get();
  ASSERT_TRUE(d2);
  EXPECT_EQ(q.ready_count(), 0u);
  q.publish(text_message("third"));
  EXPECT_EQ(q.requeue_unacked(), 2u);
  EXPECT_EQ(q.ready_count(), 3u);
}

TEST(Queue, ZeroTimeoutGetIsNonBlockingShortCircuit) {
  Queue q("q", {});
  EXPECT_FALSE(q.get(0.0).has_value());
  EXPECT_FALSE(q.try_get().has_value());
  q.publish(text_message("x"));
  EXPECT_TRUE(q.get(0.0).has_value());
}

TEST(Broker, PublishBatchAssignsContiguousSeqs) {
  Broker b;
  b.declare_queue("q");
  std::vector<Message> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(text_message(std::to_string(i)));
  const std::uint64_t first = b.publish_batch("q", std::move(batch));
  const auto got = b.get_batch("q", 5, 0.0);
  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].message.seq, first + i);
  }
  std::vector<std::uint64_t> tags;
  for (const Delivery& d : got) tags.push_back(d.delivery_tag);
  EXPECT_EQ(b.ack_batch("q", tags), 5u);
}

TEST(Broker, DepthSnapshotReportsReadyAndUnacked) {
  Broker b;
  b.declare_queue("a");
  b.declare_queue("b");
  b.publish("a", text_message("1"));
  b.publish("a", text_message("2"));
  ASSERT_TRUE(b.get("a", 0.0).has_value());  // one unacked
  const auto depths = b.depth_snapshot();
  ASSERT_EQ(depths.size(), 2u);
  for (const QueueDepth& d : depths) {
    if (d.queue == "a") {
      EXPECT_EQ(d.ready, 1u);
      EXPECT_EQ(d.unacked, 1u);
    } else {
      EXPECT_EQ(d.queue, "b");
      EXPECT_EQ(d.ready, 0u);
      EXPECT_EQ(d.unacked, 0u);
    }
  }
}

TEST(Broker, DepthSnapshotPrefixFiltersWithoutFullScan) {
  Broker b("b", "", {}, 4);  // sharded: the filter must merge shards too
  b.declare_queue("t.app1/q.pending");
  b.declare_queue("t.app1/q.done");
  b.declare_queue("t.app10/q.pending");  // shares a string prefix, not a
                                         // tenant prefix ("t.app1/")
  b.declare_queue("q.pending");
  b.publish("t.app1/q.pending", text_message("x"));
  b.publish("t.app10/q.pending", text_message("y"));

  const auto filtered = b.depth_snapshot("t.app1/");
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].queue, "t.app1/q.done");
  EXPECT_EQ(filtered[1].queue, "t.app1/q.pending");
  EXPECT_EQ(filtered[1].ready, 1u);

  // Empty prefix = the full snapshot.
  EXPECT_EQ(b.depth_snapshot("").size(), 4u);
  EXPECT_TRUE(b.depth_snapshot("t.ghost/").empty());
}

TEST(Broker, DepthSnapshotTracksBacklogBytes) {
  Broker b;
  b.declare_queue("q");
  b.publish("q", text_message(std::string(100, 'a')));
  b.publish("q", text_message(std::string(50, 'b')));
  auto depths = b.depth_snapshot();
  ASSERT_EQ(depths.size(), 1u);
  // approx_size of a rendered body is its byte count exactly.
  EXPECT_EQ(depths[0].bytes, 150u);

  // Bytes follow messages across ready -> unacked -> gone transitions.
  auto d = b.get("q", 0.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(b.depth_snapshot()[0].bytes, 150u);  // unacked still counts
  ASSERT_TRUE(b.ack("q", d->delivery_tag));
  EXPECT_EQ(b.depth_snapshot()[0].bytes, 50u);

  // Nack with requeue keeps the bytes; nack-drop releases them.
  auto d2 = b.get("q", 0.0);
  ASSERT_TRUE(d2.has_value());
  ASSERT_TRUE(b.nack("q", d2->delivery_tag, /*requeue=*/true));
  EXPECT_EQ(b.depth_snapshot()[0].bytes, 50u);
  auto d3 = b.get("q", 0.0);
  ASSERT_TRUE(d3.has_value());
  ASSERT_TRUE(b.nack("q", d3->delivery_tag, /*requeue=*/false));
  EXPECT_EQ(b.depth_snapshot()[0].bytes, 0u);
}

TEST(Message, ApproxSizeCoversAllRepresentations) {
  Message rendered;
  rendered.set_body("12345678");
  EXPECT_EQ(rendered.approx_size(), 8u);

  json::Value payload;
  payload["text"] = std::string(32, 'p');
  Message structured = Message::json_body("q", std::move(payload));
  // Structural estimate: non-zero and within a small factor of the
  // rendered size (it prices strings/keys, not exact JSON punctuation).
  const std::size_t approx = structured.approx_size();
  EXPECT_GT(approx, 32u);
  EXPECT_LT(approx, 128u);
}

TEST(Broker, JournalRecoversBatchPublishedMessages) {
  const std::string dir = fresh_dir();
  std::string journal;
  {
    Broker b("jbatch", dir);
    journal = b.journal_path();
    b.declare_queue("q", QueueOptions{.durable = true});
    std::vector<Message> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(text_message(std::to_string(i)));
    }
    b.publish_batch("q", std::move(batch));
    // Consume + batch-ack the first; the other two must survive recovery.
    auto d = b.get("q", 0.0);
    ASSERT_TRUE(d);
    EXPECT_EQ(b.ack_batch("q", {d->delivery_tag}), 1u);
  }
  Broker recovered("jbatch2");
  EXPECT_EQ(recovered.recover(journal), 2u);
  const auto got = recovered.get_batch("q", 8, 0.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].message.body(), "1");
  EXPECT_EQ(got[1].message.body(), "2");
}

TEST(Broker, DeclareLookupAndPublish) {
  Broker b;
  b.declare_queue("alpha");
  EXPECT_TRUE(b.has_queue("alpha"));
  EXPECT_FALSE(b.has_queue("beta"));
  EXPECT_THROW(b.queue("beta"), MqError);
  EXPECT_THROW(b.publish("beta", text_message("x")), MqError);

  const std::uint64_t s1 = b.publish("alpha", text_message("1"));
  const std::uint64_t s2 = b.publish("alpha", text_message("2"));
  EXPECT_LT(s1, s2);  // broker-wide monotonic sequence

  auto d = b.get("alpha", 0.0);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->message.seq, s1);
  EXPECT_EQ(d->message.routing_key, "alpha");
  EXPECT_TRUE(b.ack("alpha", d->delivery_tag));
}

TEST(Broker, RedeclareSameOptionsIdempotent) {
  Broker b;
  b.declare_queue("q", {.durable = false, .capacity = 5});
  EXPECT_NO_THROW(b.declare_queue("q", {.durable = false, .capacity = 5}));
  EXPECT_THROW(b.declare_queue("q", {.durable = true, .capacity = 5}),
               MqError);
}

TEST(Broker, StatsAggregate) {
  Broker b;
  b.declare_queue("a");
  b.declare_queue("b");
  b.publish("a", text_message("1"));
  b.publish("b", text_message("2"));
  auto d = b.get("a", 0.0);
  b.ack("a", d->delivery_tag);
  const BrokerStats s = b.stats();
  EXPECT_EQ(s.queues, 2u);
  EXPECT_EQ(s.published, 2u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.acked, 1u);
}

TEST(Broker, CloseStopsPublishes) {
  Broker b;
  b.declare_queue("q");
  b.close();
  EXPECT_TRUE(b.closed());
  EXPECT_THROW(b.publish("q", text_message("x")), MqError);
  EXPECT_THROW(b.declare_queue("r"), MqError);
}

TEST(Broker, DeleteQueue) {
  Broker b;
  b.declare_queue("q");
  b.delete_queue("q");
  EXPECT_FALSE(b.has_queue("q"));
  b.delete_queue("q");  // idempotent
}

TEST(Broker, JournalRecoversUnackedMessages) {
  const std::string dir = fresh_dir();
  std::string journal;
  {
    Broker b("jb", dir);
    journal = b.journal_path();
    b.declare_queue("durable", {.durable = true});
    b.declare_queue("volatile", {.durable = false});
    for (int i = 0; i < 5; ++i) {
      b.publish("durable", text_message('d' + std::to_string(i)));
    }
    b.publish("volatile", text_message("gone"));
    // Consume and ack two of the durable messages.
    for (int i = 0; i < 2; ++i) {
      auto d = b.get("durable", 0.0);
      ASSERT_TRUE(d);
      b.ack("durable", d->delivery_tag);
    }
    // Broker "dies" here: unacked/undelivered messages d2..d4 remain.
  }
  Broker recovered("jb2");
  EXPECT_EQ(recovered.recover(journal), 3u);
  EXPECT_TRUE(recovered.has_queue("durable"));
  EXPECT_FALSE(recovered.has_queue("volatile"));  // not journaled
  for (int i = 2; i < 5; ++i) {
    auto d = recovered.get("durable", 0.0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->message.body(), 'd' + std::to_string(i));
  }
  EXPECT_FALSE(recovered.get("durable", 0.0).has_value());
}

TEST(Broker, JournalSkipsTornTailRecord) {
  const std::string dir = fresh_dir();
  std::string journal;
  {
    Broker b("torn", dir);
    journal = b.journal_path();
    b.declare_queue("q", {.durable = true});
    b.publish("q", text_message("ok"));
  }
  // Simulate a crash mid-append.
  {
    std::FILE* f = std::fopen(journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"op\":\"pub\",\"q\":\"q\",\"se", f);
    std::fclose(f);
  }
  Broker recovered("torn2");
  EXPECT_EQ(recovered.recover(journal), 1u);
  auto d = recovered.get("q", 0.0);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->message.body(), "ok");
}

TEST(Broker, ConcurrentProducersConsumersLoseNothing) {
  Broker b;
  b.declare_queue("work");
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&b, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        b.publish("work", text_message(std::to_string(p * 10000 + i)));
      }
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&b, &consumed] {
      while (consumed.load() < kProducers * kPerProducer) {
        auto d = b.get("work", 0.001);
        if (d) {
          b.ack("work", d->delivery_tag);
          ++consumed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(b.queue("work")->stats().unacked, 0u);
}

TEST(Channel, AmqpShapedFacade) {
  auto broker = std::make_shared<Broker>();
  Connection conn(broker);
  EXPECT_TRUE(conn.is_open());
  auto ch = conn.open_channel();
  ch->queue_declare("q");
  json::Value payload;
  payload["k"] = 7;
  ch->basic_publish("q", payload);
  auto d = ch->basic_get("q", 0.0);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->message.body_json().at("k").as_int(), 7);
  EXPECT_TRUE(ch->basic_ack("q", d->delivery_tag));
  ch->basic_publish_raw("q", "raw-bytes");
  auto d2 = ch->basic_get("q", 0.0);
  ASSERT_TRUE(d2);
  EXPECT_EQ(d2->message.body(), "raw-bytes");
  EXPECT_TRUE(ch->basic_nack("q", d2->delivery_tag, false));
  ch->queue_purge("q");
  ch->queue_delete("q");
  EXPECT_FALSE(broker->has_queue("q"));
}

TEST(Message, JsonBodyHelper) {
  json::Value payload;
  payload["x"] = 1;
  Message m = Message::json_body("route", payload);
  EXPECT_EQ(m.routing_key, "route");
  EXPECT_EQ(m.body_json().at("x").as_int(), 1);
  Message bad;
  bad.set_body("{not json");
  EXPECT_THROW(bad.body_json(), json::ParseError);
}

// ------------------------------------------------- zero-copy messaging --

TEST(Message, JsonBodyCarriesStructuredPayloadWithoutSerializing) {
  json::Value payload;
  payload["x"] = 42;
  Message m = Message::json_body("route", std::move(payload));
  EXPECT_TRUE(m.has_payload());
  EXPECT_FALSE(m.has_rendered_body());  // nothing serialized yet
  EXPECT_EQ(m.payload()->at("x").as_int(), 42);
  EXPECT_FALSE(m.has_rendered_body());  // reading the payload never renders
}

TEST(Message, BodyRendersLazilyAndMemoizes) {
  json::Value payload;
  payload["k"] = "v";
  Message m = Message::json_body("route", std::move(payload));
  const std::string& first = m.body();
  EXPECT_TRUE(m.has_rendered_body());
  EXPECT_EQ(first, "{\"k\":\"v\"}");
  // Memoized: same bytes object on every access.
  EXPECT_EQ(&m.body(), &first);
  EXPECT_EQ(m.shared_body().use_count(), 1);
}

TEST(Message, PayloadParsesLazilyFromBytesAndMemoizes) {
  Message m;
  m.set_body("{\"n\":7}");
  EXPECT_FALSE(m.has_payload());
  const auto& p1 = m.payload();
  EXPECT_TRUE(m.has_payload());
  EXPECT_EQ(p1->at("n").as_int(), 7);
  EXPECT_EQ(m.payload().get(), p1.get());  // parsed once
}

TEST(Message, CopiesShareRepresentationsByRefcount) {
  json::Value payload;
  payload["big"] = std::string(1024, 'x');
  Message a = Message::json_body("route", std::move(payload));
  Message b = a;  // broker hop: queue retention / delivery copy
  EXPECT_EQ(a.payload().get(), b.payload().get());  // same shared value
  b.body();                       // rendering on the copy...
  EXPECT_FALSE(a.has_rendered_body());  // ...does not mutate the original
}

TEST(Message, SettersResetTheOtherRepresentation) {
  json::Value payload;
  payload["a"] = 1;
  Message m = Message::json_body("route", std::move(payload));
  m.body();
  m.set_body("{\"b\":2}");  // new bytes invalidate the memoized payload
  EXPECT_FALSE(m.has_payload());
  EXPECT_EQ(m.payload()->at("b").as_int(), 2);
  json::Value other;
  other["c"] = 3;
  m.set_payload(std::move(other));  // new payload invalidates the bytes
  EXPECT_FALSE(m.has_rendered_body());
  EXPECT_EQ(m.body(), "{\"c\":3}");
}

TEST(Message, EmptyMessageBodyEmptyPayloadThrows) {
  Message m;
  EXPECT_EQ(m.body(), "");
  EXPECT_THROW(m.payload(), json::ParseError);
}

TEST(Broker, DeliveryAvoidsSerializationEndToEnd) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  Broker b;
  b.set_metrics(metrics);
  b.declare_queue("q");
  json::Value payload;
  payload["uid"] = "t1";
  b.publish("q", Message::json_body("q", std::move(payload)));
  auto d = b.get("q", 0.0);
  ASSERT_TRUE(d);
  // The whole hop crossed by refcount bump: the payload is present, no
  // byte body was ever rendered, and the broker counted the avoided pair.
  EXPECT_TRUE(d->message.has_payload());
  EXPECT_FALSE(d->message.has_rendered_body());
  EXPECT_EQ(d->message.payload()->get_string("uid", ""), "t1");
  EXPECT_EQ(metrics->counter("mq.serialize_avoided").value(), 1u);
}

TEST(Broker, DurablePublishRendersOnceAndIsNotCountedAvoided) {
  const std::string dir = fresh_dir();
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  Broker b("dur1", dir);
  b.set_metrics(metrics);
  b.declare_queue("q", {.durable = true});
  json::Value payload;
  payload["uid"] = "t1";
  b.publish("q", Message::json_body("q", std::move(payload)));
  auto d = b.get("q", 0.0);
  ASSERT_TRUE(d);
  // Journaling forced one render; the delivery carries both representations
  // and honestly does not count as serialize-avoided.
  EXPECT_TRUE(d->message.has_rendered_body());
  EXPECT_EQ(metrics->counter("mq.serialize_avoided").value(), 0u);
}

// ------------------------------------------------- group-commit journal --

TEST(Journal, SizeTriggerFlushesFullBatches) {
  const std::string path = fresh_dir() + "/j.journal";
  JournalWriter w(path, {.max_batch_bytes = 64, .max_delay_s = 30.0});
  const std::string rec(31, 'a');  // two records cross the 64-byte trigger
  w.append(rec);
  w.append(rec);
  w.append(rec);
  w.flush();  // barrier: everything appended is on disk afterwards
  EXPECT_EQ(w.appended_records(), 3u);
  EXPECT_EQ(w.flushed_records(), 3u);
  w.close();
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);
}

TEST(Journal, DeadlineTriggerFlushesWithoutReachingSize) {
  const std::string path = fresh_dir() + "/j.journal";
  // Huge size trigger: only the 5ms commit window can cause the flush.
  JournalWriter w(path, {.max_batch_bytes = 1 << 20, .max_delay_s = 0.005});
  w.append("r1");
  for (int spin = 0; spin < 400 && w.flushed_records() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(w.flushed_records(), 1u);
  EXPECT_GE(w.flushes(), 1u);
  w.close();
}

TEST(Journal, CloseDrainsPendingSegment) {
  const std::string path = fresh_dir() + "/j.journal";
  {
    // Neither trigger can fire during the test; only close() flushes.
    JournalWriter w(path, {.max_batch_bytes = 1 << 20, .max_delay_s = 60.0});
    w.append("alpha");
    w.append("beta");
    w.close();
    EXPECT_EQ(w.flushed_records(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "alpha");
  std::getline(in, line);
  EXPECT_EQ(line, "beta");
}

TEST(Journal, SyncEveryAppendRestoresPerRecordFlush) {
  const std::string path = fresh_dir() + "/j.journal";
  JournalWriter w(path, {.sync_every_append = true});
  w.append("r1");
  EXPECT_EQ(w.flushed_records(), 1u);  // on disk before append returned
  w.append("r2");
  EXPECT_EQ(w.flushed_records(), 2u);
  EXPECT_EQ(w.flushes(), 2u);
  w.close();
}

TEST(Journal, AppendAfterCloseThrows) {
  const std::string path = fresh_dir() + "/j.journal";
  JournalWriter w(path, {});
  w.append("r1");
  w.close();
  EXPECT_THROW(w.append("r2"), MqError);
  w.close();  // idempotent
}

TEST(Journal, UnopenablePathThrowsOnConstruction) {
  EXPECT_THROW(
      JournalWriter("/nonexistent-entk-dir/x.journal", JournalConfig{}),
      MqError);
}

TEST(Journal, WriteFailureSurfacesAsStickyMqError) {
  // /dev/full accepts the fopen but fails every flush with ENOSPC —
  // exactly the short-write path a full disk would produce. (A read-only
  // directory cannot be used here: tests may run as root, which bypasses
  // permission checks.)
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  JournalWriter w("/dev/full", {.sync_every_append = true});
  EXPECT_THROW(w.append("r1"), MqError);
  EXPECT_THROW(w.append("r2"), MqError);  // sticky: still failing
  EXPECT_THROW(w.flush(), MqError);
  EXPECT_THROW(w.close(), MqError);       // the error surfaces at close too
}

TEST(Broker, JournalErrorPropagatesToDurablePublish) {
  EXPECT_THROW(Broker("b", "/nonexistent-entk-dir"), MqError);
}

TEST(Broker, GroupCommitCleanCloseLosesNothing) {
  const std::string dir = fresh_dir();
  std::string journal;
  {
    // Triggers never fire during the run: only the close-time drain can
    // put the records on disk.
    Broker b("gc1", dir,
             {.max_batch_bytes = 1 << 20, .max_delay_s = 60.0});
    journal = b.journal_path();
    b.declare_queue("q", {.durable = true});
    for (int i = 0; i < 8; ++i) {
      b.publish("q", text_message('m' + std::to_string(i)));
    }
    auto d = b.get("q", 0.0);
    ASSERT_TRUE(d);
    b.ack("q", d->delivery_tag);
  }  // destructor closes the broker, draining the journal
  Broker recovered("gc1b");
  EXPECT_EQ(recovered.recover(journal), 7u);
  for (int i = 1; i < 8; ++i) {
    auto d = recovered.get("q", 0.0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->message.body(), 'm' + std::to_string(i));
  }
}

TEST(Broker, CrashMidBatchReplaysFlushedRecordsExactlyOnce) {
  const std::string dir = fresh_dir();
  Broker b("gc2", dir, {.max_batch_bytes = 1 << 20, .max_delay_s = 60.0});
  const std::string journal = b.journal_path();
  b.declare_queue("q", {.durable = true});
  // Five publishes reach disk through an explicit barrier...
  for (int i = 0; i < 5; ++i) {
    b.publish("q", text_message('m' + std::to_string(i)));
  }
  ASSERT_NE(b.journal_writer(), nullptr);
  b.journal_writer()->flush();
  // ...two acks reach disk through a second barrier...
  for (int i = 0; i < 2; ++i) {
    auto d = b.get("q", 0.0);
    ASSERT_TRUE(d);
    b.ack("q", d->delivery_tag);
  }
  b.journal_writer()->flush();
  // ...and two more publishes stay in the in-memory segment when the
  // broker dies hard (bounded-loss tail of the durability contract).
  b.publish("q", text_message("lost1"));
  b.publish("q", text_message("lost2"));
  b.journal_writer()->simulate_crash();
  // A record torn mid-write trails the journal, as after a real SIGKILL.
  {
    std::FILE* f = std::fopen(journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"op\":\"pub\",\"q\":\"q\",\"se", f);
    std::fclose(f);
  }
  Broker recovered("gc2b");
  // Exactly the flushed, unacked records come back — each once: no
  // duplicate of the acked m0/m1, no resurrected unflushed tail.
  EXPECT_EQ(recovered.recover(journal), 3u);
  for (int i = 2; i < 5; ++i) {
    auto d = recovered.get("q", 0.0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->message.body(), 'm' + std::to_string(i));
  }
  EXPECT_FALSE(recovered.get("q", 0.0).has_value());
}

TEST(Broker, JournalBatchSizeHistogramObservesFlushes) {
  const std::string dir = fresh_dir();
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  Broker b("gc3", dir, {.max_batch_bytes = 1 << 20, .max_delay_s = 60.0});
  b.set_metrics(metrics);
  b.declare_queue("q", {.durable = true});
  std::vector<Message> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(text_message("x"));
  b.publish_batch("q", std::move(batch));
  b.journal_writer()->flush();
  auto& hist = metrics->histogram("mq.journal_batch_size");
  EXPECT_EQ(hist.count(), 1u);         // one group-commit flush...
  EXPECT_EQ(hist.sum(), 4.0);          // ...carrying all four records
}

// ------------------------------------------------------- sharded broker
//
// The same broker surface at every shard count: the suite runs each
// behavioral test at shards=1 (the historical single-shard broker) and
// shards=4, and separately asserts cross-shard aggregation parity.

class ShardedBroker : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedBroker, ShardOfIsStableAndInRange) {
  Broker b("sh", "", {}, GetParam());
  EXPECT_EQ(b.shard_count(), GetParam());
  for (int q = 0; q < 64; ++q) {
    const std::string name = "queue" + std::to_string(q);
    const std::size_t shard = b.shard_of(name);
    EXPECT_LT(shard, b.shard_count());
    EXPECT_EQ(b.shard_of(name), shard);  // deterministic
  }
}

TEST_P(ShardedBroker, PublishGetAckAcrossManyQueues) {
  Broker b("sh", "", {}, GetParam());
  constexpr int kQueues = 16;
  for (int q = 0; q < kQueues; ++q) {
    b.declare_queue('q' + std::to_string(q));
  }
  for (int q = 0; q < kQueues; ++q) {
    for (int i = 0; i <= q; ++i) {
      b.publish('q' + std::to_string(q),
                text_message(std::to_string(q) + ":" + std::to_string(i)));
    }
  }
  for (int q = 0; q < kQueues; ++q) {
    const std::string name = 'q' + std::to_string(q);
    for (int i = 0; i <= q; ++i) {
      auto d = b.get(name, 0.0);
      ASSERT_TRUE(d);
      EXPECT_EQ(d->message.body(),
                std::to_string(q) + ":" + std::to_string(i));
      b.ack(name, d->delivery_tag);
    }
    EXPECT_FALSE(b.get(name, 0.0).has_value());
  }
  const BrokerStats stats = b.stats();
  EXPECT_EQ(stats.published, std::size_t{kQueues * (kQueues + 1) / 2});
  EXPECT_EQ(stats.acked, stats.published);
}

TEST_P(ShardedBroker, SequenceNumbersUniqueAcrossShards) {
  Broker b("sh", "", {}, GetParam());
  std::set<std::uint64_t> seqs;
  for (int q = 0; q < 8; ++q) {
    const std::string name = 'q' + std::to_string(q);
    b.declare_queue(name);
    for (int i = 0; i < 8; ++i) b.publish(name, text_message("x"));
    while (auto d = b.get(name, 0.0)) {
      EXPECT_TRUE(seqs.insert(d->message.seq).second)
          << "duplicate seq " << d->message.seq;
      b.ack(name, d->delivery_tag);
    }
  }
  EXPECT_EQ(seqs.size(), 64u);
}

TEST_P(ShardedBroker, ConcurrentTrafficAcrossShardsLosesNothing) {
  Broker b("sh", "", {}, GetParam());
  constexpr int kQueues = 4;
  constexpr int kPerQueue = 300;
  for (int q = 0; q < kQueues; ++q) b.declare_queue('w' + std::to_string(q));
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueues; ++q) {
    threads.emplace_back([&b, q] {
      const std::string name = 'w' + std::to_string(q);
      for (int i = 0; i < kPerQueue; ++i) b.publish(name, text_message("m"));
    });
    threads.emplace_back([&b, &consumed, q] {
      const std::string name = 'w' + std::to_string(q);
      int got = 0;
      while (got < kPerQueue) {
        auto d = b.get(name, 0.001);
        if (d) {
          b.ack(name, d->delivery_tag);
          ++got;
          ++consumed;
        }
      }
    });
  }
  // Topology churn while traffic flows: per-shard copy-on-write snapshots
  // must never disturb established queues.
  threads.emplace_back([&b] {
    for (int i = 0; i < 50; ++i) {
      const std::string name = "churn" + std::to_string(i);
      b.declare_queue(name);
      b.delete_queue(name);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), kQueues * kPerQueue);
  EXPECT_EQ(b.stats().acked, std::size_t{kQueues * kPerQueue});
}

TEST_P(ShardedBroker, DepthSnapshotParityWithSingleShard) {
  // Identical traffic into a 1-shard and an N-shard broker must aggregate
  // to identical snapshots, stats, and queue name sets.
  Broker single("one", "", {}, 1);
  Broker sharded("many", "", {}, GetParam());
  for (Broker* b : {&single, &sharded}) {
    for (int q = 0; q < 12; ++q) {
      const std::string name = 'p' + std::to_string(q);
      b->declare_queue(name);
      for (int i = 0; i < q; ++i) b->publish(name, text_message("x"));
    }
    // Leave p3 with one unacked delivery.
    auto d = b->get("p3", 0.0);
    ASSERT_TRUE(d);
  }
  EXPECT_EQ(single.queue_names(), sharded.queue_names());
  const auto s1 = single.depth_snapshot();
  const auto sn = sharded.depth_snapshot();
  ASSERT_EQ(s1.size(), sn.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].queue, sn[i].queue);
    EXPECT_EQ(s1[i].ready, sn[i].ready) << "queue " << s1[i].queue;
    EXPECT_EQ(s1[i].unacked, sn[i].unacked) << "queue " << s1[i].queue;
  }
  const BrokerStats b1 = single.stats();
  const BrokerStats bn = sharded.stats();
  EXPECT_EQ(b1.published, bn.published);
  EXPECT_EQ(b1.delivered, bn.delivered);
  EXPECT_EQ(b1.acked, bn.acked);
  EXPECT_EQ(b1.queues, bn.queues);
}

TEST_P(ShardedBroker, JournalFilePerShardAndRecoveryAcrossLayouts) {
  const std::string dir = fresh_dir();
  std::string journal;
  constexpr int kQueues = 6;
  {
    Broker b("shj", dir, {}, GetParam());
    journal = b.journal_path();
    // Shard 0 keeps the historical journal path; shard K appends ".K".
    for (std::size_t s = 0; s < b.shard_count(); ++s) {
      const std::string path = b.journal_path(s);
      EXPECT_EQ(path, s == 0 ? journal
                             : journal + "." + std::to_string(s));
      EXPECT_TRUE(std::filesystem::exists(path));
    }
    for (int q = 0; q < kQueues; ++q) {
      const std::string name = 'd' + std::to_string(q);
      b.declare_queue(name, {.durable = true});
      for (int i = 0; i < 3; ++i) {
        b.publish(name, text_message(name + ":" + std::to_string(i)));
      }
      // Ack one message per queue; two per queue must survive.
      auto d = b.get(name, 0.0);
      ASSERT_TRUE(d);
      b.ack(name, d->delivery_tag);
    }
    // Broker "dies" here without close(): group-commit journals flush on
    // destruction like a clean close would.
  }
  // Recover into a broker with a DIFFERENT shard count: the journal file
  // set describes queue traffic, not shard layout, so the restored state
  // must not depend on either broker's sharding.
  Broker recovered("shj2", "", {}, 2);
  EXPECT_EQ(recovered.recover(journal), std::size_t{kQueues * 2});
  for (int q = 0; q < kQueues; ++q) {
    const std::string name = 'd' + std::to_string(q);
    for (int i = 1; i < 3; ++i) {
      auto d = recovered.get(name, 0.0);
      ASSERT_TRUE(d) << name;
      EXPECT_EQ(d->message.body(), name + ":" + std::to_string(i));
    }
    EXPECT_FALSE(recovered.get(name, 0.0).has_value());
  }
}

TEST_P(ShardedBroker, CloseClosesEveryShardJournal) {
  const std::string dir = fresh_dir();
  Broker b("shc", dir, {}, GetParam());
  b.declare_queue("q", {.durable = true});
  b.publish("q", text_message("x"));
  b.close();
  EXPECT_THROW(b.publish("q", text_message("y")), MqError);
  for (std::size_t s = 0; s < b.shard_count(); ++s) {
    EXPECT_TRUE(std::filesystem::exists(b.journal_path(s)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedBroker,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST(Broker, DefaultShardsBoundedByHardware) {
  const std::size_t n = Broker::default_shards();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
  // shards=0 resolves to the hardware-derived default.
  Broker b("auto", "", {}, 0);
  EXPECT_EQ(b.shard_count(), n);
}

TEST(Broker, PerShardPublishCountersOnlyCountWhenSharded) {
  // A single-shard broker keeps the historical metric surface: no
  // mq.shardK.* counters move.
  auto metrics1 = std::make_shared<obs::MetricsRegistry>();
  Broker single("m1", "", {}, 1);
  single.set_metrics(metrics1);
  single.declare_queue("q");
  single.publish("q", text_message("x"));
  EXPECT_EQ(metrics1->counter("mq.shard0.published").value(), 0u);

  auto metrics4 = std::make_shared<obs::MetricsRegistry>();
  Broker sharded("m4", "", {}, 4);
  sharded.set_metrics(metrics4);
  sharded.declare_queue("q");
  sharded.publish("q", text_message("x"));
  const std::size_t shard = sharded.shard_of("q");
  EXPECT_EQ(metrics4
                ->counter("mq.shard" + std::to_string(shard) + ".published")
                .value(),
            1u);
}

}  // namespace
}  // namespace entk::mq
