// tenant_fairness: the multi-tenant acceptance gate of the shared broker
// daemon.
//
// One in-process daemon (mq::Broker behind net::BrokerServer with a
// TenantRegistry) hosts a dozen concurrent "ensembles" with mixed task
// graphs — sleep-like heartbeat tasks, mdrun-like mid-size descriptors,
// seismic-like wide fan-out payloads, anen-like station batches — each as
// its own tenant, plus one FLOODER tenant publishing as fast as the
// socket allows against a publish-rate quota it overruns ~10x.
//
// Each profile is CLOSED-LOOP PACED at its own target rate — ensembles
// publish at their workload's cadence, not at socket speed — so a tenant's
// completion rate is demand-bound, and the aggregate demand of all twelve
// tenants stays well under the daemon's capacity. What the gate then
// measures is exactly the tenancy claim: whether the flood eats the
// headroom (quota + DRR working) or eats everyone's demand (broken).
//
// Two phases per tenant profile:
//
//   solo:       the profile runs alone on an idle daemon — its baseline
//               completion rate (publish -> get -> ack full cycles);
//   contended:  all profiles run concurrently WITH the flooder at full
//               blast.
//
// The gate (--check):
//   * the flooder is actually throttled (tenant.flood.throttled > 0 on
//     the daemon AND kErrQuota retries observed client-side), and
//   * every non-flooding tenant's contended completion rate stays
//     >= 0.5x its solo rate — the deficit-round-robin input pass plus the
//     rate quota turn the flood into the flooder's problem, not everyone
//     else's.
//
// Results (per-tenant solo/contended rates, flooder admission stats, the
// worst fairness ratio) are written as BENCH_tenancy.json.
//
// Flags: --scale F (workload multiplier, default 1.0), --check,
//        --json-out PATH (default BENCH_tenancy.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/util.hpp"
#include "src/common/profiler.hpp"
#include "src/json/json.hpp"
#include "src/mq/broker.hpp"
#include "src/mq/message.hpp"
#include "src/mq/tenant.hpp"
#include "src/net/broker_server.hpp"
#include "src/net/remote_broker.hpp"

namespace {

using namespace entk;
using Clock = std::chrono::steady_clock;

// One ensemble's traffic shape: messages per run, payload bytes per task
// descriptor, the batch its dispatcher uses, and the publish cadence it
// paces itself to. The four classes mirror the repo's workload families
// (see bench/fig* and the seismic/anen extensions); each runs ~1 s solo.
struct Profile {
  std::string id;
  int messages;
  int payload_bytes;
  int batch;
  double target_rate;  ///< messages/second the ensemble tries to sustain
};

std::vector<Profile> make_profiles(double scale) {
  auto n = [scale](int base) {
    return std::max(1, static_cast<int>(base * scale));
  };
  std::vector<Profile> profiles;
  for (int i = 0; i < 3; ++i) {
    profiles.push_back({"sleep-" + std::to_string(i), n(2000), 64, 16, 2000});
    profiles.push_back(
        {"mdrun-" + std::to_string(i), n(1500), 2048, 32, 1500});
    profiles.push_back({"seismic-" + std::to_string(i), n(400), 8192, 8, 400});
    profiles.push_back({"anen-" + std::to_string(i), n(3000), 512, 64, 3000});
  }
  return profiles;
}

mq::Message make_message(const std::string& queue, int i, int payload_bytes) {
  json::Value payload;
  payload["uid"] = "task." + std::to_string(i);
  json::Array data;
  const int doubles = std::max(1, payload_bytes / 8);
  data.reserve(static_cast<std::size_t>(doubles));
  for (int k = 0; k < doubles; ++k) data.emplace_back(1.5e9 + i + 0.001 * k);
  payload["data"] = std::move(data);
  return mq::Message::json_body(queue, std::move(payload));
}

/// Run one profile's full workload (publish -> get -> ack cycles, batched
/// like a WFProcessor/ExecManager pair) as its tenant, publish side paced
/// to the profile's target rate on an absolute schedule (late batches are
/// not compounded). Returns completed messages per second — at most the
/// target rate; lower only when the daemon can't serve the demand.
double run_profile(const std::string& endpoint, const Profile& profile) {
  net::RemoteBrokerConfig cfg;
  cfg.endpoint = endpoint;
  cfg.tenant = profile.id;
  net::RemoteBroker client(cfg);
  client.declare_queue("q.work", {});
  const auto t0 = Clock::now();
  auto next_due = t0;
  const auto batch_interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(profile.batch / profile.target_rate));
  int published = 0;
  int completed = 0;
  while (completed < profile.messages) {
    if (published < profile.messages) {
      std::this_thread::sleep_until(next_due);
      next_due += batch_interval;
      std::vector<mq::Message> batch;
      const int n = std::min(profile.batch, profile.messages - published);
      batch.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        batch.push_back(
            make_message("q.work", published + i, profile.payload_bytes));
      }
      client.publish_batch("q.work", std::move(batch));
      published += n;
    }
    const auto got = client.get_batch(
        "q.work", static_cast<std::size_t>(profile.batch), 1.0);
    std::vector<std::uint64_t> tags;
    tags.reserve(got.size());
    for (const auto& d : got) tags.push_back(d.delivery_tag);
    completed += static_cast<int>(client.ack_batch("q.work", tags));
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  client.close();
  return elapsed > 0 ? profile.messages / elapsed : 0.0;
}

struct FloodStats {
  std::uint64_t admitted = 0;
  std::uint64_t client_throttles = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::flag_double(argc, argv, "--scale", 1.0);
  const bool check = bench::flag_present(argc, argv, "--check");
  std::string json_out = "BENCH_tenancy.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json-out") json_out = argv[i + 1];
  }

  const std::vector<Profile> profiles = make_profiles(scale);

  // The flooder's quota: a sustained publish rate far below what the
  // loopback transport can push, so overrunning it ~10x is guaranteed.
  const double flood_rate = 2000.0;
  auto tenants = std::make_shared<mq::TenantRegistry>();
  mq::TenantQuota flood_quota;
  flood_quota.publish_rate = flood_rate;
  flood_quota.burst = 400.0;
  tenants->register_tenant("flood", flood_quota);

  auto broker = std::make_shared<mq::Broker>("bench_tenancy");
  net::BrokerServerConfig server_cfg;
  server_cfg.tenants = tenants;
  net::BrokerServer server(broker, server_cfg, std::make_shared<Profiler>());
  server.start();
  const std::string endpoint = server.endpoint();

  std::printf("tenancy bench: %zu tenants + flooder (quota %.0f msg/s) on "
              "%s\n",
              profiles.size(), flood_rate, endpoint.c_str());

  // ------------------------------------------------------------- solo phase
  std::vector<double> solo_rate(profiles.size(), 0.0);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    solo_rate[i] = run_profile(endpoint, profiles[i]);
  }

  // -------------------------------------------------------- contended phase
  std::atomic<bool> stop_flood{false};
  FloodStats flood;
  std::thread flood_thread([&] {
    net::RemoteBrokerConfig cfg;
    cfg.endpoint = endpoint;
    cfg.tenant = "flood";
    net::RemoteBroker client(cfg);
    client.declare_queue("q.work", {});
    int seq = 0;
    while (!stop_flood.load(std::memory_order_relaxed)) {
      // 200-message batches, no pacing: the offered load is whatever the
      // socket takes, an order of magnitude past the 2000/s quota.
      std::vector<mq::Message> batch;
      batch.reserve(200);
      for (int i = 0; i < 200; ++i) {
        batch.push_back(make_message("q.work", seq++, 1024));
      }
      try {
        client.publish_batch("q.work", std::move(batch));
        flood.admitted += 200;
      } catch (const mq::QuotaError&) {
        // Retry budget exhausted mid-flood: the quota is doing its job.
      }
      // Drain + ack to keep the flooder's own backlog (and this process's
      // memory) bounded; consuming is deliberately unthrottled.
      const auto got = client.get_batch("q.work", 200, 0.0);
      std::vector<std::uint64_t> tags;
      tags.reserve(got.size());
      for (const auto& d : got) tags.push_back(d.delivery_tag);
      client.ack_batch("q.work", tags);
    }
    flood.client_throttles = client.quota_throttled();
    client.close();
  });

  std::vector<double> contended_rate(profiles.size(), 0.0);
  {
    std::vector<std::thread> threads;
    threads.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      threads.emplace_back([&, i] {
        contended_rate[i] = run_profile(endpoint, profiles[i]);
      });
    }
    for (auto& t : threads) t.join();
  }
  stop_flood.store(true, std::memory_order_relaxed);
  flood_thread.join();

  const std::uint64_t daemon_throttles = tenants->find("flood")->throttled();
  const std::uint64_t flood_published = tenants->find("flood")->published();

  server.stop();
  broker->close();

  // ------------------------------------------------------------- reporting
  std::printf("%14s %14s %14s %8s\n", "tenant", "solo msg/s",
              "contended", "ratio");
  double worst_ratio = 1e9;
  std::string worst_tenant;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const double ratio =
        solo_rate[i] > 0 ? contended_rate[i] / solo_rate[i] : 0.0;
    if (ratio < worst_ratio) {
      worst_ratio = ratio;
      worst_tenant = profiles[i].id;
    }
    std::printf("%14s %14.0f %14.0f %7.2fx\n", profiles[i].id.c_str(),
                solo_rate[i], contended_rate[i], ratio);
  }
  std::printf("flooder: admitted=%llu (daemon published=%llu) "
              "daemon_throttles=%llu client_retries=%llu\n",
              static_cast<unsigned long long>(flood.admitted),
              static_cast<unsigned long long>(flood_published),
              static_cast<unsigned long long>(daemon_throttles),
              static_cast<unsigned long long>(flood.client_throttles));
  std::printf("worst fairness ratio: %.2fx (%s)\n", worst_ratio,
              worst_tenant.c_str());

  json::Value doc;
  doc["bench"] = "tenant_fairness";
  doc["scale"] = scale;
  doc["flood_rate_quota"] = flood_rate;
  json::Array rows;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    json::Value row;
    row["tenant"] = profiles[i].id;
    row["messages"] = static_cast<std::int64_t>(profiles[i].messages);
    row["payload_bytes"] = static_cast<std::int64_t>(
        profiles[i].payload_bytes);
    row["solo_msgs_per_s"] = solo_rate[i];
    row["contended_msgs_per_s"] = contended_rate[i];
    row["ratio"] = solo_rate[i] > 0 ? contended_rate[i] / solo_rate[i] : 0.0;
    rows.push_back(std::move(row));
  }
  doc["tenants"] = std::move(rows);
  doc["flood_admitted"] = static_cast<std::int64_t>(flood.admitted);
  doc["flood_daemon_throttles"] =
      static_cast<std::int64_t>(daemon_throttles);
  doc["flood_client_retries"] =
      static_cast<std::int64_t>(flood.client_throttles);
  doc["worst_ratio"] = worst_ratio;
  doc["worst_tenant"] = worst_tenant;
  std::ofstream out(json_out);
  out << doc.dump() << "\n";
  std::printf("results written to %s\n", json_out.c_str());

  bool failed = false;
  if (check && daemon_throttles == 0) {
    std::fprintf(stderr,
                 "TENANCY CHECK FAILED: the flooder was never throttled "
                 "(offered >> %.0f msg/s quota, daemon_throttles=0)\n",
                 flood_rate);
    failed = true;
  }
  if (check && worst_ratio < 0.5) {
    std::fprintf(stderr,
                 "TENANCY CHECK FAILED: tenant %s degraded to %.2fx of its "
                 "solo rate under flood (gate: >= 0.5x)\n",
                 worst_tenant.c_str(), worst_ratio);
    failed = true;
  }
  if (check && !failed) {
    std::printf("TENANCY CHECK PASSED: flooder throttled %llu times, every "
                "tenant >= %.2fx of its solo rate\n",
                static_cast<unsigned long long>(daemon_throttles),
                worst_ratio);
  }
  return failed ? 1 : 0;
}
