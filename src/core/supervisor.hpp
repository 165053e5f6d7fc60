// AppManager-level component supervisor (paper §II-B-4).
//
// The paper's fault model treats every EnTK component as a restartable
// unit: the master (AppManager) heartbeats its components and re-creates
// one that died, re-attaching it to the same queues and state store so no
// task state is lost. This generalizes the ExecManager's RTS-restart logic
// to every Component in the process:
//
//     AppManager
//       └── Supervisor ── probes ──> { WFProcessor, ExecManager, Synchronizer }
//                                        ExecManager ── heartbeats ──> RTS
//
// The Supervisor is itself a Component with a single "probe" worker. It
// wakes every heartbeat interval — or immediately, when a supervised
// component's fault listener kicks it — scans for Failed components, and
// restarts each one up to `component_restart_limit` times. When a
// component exhausts its budget the supervisor gives up and invokes the
// fatal handler, which AppManager wires to abort the run and surface the
// failure in the OverheadReport.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/component.hpp"
#include "src/mq/broker_handle.hpp"

namespace entk {

class Supervisor : public Component {
 public:
  Supervisor(SupervisionConfig config, ProfilerPtr profiler);
  ~Supervisor() override;

  /// Register a component for supervision; installs its fault listener.
  /// Call before start(); `component` must outlive the supervisor.
  void supervise(Component* component);

  /// Invoked (on the probe thread) when a component exhausts its restart
  /// budget, with (component name, fault reason).
  void set_fatal_handler(
      std::function<void(const std::string&, const std::string&)> handler);

  /// Probe `broker`'s durability health on every heartbeat. A broker is
  /// not restartable the way a component is — a sticky journal-flusher
  /// I/O error means durability is already lost — so a non-empty health
  /// string goes straight to the fatal handler (as component "broker",
  /// reported once). Call before start().
  void watch_broker(mq::BrokerHandlePtr broker);

  int total_restarts() const;
  int restarts_of(const std::string& name) const;

 protected:
  void on_start() override;
  void on_stop_requested() override;

 private:
  struct Entry {
    Component* component;
    int restarts = 0;
    bool given_up = false;
  };

  /// Wake-up flag of the probe loop. Shared with every fault listener: a
  /// supervised component's dying worker may kick after this supervisor
  /// is destroyed, and must then find the state still alive.
  struct KickState {
    std::mutex mutex;
    std::condition_variable cv;
    bool kicked = false;

    void kick();
  };

  void probe_loop();

  const SupervisionConfig config_;

  mq::BrokerHandlePtr watched_broker_;
  bool broker_fatal_reported_ = false;  ///< probe-thread only

  mutable std::mutex entries_mutex_;
  std::vector<Entry> entries_;
  std::function<void(const std::string&, const std::string&)> fatal_handler_;

  const std::shared_ptr<KickState> kick_ = std::make_shared<KickState>();
};

}  // namespace entk
