// ExecManager (paper Fig 2): the workload-management component.
//
// Since the distributed-execution refactor this is a thin, registry-backed
// deployment of worker::WorkerRuntime — the reusable Rmgr/Emgr/RtsCallback
// stack in src/worker — embedded in the AppManager process. The wrapper
// resolves pending-queue ids through the live ObjectRegistry (so task
// callables survive translation) and keeps the historical component name,
// queue bindings and config shape, so in-process behaviour is unchanged.
// The same runtime, constructed against a RemoteBroker with inline units,
// is the entk_worker daemon (src/worker/worker_daemon.hpp).
#pragma once

#include "src/core/sync.hpp"
#include "src/core/task.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk {

/// Historical name: the embedded deployment's config is exactly the
/// runtime's (defaults preserve seed behaviour).
using ExecConfig = worker::WorkerRuntimeConfig;

/// A supervised Component with "emgr", "heartbeat" and (with a flush
/// window configured) "flush" workers. The RTS handle lives outside the
/// worker lifecycle, so a crashed-and-restarted ExecManager re-attaches to
/// the same RTS instance and the Pending queue without losing units.
class ExecManager : public worker::WorkerRuntime {
 public:
  ExecManager(ExecConfig config, mq::BrokerHandlePtr broker,
              ObjectRegistry* registry, std::string pending_queue,
              std::string done_queue, std::string states_queue,
              rts::RtsFactory rts_factory, ProfilerPtr profiler);
};

}  // namespace entk
