#include "src/core/exec_manager.hpp"

namespace entk {
namespace {

std::optional<rts::TaskUnit> unit_of(const TaskPtr& task) {
  if (!task) return std::nullopt;
  return to_unit(*task);
}

}  // namespace

ExecManager::ExecManager(ExecConfig config, mq::BrokerHandlePtr broker,
                         ObjectRegistry* registry, std::string pending_queue,
                         std::string done_queue, std::string states_queue,
                         rts::RtsFactory rts_factory, ProfilerPtr profiler)
    : worker::WorkerRuntime(
          "exec_manager", std::move(config), std::move(broker),
          {[registry](std::uint32_t id) { return unit_of(registry->task(id)); },
           [registry](const std::string& uid) {
             return unit_of(registry->task(uid));
           }},
          std::move(pending_queue), std::move(done_queue),
          std::move(states_queue), std::move(rts_factory),
          std::move(profiler)) {}

}  // namespace entk
