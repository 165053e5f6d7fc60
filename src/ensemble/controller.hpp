// ensemble::Controller — the supervised rule-evaluation component.
//
// One worker ("rules") consumes the WFProcessor's completion-event stream
// (the SAME stream that drives stage books and pipeline completion — there
// is no second source of truth), feeds every event into the ResultView,
// and evaluates the rule set: first against the event, then once per poll
// iteration with no event so timer triggers advance. Actions run through
// the Ops interface the controller itself implements; every firing is
// journaled as a Decision (in memory, and as JSONL when configured), so an
// adaptive run can be replayed and debugged from its journal alone. The
// JSONL goes through the same group-commit mq::JournalWriter as the broker
// and state journals: the controller closes it when it stops, and a write
// error (full disk) surfaces as a controller fault.
//
// The controller is an ordinary supervised Component: a throwing rule or
// generator becomes a captured fault, the supervisor restarts the
// controller, and on_reattach() requeues whatever events the dead worker
// left unacked. Rules must therefore tolerate at-most-one replayed event
// after a crash (max_fires and stat triggers naturally do).
//
// Wiring: create(), add rules / generators, then attach(config) BEFORE
// AppManager::run() — attach installs the adaptive factory that hands the
// controller its broker, registry, WFProcessor and resize hook once those
// exist. Keep the shared_ptr for post-run inspection (decisions(),
// results(), params()).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/app_manager.hpp"
#include "src/ensemble/generator.hpp"
#include "src/ensemble/result_view.hpp"
#include "src/ensemble/rule.hpp"
#include "src/mq/journal.hpp"

namespace entk::ensemble {

struct ControllerConfig {
  std::string name = "ens.controller";
  double poll_timeout_s = 0.002;  ///< wall s per event poll
  /// Append-only JSONL decision journal ("" = in-memory only). One line
  /// per firing: {"t_s", "rule", "trigger", "actions": [...]}.
  std::string journal_path;
};

/// One journaled rule firing.
struct Decision {
  double t_s = 0.0;          ///< virtual seconds since controller start
  std::string rule;          ///< rule name
  std::string trigger;       ///< "timer" or "<kind>:<uid>:<outcome>"
  std::vector<std::string> actions;  ///< ops calls made while firing

  json::Value to_json() const;
};

class Controller : public Component,
                   public Ops,
                   public std::enable_shared_from_this<Controller> {
 public:
  static std::shared_ptr<Controller> create(ControllerConfig config = {});
  ~Controller() override;

  /// Register a rule (before or during the run).
  void add_rule(Rule rule);

  /// Drive `generator` against `pipeline` (held open from now on): the
  /// first batch is appended immediately as stage "<prefix>-0"; after every
  /// stage of the pipeline completes, the generator produces the next
  /// batch; an empty batch finishes the pipeline. Call before
  /// AppManager::run().
  void run_generator(const PipelinePtr& pipeline, GeneratorPtr generator,
                     std::string stage_prefix = "gen");

  /// Install this controller as the config's adaptive extension.
  void attach(AppManagerConfig& config);

  // --- Ops ---------------------------------------------------------------
  ResultView& results() override { return results_; }
  double now_s() const override;
  json::Value param(const std::string& key) const override;
  void set_param(const std::string& key, json::Value value) override;
  void submit_tasks(const std::string& pipeline_uid,
                    const std::string& stage_name,
                    std::vector<TaskPtr> tasks) override;
  void add_stage(const std::string& pipeline_uid, StagePtr stage) override;
  std::size_t cancel_group(const std::string& group) override;
  bool resize_pilot(int delta_nodes, const std::string& reason) override;
  void finish(const std::string& pipeline_uid = std::string()) override;

  // --- introspection -----------------------------------------------------
  std::vector<Decision> decisions() const;
  std::size_t decision_count() const;
  json::Value params() const;

 protected:
  explicit Controller(ControllerConfig config);

  void on_start() override;
  void on_reattach() override;

 private:
  void wire(const AdaptiveWiring& wiring);
  /// Open the decision journal when configured and not open yet.
  void open_journal();
  void rules_loop();
  /// Evaluate the rule set; `event` is null on a timer tick.
  void evaluate(const Event* event);
  void fire(Rule& rule, const Event* event);
  /// Keep `decision` in memory and append it to the journal (when on).
  void journal(Decision decision);
  void record_op(const std::string& description);
  void require_wired(const char* op) const;

  const ControllerConfig config_;

  // Set once by wire() before start(); read by the worker and by ops.
  AdaptiveWiring wiring_;
  bool wired_ = false;
  double start_s_ = 0.0;  ///< virtual clock at start()

  // Rules, params and the decision journal share one recursive mutex:
  // actions run inside evaluate() (which holds it) and re-enter through
  // the Ops methods.
  mutable std::recursive_mutex mutex_;
  std::vector<Rule> rules_;
  json::Value params_;
  std::vector<Decision> decisions_;
  Decision* active_ = nullptr;  ///< decision being built during fire()
  /// Open from construction (or the next start() after a clean stop)
  /// until the rules worker closes it on a clean stop; null when off.
  std::unique_ptr<mq::JournalWriter> journal_;

  ResultView results_;

  // Pre-resolved metric handles (null when metrics are off).
  obs::Counter* events_metric_ = nullptr;
  obs::Counter* fires_metric_ = nullptr;
};

using ControllerPtr = std::shared_ptr<Controller>;

}  // namespace entk::ensemble
