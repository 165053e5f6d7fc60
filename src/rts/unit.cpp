#include "src/rts/unit.hpp"

namespace entk::rts {

const char* to_string(UnitOutcome o) {
  switch (o) {
    case UnitOutcome::Done: return "DONE";
    case UnitOutcome::Failed: return "FAILED";
    case UnitOutcome::Canceled: return "CANCELED";
    case UnitOutcome::Lost: return "LOST";
  }
  return "?";
}

namespace {

json::Value staging_to_json(const std::vector<saga::StagingDirective>& list) {
  json::Value arr = json::Array{};
  for (const saga::StagingDirective& d : list) {
    json::Value v;
    v["source"] = d.source;
    v["target"] = d.target;
    v["action"] = saga::to_string(d.action);
    v["bytes"] = d.bytes;
    arr.push_back(std::move(v));
  }
  return arr;
}

std::vector<saga::StagingDirective> staging_from_json(const json::Value& v) {
  std::vector<saga::StagingDirective> out;
  if (!v.is_array()) return out;
  for (const json::Value& item : v.as_array()) {
    saga::StagingDirective d;
    d.source = item.get_string("source", "");
    d.target = item.get_string("target", "");
    const std::string action = item.get_string("action", "copy");
    if (action == "link") d.action = saga::StagingAction::Link;
    else if (action == "transfer") d.action = saga::StagingAction::Transfer;
    else d.action = saga::StagingAction::Copy;
    d.bytes = static_cast<std::uint64_t>(item.get_int("bytes", 0));
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

json::Value TaskUnit::to_json() const {
  json::Value v;
  v["uid"] = uid;
  if (id != kNoId) v["id"] = id;
  v["name"] = name;
  v["executable"] = executable;
  json::Value args = json::Array{};
  for (const std::string& a : arguments) args.push_back(a);
  v["arguments"] = std::move(args);
  v["cores"] = cores;
  v["gpus"] = gpus;
  v["exclusive_nodes"] = exclusive_nodes;
  v["duration_s"] = duration_s;
  v["has_callable"] = static_cast<bool>(callable);
  v["input_staging"] = staging_to_json(input_staging);
  v["output_staging"] = staging_to_json(output_staging);
  v["metadata"] = metadata;
  return v;
}

TaskUnit TaskUnit::from_json(const json::Value& v) {
  TaskUnit u;
  u.uid = v.get_string("uid", "");
  const std::int64_t id = v.get_int("id", kNoId);
  if (id >= 0 && id < kNoId) u.id = static_cast<std::uint32_t>(id);
  u.name = v.get_string("name", "");
  u.executable = v.get_string("executable", "");
  if (v.contains("arguments") && v.at("arguments").is_array()) {
    for (const json::Value& a : v.at("arguments").as_array()) {
      if (a.is_string()) u.arguments.push_back(a.as_string());
    }
  }
  u.cores = static_cast<int>(v.get_int("cores", 1));
  u.gpus = static_cast<int>(v.get_int("gpus", 0));
  u.exclusive_nodes = v.get_bool("exclusive_nodes", false);
  u.duration_s = v.get_double("duration_s", 0.0);
  if (v.contains("input_staging"))
    u.input_staging = staging_from_json(v.at("input_staging"));
  if (v.contains("output_staging"))
    u.output_staging = staging_from_json(v.at("output_staging"));
  if (v.contains("metadata")) u.metadata = v.at("metadata");
  return u;
}

json::Value UnitResult::to_json() const {
  json::Value v;
  v["uid"] = uid;
  v["name"] = name;
  v["outcome"] = to_string(outcome);
  v["exit_code"] = exit_code;
  v["submit_t"] = submit_t;
  v["sched_t"] = sched_t;
  v["exec_start_t"] = exec_start_t;
  v["exec_end_t"] = exec_end_t;
  v["done_t"] = done_t;
  v["staging_in_s"] = staging_in_s;
  v["staging_out_s"] = staging_out_s;
  v["metadata"] = metadata;
  return v;
}

UnitResult UnitResult::from_json(const json::Value& v) {
  UnitResult r;
  r.uid = v.get_string("uid", "");
  r.name = v.get_string("name", "");
  const std::string outcome = v.get_string("outcome", "DONE");
  if (outcome == "FAILED") r.outcome = UnitOutcome::Failed;
  else if (outcome == "CANCELED") r.outcome = UnitOutcome::Canceled;
  else if (outcome == "LOST") r.outcome = UnitOutcome::Lost;
  else r.outcome = UnitOutcome::Done;
  r.exit_code = static_cast<int>(v.get_int("exit_code", 0));
  r.submit_t = v.get_double("submit_t", 0.0);
  r.sched_t = v.get_double("sched_t", 0.0);
  r.exec_start_t = v.get_double("exec_start_t", 0.0);
  r.exec_end_t = v.get_double("exec_end_t", 0.0);
  r.done_t = v.get_double("done_t", 0.0);
  r.staging_in_s = v.get_double("staging_in_s", 0.0);
  r.staging_out_s = v.get_double("staging_out_s", 0.0);
  if (v.contains("metadata")) r.metadata = v.at("metadata");
  return r;
}

}  // namespace entk::rts
