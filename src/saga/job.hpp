// SAGA-like job abstraction (paper §II-D).
//
// The PilotManager submits pilots as jobs through a uniform job-management
// API; one adapter exists per CI type. Here the adapter targets the
// simulated CI: a submitted job waits a sampled batch-queue time, then
// becomes Active and holds its nodes until canceled or its walltime ends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace entk::saga {

enum class JobState { New, Pending, Active, Done, Failed, Canceled };

const char* to_string(JobState s);

struct JobDescription {
  std::string name;
  int nodes = 1;
  double walltime_s = 3600.0;  ///< virtual seconds
  std::string project = {};    ///< allocation/project id (informational)
};

/// Handle to a submitted job. State is evaluated lazily against the
/// virtual clock, so no background thread is needed.
class Job {
 public:
  virtual ~Job() = default;
  virtual const std::string& id() const = 0;
  virtual const JobDescription& description() const = 0;
  virtual JobState state() const = 0;
  /// Block (on the scaled clock) until the job leaves Pending.
  virtual void wait_active() = 0;
  virtual void cancel() = 0;
  /// Virtual time at which the job became Active (-1 while pending).
  virtual double start_time() const = 0;
};

using JobPtr = std::shared_ptr<Job>;

}  // namespace entk::saga
