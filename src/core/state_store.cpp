#include "src/core/state_store.hpp"

#include <charconv>
#include <fstream>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/json/json.hpp"

namespace entk {

StateStore::StateStore(std::string journal_path, mq::JournalConfig journal)
    : journal_path_(std::move(journal_path)) {
  if (!journal_path_.empty()) {
    writer_ = std::make_unique<mq::JournalWriter>(journal_path_, journal);
  }
}

StateStore::~StateStore() = default;  // writer close() flushes the tail

std::uint64_t StateStore::commit(const Transition& t, const std::string& uid,
                                 std::uint16_t component) {
  if (t.id == kNoId) throw ValueError("StateStore: commit without an id");
  std::unique_lock<std::mutex> lock(mutex_);
  if (component >= names_.size()) {
    throw ValueError("StateStore: component name not interned");
  }
  if (uids_.size() <= t.id) uids_.resize(std::size_t{t.id} + 1);
  if (uids_[t.id].empty()) {
    if (!subject_ids_.emplace(uid, t.id).second) {
      throw ValueError("StateStore: " + uid + " already has another id");
    }
    uids_[t.id] = uid;
  } else if (uids_[t.id] != uid) {
    throw ValueError("StateStore: id " + std::to_string(t.id) +
                     " belongs to " + uids_[t.id] + ", not " + uid);
  }
  const Record r{next_seq_++, wall_now_s(), t, component};
  if (writer_ != nullptr) {
    // The JSONL record, rendered directly: byte-identical to dumping a
    // json::Value {seq, wall_s, uid, kind, from, to, component}.
    char num[32];
    line_.assign("{\"seq\":");
    line_.append(num, std::to_chars(num, num + sizeof(num), r.seq).ptr);
    line_ += ",\"wall_s\":";
    line_.append(num, std::to_chars(num, num + sizeof(num), r.wall_s).ptr);
    const auto field = [this](const char* key, const std::string& value) {
      line_ += ",\"";
      line_ += key;
      line_ += "\":\"";
      line_ += json::escape(value);
      line_ += '"';
    };
    field("uid", uids_[t.id]);
    field("kind", to_string(t.kind));
    field("from", state_name(t.kind, t.from));
    field("to", state_name(t.kind, t.to));
    field("component", names_[component]);
    line_ += '}';
    writer_->append(line_);
  }
  keep_locked(r);
  if (!sink_) return r.seq;
  const std::function<void(const StateTransaction&)> sink = sink_;
  const StateTransaction rendered = render_locked(r);
  lock.unlock();
  sink(rendered);
  return r.seq;
}

void StateStore::keep_locked(const Record& r) {
  records_.push_back(r);
  if (latest_.size() <= r.t.id) latest_.resize(std::size_t{r.t.id} + 1, 0);
  latest_[r.t.id] = static_cast<std::uint32_t>(records_.size());
}

std::uint16_t StateStore::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return intern_locked(name);
}

std::uint16_t StateStore::intern_locked(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  if (names_.size() > 0xFFFF) throw EnTKError("StateStore: too many names");
  names_.push_back(name);
  return name_ids_.emplace(name, names_.size() - 1).first->second;
}

std::uint32_t StateStore::subject_locked(const std::string& uid) {
  const auto [it, added] =
      subject_ids_.try_emplace(uid, static_cast<std::uint32_t>(uids_.size()));
  if (added) uids_.push_back(uid);
  return it->second;
}

StateTransaction StateStore::render_locked(const Record& r) const {
  return {r.seq,
          r.wall_s,
          uids_[r.t.id],
          to_string(r.t.kind),
          state_name(r.t.kind, r.t.from),
          state_name(r.t.kind, r.t.to),
          names_[r.component]};
}

void StateStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (writer_ != nullptr) writer_->flush();
}

std::string StateStore::state_of(const std::string& uid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = subject_ids_.find(uid);
  if (it == subject_ids_.end() || it->second >= latest_.size() ||
      latest_[it->second] == 0) {
    return "";
  }
  const Transition& t = records_[latest_[it->second] - 1].t;
  return state_name(t.kind, t.to);
}

std::vector<StateTransaction> StateStore::history() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StateTransaction> out;
  out.reserve(records_.size());
  for (const Record& r : records_) out.push_back(render_locked(r));
  return out;
}

std::size_t StateStore::transaction_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void StateStore::set_external_sink(
    std::function<void(const StateTransaction&)> sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

std::size_t StateStore::recover(const std::string& journal_path) {
  std::ifstream in(journal_path);
  if (!in) throw EnTKError("StateStore: cannot read " + journal_path);
  std::size_t n = 0;
  std::string line;
  std::lock_guard<std::mutex> lock(mutex_);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value v;
    try {
      v = json::parse(line);
    } catch (const json::ParseError&) {
      ENTK_WARN("state_store") << "stopping recovery at torn record";
      break;
    }
    std::optional<Transition> t =
        parse_transition(v.get_string("kind", ""), v.get_string("from", ""),
                         v.get_string("to", ""));
    if (!t) {
      ENTK_WARN("state_store") << "stopping recovery at unknown transition";
      break;
    }
    t->id = subject_locked(v.get_string("uid", ""));
    const Record r{static_cast<std::uint64_t>(v.get_int("seq", 0)),
                   v.get_double("wall_s", 0.0), *t,
                   intern_locked(v.get_string("component", ""))};
    if (next_seq_ <= r.seq) next_seq_ = r.seq + 1;
    keep_locked(r);
    ++n;
  }
  return n;
}

}  // namespace entk
