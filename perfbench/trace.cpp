#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;
thread_local int thread_slot = -1;

double micros(Tracer::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::begin(const char* name, long op) {
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard lock(mu_);
  if (thread_slot < 0) thread_slot = next_thread_++;
  if (op < 0 && parent >= 0) {
    op = records_[static_cast<std::size_t>(parent)].op;
  }
  const int index = static_cast<int>(records_.size());
  records_.push_back({name, op, parent, thread_slot, Clock::now(), {}});
  open_spans.push_back(index);
  return index;
}

void Tracer::end(int index) {
  const Clock::time_point t = Clock::now();
  open_spans.pop_back();
  std::lock_guard lock(mu_);
  records_[static_cast<std::size_t>(index)].end = t;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::lock_guard lock(mu_);
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += micros(records_[i].end - records_[i].start);
    const int parent = records_[i].parent;
    if (parent >= 0) {
      self[static_cast<std::size_t>(parent)] -=
          micros(records_[i].end - records_[i].start);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    SelfTime& total = out[records_[i].name];
    total.seconds += self[i] * 1e-6;
    ++total.spans;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::lock_guard lock(mu_);
  for (const Record& r : records_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%ld,\"parent\":%d,\"thread\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 r.name, r.op, r.parent, r.thread, micros(r.start - origin_),
                 micros(r.end - origin_));
  }
  std::fclose(f);
}

}  // namespace perfbench
