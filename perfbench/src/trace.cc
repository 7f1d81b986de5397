#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace tcfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

uint64_t SpanLog::Open(const char* name, uint64_t parent, uint64_t request) {
  const double now = Now();
  return Add(name, parent, request, now, now);
}

void SpanLog::Close(uint64_t id) {
  spans_[static_cast<size_t>(id - base_ - 1)].end = Now();
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, uint64_t request,
                      double start, double end) {
  const uint64_t id = base_ + spans_.size() + 1;
  spans_.push_back(Span{name, id, parent, request, start, end});
  return id;
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.emplace_back(logs_.size());
  return &logs_.back();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const SpanLog& log : logs_) {
    all.insert(all.end(), log.spans().begin(), log.spans().end());
  }
  return all;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  SelfTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    auto it = index.find(spans[i].parent);
    if (it == index.end()) {
      ++out.violations;  // dangling parent
      continue;
    }
    children[it->second].push_back(i);
  }
  std::vector<double> self_of(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end - s.start;
    // Union of the children's intervals, merged in start order.
    std::vector<std::pair<double, double>> iv;
    for (size_t c : children[i]) {
      const Span& child = spans[c];
      if (child.start < s.start || child.end > s.end) ++out.violations;
      iv.emplace_back(child.start, child.end);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > run_end) {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open) covered += run_end - run_start;
    const double self = duration - covered;
    if (duration < 0.0 || self < 0.0) ++out.violations;
    self_of[i] = self;
    out.self_seconds[s.name] += self;
    ++out.count[s.name];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t c : children[i]) {
      if (self_of[c] > spans[i].end - spans[i].start) ++out.violations;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\n[\"%s\", %llu, %llu, %llu, %.9f, %.9f]",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start, s.end);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tcfbench
