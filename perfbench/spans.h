// Span analysis over a Tracer::Dump(): per-name self time, and the
// critical path of each request root — the chain of spans that set the
// root's end time. Pipeline stages overlap, so summed self time counts a
// stage even while another stage is what the request waits for; the
// critical path counts only the waiting.
#ifndef CDSTORE_PERFBENCH_SPANS_H_
#define CDSTORE_PERFBENCH_SPANS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace cdstore::perfbench {

class SpanForest {
 public:
  explicit SpanForest(const std::vector<TraceSpanSample>& spans) : spans_(spans) {
    kids_.resize(spans_.size());
    std::unordered_map<uint64_t, size_t> by_id;
    by_id.reserve(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_id.emplace(spans_[i].span_id, i);
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto it = by_id.find(spans_[i].parent_id);
      if (spans_[i].parent_id != 0 && it != by_id.end()) {
        kids_[it->second].push_back(i);
      }
    }
  }

  // Adds each span's duration minus the part its children cover, in ns,
  // under the span's name.
  void AddSelfTimes(std::map<std::string, double>* self_ns) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      (*self_ns)[spans_[i].name] += static_cast<double>(End(i) - spans_[i].start_ns) -
                                    static_cast<double>(CoveredByKids(i));
    }
  }

  // Walks the critical path of every parentless span named `root` and adds
  // the time each span name holds the path, in ns. Returns the roots seen.
  uint64_t AddCriticalPaths(const std::string& root, std::map<std::string, double>* path_ns) const {
    uint64_t roots = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent_id == 0 && spans_[i].name == root) {
        Walk(i, End(i), path_ns);
        ++roots;
      }
    }
    return roots;
  }

 private:
  uint64_t End(size_t i) const { return spans_[i].start_ns + spans_[i].dur_ns; }

  // A child's interval clipped to its parent's.
  std::pair<uint64_t, uint64_t> Clipped(size_t parent, size_t kid) const {
    uint64_t lo = std::max(spans_[kid].start_ns, spans_[parent].start_ns);
    uint64_t hi = std::min(End(kid), End(parent));
    return {lo, std::max(lo, hi)};
  }

  uint64_t CoveredByKids(size_t i) const {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    iv.reserve(kids_[i].size());
    for (size_t k : kids_[i]) {
      iv.push_back(Clipped(i, k));
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, lo = 0, hi = 0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    return covered + (hi - lo);
  }

  // From `until` back to the span's start: the child that ended last (and
  // no later than the cursor) held the path until its end; the span itself
  // holds the gaps between such children.
  void Walk(size_t i, uint64_t until, std::map<std::string, double>* path_ns) const {
    std::vector<std::pair<std::pair<uint64_t, uint64_t>, size_t>> kids;
    kids.reserve(kids_[i].size());
    for (size_t k : kids_[i]) {
      kids.push_back({Clipped(i, k), k});
    }
    std::sort(kids.begin(), kids.end(),
              [](const auto& a, const auto& b) { return a.first.second > b.first.second; });
    uint64_t cursor = std::min(until, End(i));
    double& self = (*path_ns)[spans_[i].name];
    for (const auto& [iv, k] : kids) {
      if (iv.second > cursor || iv.second <= iv.first) {
        continue;
      }
      self += static_cast<double>(cursor - iv.second);
      Walk(k, iv.second, path_ns);
      cursor = iv.first;
    }
    self += static_cast<double>(cursor - std::min(cursor, spans_[i].start_ns));
  }

  const std::vector<TraceSpanSample>& spans_;
  std::vector<std::vector<size_t>> kids_;
};

}  // namespace cdstore::perfbench

#endif  // CDSTORE_PERFBENCH_SPANS_H_
