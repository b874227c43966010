// The benchmark's clock, and per-op latency statistics that shrug off
// bursts of interference.
//
// Samples are cut into consecutive chunks of kChunk ops. Each chunk yields
// its op rate (ops per second of op time), p50 and p99 — the 20th slowest
// of 2000, so at least ten samples lie beyond it — and a run reports the
// median of each over its chunks. On a shared machine interference arrives
// in bursts of tenths of a second; a median over chunks ignores them while
// they cover less than half the run, where a whole-run percentile would
// absorb them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pddict::perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class ChunkStats {
 public:
  static constexpr std::size_t kChunk = 2000;

  ChunkStats() { buf_.reserve(kChunk); }

  void add(std::uint64_t ns) {
    buf_.push_back(ns);
    ++count_;
    if (buf_.size() == kChunk) close_chunk();
  }

  std::uint64_t count() const { return count_; }

  // A run too short to fill one chunk reports its partial chunk.
  double rate_per_s() { return median(settled().rate_); }
  double p50_ns() { return median(settled().p50_); }
  double p99_ns() { return median(settled().p99_); }

 private:
  ChunkStats& settled() {
    if (rate_.empty() && !buf_.empty()) close_chunk();
    return *this;
  }

  void close_chunk() {
    double sum = 0;
    for (std::uint64_t ns : buf_) sum += static_cast<double>(ns);
    rate_.push_back(sum > 0 ? static_cast<double>(buf_.size()) / sum * 1e9
                            : 0.0);
    p50_.push_back(rank(0.50));
    p99_.push_back(rank(0.99));
    buf_.clear();
  }

  /// The ceil(q·n)-th smallest sample of the open chunk.
  double rank(double q) {
    auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(buf_.size())));
    k = std::clamp<std::size_t>(k, 1, buf_.size()) - 1;
    std::nth_element(buf_.begin(), buf_.begin() + static_cast<long>(k),
                     buf_.end());
    return static_cast<double>(buf_[k]);
  }

  std::vector<std::uint64_t> buf_;
  std::uint64_t count_ = 0;
  std::vector<double> rate_, p50_, p99_;
};

}  // namespace pddict::perfbench
