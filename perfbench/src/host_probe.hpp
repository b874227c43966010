// A fixed reference op that prices the host's current speed, so that op
// times can be quoted at one nominal host speed.
//
// On a shared VM the memory system slows by up to 2x, for seconds to
// minutes, while neighbours are busy. A memory-bound dictionary op slows
// with it, and its tail slows more than its median; a pure ALU loop barely
// slows at all. A median over one run cannot remove a phase that outlasts
// the run, so runs of the same code disagree by more than any useful
// regression bound.
//
// The end-to-end run therefore interleaves bursts of a reference op shaped
// like a memory-backend dictionary op: 16 copies of random 1 KiB blocks,
// from a pool far larger than L2, into fresh heap buffers. Each reference op
// is timed. An op's wall time is rescaled by the same quantile of the recent
// reference ops: by kNominalP50Ns over their median for medians and
// throughput, by kNominalP99Ns over their p99 for tails. The probe is the
// benchmark's own code and does not change with the library, so a faster
// library still reads faster.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "latency.hpp"
#include "util/prng.hpp"

namespace pddict::perfbench {

class HostProbe {
 public:
  static constexpr std::size_t kPoolBytes = std::size_t{32} << 20;
  static constexpr std::size_t kBlockBytes = 1024;
  static constexpr int kBlocksPerOp = 16;
  static constexpr int kOpsPerBurst = 20;
  /// The reference op's median and p99 on a calm host: normalised times
  /// read as wall times there.
  static constexpr double kNominalP50Ns = 5000.0;
  static constexpr double kNominalP99Ns = 7500.0;
  /// During a measured run, a burst follows an op once this much time has
  /// passed since the last burst (≈1% of the run).
  static constexpr std::uint64_t kPeriodNs = 10000000;
  /// Quantiles are taken over the last ten bursts' reference ops.
  static constexpr std::size_t kWindow = 10 * kOpsPerBurst;

  HostProbe() : pool_(kPoolBytes), rng_(0x5eedf00d) {
    // Every page is written, so the pool is resident from the start and adds
    // exactly kPoolBytes to the peak RSS.
    for (std::size_t i = 0; i < pool_.size(); ++i)
      pool_[i] = static_cast<std::byte>(i * 131);
    restart();
  }

  /// Fills the window afresh, e.g. after an untimed phase.
  void restart() {
    for (std::size_t i = 0; i < kWindow / kOpsPerBurst; ++i) burst();
  }

  /// Runs a burst if kPeriodNs have passed since the last one.
  void tick() {
    if (now_ns() - last_ >= kPeriodNs) burst();
  }

  /// Factors that rescale a wall time measured now to the nominal host.
  double p50_factor() const { return p50_factor_; }
  double p99_factor() const { return p99_factor_; }

  static std::uint64_t scale(std::uint64_t ns, double factor) {
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(ns) * factor));
  }

  /// Runs a fresh window of bursts and returns p50_factor() after them.
  double measure() {
    restart();
    return p50_factor_;
  }

  /// Median reference op time over the whole run.
  double median_op_ns() const { return median(all_); }

 private:
  void burst() {
    std::uint64_t sum = 0;
    for (int r = 0; r < kOpsPerBurst; ++r) {
      const std::uint64_t t0 = now_ns();
      std::vector<std::vector<std::byte>> blocks;
      for (int b = 0; b < kBlocksPerOp; ++b) {
        const std::size_t off =
            rng_.next_below(kPoolBytes / kBlockBytes) * kBlockBytes;
        blocks.emplace_back(pool_.begin() + static_cast<std::ptrdiff_t>(off),
                            pool_.begin() +
                                static_cast<std::ptrdiff_t>(off + kBlockBytes));
      }
      sum += std::to_integer<std::uint64_t>(blocks[r % kBlocksPerOp][r]);
      blocks = {};
      const std::uint64_t t1 = now_ns();
      window_[next_++ % kWindow] = static_cast<double>(t1 - t0);
      all_.push_back(static_cast<double>(t1 - t0));
      last_ = t1;
    }
    sink_ = sum;  // keeps the copies from being optimised away
    update();
  }

  void update() {
    std::array<double, kWindow> s = window_;
    std::sort(s.begin(), s.end());
    const auto at = [&s](double q) {
      const auto k = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(kWindow)));
      return std::max(1.0, s[std::clamp<std::size_t>(k, 1, kWindow) - 1]);
    };
    p50_factor_ = kNominalP50Ns / at(0.50);
    p99_factor_ = kNominalP99Ns / at(0.99);
  }

  std::vector<std::byte> pool_;
  util::SplitMix64 rng_;
  std::array<double, kWindow> window_{};
  std::size_t next_ = 0;
  std::uint64_t last_ = 0;
  double p50_factor_ = 1.0;
  double p99_factor_ = 1.0;
  std::vector<double> all_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace pddict::perfbench
