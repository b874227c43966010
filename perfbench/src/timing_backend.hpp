// A timing BlockBackend decorator: the ledger's pdm.backend layer boundary.
//
// Forwards every call to the wrapped backend unchanged and, while enabled,
// times it. Executor workers call batched transfers concurrently on
// disjoint disks, so the accumulators are per-disk atomics (cache-line
// padded): block counts land on each block's own disk, a call's time on the
// disk of its first block. A thread-local total additionally records the
// backend time spent on the *calling* thread, which is how the ledger
// separates backend time from pdm.array self time along the client's
// blocking path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "pdm/backend.hpp"

namespace pddict::perfbench {

class TimingBackend final : public pdm::BlockBackend {
 public:
  TimingBackend(std::unique_ptr<pdm::BlockBackend> inner,
                std::uint32_t num_disks);

  pdm::Block load(const pdm::BlockAddr& addr) override;
  void store(const pdm::BlockAddr& addr, const pdm::Block& block) override;
  void load_batch(std::span<pdm::BlockRead> reads) override;
  void store_batch(std::span<pdm::BlockWrite> writes) override;
  void erase_range(std::uint32_t first_disk, std::uint32_t num_disks,
                   std::uint64_t base, std::uint64_t count) override;
  std::uint64_t blocks_in_use() const override;

  /// Disabled, calls are forwarded untimed (one relaxed load each), so the
  /// same array can run untraced and traced segments.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  struct Totals {
    std::uint64_t load_ns = 0;
    std::uint64_t store_ns = 0;
    std::uint64_t load_blocks = 0;
    std::uint64_t store_blocks = 0;
    std::uint64_t calls = 0;
    std::uint64_t errors = 0;  // calls that threw (the error is rethrown)
  };
  /// Sum over all disks.
  Totals totals() const;
  /// Blocks loaded / stored per disk (index = disk), for the self-check
  /// against DiskArray::disk_counters().
  std::vector<std::uint64_t> disk_load_blocks() const;
  std::vector<std::uint64_t> disk_store_blocks() const;

  /// Timed backend nanoseconds spent on the calling thread so far.
  static std::uint64_t thread_ns();

 private:
  struct alignas(64) DiskAccum {
    std::atomic<std::uint64_t> load_ns{0};
    std::atomic<std::uint64_t> store_ns{0};
    std::atomic<std::uint64_t> load_blocks{0};
    std::atomic<std::uint64_t> store_blocks{0};
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> errors{0};
  };

  /// Runs `fn` against the wrapped backend, charging its time and one call
  /// to `disk` (and an error if it throws).
  template <typename Fn>
  void timed(std::uint32_t disk, bool write, Fn&& fn);

  std::unique_ptr<pdm::BlockBackend> inner_;
  std::unique_ptr<DiskAccum[]> disks_;
  std::uint32_t num_disks_;
  std::atomic<bool> enabled_{false};
};

}  // namespace pddict::perfbench
