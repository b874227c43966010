#include "timing_backend.hpp"

#include "latency.hpp"

namespace pddict::perfbench {

namespace {
thread_local std::uint64_t t_thread_ns = 0;
}  // namespace

TimingBackend::TimingBackend(std::unique_ptr<pdm::BlockBackend> inner,
                             std::uint32_t num_disks)
    : inner_(std::move(inner)),
      disks_(std::make_unique<DiskAccum[]>(num_disks)),
      num_disks_(num_disks) {}

template <typename Fn>
void TimingBackend::timed(std::uint32_t disk, bool write, Fn&& fn) {
  DiskAccum& acc = disks_[disk < num_disks_ ? disk : 0];
  const std::uint64_t start = now_ns();
  try {
    fn();
  } catch (...) {
    acc.errors.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
  const std::uint64_t elapsed = now_ns() - start;
  t_thread_ns += elapsed;
  (write ? acc.store_ns : acc.load_ns)
      .fetch_add(elapsed, std::memory_order_relaxed);
  acc.calls.fetch_add(1, std::memory_order_relaxed);
}

pdm::Block TimingBackend::load(const pdm::BlockAddr& addr) {
  if (!enabled_.load(std::memory_order_relaxed)) return inner_->load(addr);
  pdm::Block out;
  timed(addr.disk, false, [&] { out = inner_->load(addr); });
  disks_[addr.disk].load_blocks.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void TimingBackend::store(const pdm::BlockAddr& addr,
                          const pdm::Block& block) {
  if (!enabled_.load(std::memory_order_relaxed))
    return inner_->store(addr, block);
  timed(addr.disk, true, [&] { inner_->store(addr, block); });
  disks_[addr.disk].store_blocks.fetch_add(1, std::memory_order_relaxed);
}

void TimingBackend::load_batch(std::span<pdm::BlockRead> reads) {
  if (!enabled_.load(std::memory_order_relaxed) || reads.empty())
    return inner_->load_batch(reads);
  // Count before forwarding: FileBackend sorts the span in place.
  for (const pdm::BlockRead& r : reads)
    disks_[r.addr.disk].load_blocks.fetch_add(1, std::memory_order_relaxed);
  timed(reads.front().addr.disk, false, [&] { inner_->load_batch(reads); });
}

void TimingBackend::store_batch(std::span<pdm::BlockWrite> writes) {
  if (!enabled_.load(std::memory_order_relaxed) || writes.empty())
    return inner_->store_batch(writes);
  for (const pdm::BlockWrite& w : writes)
    disks_[w.addr.disk].store_blocks.fetch_add(1, std::memory_order_relaxed);
  timed(writes.front().addr.disk, true, [&] { inner_->store_batch(writes); });
}

void TimingBackend::erase_range(std::uint32_t first_disk,
                                std::uint32_t num_disks, std::uint64_t base,
                                std::uint64_t count) {
  if (!enabled_.load(std::memory_order_relaxed))
    return inner_->erase_range(first_disk, num_disks, base, count);
  timed(first_disk, true,
        [&] { inner_->erase_range(first_disk, num_disks, base, count); });
}

std::uint64_t TimingBackend::blocks_in_use() const {
  return inner_->blocks_in_use();
}

TimingBackend::Totals TimingBackend::totals() const {
  Totals t;
  for (std::uint32_t d = 0; d < num_disks_; ++d) {
    const DiskAccum& a = disks_[d];
    t.load_ns += a.load_ns.load(std::memory_order_relaxed);
    t.store_ns += a.store_ns.load(std::memory_order_relaxed);
    t.load_blocks += a.load_blocks.load(std::memory_order_relaxed);
    t.store_blocks += a.store_blocks.load(std::memory_order_relaxed);
    t.calls += a.calls.load(std::memory_order_relaxed);
    t.errors += a.errors.load(std::memory_order_relaxed);
  }
  return t;
}

std::vector<std::uint64_t> TimingBackend::disk_load_blocks() const {
  std::vector<std::uint64_t> v(num_disks_);
  for (std::uint32_t d = 0; d < num_disks_; ++d)
    v[d] = disks_[d].load_blocks.load(std::memory_order_relaxed);
  return v;
}

std::vector<std::uint64_t> TimingBackend::disk_store_blocks() const {
  std::vector<std::uint64_t> v(num_disks_);
  for (std::uint32_t d = 0; d < num_disks_; ++d)
    v[d] = disks_[d].store_blocks.load(std::memory_order_relaxed);
  return v;
}

std::uint64_t TimingBackend::thread_ns() { return t_thread_ns; }

}  // namespace pddict::perfbench
