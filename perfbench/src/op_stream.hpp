// Seeded operation streams and the shadow set that checks them.
//
// The stream is generated one op at a time against its own model of the
// dictionary's contents (the shadow set), so it can run for as long as the
// clock allows while keeping two properties the workloads rely on:
//   * no op fails by design — inserts take absent keys, erases live ones;
//   * the live size stays bounded — kinds are dealt in shuffled fixed-size
//     decks with as many inserts as erases, and erased keys join the back of
//     a FIFO of spare keys, so they are inserted again later.
// Generation is not timed: the runner reads the clock around the dictionary
// call only. Every op carries the answer the shadow set expects.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/dictionary.hpp"
#include "util/prng.hpp"
#include "workload/workload.hpp"

namespace pddict::perfbench {

enum class OpKind : std::uint8_t { kLookup = 0, kInsert = 1, kErase = 2 };
inline constexpr int kNumOpKinds = 3;

struct Op {
  OpKind kind = OpKind::kLookup;
  core::Key key = 0;
  bool expect_found = false;  // lookups: is the key live?
};

struct OpMix {
  std::uint32_t lookups = 1;  // per deck
  std::uint32_t inserts = 0;
  std::uint32_t erases = 0;
  double hit_fraction = 0.5;  // lookups aimed at live keys
  double zipf_theta = 0.0;    // 0 = hits uniform over live keys
};

class OpStream {
 public:
  /// `live` is the prefilled key set, `spare` the absent keys inserts draw
  /// from (must be non-empty when the mix inserts).
  OpStream(const OpMix& mix, std::vector<core::Key> live,
           std::vector<core::Key> spare, std::uint64_t universe,
           std::uint64_t seed)
      : mix_(mix),
        universe_(universe),
        rng_(util::mix64(seed ^ 0x0b5eed)),
        slots_(std::move(live)),
        spare_(spare.begin(), spare.end()),
        present_(slots_.begin(), slots_.end()) {
    if (mix_.zipf_theta > 0.0)
      zipf_ = std::make_unique<workload::ZipfSampler>(
          std::max<std::size_t>(1, slots_.size()), mix_.zipf_theta,
          util::mix64(seed ^ 0x21bf));
  }

  Op next() {
    if (deck_pos_ == deck_.size()) deal();
    switch (deck_[deck_pos_++]) {
      case OpKind::kInsert:
        return insert_op();
      case OpKind::kErase:
        return erase_op();
      case OpKind::kLookup:
        break;
    }
    if (!present_.empty() && rng_.next_double() < mix_.hit_fraction)
      return {OpKind::kLookup, slots_[live_slot_from(hit_rank())], true};
    core::Key k;
    do {
      k = rng_.next_below(universe_);
    } while (k == core::kTombstone || present_.count(k));
    return {OpKind::kLookup, k, false};
  }

  std::uint64_t live_count() const { return present_.size(); }

 private:
  void deal() {
    deck_.assign(mix_.lookups, OpKind::kLookup);
    deck_.insert(deck_.end(), mix_.inserts, OpKind::kInsert);
    deck_.insert(deck_.end(), mix_.erases, OpKind::kErase);
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    deck_pos_ = 0;
  }

  std::size_t hit_rank() {
    return zipf_ ? static_cast<std::size_t>(zipf_->next())
                 : static_cast<std::size_t>(rng_.next_below(slots_.size()));
  }

  /// First live slot at or after `i` (wrapping): erased slots are holes
  /// until an insert refills them.
  std::size_t live_slot_from(std::size_t i) const {
    i %= slots_.size();
    while (slots_[i] == core::kTombstone) i = (i + 1) % slots_.size();
    return i;
  }

  Op insert_op() {
    core::Key k = spare_.front();
    spare_.pop_front();
    if (!holes_.empty()) {
      slots_[holes_.back()] = k;
      holes_.pop_back();
    } else {
      slots_.push_back(k);
    }
    present_.insert(k);
    return {OpKind::kInsert, k, false};
  }

  Op erase_op() {
    std::size_t i = live_slot_from(
        static_cast<std::size_t>(rng_.next_below(slots_.size())));
    core::Key k = slots_[i];
    slots_[i] = core::kTombstone;
    holes_.push_back(i);
    present_.erase(k);
    spare_.push_back(k);
    return {OpKind::kErase, k, true};
  }

  OpMix mix_;
  std::uint64_t universe_;
  util::SplitMix64 rng_;
  std::vector<OpKind> deck_;
  std::size_t deck_pos_ = 0;
  std::vector<core::Key> slots_;  // live keys; kTombstone marks a hole
  std::vector<std::size_t> holes_;
  std::deque<core::Key> spare_;
  std::unordered_set<core::Key> present_;  // the shadow set
  std::unique_ptr<workload::ZipfSampler> zipf_;
};

}  // namespace pddict::perfbench
