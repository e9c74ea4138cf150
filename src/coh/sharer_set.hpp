// The directory's per-block sharer set, and the snapshot of it that an
// AMO put wave carries to its target nodes.
//
// A full bit-vector directory names every CPU that may hold a copy, so
// the set spans kMaxCpus bits. Most blocks are shared by a handful of
// CPUs with low ids (a 16-CPU machine never sets a bit past word 0), so
// the set also keeps a high-water count of the 64-bit words in use and
// every walk — iteration, counting, emptiness, snapshots — reads only
// those words. A wave or an invalidation round then costs
// O(words in use + sharers), not O(machine size).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

#include "coh/protocol.hpp"
#include "sim/frame_pool.hpp"
#include "sim/types.hpp"

namespace amo::coh {

class SharerSet {
 public:
  static constexpr std::uint32_t kWords = kMaxCpus / 64;

  void set(sim::CpuId cpu) {
    assert(cpu < kMaxCpus);
    const std::uint32_t w = cpu / 64;
    words_[w] |= bit(cpu);
    used_ = std::max(used_, w + 1);
  }

  [[nodiscard]] bool test(sim::CpuId cpu) const {
    return cpu < kMaxCpus && (words_[cpu / 64] & bit(cpu)) != 0;
  }

  /// Empties the set. Words past the high-water mark are always zero, so
  /// only the words in use need clearing.
  void clear() {
    std::fill_n(words_.begin(), used_, 0);
    used_ = 0;
  }

  /// Bits are only ever added (until clear()), so a non-zero high-water
  /// mark implies a member.
  [[nodiscard]] bool none() const { return used_ == 0; }

  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (std::uint64_t w : words()) n += std::popcount(w);
    return n;
  }

  /// True when some CPU other than `cpu` is a member.
  [[nodiscard]] bool any_except(sim::CpuId cpu) const {
    for (std::uint32_t i = 0; i < used_; ++i) {
      const std::uint64_t w =
          i == cpu / 64 ? words_[i] & ~bit(cpu) : words_[i];
      if (w != 0) return true;
    }
    return false;
  }

  /// Calls `fn(cpu)` for every member, in ascending CPU order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_in(words(), fn);
  }

  /// The words in use: bit `c % 64` of word `c / 64` is CPU c.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {words_.data(), used_};
  }

  /// Ascending set-bit walk over a word span (shared with SharerSnapshot).
  template <typename Fn>
  static void for_each_in(std::span<const std::uint64_t> words, Fn&& fn) {
    for (std::uint32_t i = 0; i < words.size(); ++i) {
      for (std::uint64_t w = words[i]; w != 0; w &= w - 1) {
        fn(static_cast<sim::CpuId>(i * 64 + std::countr_zero(w)));
      }
    }
  }

 private:
  static constexpr std::uint64_t bit(sim::CpuId cpu) {
    return std::uint64_t{1} << (cpu % 64);
  }

  std::array<std::uint64_t, kWords> words_{};
  std::uint32_t used_ = 0;  // words [0, used_) may be non-zero
};

/// An owned, immutable copy of a sharer set's words in use, held in a
/// FramePool block. A put wave's delivery closure carries one by value,
/// so the wave reaches the sharers named at the directory pipeline slot,
/// not the live sharer set at arrival. Move-only.
class SharerSnapshot {
 public:
  explicit SharerSnapshot(std::span<const std::uint64_t> words)
      : SharerSnapshot(static_cast<std::uint32_t>(words.size())) {
    std::copy(words.begin(), words.end(), words_);
  }

  /// The one-member set {cpu}: an exclusive owner's in-place patch.
  static SharerSnapshot single(sim::CpuId cpu) {
    SharerSnapshot s(cpu / 64 + 1);
    std::fill_n(s.words_, s.n_, 0);
    s.words_[cpu / 64] = std::uint64_t{1} << (cpu % 64);
    return s;
  }

  /// Every CPU in [0, total): a coarse entry's broadcast.
  static SharerSnapshot all(std::uint32_t total) {
    SharerSnapshot s((total + 63) / 64);
    std::fill_n(s.words_, s.n_, ~std::uint64_t{0});
    if (total % 64 != 0) {
      s.words_[s.n_ - 1] = (std::uint64_t{1} << (total % 64)) - 1;
    }
    return s;
  }

  SharerSnapshot(SharerSnapshot&& o) noexcept
      : words_(std::exchange(o.words_, nullptr)), n_(std::exchange(o.n_, 0)) {}
  SharerSnapshot& operator=(SharerSnapshot&&) = delete;
  SharerSnapshot(const SharerSnapshot&) = delete;
  SharerSnapshot& operator=(const SharerSnapshot&) = delete;

  ~SharerSnapshot() {
    if (words_ != nullptr) sim::FramePool::deallocate(words_, bytes());
  }

  [[nodiscard]] bool test(sim::CpuId cpu) const {
    return cpu / 64 < n_ && ((words_[cpu / 64] >> (cpu % 64)) & 1) != 0;
  }

  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {words_, n_};
  }

 private:
  /// `n` uninitialized words.
  explicit SharerSnapshot(std::uint32_t n) : n_(n) {
    if (n_ != 0) {
      words_ = static_cast<std::uint64_t*>(sim::FramePool::allocate(bytes()));
    }
  }

  [[nodiscard]] std::size_t bytes() const {
    return n_ * sizeof(std::uint64_t);
  }

  std::uint64_t* words_ = nullptr;
  std::uint32_t n_ = 0;
};

}  // namespace amo::coh
