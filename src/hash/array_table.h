// Array join table (paper Section 5.2).
//
// For unique keys from a small range the hash table degenerates to a plain
// array indexed by the key; the cell stores the payload. A validity bitmap
// distinguishes empty cells (payloads may take any value, and the range may
// contain holes -- Appendix C). The index is the *stripped key*
// (key - base) >> shift of join::KeyShape, so strided and offset keys are
// as dense as auto-increment ones, and the array is sized from the observed
// key range, never from a declared domain. Used by NOPA (global array,
// concurrent build) and PRA/CPRA (per-partition arrays, serial build, the
// stripped key further shifted right by the radix bits).

#ifndef MMJOIN_HASH_ARRAY_TABLE_H_
#define MMJOIN_HASH_ARRAY_TABLE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "hash/hash_functions.h"
#include "numa/system.h"
#include "util/bits.h"
#include "util/macros.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::hash {

class ArrayTable {
 public:
  // Key -> cell mapping. Stored keys share their low `stride_bits` with
  // `base`; the cell of key k is the stripped key (k - base) >> stride_bits,
  // shifted right by `radix_bits` more inside a radix partition. Probe keys
  // off the stride, below base or past the last cell miss.
  struct KeyMap {
    uint32_t base = 0;
    uint32_t stride_bits = 0;
    uint32_t radix_bits = 0;
  };

  // Holds keys whose value right-shifted by `key_shift` falls in
  // [0, domain_size) (KeyMap{0, 0, key_shift}); aborts when the memory
  // cannot be allocated.
  ArrayTable(numa::NumaSystem* system, uint64_t domain_size,
             uint32_t key_shift, numa::Placement placement, int home_node = 0)
      : ArrayTable(numa::NumaBuffer<uint32_t>(system, CellCount(domain_size),
                                              placement, home_node),
                   numa::NumaBuffer<std::atomic<uint64_t>>(
                       system, CeilDiv(CellCount(domain_size), 64), placement,
                       home_node)) {
    Reset(domain_size, KeyMap{0, 0, key_shift});
  }

  // A table of `domain_size` cells mapped by `map`, or ResourceExhausted
  // when the memory cannot be allocated.
  static StatusOr<std::unique_ptr<ArrayTable>> TryCreate(
      numa::NumaSystem* system, uint64_t domain_size, KeyMap map,
      numa::Placement placement, int home_node = 0) {
    const uint64_t cells = CellCount(domain_size);
    auto payloads = numa::NumaBuffer<uint32_t>::TryCreate(system, cells,
                                                          placement, home_node);
    if (!payloads.ok()) return payloads.status();
    auto valid = numa::NumaBuffer<std::atomic<uint64_t>>::TryCreate(
        system, CeilDiv(cells, 64), placement, home_node);
    if (!valid.ok()) return valid.status();
    std::unique_ptr<ArrayTable> table(
        new ArrayTable(*std::move(payloads), *std::move(valid)));
    table->Reset(domain_size, map);
    return table;
  }

  ArrayTable(const ArrayTable&) = delete;
  ArrayTable& operator=(const ArrayTable&) = delete;

  void Clear() {
    for (uint64_t i = 0; i < valid_.size(); ++i) {
      valid_[i].store(0, std::memory_order_relaxed);
    }
  }

  // Re-targets the table for scratch reuse across join tasks: clears the
  // first `domain_size` cells (at most the allocated size) and maps keys by
  // `map`.
  void Reset(uint64_t domain_size, KeyMap map) {
    MMJOIN_CHECK(domain_size <= payloads_.size());
    domain_size_ = CellCount(domain_size);
    base_ = map.base;
    stride_bits_ = map.stride_bits;
    radix_bits_ = map.radix_bits;
    const uint64_t words = CeilDiv(domain_size_, 64);
    for (uint64_t i = 0; i < words; ++i) {
      valid_[i].store(0, std::memory_order_relaxed);
    }
  }

  // The stripped key of `key`; its cell is stripped >> radix_bits. Rotating
  // the offset right by the stride moves the low bits every stored key has
  // zero to the top: on the stride this is (key - base) >> stride_bits, off
  // it the value exceeds every stripped key (at most
  // 2^(32 - stride_bits) - 1), so the cell is past the last one. Below base
  // the offset wraps past the range.
  MMJOIN_ALWAYS_INLINE uint32_t Stripped(uint32_t key) const {
    return std::rotr(key - base_, static_cast<int>(stride_bits_));
  }

  // Build keys come from the range the table was sized for.
  MMJOIN_ALWAYS_INLINE uint64_t IndexOf(uint32_t key) const {
    const uint64_t index = uint64_t{Stripped(key)} >> radix_bits_;
    MMJOIN_DCHECK(index < domain_size_);
    return index;
  }

  // Serial insert (per-partition arrays).
  MMJOIN_ALWAYS_INLINE void InsertSerial(Tuple t) {
    const uint64_t index = IndexOf(t.key);
    payloads_[index] = t.payload;
    valid_[index >> 6].store(
        valid_[index >> 6].load(std::memory_order_relaxed) |
            (uint64_t{1} << (index & 63)),
        std::memory_order_relaxed);
  }

  // Concurrent insert: distinct keys write distinct cells; only the bitmap
  // words are shared and use an atomic OR.
  MMJOIN_ALWAYS_INLINE void InsertConcurrent(Tuple t) {
    const uint64_t index = IndexOf(t.key);
    payloads_[index] = t.payload;
    valid_[index >> 6].fetch_or(uint64_t{1} << (index & 63),
                                std::memory_order_release);
  }

  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    return ProbeAt(Stripped(key), key, emit);
  }

  // Array cells hold at most one entry, so the unique probe is identical.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    return Probe(key, emit);
  }

  // Probe given the key's stripped value (see Stripped).
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeAt(uint32_t stripped, uint32_t key,
                                        Emit&& emit) const {
    const uint64_t index = uint64_t{stripped} >> radix_bits_;
    // Probe keys outside the stored keys' range or stride are legitimate
    // (general foreign inputs) and simply miss. In range, a cell holds
    // exactly one possible key, so a valid cell is a full-key match.
    if (MMJOIN_UNLIKELY(index >= domain_size_)) return 0;
    if ((valid_[index >> 6].load(std::memory_order_acquire) &
         (uint64_t{1} << (index & 63))) == 0) {
      return 0;
    }
    emit(Tuple{key, payloads_[index]});
    return 1;
  }
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUniqueAt(uint32_t stripped, uint32_t key,
                                              Emit&& emit) const {
    return ProbeAt(stripped, key, emit);
  }

  // For a key map with base 0 and stride 0, where every key is its own
  // stripped value.
  IdentityProbeView<ArrayTable> IdentityView() const {
    MMJOIN_DCHECK(base_ == 0 && stride_bits_ == 0);
    return IdentityProbeView<ArrayTable>(*this);
  }

  uint64_t domain_size() const { return domain_size_; }
  // Base address of the payload array (for NUMA traffic attribution).
  const void* raw_data() const { return payloads_.data(); }
  uint64_t memory_bytes() const {
    return payloads_.size() * sizeof(uint32_t) +
           valid_.size() * sizeof(uint64_t);
  }

 private:
  ArrayTable(numa::NumaBuffer<uint32_t> payloads,
             numa::NumaBuffer<std::atomic<uint64_t>> valid)
      : payloads_(std::move(payloads)), valid_(std::move(valid)) {}

  static uint64_t CellCount(uint64_t domain_size) {
    return std::max<uint64_t>(domain_size, 1);
  }

  uint32_t base_ = 0;
  uint32_t stride_bits_ = 0;
  uint32_t radix_bits_ = 0;
  uint64_t domain_size_ = 1;
  numa::NumaBuffer<uint32_t> payloads_;
  numa::NumaBuffer<std::atomic<uint64_t>> valid_;
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_ARRAY_TABLE_H_
