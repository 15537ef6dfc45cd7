// Per-partition tables of the radix joins (PR* and CPR*), shared by both
// families. Not part of the public API.
//
// Partitions split on the radix bits just above the low bits every build
// key shares (KeyShape::shift); each partition's table takes its bucket or
// cell from the bits above those. Each worker keeps one scratch table sized
// for the largest partition and re-targets it per co-partition (Prepare);
// skewed partitions build a private one through SkewBuildSlots.

#ifndef MMJOIN_JOIN_PARTITION_TABLES_H_
#define MMJOIN_JOIN_PARTITION_TABLES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/hash_functions.h"
#include "hash/linear_probing_table.h"
#include "join/join_defs.h"
#include "numa/system.h"
#include "partition/radix.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::join::internal {

// How a radix join with `radix_bits` partition bits sees the build keys.
struct PartitionKeys {
  KeyShape shape;
  uint32_t radix_bits = 0;

  partition::RadixFn Fn() const { return {shape.shift, radix_bits}; }
  // Key bits below the table index: shared bits plus the partition number.
  uint32_t TableShift() const { return shape.shift + radix_bits; }
  // Cells a partition's array needs: the stripped range split 2^bits ways.
  uint64_t PartitionDomain() const {
    return ((shape.stripped_domain() - 1) >> radix_bits) + 1;
  }
};

// Scratch adapter over a chained or linear probing table.
template <typename TableT>
class HashScratch {
 public:
  static StatusOr<std::unique_ptr<HashScratch>> Create(
      numa::NumaSystem* system, uint64_t max_tuples,
      const PartitionKeys& keys, int node) {
    return std::unique_ptr<HashScratch>(
        new HashScratch(std::make_unique<TableT>(
            system, std::max<uint64_t>(max_tuples, 1),
            numa::Placement::kLocal, node,
            hash::RadixShiftHash{keys.TableShift()})));
  }
  void Prepare(uint64_t build_size) { table_->Reset(build_size); }
  void Insert(Tuple t) { table_->InsertSerial(t); }
  template <typename Emit>
  void Probe(uint32_t key, Emit&& emit) const {
    table_->Probe(key, emit);
  }
  template <typename Emit>
  void ProbeUnique(uint32_t key, Emit&& emit) const {
    table_->ProbeUnique(key, emit);
  }

 private:
  explicit HashScratch(std::unique_ptr<TableT> table)
      : table_(std::move(table)) {}

  std::unique_ptr<TableT> table_;
};

using ChainedScratch =
    HashScratch<hash::ChainedHashTable<hash::RadixShiftHash>>;
using LinearScratch =
    HashScratch<hash::LinearProbingTable<hash::RadixShiftHash>>;

// Scratch adapter over an array table of PartitionDomain() cells. Its size
// follows the observed key range, which may be too large to allocate: that
// surfaces as ResourceExhausted.
class ArrayScratch {
 public:
  static StatusOr<std::unique_ptr<ArrayScratch>> Create(
      numa::NumaSystem* system, uint64_t max_tuples,
      const PartitionKeys& keys, int node) {
    const hash::ArrayTable::KeyMap map{keys.shape.base, keys.shape.shift,
                                       keys.radix_bits};
    auto table = hash::ArrayTable::TryCreate(
        system, keys.PartitionDomain(), map, numa::Placement::kLocal, node);
    if (!table.ok()) {
      return ResourceExhaustedError("partition array table: " +
                                    table.status().message());
    }
    return std::unique_ptr<ArrayScratch>(
        new ArrayScratch(*std::move(table), keys.PartitionDomain(), map));
  }
  void Prepare(uint64_t build_size) { table_->Reset(domain_, map_); }
  void Insert(Tuple t) { table_->InsertSerial(t); }
  template <typename Emit>
  void Probe(uint32_t key, Emit&& emit) const {
    table_->Probe(key, emit);
  }
  template <typename Emit>
  void ProbeUnique(uint32_t key, Emit&& emit) const {
    table_->ProbeUnique(key, emit);
  }
  hash::IdentityProbeView<hash::ArrayTable> IdentityView() const {
    return table_->IdentityView();
  }

 private:
  ArrayScratch(std::unique_ptr<hash::ArrayTable> table, uint64_t domain,
               hash::ArrayTable::KeyMap map)
      : table_(std::move(table)), domain_(domain), map_(map) {}

  std::unique_ptr<hash::ArrayTable> table_;
  uint64_t domain_;
  hash::ArrayTable::KeyMap map_;
};

}  // namespace mmjoin::join::internal

#endif  // MMJOIN_JOIN_PARTITION_TABLES_H_
