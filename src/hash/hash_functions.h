// Hash functions for the join hash tables.
//
// Following the paper (Section 7.1), the joins hash by identity on the
// *stripped key*: before every join one scan finds the low bits all build
// keys share (join::KeyShape::shift), and the tables take their bucket bits
// from key >> shift. Dense keys have shift 0, so this is the paper's
// identity hash modulo table size -- collision-free and free to compute.
// Strided keys (i << 12) would put every key into one bucket under the
// plain identity; shifted, they are dense again. The partition-based joins
// hash *within* a radix partition, where all keys also share the radix
// bits above `shift`, so their bucket index drops shift + radix bits
// (RadixShiftHash), as in Balkesen et al.'s radix join code. Buckets only
// narrow the search: every table compares full keys. Murmur/CRC/Fibonacci
// variants are provided for the micro-benchmarks.

#ifndef MMJOIN_HASH_HASH_FUNCTIONS_H_
#define MMJOIN_HASH_HASH_FUNCTIONS_H_

#include <cstdint>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

#include "util/macros.h"

namespace mmjoin::hash {

// key -> bucket source bits; the table masks the result by its (power of
// two) size.
struct IdentityHash {
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const { return key; }
};

// Drops the low `shift` bits -- the bits every build key shares plus, in a
// radix partition, the partition number -- before hashing by identity.
// With dense stripped keys, keys inside partition p are {k : k mod P == p},
// so k >> log2(P) is again dense. `shift` may reach 32 and beyond (a
// partition holding one key), which maps everything to bucket 0.
struct RadixShiftHash {
  uint32_t shift = 0;
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const {
    return static_cast<uint32_t>(uint64_t{key} >> shift);
  }
};

// Probe view for keys the table's key function maps to themselves (join
// KeyShape base 0 and shift 0: the paper's dense keys from 0). It hands
// each key to the table as its own hash, skipping a shift-by-zero that
// would only add instructions to a probe loop. The table provides
// ProbeAt/ProbeUniqueAt(hash, key, emit).
template <typename Table>
class IdentityProbeView {
 public:
  explicit IdentityProbeView(const Table& table) : table_(table) {}
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    return table_.ProbeAt(key, key, emit);
  }
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    return table_.ProbeUniqueAt(key, key, emit);
  }

 private:
  const Table& table_;
};

// Murmur3 32-bit finalizer: full avalanche, used for skewed/sparse domains.
struct MurmurHash {
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const {
    uint32_t h = key;
    h ^= h >> 16;
    h *= 0x85EBCA6Bu;
    h ^= h >> 13;
    h *= 0xC2B2AE35u;
    h ^= h >> 16;
    return h;
  }
};

// Fibonacci (multiplicative) hashing.
struct FibonacciHash {
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const {
    return static_cast<uint32_t>((key * 11400714819323198485ull) >> 32);
  }
};

// Hardware CRC32C when available, Murmur fallback otherwise.
struct Crc32Hash {
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const {
#if defined(__SSE4_2__)
    return _mm_crc32_u32(0xDEADBEEFu, key);
#else
    return MurmurHash{}(key);
#endif
  }
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_HASH_FUNCTIONS_H_
