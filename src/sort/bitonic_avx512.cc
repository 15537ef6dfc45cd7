// AVX-512 sort kernels: bitonic networks on 8x64-bit lanes with unsigned
// compares. Each function carries its own target attribute, so the rest of
// the library keeps the baseline ISA and these run only where
// Avx512Kernels() found AVX-512F in cpuid.

#include <algorithm>

#include "sort/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MMJOIN_SORT_AVX512 1
// GCC 12's AVX-512 intrinsics start from a self-initialised "undefined"
// vector, which -W(maybe-)uninitialized flags once they are inlined (GCC PR
// 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace mmjoin::sort::internal {

#if defined(MMJOIN_SORT_AVX512)
namespace {

#define MMJOIN_AVX512 __attribute__((target("avx512f")))
#define MMJOIN_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

// Lanes [0, count) of a vector, count clamped to 8.
MMJOIN_AVX512_INLINE __mmask8 FirstLanes(std::size_t count) {
  return static_cast<__mmask8>((1u << (count < 8 ? count : 8)) - 1);
}

MMJOIN_AVX512_INLINE __m512i Reverse(__m512i v) {
  return _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                                  v);
}

MMJOIN_AVX512_INLINE void MinMax(__m512i& a, __m512i& b) {
  const __m512i lo = _mm512_min_epu64(a, b);
  b = _mm512_max_epu64(a, b);
  a = lo;
}

// Compare-exchange of lane pairs (i, i + d) given v and v with those pairs
// swapped; `upper` marks the i + d lanes, which take the maximum (a masked
// max over the minimum, so no separate blend).
MMJOIN_AVX512_INLINE __m512i Exchange(__m512i v, __m512i swapped,
                                      __mmask8 upper) {
  return _mm512_mask_max_epu64(_mm512_min_epu64(v, swapped), upper, v,
                               swapped);
}

// Sorts a bitonic vector ascending: lane distances 4, 2, 1.
MMJOIN_AVX512_INLINE __m512i Clean(__m512i v) {
  v = Exchange(v, _mm512_shuffle_i64x2(v, v, _MM_SHUFFLE(1, 0, 3, 2)), 0xF0);
  v = Exchange(v, _mm512_permutex_epi64(v, _MM_SHUFFLE(1, 0, 3, 2)), 0xCC);
  return Exchange(
      v,
      _mm512_shuffle_epi32(v, static_cast<_MM_PERM_ENUM>(
                                  _MM_SHUFFLE(1, 0, 3, 2))),
      0xAA);
}

// Merges ascending sequences a[0, N) and b[0, N) of N vectors each: a gets
// the lower half, b the upper, both ascending.
template <int N>
MMJOIN_AVX512_INLINE void MergeVectors(__m512i* a, __m512i* b) {
  // Reversing b makes a||b bitonic; one exchange level splits it into two
  // bitonic halves, which are then cleaned at vector distances N/2 .. 1.
  __m512i rb[N];
  for (int i = 0; i < N; ++i) rb[i] = Reverse(b[N - 1 - i]);
  for (int i = 0; i < N; ++i) MinMax(a[i], rb[i]);
  for (int d = N / 2; d >= 1; d /= 2) {
    for (int i = 0; i < N; ++i) {
      if ((i & d) == 0) {
        MinMax(a[i], a[i + d]);
        MinMax(rb[i], rb[i + d]);
      }
    }
  }
  for (int i = 0; i < N; ++i) {
    a[i] = Clean(a[i]);
    b[i] = Clean(rb[i]);
  }
}

// Transposes the 8x8 matrix of lanes held in r[0..7].
MMJOIN_AVX512_INLINE void Transpose(__m512i* r) {
  __m512i a[8];
  for (int i = 0; i < 8; i += 2) {
    a[i] = _mm512_unpacklo_epi64(r[i], r[i + 1]);
    a[i + 1] = _mm512_unpackhi_epi64(r[i], r[i + 1]);
  }
  // a[2q + c] holds rows 2q, 2q+1 of columns c, c+2, c+4, c+6.
  const __m512i even = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
  const __m512i odd = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
  __m512i b[8];
  for (int h = 0; h < 8; h += 4) {
    for (int c = 0; c < 2; ++c) {
      b[h + c] = _mm512_permutex2var_epi64(a[h + c], even, a[h + 2 + c]);
      b[h + 2 + c] = _mm512_permutex2var_epi64(a[h + c], odd, a[h + 2 + c]);
    }
  }
  // b[h + c] holds rows h..h+3 of columns c and c + 4.
  for (int c = 0; c < 4; ++c) {
    r[c] = _mm512_shuffle_i64x2(b[c], b[4 + c], _MM_SHUFFLE(1, 0, 1, 0));
    r[c + 4] = _mm512_shuffle_i64x2(b[c], b[4 + c], _MM_SHUFFLE(3, 2, 3, 2));
  }
}

MMJOIN_AVX512 void SortBlockAvx512(const uint64_t* in, std::size_t n,
                                   uint64_t* out) {
  const __m512i pad = _mm512_set1_epi64(-1);
  __m512i r[8];
  for (int i = 0; i < 8; ++i) {
    const std::size_t begin = 8 * static_cast<std::size_t>(i);
    r[i] = _mm512_mask_loadu_epi64(pad, FirstLanes(n > begin ? n - begin : 0),
                                   in + begin);
  }
  // Sort each lane column with the optimal 19-exchange 8-input network.
  constexpr int kNetwork[19][2] = {
      {0, 2}, {1, 3}, {4, 6}, {5, 7}, {0, 4}, {1, 5}, {2, 6},
      {3, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}, {2, 4}, {3, 5},
      {1, 4}, {3, 6}, {1, 2}, {3, 4}, {5, 6}};
  for (const auto& pair : kNetwork) MinMax(r[pair[0]], r[pair[1]]);
  Transpose(r);
  for (int i = 0; i < 8; i += 2) MergeVectors<1>(&r[i], &r[i + 1]);
  MergeVectors<2>(&r[0], &r[2]);
  MergeVectors<2>(&r[4], &r[6]);
  MergeVectors<4>(&r[0], &r[4]);
  for (int i = 0; i < 8; ++i) {
    const std::size_t begin = 8 * static_cast<std::size_t>(i);
    _mm512_mask_storeu_epi64(out + begin,
                             FirstLanes(n > begin ? n - begin : 0), r[i]);
  }
}

// a if take_a, else b, by masking, not a branch: which input supplies the
// next block is data dependent and unpredictable, and compilers turn a
// plain ?: over two loads into a branch.
MMJOIN_AVX512_INLINE const uint64_t* Select(uintptr_t take_a_mask,
                                            const uint64_t* a,
                                            const uint64_t* b) {
  const uintptr_t ia = reinterpret_cast<uintptr_t>(a);
  const uintptr_t ib = reinterpret_cast<uintptr_t>(b);
  return reinterpret_cast<const uint64_t*>(ib ^ ((ia ^ ib) & take_a_mask));
}

// Takes the next block of up to 8 words from the input whose head is
// smaller (a drained input never wins); lanes past its end read as ~0.
MMJOIN_AVX512_INLINE __m512i NextBlock(const uint64_t*& a, std::size_t& na,
                                       const uint64_t*& b, std::size_t& nb) {
  static constexpr uint64_t kNone = ~uint64_t{0};
  const uint64_t head_a = *(na != 0 ? a : &kNone);
  const uint64_t head_b = *(nb != 0 ? b : &kNone);
  const bool a_first = (nb == 0) | ((na != 0) & (head_a <= head_b));
  const uintptr_t take_a = uintptr_t{0} - uintptr_t{a_first};
  const std::size_t count = std::min<std::size_t>(8, (na & take_a) |
                                                         (nb & ~take_a));
  const __m512i block = _mm512_mask_loadu_epi64(
      _mm512_set1_epi64(-1), FirstLanes(count), Select(take_a, a, b));
  const std::size_t from_a = count & take_a;
  a += from_a;
  na -= from_a;
  b += count - from_a;
  nb -= count - from_a;
  return block;
}

// Merges a reversed block into `high` (the 8 largest words so far) and
// returns the 8 smallest. Reversing the block, not `high`, keeps the
// permute off the loop-carried path.
MMJOIN_AVX512_INLINE __m512i MergeStep(__m512i& high, __m512i reversed) {
  const __m512i low = Clean(_mm512_min_epu64(high, reversed));
  high = Clean(_mm512_max_epu64(high, reversed));
  return low;
}

MMJOIN_AVX512 void MergeAvx512(const uint64_t* a, std::size_t na,
                               const uint64_t* b, std::size_t nb,
                               uint64_t* out) {
  if (na == 0 || nb == 0) {
    std::copy_n(b, nb, std::copy_n(a, na, out));
    return;
  }
  std::size_t left = na + nb;  // words still to write
  __m512i high = NextBlock(a, na, b, nb);
  // While both inputs hold full blocks, no lane is padding and at least 16
  // words are still to be written.
  while (na >= 8 && nb >= 8) {
    const uintptr_t take_a = uintptr_t{0} - uintptr_t{*a <= *b};
    const __m512i block = _mm512_loadu_si512(Select(take_a, a, b));
    const std::size_t from_a = take_a & 8;
    a += from_a;
    na -= from_a;
    b += 8 - from_a;
    nb -= 8 - from_a;
    _mm512_storeu_si512(out, MergeStep(high, Reverse(block)));
    out += 8;
    left -= 8;
  }
  // Ragged tails: padding lanes are ~0 and sort last, so stopping after
  // exactly `left` words drops only padding.
  while (na + nb != 0) {
    const __m512i low = MergeStep(high, Reverse(NextBlock(a, na, b, nb)));
    _mm512_mask_storeu_epi64(out, FirstLanes(left), low);
    out += 8;
    left -= std::min<std::size_t>(left, 8);
  }
  _mm512_mask_storeu_epi64(out, FirstLanes(left), high);
}

}  // namespace
#endif  // MMJOIN_SORT_AVX512

const Kernels* Avx512Kernels() {
#if defined(MMJOIN_SORT_AVX512)
  static constexpr Kernels kAvx512{SortBlockAvx512, MergeAvx512};
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported ? &kAvx512 : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace mmjoin::sort::internal
