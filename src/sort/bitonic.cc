#include "sort/bitonic.h"

#include <algorithm>
#include <utility>

#include "sort/kernels.h"

namespace mmjoin::sort {
namespace internal {
namespace {

void SortBlockScalar(const uint64_t* in, std::size_t n, uint64_t* out) {
  if (in != out) std::copy_n(in, n, out);
  for (std::size_t i = 1; i < n; ++i) {
    const uint64_t v = out[i];
    std::size_t j = i;
    while (j > 0 && out[j - 1] > v) {
      out[j] = out[j - 1];
      --j;
    }
    out[j] = v;
  }
}

// Branch-free: the compare selects the output word and both cursor steps.
void MergeScalar(const uint64_t* a, std::size_t na, const uint64_t* b,
                 std::size_t nb, uint64_t* out) {
  while (na != 0 && nb != 0) {
    const uint64_t x = *a;
    const uint64_t y = *b;
    const std::size_t take_a = x <= y;
    *out++ = take_a != 0 ? x : y;
    a += take_a;
    na -= take_a;
    b += 1 - take_a;
    nb -= 1 - take_a;
  }
  std::copy_n(b, nb, std::copy_n(a, na, out));
}

}  // namespace

const Kernels& ScalarKernels() {
  static constexpr Kernels kScalar{SortBlockScalar, MergeScalar};
  return kScalar;
}

const Kernels& ActiveKernels() {
  static const Kernels& active =
      Avx512Kernels() != nullptr ? *Avx512Kernels() : ScalarKernels();
  return active;
}

void SortPacked(const Kernels& kernels, const uint64_t* in, std::size_t n,
                uint64_t* out, uint64_t* tmp) {
  // Place the sorted blocks so that the last merge pass writes `out`.
  std::size_t passes = 0;
  for (std::size_t width = kBlockSize; width < n; width *= 2) ++passes;
  uint64_t* src = passes % 2 == 0 ? out : tmp;
  uint64_t* dst = passes % 2 == 0 ? tmp : out;
  for (std::size_t begin = 0; begin < n; begin += kBlockSize) {
    kernels.sort_block(in + begin, std::min(kBlockSize, n - begin),
                       src + begin);
  }
  for (std::size_t width = kBlockSize; width < n; width *= 2) {
    for (std::size_t begin = 0; begin < n; begin += 2 * width) {
      const std::size_t mid = std::min(begin + width, n);
      const std::size_t end = std::min(begin + 2 * width, n);
      kernels.merge(src + begin, mid - begin, src + mid, end - mid,
                    dst + begin);
    }
    std::swap(src, dst);
  }
}

}  // namespace internal

bool HasSimdMerge() { return internal::Avx512Kernels() != nullptr; }

void MergeSortPacked(uint64_t* data, std::size_t n, uint64_t* scratch) {
  internal::SortPacked(internal::ActiveKernels(), data, n, data, scratch);
}

void SortPackedInto(const uint64_t* in, std::size_t n, uint64_t* out,
                    uint64_t* tmp) {
  internal::SortPacked(internal::ActiveKernels(), in, n, out, tmp);
}

bool IsSortedPacked(const uint64_t* data, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    if (data[i - 1] > data[i]) return false;
  }
  return true;
}

}  // namespace mmjoin::sort
