#include "sort/multiway_merge.h"

#include <cstring>

#include "sort/bitonic.h"
#include "util/bits.h"
#include "util/macros.h"

namespace mmjoin::sort {
namespace {

// Head of an exhausted run: sorts after (or ties with) every value.
constexpr uint64_t kSentinel = ~uint64_t{0};
constexpr uint64_t kSignBias = uint64_t{1} << 63;

// Classic loser tree over K inputs. Heads are cached in the tree so each
// Pop touches O(log K) nodes.
class LoserTree {
 public:
  explicit LoserTree(std::span<const SortedRun> runs) : runs_(runs) {
    k_ = static_cast<std::size_t>(NextPowerOfTwo(std::max<uint64_t>(
        runs.size(), 2)));
    cursor_.assign(runs.size(), 0);
    tree_.assign(k_, 0);  // loser indices
    heads_.assign(k_, kSentinel);
    for (std::size_t r = 0; r < runs.size(); ++r) {
      heads_[r] = runs[r].size > 0 ? runs[r].data[0] : kSentinel;
    }
    // Initialize by playing all leaves upward.
    std::vector<std::size_t> winners(2 * k_);
    for (std::size_t i = 0; i < k_; ++i) winners[k_ + i] = i;
    for (std::size_t node = k_ - 1; node >= 1; --node) {
      const std::size_t left = winners[2 * node];
      const std::size_t right = winners[2 * node + 1];
      if (Key(left) <= Key(right)) {
        winners[node] = left;
        tree_[node] = right;
      } else {
        winners[node] = right;
        tree_[node] = left;
      }
    }
    winner_ = winners[1];
  }

  uint64_t Pop() {
    const uint64_t value = Key(winner_);
    Advance(winner_);
    // Replay from the winner's leaf to the root.
    std::size_t node = (k_ + winner_) / 2;
    std::size_t current = winner_;
    while (node >= 1) {
      const std::size_t opponent = tree_[node];
      if (Key(opponent) < Key(current)) {
        tree_[node] = current;
        current = opponent;
      }
      node /= 2;
    }
    winner_ = current;
    return value;
  }

 private:
  uint64_t Key(std::size_t r) const { return heads_[r]; }

  void Advance(std::size_t r) {
    if (r >= runs_.size()) return;
    ++cursor_[r];
    heads_[r] =
        cursor_[r] < runs_[r].size ? runs_[r].data[cursor_[r]] : kSentinel;
  }

  std::span<const SortedRun> runs_;
  std::size_t k_ = 0;
  std::size_t winner_ = 0;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> tree_;
  std::vector<uint64_t> heads_;
};

}  // namespace

void MultiwayMerge(std::span<const SortedRun> runs, uint64_t* out) {
  if (runs.empty()) return;
  if (runs.size() == 1) {
    std::memcpy(out, runs[0].data, runs[0].size * sizeof(uint64_t));
    return;
  }
  if (runs.size() == 2) {
    // Use the SIMD binary kernel: bias to signed order on the fly.
    std::vector<int64_t> a(runs[0].size), b(runs[1].size);
    for (std::size_t i = 0; i < runs[0].size; ++i) {
      a[i] = static_cast<int64_t>(runs[0].data[i] ^ kSignBias);
    }
    for (std::size_t i = 0; i < runs[1].size; ++i) {
      b[i] = static_cast<int64_t>(runs[1].data[i] ^ kSignBias);
    }
    MergeSignedRuns(a.data(), a.size(), b.data(), b.size(),
                    reinterpret_cast<int64_t*>(out));
    const std::size_t total = runs[0].size + runs[1].size;
    for (std::size_t i = 0; i < total; ++i) out[i] ^= kSignBias;
    return;
  }

  // Pop exactly as many values as the runs hold: ~0 is a legal value too,
  // so the exhausted-run marker cannot end the merge. Once only ~0 values
  // remain, a marker may win a pop instead of a real ~0 -- same value.
  std::size_t total = 0;
  for (const SortedRun& run : runs) total += run.size;
  LoserTree tree(runs);
  for (std::size_t io = 0; io < total; ++io) out[io] = tree.Pop();
}

}  // namespace mmjoin::sort
