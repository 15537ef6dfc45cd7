#include "sort/multiway_merge.h"

#include <algorithm>
#include <vector>

#include "sort/kernels.h"

namespace mmjoin::sort {
namespace {

// FIFO capacity of an inner node, in tuples. A node's bookkeeping (two
// binary searches and a kernel call per step) is paid per FIFO refill, so
// larger FIFOs win until the tree leaves the cache: merging 640 runs of
// 2^15 tuples ran at 41, 50, 52, 58 and 61 M tuples/s with 128, 256, 512,
// 1024 and 2048 (AVX-512 host, 2 MB L2, 105 MB L3). At 1024 the 640-run
// tree holds 5 MB of FIFOs, cache-resident though larger than L2.
constexpr std::size_t kFifoTuples = 1024;

// Chooses i + j = count with a[0, i) and b[0, j) the `count` smallest words
// of a[0, na) and b[0, nb) (the merge path split); count <= na + nb.
void SplitAt(const uint64_t* a, std::size_t na, const uint64_t* b,
             std::size_t nb, std::size_t count, std::size_t* i,
             std::size_t* j) {
  std::size_t lo = count > nb ? count - nb : 0;
  std::size_t hi = std::min(count, na);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (a[mid] <= b[count - mid - 1]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *i = lo;
  *j = count - lo;
}

class MergeTree {
 public:
  MergeTree(const internal::Kernels& kernels,
            std::span<const SortedRun> runs)
      : kernels_(kernels) {
    nodes_.reserve(2 * runs.size());
    std::vector<std::size_t> level;
    for (const SortedRun& run : runs) {
      level.push_back(nodes_.size());
      nodes_.push_back(Node{run.data, run.size, 0, run.size, nullptr, 0, 0});
    }
    // Pair neighbours level by level; an odd node out moves up unpaired.
    std::size_t fifo_words = 0;
    while (level.size() > 1) {
      std::vector<std::size_t> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        const std::size_t total =
            nodes_[level[i]].total + nodes_[level[i + 1]].total;
        next.push_back(nodes_.size());
        nodes_.push_back(
            Node{nullptr, 0, total, total, nullptr, level[i], level[i + 1]});
        fifo_words += std::min(total, kFifoTuples);
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level.swap(next);
    }
    root_ = level.front();
    // The root writes the output directly and needs no FIFO.
    if (IsInner(nodes_[root_])) {
      fifo_words -= std::min(nodes_[root_].total, kFifoTuples);
    }
    fifo_.resize(fifo_words);
    uint64_t* fifo = fifo_.data();
    for (std::size_t n = runs.size(); n < nodes_.size(); ++n) {
      if (n == root_) continue;
      nodes_[n].fifo = fifo;
      fifo += std::min(nodes_[n].total, kFifoTuples);
    }
  }

  void Run(uint64_t* out) {
    Node& root = nodes_[root_];
    if (IsInner(root)) {
      Produce(root, out, root.total);
    } else {
      std::copy_n(root.data, root.avail, out);
    }
  }

 private:
  // A leaf is a run: all of it is available at once. An inner node's
  // available tuples sit in its FIFO; `pending` more are still to come.
  struct Node {
    const uint64_t* data;  // available tuples: data[0, avail)
    std::size_t avail;
    std::size_t pending;
    std::size_t total;  // tuples in the subtree
    uint64_t* fifo;
    std::size_t left;
    std::size_t right;
  };

  static bool IsInner(const Node& node) { return node.left != node.right; }

  // Fills an inner node's drained FIFO.
  void Refill(Node& node) {
    const std::size_t count = std::min(node.pending, kFifoTuples);
    Produce(node, node.fifo, count);
    node.data = node.fifo;
    node.avail = count;
    node.pending -= count;
  }

  // Writes the next `count` tuples of an inner node's merged output.
  void Produce(const Node& node, uint64_t* out, std::size_t count) {
    Node& l = nodes_[node.left];
    Node& r = nodes_[node.right];
    while (count != 0) {
      if (l.avail == 0 && l.pending != 0) Refill(l);
      if (r.avail == 0 && r.pending != 0) Refill(r);
      std::size_t take_l = l.avail;
      std::size_t take_r = r.avail;
      if (take_l != 0 && take_r != 0) {
        // A child that will be refilled bounds this step: its later tuples
        // are >= its last available one, so only tuples up to that may go.
        const uint64_t last_l = l.data[l.avail - 1];
        const uint64_t last_r = r.data[r.avail - 1];
        if (l.pending != 0 && (r.pending == 0 || last_l <= last_r)) {
          take_r = std::upper_bound(r.data, r.data + r.avail, last_l) - r.data;
        } else if (r.pending != 0) {
          take_l = std::upper_bound(l.data, l.data + l.avail, last_r) - l.data;
        }
      }
      if (take_l + take_r > count) {
        SplitAt(l.data, take_l, r.data, take_r, count, &take_l, &take_r);
      }
      kernels_.merge(l.data, take_l, r.data, take_r, out);
      l.data += take_l;
      l.avail -= take_l;
      r.data += take_r;
      r.avail -= take_r;
      out += take_l + take_r;
      count -= take_l + take_r;
    }
  }

  const internal::Kernels& kernels_;
  std::vector<Node> nodes_;
  std::vector<uint64_t> fifo_;
  std::size_t root_ = 0;
};

}  // namespace

namespace internal {

void MultiwayMerge(const Kernels& kernels, std::span<const SortedRun> runs,
                   uint64_t* out) {
  if (runs.empty()) return;
  MergeTree(kernels, runs).Run(out);
}

}  // namespace internal

void MultiwayMerge(std::span<const SortedRun> runs, uint64_t* out) {
  internal::MultiwayMerge(internal::ActiveKernels(), runs, out);
}

std::size_t MultiwayMergeScratchBytes(std::size_t num_runs) {
  // One FIFO per inner node but the root: K - 2 of them.
  return num_runs > 2 ? (num_runs - 2) * kFifoTuples * sizeof(uint64_t) : 0;
}

}  // namespace mmjoin::sort
