/// In-memory R*-tree over runtime-dimensional rectangles/points.
///
/// Implements the R-tree of Guttman [Gut84] with the R* improvements of
/// Beckmann et al. [BKSS90]: least-overlap ChooseSubtree at the leaf level,
/// forced reinsertion on first overflow per level, and the margin-driven
/// topological split. This is the index substrate of [RM97] §4-5 (the paper
/// builds on Beckmann's R*-tree V2); disk pages are replaced by heap nodes
/// and a node-access counter stands in for disk accesses (see DESIGN.md).
///
/// Similarity search plugs in through generic entry points:
///  * Search(region, affines): Algorithm 2 of [RM97] -- every node MBR and
///    leaf point is passed through the safe transformation's per-dimension
///    actions before being tested against the query's search region, which
///    is exactly "constructing the index I' for T(D) on the fly"
///    (Algorithm 1) without materializing it.
///  * SearchGeneric / JoinWith / NearestNeighbors: templated visitor
///    traversals. Pass any callable (lambda, function object) and the
///    predicate calls inline into the traversal loop. Callers that store
///    type-erased predicates can still pass a std::function -- it binds
///    to the template like any other callable -- but the traversal hot
///    paths carry no type-erasure of their own.
///  * NearestNeighbors(bound, affines, k, exact): branch-and-bound k-NN in
///    the style of [RKV95], generalized to transformed entries; candidates
///    are re-ranked by a caller-supplied exact distance so the index only
///    needs lower bounds.
///
/// Concurrent read traversals (Search/SearchGeneric/JoinWith/
/// NearestNeighbors) from multiple threads are safe: the node-access
/// counters are relaxed atomics and nothing else mutates. Mutations
/// (Insert/Delete/BulkLoad) still require exclusive access.

#ifndef SIMQ_INDEX_RTREE_H_
#define SIMQ_INDEX_RTREE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "geom/linear_transform.h"
#include "geom/rect.h"
#include "geom/search_region.h"
#include "index/knn_best_first.h"
#include "util/logging.h"

namespace simq {

class RTree {
 public:
  struct Options {
    int max_entries = 32;
    int min_entries = 12;  // must satisfy 2 <= min_entries <= max_entries/2
    bool forced_reinsert = true;
    double reinsert_fraction = 0.3;  // p = 30% of M, the [BKSS90] default
  };

  // Tree node, exposed read-only for join algorithms and invariant checks.
  // Entries of a level-L node are child nodes of level L-1 (internal) or
  // data ids (leaves, level 0); rects[i] is the MBR of entry i.
  struct Node {
    bool is_leaf = true;
    int level = 0;  // 0 = leaf
    Node* parent = nullptr;
    std::vector<Rect> rects;
    std::vector<std::unique_ptr<Node>> children;  // internal nodes only
    std::vector<int64_t> ids;                     // leaves only

    int num_entries() const { return static_cast<int>(rects.size()); }
  };

  explicit RTree(int dims);
  RTree(int dims, Options options);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts a rectangle (degenerate rectangles represent points).
  void Insert(const Rect& box, int64_t id);
  void InsertPoint(const Point& point, int64_t id);

  // Removes the entry with exactly this bounding box and id; returns false
  // if no such entry exists. Underfull nodes are condensed and their
  // entries reinserted (Guttman's CondenseTree).
  bool Delete(const Rect& box, int64_t id);

  // Sort-Tile-Recursive bulk load. Requires an empty tree. The slabs of
  // each partition tile on the global thread pool; the tree is the same
  // for any thread count.
  void BulkLoad(std::vector<std::pair<Rect, int64_t>> entries);

  // Range search per Algorithm 2. `affines` (from LowerToFeatureSpace) is
  // the safe transformation applied to the data side; pass nullptr for the
  // identity. Appends matching ids to `results`.
  void Search(const SearchRegion& region, const std::vector<DimAffine>* affines,
              std::vector<int64_t>* results) const;

  // Generic traversal: visits subtrees whose MBR satisfies node_predicate
  // and emits leaf entries satisfying leaf_predicate. The templated form
  // inlines the callables into the traversal.
  template <typename NodePred, typename LeafPred, typename Emit>
  void SearchGeneric(NodePred&& node_predicate, LeafPred&& leaf_predicate,
                     Emit&& emit) const {
    SearchGenericImpl(root_.get(), node_predicate, leaf_predicate, emit);
  }

  // Synchronized-traversal spatial join with `other` (which may be this
  // tree: a self-join). Descends both trees in lockstep, pruning subtree
  // pairs whose MBRs fail `pair_predicate`, and emits (id, other_id) for
  // every leaf-entry pair whose rectangles satisfy it. The predicate must
  // be conservative on MBRs: if any contained pair qualifies, the MBR pair
  // must qualify. Self-joins emit both orientations and (id, id) pairs;
  // callers filter as needed.
  template <typename PairPred, typename Emit>
  void JoinWith(const RTree& other, PairPred&& pair_predicate,
                Emit&& emit) const {
    SIMQ_CHECK_EQ(dims_, other.dims_);
    JoinWithImpl(root_.get(), other.root_.get(), other, pair_predicate, emit);
  }

  // Branch-and-bound k-nearest neighbors under a transformation. Results
  // are (id, exact_distance) pairs ordered by increasing exact distance,
  // where exact_distance comes from the caller's callback (which must be
  // >= the feature-space lower bound, e.g. a full-spectrum distance).
  // `initial_bound` caps the search as if k results at that distance
  // already exist (cross-shard pruning; see index/knn_best_first.h);
  // +infinity disables the cap.
  template <typename ExactFn>
  std::vector<std::pair<int64_t, double>> NearestNeighbors(
      const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
      ExactFn&& exact_distance,
      double initial_bound = std::numeric_limits<double>::infinity()) const {
    return NearestNeighborsImpl(bound, affines, k, exact_distance,
                                initial_bound);
  }

  int dims() const { return dims_; }
  int64_t size() const { return size_; }
  int height() const { return root_->level + 1; }
  int64_t node_count() const { return node_count_; }
  const Node* root() const { return root_.get(); }
  Rect bounding_box() const;

  // Node-access accounting: number of nodes touched by searches since the
  // last reset. The in-memory proxy for the paper's disk accesses.
  // Maintained with relaxed atomics so concurrent read traversals can
  // share a tree; see DESIGN.md "Node-access accounting".
  void ResetNodeAccesses() const {
    node_accesses_.store(0, std::memory_order_relaxed);
  }
  int64_t node_accesses() const {
    return node_accesses_.load(std::memory_order_relaxed);
  }

  // Structural validation for tests: MBR containment, fill factors, level
  // consistency, parent links, and entry count. Returns false and logs the
  // first violation (via stderr) on failure.
  bool CheckInvariants() const;

 private:
  struct PendingEntry {
    Rect rect;
    int64_t id = -1;                  // valid when child == nullptr
    std::unique_ptr<Node> child;      // valid for internal entries
  };

  // Sort-Tile-Recursive partitioning of items[0, count) from dimension
  // `dim` on, in place: afterwards each group of at most max_entries is
  // contiguous, in tile order, ending at the offsets StrGroupEnds gives.
  // `order` and `scratch` are caller-owned buffers of `count` elements.
  // The slabs of one call tile on ThreadPool::Global() and allocate
  // nothing.
  void StrTile(PendingEntry* items, int count, int dim,
               std::pair<double, int>* order, PendingEntry* scratch) const;
  // Appends, offset by `offset`, the end of each group StrTile forms from
  // `count` entries starting at dimension `dim`.
  void StrGroupEnds(int count, int dim, int offset,
                    std::vector<int>* ends) const;
  // The near-even parts STR cuts `count` entries into along `dim`: slabs,
  // or groups at the last dimension.
  int StrParts(int count, int dim) const;
  Node* ChooseSubtree(Node* node, const Rect& rect) const;
  void InsertAtLevel(PendingEntry entry, int level,
                     std::vector<bool>* reinsert_used);
  void AddEntryToNode(Node* node, PendingEntry entry);
  void HandleOverflow(Node* node, std::vector<bool>* reinsert_used);
  void ReinsertEntries(Node* node, std::vector<bool>* reinsert_used);
  void SplitNode(Node* node, std::vector<bool>* reinsert_used);
  void UpdateMbrsUpward(Node* node);
  Rect NodeMbr(const Node* node) const;
  void SearchNode(const Node* node, const SearchRegion& region,
                  const std::vector<DimAffine>* affines,
                  std::vector<int64_t>* results) const;
  bool CheckNode(const Node* node, bool is_root, int64_t* leaf_entries) const;

  void CountNodeAccess() const {
    node_accesses_.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename NodePred, typename LeafPred, typename Emit>
  void SearchGenericImpl(const Node* node, NodePred& node_predicate,
                         LeafPred& leaf_predicate, Emit& emit) const {
    CountNodeAccess();
    if (node->is_leaf) {
      for (int i = 0; i < node->num_entries(); ++i) {
        if (leaf_predicate(node->rects[static_cast<size_t>(i)],
                           node->ids[static_cast<size_t>(i)])) {
          emit(node->ids[static_cast<size_t>(i)]);
        }
      }
      return;
    }
    for (int i = 0; i < node->num_entries(); ++i) {
      if (node_predicate(node->rects[static_cast<size_t>(i)])) {
        SearchGenericImpl(node->children[static_cast<size_t>(i)].get(),
                          node_predicate, leaf_predicate, emit);
      }
    }
  }

  template <typename PairPred, typename Emit>
  void JoinWithImpl(const Node* a, const Node* b, const RTree& other,
                    PairPred& pair_predicate, Emit& emit) const {
    CountNodeAccess();
    if (&other != this || a != b) {
      other.CountNodeAccess();
    }
    if (a->is_leaf && b->is_leaf) {
      for (int i = 0; i < a->num_entries(); ++i) {
        for (int j = 0; j < b->num_entries(); ++j) {
          if (pair_predicate(a->rects[static_cast<size_t>(i)],
                             b->rects[static_cast<size_t>(j)])) {
            emit(a->ids[static_cast<size_t>(i)],
                 b->ids[static_cast<size_t>(j)]);
          }
        }
      }
      return;
    }
    // Descend the deeper (or only internal) side so both reach the leaf
    // level together.
    if (!a->is_leaf && (b->is_leaf || a->level >= b->level)) {
      const Rect b_mbr = other.NodeMbr(b);
      for (int i = 0; i < a->num_entries(); ++i) {
        if (pair_predicate(a->rects[static_cast<size_t>(i)], b_mbr)) {
          JoinWithImpl(a->children[static_cast<size_t>(i)].get(), b, other,
                       pair_predicate, emit);
        }
      }
      return;
    }
    const Rect a_mbr = NodeMbr(a);
    for (int j = 0; j < b->num_entries(); ++j) {
      if (pair_predicate(a_mbr, b->rects[static_cast<size_t>(j)])) {
        JoinWithImpl(a, b->children[static_cast<size_t>(j)].get(), other,
                     pair_predicate, emit);
      }
    }
  }

  // Best-first k-NN: the engine-shared driver (index/knn_best_first.h)
  // owns the queue, tie draining, and deterministic (distance, id)
  // ordering; this engine only expands nodes.
  template <typename ExactFn>
  std::vector<std::pair<int64_t, double>> NearestNeighborsImpl(
      const NnLowerBound& bound, const std::vector<DimAffine>* affines, int k,
      ExactFn& exact_distance, double initial_bound) const {
    const std::vector<DimAffine> identity(static_cast<size_t>(dims_),
                                          DimAffine{});
    const std::vector<DimAffine>& actions =
        affines != nullptr ? *affines : identity;
    const size_t queue_reserve =
        static_cast<size_t>(k) +
        static_cast<size_t>(height() + 1) *
            static_cast<size_t>(options_.max_entries) +
        64;
    Point point(static_cast<size_t>(dims_));
    return internal::BestFirstNearestNeighbors<const Node*>(
        root_.get(), k, queue_reserve,
        [&](const Node* node, auto&& push_node, auto&& push_entry) {
          CountNodeAccess();
          if (node->is_leaf) {
            for (int i = 0; i < node->num_entries(); ++i) {
              const Rect& rect = node->rects[static_cast<size_t>(i)];
              for (int d = 0; d < dims_; ++d) {
                point[static_cast<size_t>(d)] = rect.lo(d);
              }
              push_entry(bound.ToTransformedPoint(point, actions),
                         node->ids[static_cast<size_t>(i)]);
            }
          } else {
            for (int i = 0; i < node->num_entries(); ++i) {
              push_node(bound.ToTransformedRect(
                            node->rects[static_cast<size_t>(i)], actions),
                        node->children[static_cast<size_t>(i)].get());
            }
          }
        },
        exact_distance, initial_bound);
  }

  int dims_;
  Options options_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  int64_t node_count_ = 1;
  mutable std::atomic<int64_t> node_accesses_{0};
};

}  // namespace simq

#endif  // SIMQ_INDEX_RTREE_H_
