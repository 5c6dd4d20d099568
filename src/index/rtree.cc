#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace simq {
namespace {

// Exact bound equality; valid because MBRs are min/max combinations of the
// original coordinates, which are reproducible exactly in IEEE arithmetic.
bool RectEquals(const Rect& a, const Rect& b) {
  if (a.dims() != b.dims()) {
    return false;
  }
  for (int d = 0; d < a.dims(); ++d) {
    if (a.lo(d) != b.lo(d) || a.hi(d) != b.hi(d)) {
      return false;
    }
  }
  return true;
}

}  // namespace

RTree::RTree(int dims) : RTree(dims, Options()) {}

RTree::RTree(int dims, Options options) : dims_(dims), options_(options) {
  SIMQ_CHECK_GT(dims_, 0);
  SIMQ_CHECK_GE(options_.min_entries, 2);
  SIMQ_CHECK_LE(options_.min_entries, options_.max_entries / 2);
  SIMQ_CHECK(options_.reinsert_fraction > 0.0 &&
             options_.reinsert_fraction < 1.0);
  root_ = std::make_unique<Node>();
}

Rect RTree::NodeMbr(const Node* node) const {
  Rect mbr = Rect::Empty(dims_);
  for (const Rect& rect : node->rects) {
    mbr.ExpandToInclude(rect);
  }
  return mbr;
}

Rect RTree::bounding_box() const { return NodeMbr(root_.get()); }

void RTree::InsertPoint(const Point& point, int64_t id) {
  Insert(Rect::FromPoint(point), id);
}

void RTree::Insert(const Rect& box, int64_t id) {
  SIMQ_CHECK_EQ(box.dims(), dims_);
  std::vector<bool> reinsert_used(static_cast<size_t>(height()) + 1, false);
  PendingEntry entry;
  entry.rect = box;
  entry.id = id;
  InsertAtLevel(std::move(entry), /*level=*/0, &reinsert_used);
  ++size_;
}

RTree::Node* RTree::ChooseSubtree(Node* node, const Rect& rect) const {
  SIMQ_DCHECK(!node->is_leaf);
  const int n = node->num_entries();
  SIMQ_DCHECK(n > 0);
  int best = 0;

  if (node->level == 1) {
    // Children are leaves: minimize overlap enlargement ([BKSS90] CS2),
    // ties broken by area enlargement, then by area.
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const Rect& candidate = node->rects[static_cast<size_t>(i)];
      const Rect enlarged = Rect::Union(candidate, rect);
      double overlap_delta = 0.0;
      for (int j = 0; j < n; ++j) {
        if (j == i) {
          continue;
        }
        const Rect& other = node->rects[static_cast<size_t>(j)];
        overlap_delta +=
            enlarged.OverlapArea(other) - candidate.OverlapArea(other);
      }
      const double enlarge = candidate.Enlargement(rect);
      const double area = candidate.Area();
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
  } else {
    // Minimize area enlargement, ties broken by area.
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const Rect& candidate = node->rects[static_cast<size_t>(i)];
      const double enlarge = candidate.Enlargement(rect);
      const double area = candidate.Area();
      if (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best = i;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
  }
  return node->children[static_cast<size_t>(best)].get();
}

void RTree::AddEntryToNode(Node* node, PendingEntry entry) {
  node->rects.push_back(std::move(entry.rect));
  if (entry.child != nullptr) {
    SIMQ_DCHECK(!node->is_leaf);
    entry.child->parent = node;
    node->children.push_back(std::move(entry.child));
  } else {
    SIMQ_DCHECK(node->is_leaf);
    node->ids.push_back(entry.id);
  }
}

void RTree::UpdateMbrsUpward(Node* node) {
  while (node->parent != nullptr) {
    Node* parent = node->parent;
    size_t index = 0;
    while (index < parent->children.size() &&
           parent->children[index].get() != node) {
      ++index;
    }
    SIMQ_CHECK_LT(index, parent->children.size());
    parent->rects[index] = NodeMbr(node);
    node = parent;
  }
}

void RTree::InsertAtLevel(PendingEntry entry, int level,
                          std::vector<bool>* reinsert_used) {
  SIMQ_CHECK_LE(level, root_->level);
  Node* node = root_.get();
  while (node->level > level) {
    node = ChooseSubtree(node, entry.rect);
  }
  AddEntryToNode(node, std::move(entry));
  UpdateMbrsUpward(node);
  if (node->num_entries() > options_.max_entries) {
    HandleOverflow(node, reinsert_used);
  }
}

void RTree::HandleOverflow(Node* node, std::vector<bool>* reinsert_used) {
  const size_t level = static_cast<size_t>(node->level);
  if (reinsert_used->size() <= level) {
    reinsert_used->resize(level + 1, false);
  }
  if (node != root_.get() && options_.forced_reinsert &&
      !(*reinsert_used)[level]) {
    (*reinsert_used)[level] = true;
    ReinsertEntries(node, reinsert_used);
  } else {
    SplitNode(node, reinsert_used);
  }
}

void RTree::ReinsertEntries(Node* node, std::vector<bool>* reinsert_used) {
  const int n = node->num_entries();
  const int p = std::max(
      1, static_cast<int>(std::lround(options_.reinsert_fraction * n)));

  const Point center = NodeMbr(node).Center();
  std::vector<std::pair<double, int>> by_distance(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Point entry_center = node->rects[static_cast<size_t>(i)].Center();
    double dist_sq = 0.0;
    for (size_t d = 0; d < center.size(); ++d) {
      const double diff = entry_center[d] - center[d];
      dist_sq += diff * diff;
    }
    by_distance[static_cast<size_t>(i)] = {dist_sq, i};
  }
  // Furthest entries are removed; reinsertion starts with the closest of
  // the removed set ("close reinsert", the [BKSS90] recommendation).
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<bool> remove(static_cast<size_t>(n), false);
  std::vector<int> removal_order;
  for (int i = 0; i < p; ++i) {
    remove[static_cast<size_t>(by_distance[static_cast<size_t>(i)].second)] =
        true;
    removal_order.push_back(by_distance[static_cast<size_t>(i)].second);
  }
  std::reverse(removal_order.begin(), removal_order.end());

  std::vector<PendingEntry> pulled(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pulled[static_cast<size_t>(i)].rect = node->rects[static_cast<size_t>(i)];
    if (node->is_leaf) {
      pulled[static_cast<size_t>(i)].id = node->ids[static_cast<size_t>(i)];
    } else {
      pulled[static_cast<size_t>(i)].child =
          std::move(node->children[static_cast<size_t>(i)]);
    }
  }
  node->rects.clear();
  node->ids.clear();
  node->children.clear();
  std::vector<PendingEntry> to_reinsert;
  for (int i = 0; i < n; ++i) {
    if (!remove[static_cast<size_t>(i)]) {
      AddEntryToNode(node, std::move(pulled[static_cast<size_t>(i)]));
    }
  }
  UpdateMbrsUpward(node);

  const int level = node->level;
  for (int index : removal_order) {
    InsertAtLevel(std::move(pulled[static_cast<size_t>(index)]), level,
                  reinsert_used);
  }
}

void RTree::SplitNode(Node* node, std::vector<bool>* reinsert_used) {
  const int n = node->num_entries();
  const int min_fill = options_.min_entries;
  SIMQ_CHECK_GE(n, 2 * min_fill);

  std::vector<PendingEntry> entries(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    entries[static_cast<size_t>(i)].rect = node->rects[static_cast<size_t>(i)];
    if (node->is_leaf) {
      entries[static_cast<size_t>(i)].id = node->ids[static_cast<size_t>(i)];
    } else {
      entries[static_cast<size_t>(i)].child =
          std::move(node->children[static_cast<size_t>(i)]);
    }
  }
  node->rects.clear();
  node->ids.clear();
  node->children.clear();

  // ChooseSplitAxis: minimize the summed margins over all candidate
  // distributions; two sort orders (by lower then by upper value) per axis.
  std::vector<int> order(static_cast<size_t>(n));
  auto evaluate_axis = [&](int axis, bool by_upper,
                           std::vector<int>* out_order) -> double {
    for (int i = 0; i < n; ++i) {
      (*out_order)[static_cast<size_t>(i)] = i;
    }
    std::sort(out_order->begin(), out_order->end(), [&](int a, int b) {
      const Rect& ra = entries[static_cast<size_t>(a)].rect;
      const Rect& rb = entries[static_cast<size_t>(b)].rect;
      if (by_upper) {
        if (ra.hi(axis) != rb.hi(axis)) {
          return ra.hi(axis) < rb.hi(axis);
        }
        return ra.lo(axis) < rb.lo(axis);
      }
      if (ra.lo(axis) != rb.lo(axis)) {
        return ra.lo(axis) < rb.lo(axis);
      }
      return ra.hi(axis) < rb.hi(axis);
    });
    // Prefix/suffix bounding boxes for O(n) margin sums.
    std::vector<Rect> prefix(static_cast<size_t>(n), Rect::Empty(dims_));
    std::vector<Rect> suffix(static_cast<size_t>(n), Rect::Empty(dims_));
    Rect acc = Rect::Empty(dims_);
    for (int i = 0; i < n; ++i) {
      acc.ExpandToInclude(
          entries[static_cast<size_t>((*out_order)[static_cast<size_t>(i)])]
              .rect);
      prefix[static_cast<size_t>(i)] = acc;
    }
    acc = Rect::Empty(dims_);
    for (int i = n - 1; i >= 0; --i) {
      acc.ExpandToInclude(
          entries[static_cast<size_t>((*out_order)[static_cast<size_t>(i)])]
              .rect);
      suffix[static_cast<size_t>(i)] = acc;
    }
    double margin_sum = 0.0;
    for (int k = min_fill; k <= n - min_fill; ++k) {
      margin_sum += prefix[static_cast<size_t>(k - 1)].Margin() +
                    suffix[static_cast<size_t>(k)].Margin();
    }
    return margin_sum;
  };

  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < dims_; ++axis) {
    std::vector<int> scratch(static_cast<size_t>(n));
    const double margin = evaluate_axis(axis, /*by_upper=*/false, &scratch) +
                          evaluate_axis(axis, /*by_upper=*/true, &scratch);
    if (margin < best_margin) {
      best_margin = margin;
      best_axis = axis;
    }
  }

  // ChooseSplitIndex: on the chosen axis, pick the distribution with the
  // least overlap between the two groups; ties broken by total area.
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  std::vector<int> best_order;
  int best_split = min_fill;
  for (const bool by_upper : {false, true}) {
    evaluate_axis(best_axis, by_upper, &order);
    std::vector<Rect> prefix(static_cast<size_t>(n), Rect::Empty(dims_));
    std::vector<Rect> suffix(static_cast<size_t>(n), Rect::Empty(dims_));
    Rect acc = Rect::Empty(dims_);
    for (int i = 0; i < n; ++i) {
      acc.ExpandToInclude(
          entries[static_cast<size_t>(order[static_cast<size_t>(i)])].rect);
      prefix[static_cast<size_t>(i)] = acc;
    }
    acc = Rect::Empty(dims_);
    for (int i = n - 1; i >= 0; --i) {
      acc.ExpandToInclude(
          entries[static_cast<size_t>(order[static_cast<size_t>(i)])].rect);
      suffix[static_cast<size_t>(i)] = acc;
    }
    for (int k = min_fill; k <= n - min_fill; ++k) {
      const Rect& bb1 = prefix[static_cast<size_t>(k - 1)];
      const Rect& bb2 = suffix[static_cast<size_t>(k)];
      const double overlap = bb1.OverlapArea(bb2);
      const double area = bb1.Area() + bb2.Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_order = order;
        best_split = k;
      }
    }
  }

  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  sibling->level = node->level;
  ++node_count_;
  for (int i = 0; i < n; ++i) {
    PendingEntry& entry =
        entries[static_cast<size_t>(best_order[static_cast<size_t>(i)])];
    AddEntryToNode(i < best_split ? node : sibling.get(), std::move(entry));
  }

  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>();
    new_root->is_leaf = false;
    new_root->level = node->level + 1;
    ++node_count_;
    PendingEntry left;
    left.rect = NodeMbr(root_.get());
    left.child = std::move(root_);
    PendingEntry right;
    right.rect = NodeMbr(sibling.get());
    right.child = std::move(sibling);
    AddEntryToNode(new_root.get(), std::move(left));
    AddEntryToNode(new_root.get(), std::move(right));
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  PendingEntry sibling_entry;
  sibling_entry.rect = NodeMbr(sibling.get());
  sibling_entry.child = std::move(sibling);
  AddEntryToNode(parent, std::move(sibling_entry));
  UpdateMbrsUpward(node);
  if (parent->num_entries() > options_.max_entries) {
    HandleOverflow(parent, reinsert_used);
  }
}

bool RTree::Delete(const Rect& box, int64_t id) {
  SIMQ_CHECK_EQ(box.dims(), dims_);

  // FindLeaf: depth-first search through subtrees whose MBR contains box.
  Node* found_leaf = nullptr;
  int found_index = -1;
  std::function<bool(Node*)> find = [&](Node* node) {
    if (node->is_leaf) {
      for (int i = 0; i < node->num_entries(); ++i) {
        if (node->ids[static_cast<size_t>(i)] == id &&
            RectEquals(node->rects[static_cast<size_t>(i)], box)) {
          found_leaf = node;
          found_index = i;
          return true;
        }
      }
      return false;
    }
    for (int i = 0; i < node->num_entries(); ++i) {
      if (node->rects[static_cast<size_t>(i)].Contains(box) &&
          find(node->children[static_cast<size_t>(i)].get())) {
        return true;
      }
    }
    return false;
  };
  if (!find(root_.get())) {
    return false;
  }

  found_leaf->rects.erase(found_leaf->rects.begin() + found_index);
  found_leaf->ids.erase(found_leaf->ids.begin() + found_index);
  --size_;

  // CondenseTree: drop underfull nodes, stash their entries, fix MBRs.
  std::vector<std::pair<PendingEntry, int>> orphans;  // entry, target level
  Node* node = found_leaf;
  while (node != root_.get()) {
    Node* parent = node->parent;
    if (node->num_entries() < options_.min_entries) {
      const int level = node->level;
      for (int i = 0; i < node->num_entries(); ++i) {
        PendingEntry entry;
        entry.rect = node->rects[static_cast<size_t>(i)];
        if (node->is_leaf) {
          entry.id = node->ids[static_cast<size_t>(i)];
        } else {
          entry.child = std::move(node->children[static_cast<size_t>(i)]);
        }
        orphans.emplace_back(std::move(entry), level);
      }
      size_t index = 0;
      while (index < parent->children.size() &&
             parent->children[index].get() != node) {
        ++index;
      }
      SIMQ_CHECK_LT(index, parent->children.size());
      parent->rects.erase(parent->rects.begin() +
                          static_cast<int64_t>(index));
      parent->children.erase(parent->children.begin() +
                             static_cast<int64_t>(index));
      --node_count_;
    } else {
      UpdateMbrsUpward(node);
    }
    node = parent;
  }

  std::vector<bool> reinsert_used(static_cast<size_t>(height()) + 1, false);
  for (auto& [entry, level] : orphans) {
    InsertAtLevel(std::move(entry), level, &reinsert_used);
  }

  // Shrink the root while it is an internal node with a single child.
  while (!root_->is_leaf && root_->num_entries() == 1) {
    std::unique_ptr<Node> child = std::move(root_->children[0]);
    child->parent = nullptr;
    root_ = std::move(child);
    --node_count_;
  }
  if (!root_->is_leaf && root_->num_entries() == 0) {
    root_ = std::make_unique<Node>();
    node_count_ = 1;
  }
  return true;
}

int RTree::StrParts(int count, int dim) const {
  const int num_groups =
      (count + options_.max_entries - 1) / options_.max_entries;
  if (dim >= dims_ - 1) {
    return num_groups;
  }
  return std::max(1, static_cast<int>(std::ceil(std::pow(
                         static_cast<double>(num_groups),
                         1.0 / static_cast<double>(dims_ - dim)))));
}

void RTree::StrTile(PendingEntry* items, int count, int dim,
                    std::pair<double, int>* order,
                    PendingEntry* scratch) const {
  // Slices one dimension at a time by MBR center. Partitions are always
  // near-even, which keeps every group at or above ceil(cap/2) >=
  // min_entries, so bulk-loaded trees satisfy the fill invariants.
  if (count <= options_.max_entries) {
    return;
  }
  // Sort by center along `dim` through (key, position) pairs: std::sort
  // makes the same moves for the same comparison outcomes whatever the
  // element type, so this is the order of sorting the entries themselves,
  // without chasing two heap arrays per comparison.
  for (int i = 0; i < count; ++i) {
    const Rect& rect = items[i].rect;
    order[i] = {rect.lo(dim) + rect.hi(dim), i};
  }
  std::sort(order, order + count,
            [](const std::pair<double, int>& a,
               const std::pair<double, int>& b) { return a.first < b.first; });
  for (int k = 0; k < count; ++k) {
    scratch[k] = std::move(items[order[k].second]);
  }
  std::move(scratch, scratch + count, items);
  if (dim >= dims_ - 1) {
    return;  // the groups are the near-even parts of the sorted run
  }
  // Each slab tiles its own range of the buffers. std::sort has no
  // tie-break, but each slab runs the same sort on the same input
  // whichever thread runs it, so the tree does not depend on the thread
  // count. Nested calls from a pool worker run serially.
  const int parts = StrParts(count, dim);
  ThreadPool::Global().ParallelFor(
      0, parts, /*min_grain=*/1,
      [&](int64_t /*block*/, int64_t lo, int64_t hi) {
        for (int64_t p = lo; p < hi; ++p) {
          const int begin = static_cast<int>(count * p / parts);
          const int end = static_cast<int>(count * (p + 1) / parts);
          StrTile(items + begin, end - begin, dim + 1, order + begin,
                  scratch + begin);
        }
      });
}

void RTree::StrGroupEnds(int count, int dim, int offset,
                         std::vector<int>* ends) const {
  if (count <= options_.max_entries) {
    ends->push_back(offset + count);
    return;
  }
  const int parts = StrParts(count, dim);
  for (int64_t p = 0; p < parts; ++p) {
    const int begin = static_cast<int>(count * p / parts);
    const int end = static_cast<int>(count * (p + 1) / parts);
    if (dim >= dims_ - 1) {
      ends->push_back(offset + end);
    } else {
      StrGroupEnds(end - begin, dim + 1, offset + begin, ends);
    }
  }
}

void RTree::BulkLoad(std::vector<std::pair<Rect, int64_t>> input) {
  SIMQ_CHECK_EQ(size_, 0) << "BulkLoad requires an empty tree";
  if (input.empty()) {
    return;
  }
  std::vector<PendingEntry> entries(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    SIMQ_CHECK_EQ(input[i].first.dims(), dims_);
    entries[i].rect = std::move(input[i].first);
    entries[i].id = input[i].second;
  }
  size_ = static_cast<int64_t>(input.size());

  int level = 0;
  node_count_ = 0;
  std::vector<std::pair<double, int>> order;
  std::vector<PendingEntry> scratch;
  std::vector<int> ends;
  while (true) {
    const int count = static_cast<int>(entries.size());
    order.resize(entries.size());
    scratch.resize(entries.size());
    StrTile(entries.data(), count, 0, order.data(), scratch.data());
    ends.clear();
    StrGroupEnds(count, 0, 0, &ends);
    std::vector<std::unique_ptr<Node>> nodes;
    nodes.reserve(ends.size());
    int begin = 0;
    for (const int end : ends) {
      auto node = std::make_unique<Node>();
      node->is_leaf = (level == 0);
      node->level = level;
      ++node_count_;
      for (int i = begin; i < end; ++i) {
        AddEntryToNode(node.get(), std::move(entries[static_cast<size_t>(i)]));
      }
      nodes.push_back(std::move(node));
      begin = end;
    }
    if (nodes.size() == 1) {
      root_ = std::move(nodes[0]);
      return;
    }
    entries.clear();
    entries.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      entries[i].rect = NodeMbr(nodes[i].get());
      entries[i].child = std::move(nodes[i]);
    }
    ++level;
  }
}

void RTree::Search(const SearchRegion& region,
                   const std::vector<DimAffine>* affines,
                   std::vector<int64_t>* results) const {
  SIMQ_CHECK_EQ(region.dims(), dims_);
  if (results->capacity() == results->size()) {
    results->reserve(results->size() +
                     static_cast<size_t>(std::min<int64_t>(size_, 64)) + 1);
  }
  SearchNode(root_.get(), region, affines, results);
}

void RTree::SearchNode(const Node* node, const SearchRegion& region,
                       const std::vector<DimAffine>* affines,
                       std::vector<int64_t>* results) const {
  CountNodeAccess();
  if (node->is_leaf) {
    // Leaf entries are points (degenerate rects): test exact membership of
    // the transformed point. One scratch buffer serves the whole node.
    Point point(static_cast<size_t>(dims_));
    for (int i = 0; i < node->num_entries(); ++i) {
      const Rect& rect = node->rects[static_cast<size_t>(i)];
      for (int d = 0; d < dims_; ++d) {
        point[static_cast<size_t>(d)] = rect.lo(d);
      }
      const bool hit = affines == nullptr
                           ? region.ContainsPoint(point)
                           : region.ContainsTransformedPoint(point, *affines);
      if (hit) {
        results->push_back(node->ids[static_cast<size_t>(i)]);
      }
    }
    return;
  }
  for (int i = 0; i < node->num_entries(); ++i) {
    const Rect& rect = node->rects[static_cast<size_t>(i)];
    const bool overlap = affines == nullptr
                             ? region.IntersectsRect(rect)
                             : region.IntersectsTransformedRect(rect, *affines);
    if (overlap) {
      SearchNode(node->children[static_cast<size_t>(i)].get(), region, affines,
                 results);
    }
  }
}

bool RTree::CheckNode(const Node* node, bool is_root,
                      int64_t* leaf_entries) const {
  const int n = node->num_entries();
  if (node->is_leaf) {
    if (node->level != 0 || !node->children.empty() ||
        static_cast<int>(node->ids.size()) != n) {
      std::cerr << "rtree invariant: malformed leaf node\n";
      return false;
    }
    *leaf_entries += n;
  } else {
    if (static_cast<int>(node->children.size()) != n || !node->ids.empty()) {
      std::cerr << "rtree invariant: malformed internal node\n";
      return false;
    }
  }
  if (!is_root && (n < options_.min_entries || n > options_.max_entries)) {
    std::cerr << "rtree invariant: fill factor violated (" << n << ")\n";
    return false;
  }
  if (is_root && n > options_.max_entries) {
    std::cerr << "rtree invariant: root overflow\n";
    return false;
  }
  if (node->is_leaf) {
    return true;
  }
  for (int i = 0; i < n; ++i) {
    const Node* child = node->children[static_cast<size_t>(i)].get();
    if (child->parent != node) {
      std::cerr << "rtree invariant: bad parent link\n";
      return false;
    }
    if (child->level != node->level - 1) {
      std::cerr << "rtree invariant: bad level\n";
      return false;
    }
    const Rect mbr = NodeMbr(child);
    if (!node->rects[static_cast<size_t>(i)].Contains(mbr) ||
        !mbr.Contains(node->rects[static_cast<size_t>(i)])) {
      std::cerr << "rtree invariant: stale MBR at level " << node->level
                << "\n";
      return false;
    }
    if (!CheckNode(child, /*is_root=*/false, leaf_entries)) {
      return false;
    }
  }
  return true;
}

bool RTree::CheckInvariants() const {
  int64_t leaf_entries = 0;
  if (!CheckNode(root_.get(), /*is_root=*/true, &leaf_entries)) {
    return false;
  }
  if (leaf_entries != size_) {
    std::cerr << "rtree invariant: size mismatch (" << leaf_entries << " vs "
              << size_ << ")\n";
    return false;
  }
  return true;
}

}  // namespace simq
