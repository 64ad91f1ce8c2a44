// FP-Growth (Han et al.): the frequent-itemset engine behind
// MineFrequentItemsets.
//
// From-scratch replacement for the Borgelt FPGrowth binary the original
// SCube shells out to. Implements the standard FP-tree with header chains,
// recursive conditional trees, and the single-prefix-path shortcut. The
// per-class item caps prune the recursion: an item whose class is at its
// cap is left out of conditional pattern bases, so it never heads a
// conditional tree, and skipped in the single-path enumeration; a class
// capped at zero keeps its items out of the global tree.

#include <algorithm>
#include <array>

#include "fpm/miner.h"

namespace scube {
namespace fpm {

namespace {

// Prefix tree with parent pointers and per-item node chains.
class FpTree {
 public:
  struct Node {
    ItemId item;
    uint64_t count;
    int32_t parent;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    int32_t next_homonym = -1;  // header chain of nodes with the same item
  };

  struct HeaderEntry {
    ItemId item;
    uint64_t total = 0;
    int32_t head = -1;
  };

  // `item_totals` lists this tree's frequent items, most frequent first;
  // every item is below `num_items`. Transactions inserted must already be
  // filtered+sorted to that order.
  FpTree(const std::vector<std::pair<ItemId, uint64_t>>& item_totals,
         size_t num_items)
      : rank_(num_items, kNoRank) {
    nodes_.push_back(Node{kInvalidItem, 0, -1});
    header_.reserve(item_totals.size());
    for (const auto& [item, total] : item_totals) {
      rank_[item] = static_cast<uint32_t>(header_.size());
      header_.push_back(HeaderEntry{item, total, -1});
    }
  }

  bool HasItem(ItemId item) const { return rank_[item] != kNoRank; }

  // Rank of an item in this tree's order (0 = most frequent).
  uint32_t Rank(ItemId item) const { return rank_[item]; }

  size_t NumHeaderItems() const { return header_.size(); }
  const HeaderEntry& Header(size_t idx) const { return header_[idx]; }
  const Node& node(int32_t idx) const { return nodes_[idx]; }

  // Inserts a rank-sorted item path with multiplicity `count`.
  void Insert(const std::vector<ItemId>& path, uint64_t count) {
    int32_t current = 0;  // root
    for (ItemId item : path) {
      int32_t child = nodes_[current].first_child;
      while (child != -1 && nodes_[child].item != item) {
        child = nodes_[child].next_sibling;
      }
      if (child == -1) {
        child = static_cast<int32_t>(nodes_.size());
        nodes_.push_back(Node{item, 0, current});
        nodes_[child].next_sibling = nodes_[current].first_child;
        nodes_[current].first_child = child;
        const uint32_t h = rank_[item];
        nodes_[child].next_homonym = header_[h].head;
        header_[h].head = child;
      }
      nodes_[child].count += count;
      current = child;
    }
  }

  // Sorts `path` (items of this tree) into insertion order.
  void SortByRank(std::vector<ItemId>* path) const {
    std::sort(path->begin(), path->end(),
              [this](ItemId a, ItemId b) { return rank_[a] < rank_[b]; });
  }

  // True iff the tree is one downward chain (enables subset enumeration).
  bool IsSinglePath() const {
    int32_t current = 0;
    while (true) {
      int32_t child = nodes_[current].first_child;
      if (child == -1) return true;
      if (nodes_[child].next_sibling != -1) return false;
      current = child;
    }
  }

  // The single path's (item, count) pairs, root side first. Only valid when
  // IsSinglePath().
  std::vector<std::pair<ItemId, uint64_t>> SinglePath() const {
    std::vector<std::pair<ItemId, uint64_t>> path;
    int32_t current = nodes_[0].first_child;
    while (current != -1) {
      path.emplace_back(nodes_[current].item, nodes_[current].count);
      current = nodes_[current].first_child;
    }
    return path;
  }

 private:
  static constexpr uint32_t kNoRank = 0xFFFFFFFFu;

  std::vector<Node> nodes_;
  std::vector<HeaderEntry> header_;
  std::vector<uint32_t> rank_;  // indexed by item; kNoRank = not in tree
};

// Most frequent first, ties by item id: the order every tree uses.
void SortByTotal(std::vector<std::pair<ItemId, uint64_t>>* items) {
  std::sort(items->begin(), items->end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
}

struct MineContext {
  const MinerOptions* options;
  size_t num_items;
  std::vector<FrequentItemset>* out;
  std::vector<ItemId> suffix;
  std::array<uint32_t, 2> class_count = {0, 0};  // suffix items per class

  // True iff `item` may extend the suffix: its class is below its cap.
  bool Admits(ItemId item) const {
    if (options->item_class.empty()) return true;
    const uint8_t c = options->item_class[item];
    return class_count[c] < options->max_class_items[c];
  }

  void Push(ItemId item) {
    suffix.push_back(item);
    if (!options->item_class.empty()) ++class_count[options->item_class[item]];
  }

  void Pop() {
    if (!options->item_class.empty()) {
      --class_count[options->item_class[suffix.back()]];
    }
    suffix.pop_back();
  }

  void Emit(uint64_t support) { out->push_back({Itemset(suffix), support}); }
};

// Emits suffix+subset combinations for a single prefix path. The support of
// a subset is the count of its deepest (largest-index) selected node.
void EnumerateSinglePath(const std::vector<std::pair<ItemId, uint64_t>>& path,
                         size_t pos, MineContext* ctx) {
  if (ctx->suffix.size() >= ctx->options->max_length) return;
  for (size_t i = pos; i < path.size(); ++i) {
    if (!ctx->Admits(path[i].first)) continue;
    ctx->Push(path[i].first);
    ctx->Emit(path[i].second);
    EnumerateSinglePath(path, i + 1, ctx);
    ctx->Pop();
  }
}

void MineTree(const FpTree& tree, MineContext* ctx) {
  if (ctx->suffix.size() >= ctx->options->max_length) return;

  if (tree.IsSinglePath()) {
    EnumerateSinglePath(tree.SinglePath(), 0, ctx);
    return;
  }

  // Per-header scratch, reused across this tree's header items.
  std::vector<ItemId> base_items;
  std::vector<std::pair<size_t, uint64_t>> base_paths;  // (end, count)
  std::vector<uint64_t> cond_counts;
  std::vector<std::pair<ItemId, uint64_t>> cond_items;
  std::vector<ItemId> filtered;

  // Process header items from least frequent (deepest in tree) upward.
  for (size_t h = tree.NumHeaderItems(); h-- > 0;) {
    const auto& entry = tree.Header(h);
    ctx->Push(entry.item);  // the tree holds only items the suffix admits
    ctx->Emit(entry.total);

    if (ctx->suffix.size() < ctx->options->max_length) {
      // Conditional pattern base: the prefix paths of every node of this
      // item, flattened into `base_items` and cut at `base_paths` ends.
      // Prefix items all rank above h, so `cond_counts` is indexed by rank.
      // Items the grown suffix no longer admits are left out.
      base_items.clear();
      base_paths.clear();
      cond_counts.assign(h, 0);
      for (int32_t n = entry.head; n != -1; n = tree.node(n).next_homonym) {
        const uint64_t count = tree.node(n).count;
        const size_t begin = base_items.size();
        for (int32_t p = tree.node(n).parent; p > 0; p = tree.node(p).parent) {
          const ItemId item = tree.node(p).item;
          if (!ctx->Admits(item)) continue;
          base_items.push_back(item);
          cond_counts[tree.Rank(item)] += count;
        }
        if (base_items.size() > begin) {
          base_paths.emplace_back(base_items.size(), count);
        }
      }

      // Conditionally frequent items, most frequent first.
      cond_items.clear();
      for (size_t r = 0; r < h; ++r) {
        if (cond_counts[r] >= ctx->options->min_support) {
          cond_items.emplace_back(tree.Header(r).item, cond_counts[r]);
        }
      }
      if (!cond_items.empty()) {
        SortByTotal(&cond_items);
        FpTree cond_tree(cond_items, ctx->num_items);
        size_t begin = 0;
        for (const auto& [end, count] : base_paths) {
          filtered.clear();
          for (size_t k = begin; k < end; ++k) {
            if (cond_tree.HasItem(base_items[k])) {
              filtered.push_back(base_items[k]);
            }
          }
          begin = end;
          if (filtered.empty()) continue;
          cond_tree.SortByRank(&filtered);
          cond_tree.Insert(filtered, count);
        }
        MineTree(cond_tree, ctx);
      }
    }
    ctx->Pop();
  }
}

}  // namespace

Result<std::vector<FrequentItemset>> MineFrequentItemsets(
    const TransactionDb& db, const MinerOptions& options) {
  SCUBE_RETURN_IF_ERROR(ValidateMinerOptions(options));
  if (!options.item_class.empty() &&
      options.item_class.size() < db.NumItems()) {
    return Status::InvalidArgument(
        "item_class must hold a class for every item of the database");
  }
  std::vector<FrequentItemset> out;
  if (options.include_empty) {
    out.push_back({Itemset(), db.NumTransactions()});
  }

  MineContext ctx;
  ctx.options = &options;
  ctx.num_items = db.NumItems();
  ctx.out = &out;

  // Global frequent items the empty prefix admits, most frequent first.
  std::vector<std::pair<ItemId, uint64_t>> item_totals;
  for (ItemId item = 0; item < db.NumItems(); ++item) {
    uint64_t support = db.ItemSupport(item);
    if (support >= options.min_support && ctx.Admits(item)) {
      item_totals.emplace_back(item, support);
    }
  }
  SortByTotal(&item_totals);

  FpTree tree(item_totals, db.NumItems());
  std::vector<ItemId> filtered;
  for (uint32_t tid = 0; tid < db.NumTransactions(); ++tid) {
    filtered.clear();
    for (ItemId item : db.Transaction(tid)) {
      if (tree.HasItem(item)) filtered.push_back(item);
    }
    if (filtered.empty()) continue;
    tree.SortByRank(&filtered);
    tree.Insert(filtered, 1);
  }

  MineTree(tree, &ctx);
  return out;
}

}  // namespace fpm
}  // namespace scube
