// FP-Growth (Han et al.): the frequent-itemset engine behind
// MineFrequentItemsets.
//
// From-scratch replacement for the Borgelt FPGrowth binary the original
// SCube shells out to. Implements the standard FP-tree with header chains,
// recursive conditional trees, and the single-prefix-path shortcut.

#include <algorithm>
#include <unordered_map>

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

  // `item_order` lists this tree's frequent items, most frequent first;
  // transactions inserted must already be filtered+sorted to that order.
  explicit FpTree(std::vector<std::pair<ItemId, uint64_t>> item_totals) {
    nodes_.push_back(Node{kInvalidItem, 0, -1});
    header_.reserve(item_totals.size());
    for (const auto& [item, total] : item_totals) {
      rank_[item] = header_.size();
      header_.push_back(HeaderEntry{item, total, -1});
    }
  }

  bool HasItem(ItemId item) const { return rank_.count(item) > 0; }

  // Rank of an item in this tree's order (0 = most frequent).
  size_t Rank(ItemId item) const { return rank_.at(item); }

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
        size_t h = rank_.at(item);
        nodes_[child].next_homonym = header_[h].head;
        header_[h].head = child;
      }
      nodes_[child].count += count;
      current = child;
    }
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
  std::vector<Node> nodes_;
  std::vector<HeaderEntry> header_;
  std::unordered_map<ItemId, size_t> rank_;
};

struct MineContext {
  const MinerOptions* options;
  std::vector<FrequentItemset>* out;
  std::vector<ItemId> suffix;
};

// Emits suffix+subset combinations for a single prefix path. The support of
// a subset is the count of its deepest (largest-index) selected node.
void EnumerateSinglePath(const std::vector<std::pair<ItemId, uint64_t>>& path,
                         size_t pos, uint64_t deepest_count,
                         MineContext* ctx) {
  if (ctx->suffix.size() >= ctx->options->max_length) return;
  for (size_t i = pos; i < path.size(); ++i) {
    ctx->suffix.push_back(path[i].first);
    ctx->out->push_back({Itemset(ctx->suffix), path[i].second});
    EnumerateSinglePath(path, i + 1, path[i].second, ctx);
    ctx->suffix.pop_back();
  }
  (void)deepest_count;
}

void MineTree(const FpTree& tree, MineContext* ctx) {
  if (ctx->suffix.size() >= ctx->options->max_length) return;

  if (tree.IsSinglePath()) {
    EnumerateSinglePath(tree.SinglePath(), 0, 0, ctx);
    return;
  }

  // Process header items from least frequent (deepest in tree) upward.
  for (size_t h = tree.NumHeaderItems(); h-- > 0;) {
    const auto& entry = tree.Header(h);
    ctx->suffix.push_back(entry.item);
    ctx->out->push_back({Itemset(ctx->suffix), entry.total});

    if (ctx->suffix.size() < ctx->options->max_length) {
      // Conditional pattern base: prefix paths of every node of this item.
      std::vector<std::pair<std::vector<ItemId>, uint64_t>> base;
      std::unordered_map<ItemId, uint64_t> cond_counts;
      for (int32_t n = entry.head; n != -1; n = tree.node(n).next_homonym) {
        uint64_t count = tree.node(n).count;
        std::vector<ItemId> prefix_path;
        for (int32_t p = tree.node(n).parent; p > 0; p = tree.node(p).parent) {
          prefix_path.push_back(tree.node(p).item);
        }
        if (prefix_path.empty()) continue;
        std::reverse(prefix_path.begin(), prefix_path.end());
        for (ItemId item : prefix_path) cond_counts[item] += count;
        base.emplace_back(std::move(prefix_path), count);
      }

      // Conditionally frequent items, most frequent first.
      std::vector<std::pair<ItemId, uint64_t>> cond_items;
      for (const auto& [item, count] : cond_counts) {
        if (count >= ctx->options->min_support) {
          cond_items.emplace_back(item, count);
        }
      }
      if (!cond_items.empty()) {
        std::sort(cond_items.begin(), cond_items.end(),
                  [](const auto& a, const auto& b) {
                    if (a.second != b.second) return a.second > b.second;
                    return a.first < b.first;
                  });
        FpTree cond_tree(cond_items);
        for (auto& [path, count] : base) {
          std::vector<ItemId> filtered;
          for (ItemId item : path) {
            if (cond_tree.HasItem(item)) filtered.push_back(item);
          }
          if (filtered.empty()) continue;
          std::sort(filtered.begin(), filtered.end(),
                    [&cond_tree](ItemId a, ItemId b) {
                      return cond_tree.Rank(a) < cond_tree.Rank(b);
                    });
          cond_tree.Insert(filtered, count);
        }
        MineTree(cond_tree, ctx);
      }
    }
    ctx->suffix.pop_back();
  }
}

}  // namespace

Result<std::vector<FrequentItemset>> MineFrequentItemsets(
    const TransactionDb& db, const MinerOptions& options) {
  SCUBE_RETURN_IF_ERROR(ValidateMinerOptions(options));
  std::vector<FrequentItemset> out;
  if (options.include_empty) {
    out.push_back({Itemset(), db.NumTransactions()});
  }

  // Global frequent items, most frequent first.
  std::vector<std::pair<ItemId, uint64_t>> item_totals;
  for (ItemId item = 0; item < db.NumItems(); ++item) {
    uint64_t support = db.ItemSupport(item);
    if (support >= options.min_support) item_totals.emplace_back(item, support);
  }
  std::sort(item_totals.begin(), item_totals.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  FpTree tree(item_totals);
  for (uint32_t tid = 0; tid < db.NumTransactions(); ++tid) {
    std::vector<ItemId> filtered;
    for (ItemId item : db.Transaction(tid)) {
      if (tree.HasItem(item)) filtered.push_back(item);
    }
    if (filtered.empty()) continue;
    std::sort(filtered.begin(), filtered.end(), [&tree](ItemId a, ItemId b) {
      return tree.Rank(a) < tree.Rank(b);
    });
    tree.Insert(filtered, 1);
  }

  MineContext ctx;
  ctx.options = &options;
  ctx.out = &out;
  MineTree(tree, &ctx);

  switch (options.mode) {
    case MineMode::kAll:
      break;
    case MineMode::kClosed:
      out = FilterClosed(std::move(out));
      break;
    case MineMode::kMaximal:
      out = FilterMaximal(std::move(out));
      break;
  }
  SortItemsets(&out);
  return out;
}

}  // namespace fpm
}  // namespace scube
