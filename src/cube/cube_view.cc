#include "cube/cube_view.h"

#include <algorithm>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "cube/explorer.h"

namespace scube {
namespace cube {

namespace {

// The order of the CA itemsets within one SA slice group. Cells sort by
// (|SA| + |CA|, SA, CA), so where SA is fixed they sort by (|CA|, CA).
bool CaBefore(const fpm::Itemset& a, const fpm::Itemset& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

}  // namespace

CubeView::CubeView(relational::ItemCatalog catalog,
                   std::vector<std::string> unit_labels,
                   std::vector<CubeCell> cells, size_t num_threads)
    : catalog_(std::move(catalog)),
      unit_labels_(std::move(unit_labels)),
      cells_(std::move(cells)) {
  std::sort(cells_.begin(), cells_.end(),
            [](const CubeCell& a, const CubeCell& b) {
              return a.coords < b.coords;
            });

  size_t max_item = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    const CubeCell& cell = cells_[i];
    SCUBE_CHECK(i == 0 || !(cell.coords == cells_[i - 1].coords));
    if (cell.indexes.defined) ++num_defined_;
    for (fpm::ItemId item : cell.coords.sa.items()) {
      max_item = std::max<size_t>(max_item, item + 1);
    }
    for (fpm::ItemId item : cell.coords.ca.items()) {
      max_item = std::max<size_t>(max_item, item + 1);
    }
  }
  // Hand-built cubes may use item ids beyond the catalog; size the posting
  // universe to cover both.
  num_items_ = std::max(max_item, catalog_.size());

  std::vector<CellId> defined;
  defined.reserve(num_defined_);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].indexes.defined) defined.push_back(static_cast<CellId>(i));
  }

  // The per-cell arrays are sized here so they come from the constructing
  // thread's malloc arena. Allocated on pool workers, each version's ~1 MB
  // of texts fragmented the workers' arenas: `build` peaked ~10 MiB higher.
  texts_.resize(cells_.size());
  sa_.label_of.resize(cells_.size());
  ca_.label_of.resize(cells_.size());

  // The SA slice groups answer every point lookup, the adjacency's parent
  // probes included, so they are complete before the tasks start.
  BuildAxis(true, &sa_);

  // From here every structure reads only the sorted cells_ / SA groups and
  // writes its own member, so the builds are independent tasks. Adjacency
  // (the heavy one: a lookup per cell per coordinate item) and the index
  // texts additionally parallelise their per-cell work on the same pool.
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([this] { BuildPostings(true, &sa_postings_); });
  tasks.emplace_back([this] { BuildPostings(false, &ca_postings_); });
  tasks.emplace_back([this] { BuildAxis(false, &ca_); });
  tasks.emplace_back([this, num_threads] { BuildAdjacency(num_threads); });
  tasks.emplace_back([this, num_threads] { RenderTexts(num_threads); });
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    tasks.emplace_back(
        [this, kind, &defined] { BuildRankedOrder(kind, defined); });
  }
  ThreadPool::ParallelForShared(
      tasks.size(), num_threads,
      [&tasks](size_t /*worker*/, size_t t) { tasks[t](); });
  // The findings walk the adjacency, so they come last.
  findings_ = BuildFindings(*this, num_threads);
}

void CubeView::BuildPostings(bool sa_axis, Csr* csr) {
  csr->offsets.assign(num_items_ + 1, 0);
  for (const CubeCell& cell : cells_) {
    const fpm::Itemset& axis = sa_axis ? cell.coords.sa : cell.coords.ca;
    for (fpm::ItemId item : axis.items()) ++csr->offsets[item + 1];
  }
  for (size_t i = 1; i < csr->offsets.size(); ++i) {
    csr->offsets[i] += csr->offsets[i - 1];
  }
  csr->ids.resize(csr->offsets.back());
  std::vector<uint32_t> cursor(csr->offsets.begin(), csr->offsets.end() - 1);
  // Cells visited in id order, so every posting list comes out ascending.
  for (size_t i = 0; i < cells_.size(); ++i) {
    const fpm::Itemset& axis =
        sa_axis ? cells_[i].coords.sa : cells_[i].coords.ca;
    for (fpm::ItemId item : axis.items()) {
      csr->ids[cursor[item]++] = static_cast<CellId>(i);
    }
  }
}

void CubeView::BuildAxis(bool sa_axis, Axis* axis) {
  for (size_t i = 0; i < cells_.size(); ++i) {
    const fpm::Itemset& items =
        sa_axis ? cells_[i].coords.sa : cells_[i].coords.ca;
    axis->groups[items].push_back(static_cast<CellId>(i));
  }
  axis->labels.reserve(axis->groups.size());
  for (const auto& [items, ids] : axis->groups) {
    const uint32_t label = static_cast<uint32_t>(axis->labels.size());
    // Items beyond the catalog (hand-built cubes) have no label.
    const bool catalogued = std::all_of(
        items.items().begin(), items.items().end(),
        [this](fpm::ItemId item) { return item < catalog_.size(); });
    axis->labels.push_back(catalogued ? catalog_.LabelSet(items) : "");
    for (CellId id : ids) axis->label_of[id] = label;
  }
}

void CubeView::RenderTexts(size_t num_threads) {
  ThreadPool::ParallelForShared(
      cells_.size(), num_threads, [this](size_t /*worker*/, size_t c) {
        texts_[c] = IndexTexts(cells_[c].indexes);
      });
}

void CubeView::BuildAdjacency(size_t num_threads) {
  // Parents of cell c: remove one item from SA (items ascending), then one
  // from CA; keep the coordinates present in the cube. The removal order is
  // part of the contract (ROLLUP row order), so it is preserved as built.
  // Each cell's probe is independent, writes only slot c, and reads the
  // SA slice groups built before the tasks — so the probes fan out across
  // the pool.
  std::vector<std::vector<CellId>> parents(cells_.size());
  ThreadPool::ParallelForShared(
      cells_.size(), num_threads, [&](size_t /*worker*/, size_t c) {
        parents[c] = ProbeParents(cells_[c].coords);
      });

  // Children are the parent relation transposed. `c` ascends, so every
  // children list comes out in ascending id order, which is coordinate
  // order; no per-row sort needed.
  std::vector<std::vector<CellId>> children(cells_.size());
  for (size_t c = 0; c < cells_.size(); ++c) {
    for (CellId p : parents[c]) children[p].push_back(static_cast<CellId>(c));
  }

  auto flatten = [this](const std::vector<std::vector<CellId>>& rows,
                        Csr* csr) {
    csr->offsets.assign(cells_.size() + 1, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      csr->offsets[i + 1] =
          csr->offsets[i] + static_cast<uint32_t>(rows[i].size());
    }
    csr->ids.reserve(csr->offsets.back());
    for (const std::vector<CellId>& row : rows) {
      csr->ids.insert(csr->ids.end(), row.begin(), row.end());
    }
  };
  flatten(parents, &parents_);
  flatten(children, &children_);
}

void CubeView::BuildRankedOrder(indexes::IndexKind kind,
                                const std::vector<CellId>& defined) {
  std::vector<CellId>& order = ranked_[static_cast<size_t>(kind)];
  order = defined;
  std::sort(order.begin(), order.end(), [this, kind](CellId a, CellId b) {
    double va = cells_[a].Value(kind), vb = cells_[b].Value(kind);
    if (va != vb) return va > vb;
    return a < b;  // id order == coordinate order
  });
}

CubeView::CellId CubeView::FindId(const fpm::Itemset& sa,
                                  const fpm::Itemset& ca) const {
  const std::span<const CellId> group = SliceBySa(sa);
  auto it = std::lower_bound(group.begin(), group.end(), ca,
                             [this](CellId id, const fpm::Itemset& key) {
                               return CaBefore(cells_[id].coords.ca, key);
                             });
  return it != group.end() && cells_[*it].coords.ca == ca ? *it : kNoCell;
}

const CubeCell* CubeView::Find(const fpm::Itemset& sa,
                               const fpm::Itemset& ca) const {
  CellId id = FindId(sa, ca);
  return id == kNoCell ? nullptr : &cells_[id];
}

std::span<const CubeView::CellId> CubeView::SaPostings(
    fpm::ItemId item) const {
  return item < num_items_ ? sa_postings_.row(item)
                           : std::span<const CellId>{};
}

std::span<const CubeView::CellId> CubeView::CaPostings(
    fpm::ItemId item) const {
  return item < num_items_ ? ca_postings_.row(item)
                           : std::span<const CellId>{};
}

std::span<const CubeView::CellId> CubeView::SliceBySa(
    const fpm::Itemset& sa) const {
  auto it = sa_.groups.find(sa);
  return it == sa_.groups.end() ? std::span<const CellId>{}
                                : std::span<const CellId>(it->second);
}

std::span<const CubeView::CellId> CubeView::SliceByCa(
    const fpm::Itemset& ca) const {
  auto it = ca_.groups.find(ca);
  return it == ca_.groups.end() ? std::span<const CellId>{}
                                : std::span<const CellId>(it->second);
}

std::span<const CubeView::CellId> CubeView::Parents(CellId id) const {
  return parents_.row(id);
}

std::span<const CubeView::CellId> CubeView::Children(CellId id) const {
  return children_.row(id);
}

std::vector<CubeView::CellId> CubeView::ProbeParents(
    const CellCoordinates& coords) const {
  std::vector<CellId> out;
  for (fpm::ItemId item : coords.sa.items()) {
    CellId p = FindId(coords.sa.Minus(fpm::Itemset({item})), coords.ca);
    if (p != kNoCell) out.push_back(p);
  }
  for (fpm::ItemId item : coords.ca.items()) {
    CellId p = FindId(coords.sa, coords.ca.Minus(fpm::Itemset({item})));
    if (p != kNoCell) out.push_back(p);
  }
  return out;
}

std::vector<CubeView::CellId> CubeView::ParentsOf(
    const CellCoordinates& coords) const {
  CellId id = FindId(coords);
  if (id != kNoCell) {
    auto row = Parents(id);
    return std::vector<CellId>(row.begin(), row.end());
  }
  return ProbeParents(coords);
}

std::vector<CubeView::CellId> CubeView::ChildrenOf(
    const CellCoordinates& coords) const {
  CellId id = FindId(coords);
  if (id != kNoCell) {
    auto row = Children(id);
    return std::vector<CellId>(row.begin(), row.end());
  }
  // Probe every one-item extension; items beyond num_items_ appear in no
  // cell, so the probe set is complete.
  std::vector<CellId> out;
  for (size_t item = 0; item < num_items_; ++item) {
    fpm::ItemId id32 = static_cast<fpm::ItemId>(item);
    if (!coords.sa.Contains(id32)) {
      CellId c = FindId(coords.sa.With(id32), coords.ca);
      if (c != kNoCell) out.push_back(c);
    }
    if (!coords.ca.Contains(id32)) {
      CellId c = FindId(coords.sa, coords.ca.With(id32));
      if (c != kNoCell) out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<CubeView::CellId> CubeView::Dice(const fpm::Itemset& sa,
                                             const fpm::Itemset& ca,
                                             uint64_t* examined) const {
  std::vector<CellId> out;
  DiceVisit(sa, ca, examined, [&out](CellId id) {
    out.push_back(id);
    return true;
  });
  return out;
}


std::span<const CubeView::CellId> CubeView::RankedByIndex(
    indexes::IndexKind kind) const {
  return ranked_[static_cast<size_t>(kind)];
}

std::span<const CubeView::CellId> CubeView::SurpriseOrder(
    indexes::IndexKind kind) const {
  return findings_.surprises[static_cast<size_t>(kind)];
}

std::span<const CubeView::ReversalEntry> CubeView::ReversalOrder(
    indexes::IndexKind kind) const {
  return findings_.reversals[static_cast<size_t>(kind)];
}

std::string CubeView::LabelOf(const CellCoordinates& coords) const {
  return catalog_.LabelSet(coords.sa) + " | " + catalog_.LabelSet(coords.ca);
}

std::string CubeView::ToCsv() const {
  CsvWriter writer;
  std::vector<std::string> header{"sa", "ca", "T", "M", "units"};
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    header.emplace_back(indexes::IndexKindToString(kind));
  }
  writer.WriteRow(header);
  for (CellId id = 0; id < cells_.size(); ++id) {
    const CubeCell& cell = cells_[id];
    std::vector<std::string> row{
        SaLabel(id),
        CaLabel(id),
        std::to_string(cell.context_size),
        std::to_string(cell.minority_size),
        std::to_string(cell.num_units),
    };
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      row.push_back(cell.indexes.defined ? FormatDouble(cell.indexes[kind], 6)
                                         : "");
    }
    writer.WriteRow(row);
  }
  return writer.str();
}

}  // namespace cube
}  // namespace scube
