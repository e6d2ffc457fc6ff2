#include "serve/registry.h"

#include <unistd.h>

#include <utility>

#include "core/sink.h"
#include "data/dataset.h"
#include "data/point_io.h"
#include "index/bulk_load.h"
#include "index/rstar_tree.h"
#include "index/tree_io.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/metrics.h"

namespace csj::serve {

namespace {

std::atomic<int64_t> g_live_epochs{0};

/// Lays an in-memory tree out as a temporary paged image, opens it, and
/// unlinks the temporary — on success *and* on failure: the returned
/// PagedTree's descriptor is the only remaining reference, so the image can
/// never outlive the process, and a failed conversion leaves no droppings.
Result<PagedTree<kServeDim>> OpenAsPaged(const RStarTree<kServeDim>& tree,
                                         const DatasetSpec& spec,
                                         uint64_t temp_seq,
                                         MemoryBudget* budget) {
  PagedTreeOptions options;
  options.block_size = spec.block_size;
  options.cache_blocks = spec.cache_blocks;
  options.budget = budget;
  const std::string temp =
      StrFormat("%s.paged.tmp.%d.%llu", spec.path.c_str(), getpid(),
                static_cast<unsigned long long>(temp_seq));
  const Status written = WritePagedTree(tree, temp, options);
  if (!written.ok()) {
    ::unlink(temp.c_str());
    return written;
  }
  auto paged = PagedTree<kServeDim>::Open(temp, options);
  ::unlink(temp.c_str());
  return paged;
}

}  // namespace

int64_t LiveEpochCount() {
  return g_live_epochs.load(std::memory_order_relaxed);
}

Dataset::Dataset(PagedTree<kServeDim> t) : tree(std::move(t)) {
  const int64_t live = g_live_epochs.fetch_add(1, std::memory_order_relaxed) + 1;
  CSJ_METRIC_GAUGE_SET("serve.live_epochs", static_cast<uint64_t>(live));
}

Dataset::~Dataset() {
  const int64_t live = g_live_epochs.fetch_sub(1, std::memory_order_relaxed) - 1;
  CSJ_METRIC_GAUGE_SET("serve.live_epochs",
                       static_cast<uint64_t>(live < 0 ? 0 : live));
}

Result<std::shared_ptr<Dataset>> DatasetRegistry::BuildEpoch(
    const DatasetSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }

  PagedTreeOptions options;
  options.block_size = spec.block_size;
  options.cache_blocks = spec.cache_blocks;
  options.budget = &budget_;

  // Source sniffing, cheapest first: an already-paged image is opened in
  // place; a serialized tree is loaded and converted; anything else is
  // treated as a point text file, bulk-loaded and converted. Both the tree
  // loader (CSJTREE2 CRC) and the paged open (header shape) validate their
  // input before any epoch exists.
  const uint64_t temp_seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  Result<PagedTree<kServeDim>> paged =
      PagedTree<kServeDim>::Open(spec.path, options);
  if (!paged.ok()) {
    if (paged.status().code() == StatusCode::kNotFound) return paged.status();
    auto info = PeekTreeFile(spec.path);
    if (info.ok()) {
      RStarOptions tree_options;
      tree_options.max_fanout = info->max_fanout;
      tree_options.min_fanout = info->min_fanout;
      RStarTree<kServeDim> tree(tree_options);
      CSJ_RETURN_IF_ERROR(LoadTree(&tree, spec.path));
      paged = OpenAsPaged(tree, spec, temp_seq, &budget_);
    } else {
      CSJ_ASSIGN_OR_RETURN(auto points, LoadPoints<kServeDim>(spec.path));
      RStarTree<kServeDim> tree;
      PackStr(&tree, ToEntries(points));
      paged = OpenAsPaged(tree, spec, temp_seq, &budget_);
    }
  }
  CSJ_RETURN_IF_ERROR(paged.status());

  auto dataset = std::make_shared<Dataset>(std::move(paged).value());
  dataset->name = spec.name;
  dataset->source_path = spec.path;
  dataset->num_points = dataset->tree.size();
  dataset->id_width = IdWidthFor(dataset->num_points);

  // Validation probe + planner sketch in one pass: SketchTree's governed
  // walk over every leaf. Reading every page through the block cache proves
  // the image is fully readable and charges the cache against the registry
  // budget *before* the epoch can be swapped in — a truncated blob area, an
  // injected read fault, or budget exhaustion all surface here as a clean
  // error while the old epoch (if any) keeps serving.
  ExecContext probe_exec;
  probe_exec.SetMemoryBudget(&budget_);
  CSJ_ASSIGN_OR_RETURN(dataset->sketch,
                       plan::SketchTree(dataset->tree, &probe_exec));

  dataset->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  return dataset;
}

Status DatasetRegistry::Load(const DatasetSpec& spec) {
  CSJ_ASSIGN_OR_RETURN(std::shared_ptr<Dataset> dataset, BuildEpoch(spec));
  std::lock_guard<std::mutex> lock(mu_);
  if (!datasets_.emplace(spec.name, std::move(dataset)).second) {
    return Status::InvalidArgument("duplicate dataset name: " + spec.name +
                                   " (use reload to replace)");
  }
  return Status::OK();
}

Status DatasetRegistry::Reload(const DatasetSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (datasets_.find(spec.name) == datasets_.end()) {
      return Status::NotFound("unknown dataset: " + spec.name +
                              " (use load to register)");
    }
  }
  if (CSJ_FAILPOINT("serve.reload_validate")) {
    CSJ_METRIC_COUNT("serve.reload_failures", 1);
    return Status::IoError("injected reload validation fault: " + spec.name);
  }
  auto built = BuildEpoch(spec);
  if (!built.ok()) {
    CSJ_METRIC_COUNT("serve.reload_failures", 1);
    return built.status();
  }
  std::shared_ptr<Dataset> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(spec.name);
    if (it == datasets_.end()) {
      // Unloaded while we were building: registering the replacement now
      // would resurrect a name the operator just dropped.
      return Status::NotFound("dataset unloaded during reload: " + spec.name);
    }
    old = std::move(it->second);
    it->second = std::move(built).value();
  }
  CSJ_METRIC_COUNT("serve.reloads", 1);
  // `old` (the previous epoch's last registry pin) drops here; queries that
  // pinned it keep it alive until they finish.
  return Status::OK();
}

Status DatasetRegistry::Unload(const std::string& name) {
  std::shared_ptr<Dataset> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("unknown dataset: " + name);
    }
    old = std::move(it->second);
    datasets_.erase(it);
  }
  CSJ_METRIC_COUNT("serve.unloads", 1);
  // In-flight pins drain naturally; the epoch's block-cache budget charge is
  // released by ~Dataset when the last pin drops.
  return Status::OK();
}

std::shared_ptr<const Dataset> DatasetRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const Dataset>> DatasetRegistry::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const Dataset>> all;
  all.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) all.push_back(dataset);
  return all;
}

size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datasets_.size();
}

}  // namespace csj::serve
