#include "gpusim/warp.hpp"

#include <algorithm>
#include <atomic>

#include "prof/check.hpp"
#include "runtime/knobs.hpp"

namespace sagesim::gpu {

namespace {

// kDefault doubles as "not resolved yet": the first default_fidelity() call
// after startup (or after set_default_fidelity(kDefault)) reads the env.
std::atomic<Fidelity> g_default{Fidelity::kDefault};

}  // namespace

Fidelity default_fidelity() {
  Fidelity f = g_default.load(std::memory_order_relaxed);
  if (f != Fidelity::kDefault) return f;
  f = runtime::knob("SAGESIM_GPU_FIDELITY") == "warp" ? Fidelity::kWarp
                                                     : Fidelity::kAnalytic;
  g_default.store(f, std::memory_order_relaxed);
  return f;
}

void set_default_fidelity(Fidelity f) {
  g_default.store(f, std::memory_order_relaxed);
}

void WarpStats::merge(const WarpStats& o) {
  lane_width = std::max(lane_width, o.lane_width);
  warps += o.warps;
  issue_slots += o.issue_slots;
  lane_ops += o.lane_ops;
  branches += o.branches;
  divergent_branches += o.divergent_branches;
  gld_requests += o.gld_requests;
  gld_transactions += o.gld_transactions;
  gst_requests += o.gst_requests;
  gst_transactions += o.gst_transactions;
  shared_requests += o.shared_requests;
  shared_replays += o.shared_replays;
  api_bytes += o.api_bytes;
}

WarpRecorder::WarpRecorder(std::uint32_t warp_size) : warp_size_(warp_size) {
  SAGESIM_CHECK(warp_size_ > 0);
  stats_.lane_width = warp_size_;
}

void WarpRecorder::begin_scope(std::uint32_t slots) {
  fold();
  lanes_.assign(slots, {});
  cur_ = 0;
}

void WarpRecorder::set_slot(std::uint32_t slot) {
  SAGESIM_CHECK(slot < lanes_.size());
  cur_ = slot;
}

void WarpRecorder::end_scope() { fold(); }

void WarpRecorder::ensure_serial_scope() {
  if (lanes_.empty()) {
    lanes_.assign(1, {});
    cur_ = 0;
  }
}

void WarpRecorder::record_flop() {
  ensure_serial_scope();
  lanes_[cur_].push_back(Op{OpKind::kFlop, false, 0, 0});
}

void WarpRecorder::record_branch(bool taken) {
  ensure_serial_scope();
  lanes_[cur_].push_back(Op{OpKind::kBranch, taken, 0, 0});
}

void WarpRecorder::record_global(std::uint64_t addr, std::uint32_t bytes,
                                 bool store) {
  ensure_serial_scope();
  lanes_[cur_].push_back(Op{store ? OpKind::kGlobalStore : OpKind::kGlobalLoad,
                            false, bytes, addr});
}

void WarpRecorder::record_shared(std::uint64_t byte_offset,
                                 std::uint32_t bytes) {
  ensure_serial_scope();
  lanes_[cur_].push_back(Op{OpKind::kShared, false, bytes, byte_offset});
}

WarpStats WarpRecorder::take() {
  fold();
  WarpStats out = stats_;
  stats_ = WarpStats{};
  stats_.lane_width = warp_size_;
  return out;
}

void WarpRecorder::fold() {
  for (std::size_t first = 0; first < lanes_.size(); first += warp_size_) {
    const std::uint32_t count = static_cast<std::uint32_t>(
        std::min<std::size_t>(warp_size_, lanes_.size() - first));
    fold_warp(first, count);
  }
  lanes_.clear();
  cur_ = 0;
}

void WarpRecorder::fold_warp(std::size_t first, std::uint32_t count) {
  // Split each lane's trace into segments delimited by its branch records;
  // outcomes[i] is the branch that ended segment i.
  struct LaneView {
    const std::vector<Op>* ops{nullptr};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> segs;  // [begin, end)
    std::vector<bool> outcomes;
  };
  std::vector<LaneView> lanes(count);
  bool any = false;
  std::size_t max_segs = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    LaneView& v = lanes[i];
    v.ops = &lanes_[first + i];
    std::uint32_t beg = 0;
    for (std::uint32_t j = 0; j < v.ops->size(); ++j) {
      if ((*v.ops)[j].kind == OpKind::kBranch) {
        v.segs.emplace_back(beg, j);
        v.outcomes.push_back((*v.ops)[j].taken);
        beg = j + 1;
      }
    }
    v.segs.emplace_back(beg, static_cast<std::uint32_t>(v.ops->size()));
    stats_.lane_ops += v.ops->size();
    if (!v.ops->empty()) any = true;
    max_segs = std::max(max_segs, v.segs.size());
  }
  if (!any) return;
  ++stats_.warps;

  // Scratch reused across instruction slots.
  std::vector<std::uint64_t> sectors;
  std::vector<std::uint64_t> words;

  for (std::size_t seg = 0; seg < max_segs; ++seg) {
    // Lanes participating in this segment, grouped by the outcome of the
    // branch that started it (segment 0 has a single group: the full mask).
    std::vector<std::uint32_t> groups[2];
    if (seg == 0) {
      for (std::uint32_t i = 0; i < count; ++i) groups[0].push_back(i);
    } else {
      for (std::uint32_t i = 0; i < count; ++i)
        if (lanes[i].outcomes.size() >= seg)
          groups[lanes[i].outcomes[seg - 1] ? 0 : 1].push_back(i);
      const bool taken = !groups[0].empty();
      const bool fell = !groups[1].empty();
      if (taken || fell) {
        ++stats_.branches;
        // The branch instruction issues once per outcome group it has to
        // steer; a divergent branch also counts toward the divergence rate.
        stats_.issue_slots += (taken && fell) ? 2 : 1;
        if (taken && fell) ++stats_.divergent_branches;
      }
    }

    for (const auto& group : groups) {
      if (group.empty()) continue;
      std::uint32_t slots = 0;
      for (const std::uint32_t i : group)
        if (lanes[i].segs.size() > seg)
          slots = std::max(slots, lanes[i].segs[seg].second -
                                      lanes[i].segs[seg].first);
      stats_.issue_slots += slots;

      for (std::uint32_t k = 0; k < slots; ++k) {
        // One warp-level instruction: the ops the group's lanes recorded at
        // the same position.  Memory ops coalesce / conflict per kind.
        std::uint32_t n_gld = 0, n_gst = 0, n_shared = 0;
        sectors.clear();
        std::vector<std::uint64_t> st_sectors;
        words.clear();
        double bytes = 0.0;
        for (const std::uint32_t i : group) {
          const LaneView& v = lanes[i];
          if (v.segs.size() <= seg) continue;
          const auto [beg, end] = v.segs[seg];
          if (beg + k >= end) continue;
          const Op& op = (*v.ops)[beg + k];
          switch (op.kind) {
            case OpKind::kGlobalLoad:
            case OpKind::kGlobalStore: {
              const bool store = op.kind == OpKind::kGlobalStore;
              if (store)
                ++n_gst;
              else
                ++n_gld;
              bytes += op.bytes;
              auto& out = store ? st_sectors : sectors;
              const std::uint64_t last =
                  (op.addr + (op.bytes == 0 ? 0 : op.bytes - 1)) /
                  WarpStats::kSectorBytes;
              for (std::uint64_t s = op.addr / WarpStats::kSectorBytes;
                   s <= last; ++s)
                out.push_back(s);
              break;
            }
            case OpKind::kShared: {
              ++n_shared;
              const std::uint64_t last =
                  (op.addr + (op.bytes == 0 ? 0 : op.bytes - 1)) /
                  WarpStats::kBankWidthBytes;
              for (std::uint64_t w = op.addr / WarpStats::kBankWidthBytes;
                   w <= last; ++w)
                words.push_back(w);
              break;
            }
            case OpKind::kFlop:
            case OpKind::kBranch:
              break;
          }
        }
        stats_.api_bytes += bytes;
        const auto distinct = [](std::vector<std::uint64_t>& v) {
          std::sort(v.begin(), v.end());
          return static_cast<std::uint64_t>(
              std::unique(v.begin(), v.end()) - v.begin());
        };
        if (n_gld > 0) {
          ++stats_.gld_requests;
          stats_.gld_transactions += distinct(sectors);
        }
        if (n_gst > 0) {
          ++stats_.gst_requests;
          stats_.gst_transactions += distinct(st_sectors);
        }
        if (n_shared > 0) {
          ++stats_.shared_requests;
          // N-way conflict: N distinct 4B words mapped to one bank replay
          // the instruction N-1 times; a broadcast (same word) is free.
          std::sort(words.begin(), words.end());
          words.erase(std::unique(words.begin(), words.end()), words.end());
          std::uint32_t per_bank[WarpStats::kBankCount] = {};
          std::uint32_t degree = 1;
          for (const std::uint64_t w : words) {
            const std::uint32_t b =
                static_cast<std::uint32_t>(w % WarpStats::kBankCount);
            degree = std::max(degree, ++per_bank[b]);
          }
          stats_.shared_replays += degree - 1;
        }
      }
    }
  }
}

}  // namespace sagesim::gpu
