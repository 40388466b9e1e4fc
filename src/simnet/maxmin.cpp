#include "simnet/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "simcore/check.hpp"

namespace gridsim::net::maxmin {

void BipartiteIndex::add(FlowState* f) {
  f->link_pos.resize(f->links.size());
  for (std::size_t i = 0; i < f->links.size(); ++i) {
    auto& list = flows_on_[static_cast<std::size_t>(f->links[i])];
    f->link_pos[i] = static_cast<std::uint32_t>(list.size());
    list.push_back(f);
  }
}

void BipartiteIndex::remove(FlowState* f) {
  for (std::size_t i = 0; i < f->links.size(); ++i) {
    const LinkId l = f->links[i];
    auto& list = flows_on_[static_cast<std::size_t>(l)];
    const std::uint32_t pos = f->link_pos[i];
    GRIDSIM_DCHECK(pos < list.size() && list[pos] == f,
                   "BipartiteIndex: corrupt back-reference on link %d", l);
    const std::uint32_t tail = static_cast<std::uint32_t>(list.size()) - 1;
    if (pos != tail) {
      FlowState* moved = list[tail];
      list[pos] = moved;
      // Repoint the moved flow's back-reference for *this* link. Routes
      // never repeat a link, so exactly one entry matches.
      for (std::size_t j = 0; j < moved->links.size(); ++j) {
        if (moved->links[j] == l && moved->link_pos[j] == tail) {
          moved->link_pos[j] = pos;
          break;
        }
      }
    }
    list.pop_back();
  }
  f->link_pos.clear();
}

void Solver::ensure_links(std::size_t n) {
  if (link_mark_.size() < n) {
    link_mark_.resize(n, 0);
    link_slot_.resize(n, 0);
  }
}

void Solver::collect_component(const BipartiteIndex& index,
                               const std::vector<LinkId>& seed_links,
                               FlowState* seed_flow) {
  ++epoch_;
  index_ = &index;
  comp_flows_.clear();
  holes_ = 0;
  comp_links_.clear();
  bfs_stack_.clear();

  const auto visit_link = [this](LinkId l) {
    auto& mark = link_mark_[static_cast<std::size_t>(l)];
    if (mark == epoch_) return;
    mark = epoch_;
    comp_links_.push_back(l);
    bfs_stack_.push_back(l);
  };
  const auto visit_flow = [this, &visit_link](FlowState* f) {
    if (f->mark == epoch_) return;
    f->mark = epoch_;
    comp_flows_.push_back(f);
    for (LinkId l : f->links) visit_link(l);
  };

  if (seed_flow != nullptr) visit_flow(seed_flow);
  for (LinkId l : seed_links) visit_link(l);
  while (!bfs_stack_.empty()) {
    const LinkId l = bfs_stack_.back();
    bfs_stack_.pop_back();
    for (FlowState* f : index.flows_on(l)) visit_flow(f);
  }

  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [](const FlowState* a, const FlowState* b) {
              return a->order < b->order;
            });
  for (std::size_t i = 0; i < comp_flows_.size(); ++i)
    comp_flows_[i]->comp_pos = static_cast<std::uint32_t>(i);

  stats_.peak_component_flows =
      std::max(stats_.peak_component_flows, comp_flows_.size());
  stats_.peak_component_links =
      std::max(stats_.peak_component_links, comp_links_.size());
}

void Solver::remove_from_component(FlowState* f) {
  if (!in_component(f) || comp_flows_[f->comp_pos] != f) return;
  comp_flows_[f->comp_pos] = nullptr;
  f->frozen = true;  // skipped by a bottleneck walk if still indexed
  ++holes_;
}

void Solver::solve_uncontended(FlowState& f,
                               const std::vector<double>& capacity) {
  // One flow, no sharing: its fair share is the tightest crossed capacity,
  // clipped by its cap. The arithmetic mirrors the general loop exactly —
  // share = residual / 1 per link, cap freeze wins ties, slack = residual
  // after subtracting the frozen rate — so the result is bit-identical.
  double share = std::numeric_limits<double>::infinity();
  for (LinkId l : f.links)
    share = std::min(
        share, std::max(0.0, capacity[static_cast<std::size_t>(l)]) / 1);
  f.rate = f.rate_cap <= share ? f.rate_cap : share;
  double slack = std::numeric_limits<double>::infinity();
  for (LinkId l : f.links)
    slack = std::min(
        slack,
        std::max(0.0, capacity[static_cast<std::size_t>(l)] - f.rate));
  if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
  f.achievable = f.rate + slack;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The reference scan's share expression, +inf where the scan can never
/// pick the link (no unfrozen flow).
double link_share(double residual, int nflows) {
  if (nflows <= 0) return kInf;
  return std::max(0.0, residual) / nflows;
}

}  // namespace

void Solver::freeze(FlowState& f, double rate) {
  f.rate = rate;
  f.frozen = true;
  --unfrozen_;
  for (LinkId l : f.links) {
    const std::uint32_t i = link_slot_[static_cast<std::size_t>(l)];
    residual_[i] -= rate;
    --nflows_[i];
    if (touched_[i] == 0) {
      touched_[i] = 1;
      touched_links_.push_back(i);
    }
  }
}

void Solver::rekey_touched() {
  for (const std::uint32_t i : touched_links_) {
    touched_[i] = 0;
    const double share = link_share(residual_[i], nflows_[i]);
    if (share == share_[i]) continue;  // its entry is still current
    share_[i] = share;
    if (share < kInf) {
      link_heap_.push_back(LinkKey{share, comp_links_[i], i});
      std::push_heap(link_heap_.begin(), link_heap_.end(), LinkKey::later);
    }
  }
  touched_links_.clear();
}

void Solver::solve_component(const std::vector<double>& capacity) {
  ++stats_.solves;
  if (comp_flows_.size() - holes_ <= 1) {
    if (holes_ != 0) {
      comp_flows_.erase(
          std::remove(comp_flows_.begin(), comp_flows_.end(), nullptr),
          comp_flows_.end());
      holes_ = 0;
    }
    if (comp_flows_.empty()) return;
    ++stats_.fast_solves;
    solve_uncontended(*comp_flows_.front(), capacity);
    return;
  }

  const std::size_t nl = comp_links_.size();
  residual_.resize(nl);
  nflows_.resize(nl);
  share_.resize(nl);
  touched_.resize(nl);
  for (std::size_t i = 0; i < nl; ++i) {
    const auto l = static_cast<std::size_t>(comp_links_[i]);
    link_slot_[l] = static_cast<std::uint32_t>(i);
    residual_[i] = capacity[l];
    nflows_[i] = 0;
  }

  // Reset every flow, squeezing out remove_from_component()'s holes in the
  // same pass (comp_flows_ keeps its order).
  cap_heap_.clear();
  std::size_t live = 0;
  for (FlowState* f : comp_flows_) {
    if (f == nullptr) continue;
    comp_flows_[live++] = f;
    f->rate = 0;
    f->frozen = false;
    if (f->rate_cap < kInf) cap_heap_.push_back(CapKey{f->rate_cap, f->order, f});
    for (LinkId l : f->links)
      ++nflows_[link_slot_[static_cast<std::size_t>(l)]];
  }
  comp_flows_.resize(live);
  holes_ = 0;
  unfrozen_ = live;
  std::make_heap(cap_heap_.begin(), cap_heap_.end(), CapKey::later);

  link_heap_.clear();
  for (std::size_t i = 0; i < nl; ++i) {
    share_[i] = link_share(residual_[i], nflows_[i]);
    if (share_[i] < kInf)
      link_heap_.push_back(
          LinkKey{share_[i], comp_links_[i], static_cast<std::uint32_t>(i)});
  }
  std::make_heap(link_heap_.begin(), link_heap_.end(), LinkKey::later);

  // Progressive filling, restricted to the component: repeatedly freeze at
  // the tightest constraint — a link's equal share or an unfrozen flow's
  // cap, the cap winning ties — exactly as solve_global_reference() does.
  while (unfrozen_ > 0) {
    while (!link_heap_.empty() &&
           link_heap_.front().share != share_[link_heap_.front().slot]) {
      std::pop_heap(link_heap_.begin(), link_heap_.end(), LinkKey::later);
      link_heap_.pop_back();
    }
    while (!cap_heap_.empty() && cap_heap_.front().flow->frozen) {
      std::pop_heap(cap_heap_.begin(), cap_heap_.end(), CapKey::later);
      cap_heap_.pop_back();
    }
    const double best_link_share =
        link_heap_.empty() ? kInf : link_heap_.front().share;

    if (!cap_heap_.empty() && cap_heap_.front().cap <= best_link_share) {
      freeze(*cap_heap_.front().flow, cap_heap_.front().cap);
    } else if (!link_heap_.empty()) {
      // Freeze every unfrozen flow crossing the bottleneck. Each crossed
      // residual loses best_link_share once per such flow, whatever the
      // walk order, so the arithmetic equals the reference's.
      for (FlowState* f : index_->flows_on(link_heap_.front().link))
        if (!f->frozen) freeze(*f, best_link_share);
    } else {
      // Flows with no links (same-host loopback handled by caller), or
      // only infinite-capacity ones; give them their cap.
      for (FlowState* f : comp_flows_)
        if (!f->frozen) f->rate = f->rate_cap;
      break;
    }
    rekey_touched();
  }

  // Post-solve: achievable rate = own rate + slack at the tightest crossed
  // link (what the flow could claim if its window were unlimited).
  for (FlowState* f : comp_flows_) {
    double slack = std::numeric_limits<double>::infinity();
    for (LinkId l : f->links)
      slack = std::min(
          slack,
          std::max(0.0, residual_[link_slot_[static_cast<std::size_t>(l)]]));
    if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
    f->achievable = f->rate + slack;
  }
}

void solve_global_reference(const std::vector<FlowState*>& flows_by_order,
                            std::size_t num_links,
                            const std::vector<double>& capacity) {
  // The pre-incremental solver, verbatim: progressive-filling max-min with
  // per-flow rate caps over the whole network, O(flows) route scans
  // included. Kept as the oracle the incremental solver is differentially
  // tested against — do not "optimise" it.
  const std::size_t nl = num_links;
  std::vector<double> residual(nl);
  std::vector<int> nflows(nl, 0);
  for (std::size_t i = 0; i < nl; ++i) residual[i] = capacity[i];

  std::vector<FlowState*> unfrozen;
  unfrozen.reserve(flows_by_order.size());
  for (FlowState* f : flows_by_order) {
    f->rate = 0;
    unfrozen.push_back(f);
    for (LinkId l : f->links) ++nflows[static_cast<std::size_t>(l)];
  }

  while (!unfrozen.empty()) {
    // Tightest link share.
    double best_link_share = std::numeric_limits<double>::infinity();
    LinkId best_link = -1;
    for (std::size_t i = 0; i < nl; ++i) {
      if (nflows[i] <= 0) continue;
      const double share = std::max(0.0, residual[i]) / nflows[i];
      if (share < best_link_share) {
        best_link_share = share;
        best_link = static_cast<LinkId>(i);
      }
    }
    // Tightest flow cap.
    double best_cap = std::numeric_limits<double>::infinity();
    FlowState* capped = nullptr;
    for (FlowState* f : unfrozen) {
      if (f->rate_cap < best_cap) {
        best_cap = f->rate_cap;
        capped = f;
      }
    }

    if (capped != nullptr && best_cap <= best_link_share) {
      capped->rate = best_cap;
      for (LinkId l : capped->links) {
        residual[static_cast<std::size_t>(l)] -= best_cap;
        --nflows[static_cast<std::size_t>(l)];
      }
      unfrozen.erase(std::find(unfrozen.begin(), unfrozen.end(), capped));
    } else if (best_link >= 0) {
      // Freeze every unfrozen flow crossing the bottleneck link.
      std::vector<FlowState*> still;
      still.reserve(unfrozen.size());
      for (FlowState* f : unfrozen) {
        const bool on_bottleneck =
            std::find(f->links.begin(), f->links.end(), best_link) !=
            f->links.end();
        if (on_bottleneck) {
          f->rate = best_link_share;
          for (LinkId l : f->links) {
            residual[static_cast<std::size_t>(l)] -= best_link_share;
            --nflows[static_cast<std::size_t>(l)];
          }
        } else {
          still.push_back(f);
        }
      }
      unfrozen.swap(still);
    } else {
      for (FlowState* f : unfrozen) f->rate = f->rate_cap;
      unfrozen.clear();
    }
  }

  for (FlowState* f : flows_by_order) {
    double slack = std::numeric_limits<double>::infinity();
    for (LinkId l : f->links)
      slack = std::min(slack, std::max(0.0, residual[static_cast<std::size_t>(l)]));
    if (!std::isfinite(slack)) slack = 0.0;  // linkless flow
    f->achievable = f->rate + slack;
  }
}

}  // namespace gridsim::net::maxmin
