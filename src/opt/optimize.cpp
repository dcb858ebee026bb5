#include "opt/optimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>

#include "bdd/isop.hpp"
#include "prob/probability.hpp"
#include "sop/algebra.hpp"

namespace minpower {

namespace {

/// A literal in network-global terms.
using GlobalLit = std::pair<NodeId, bool>;  // (driver, positive phase)

/// Remap `cover` (over `from` fanins) onto the variable space of `to`
/// fanins. Returns nullopt if some fanin of `from` is absent in `to`.
std::optional<Cover> remap_onto(const Cover& cover,
                                const std::vector<NodeId>& from,
                                const std::vector<NodeId>& to) {
  std::vector<int> new_var(kMaxCubeVars, -1);
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto it = std::find(to.begin(), to.end(), from[i]);
    if (it == to.end()) return std::nullopt;
    new_var[i] = static_cast<int>(it - to.begin());
  }
  // remap() requires a mapping for every *mentioned* variable only.
  const std::uint64_t sup = cover.support();
  for (int v = 0; v < kMaxCubeVars; ++v)
    if (((sup >> v) & 1) && new_var[static_cast<std::size_t>(v)] < 0)
      return std::nullopt;
  return cover.remap(new_var);
}

/// Substitute node `sub` (a fanin of `host`) by its function, producing the
/// collapsed cover and fanin list. Returns false when limits would be hit.
bool collapse_fanin(const Network& net, const Node& host, NodeId sub,
                    std::vector<NodeId>& new_fanins, Cover& new_cover) {
  const Node& s = net.node(sub);
  MP_CHECK(s.is_internal());
  // Merged fanin list: host's fanins minus sub, plus sub's fanins.
  new_fanins.clear();
  for (NodeId f : host.fanins)
    if (f != sub) new_fanins.push_back(f);
  for (NodeId f : s.fanins)
    if (std::find(new_fanins.begin(), new_fanins.end(), f) == new_fanins.end())
      new_fanins.push_back(f);
  if (new_fanins.size() > kMaxCubeVars) return false;

  const auto v_of = [&](NodeId f) {
    return static_cast<int>(
        std::find(new_fanins.begin(), new_fanins.end(), f) -
        new_fanins.begin());
  };
  // sub's function and complement in the merged space.
  std::vector<int> sub_map(kMaxCubeVars, -1);
  for (std::size_t i = 0; i < s.fanins.size(); ++i)
    sub_map[i] = v_of(s.fanins[i]);
  const Cover sub_pos = s.cover.remap(sub_map);
  if (std::popcount(s.cover.support()) > 20) return false;  // complement cap
  const Cover sub_neg = s.cover.complement().remap(sub_map);

  // `sub` may occupy several fanin slots (sweep's buffer collapse aliases
  // slots); every occurrence must be substituted.
  std::vector<int> host_map(kMaxCubeVars, -1);
  std::vector<int> sub_slots;
  for (std::size_t i = 0; i < host.fanins.size(); ++i) {
    if (host.fanins[i] == sub) {
      sub_slots.push_back(static_cast<int>(i));
      host_map[i] = 0;  // never used: the slot is dropped below
    } else {
      host_map[i] = v_of(host.fanins[i]);
    }
  }

  new_cover = Cover::zero();
  for (const Cube& c : host.cover.cubes()) {
    Cube rest = c;
    bool need_pos = false;
    bool need_neg = false;
    for (int slot : sub_slots) {
      need_pos |= c.has_pos(slot);
      need_neg |= c.has_neg(slot);
      rest = rest.drop(slot);
    }
    Cover remapped = Cover{{rest}}.remap(host_map);
    if (need_pos) remapped = Cover::conjunction(remapped, sub_pos);
    if (need_neg) remapped = Cover::conjunction(remapped, sub_neg);
    new_cover = Cover::disjunction(new_cover, remapped);
  }
  if (new_cover.num_cubes() > 256) return false;  // keep nodes simple
  return true;
}

}  // namespace

int eliminate(Network& net, int value_threshold) {
  int eliminated = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& n = net.node(id);
      if (!n.is_internal()) continue;
      if (net.po_refs(id) > 0) continue;  // keep PO drivers
      if (n.fanouts.empty()) continue;    // sweep's job

      // Compute the actual substitutions, then decide by the realized
      // value: literals added at the readers minus the literals the node
      // itself retires (the SIS eliminate criterion with exact costs — the
      // (fanouts−1)(lits−1)−1 formula over-collapses when substitution
      // makes covers blow up).
      struct Patch {
        NodeId reader;
        std::vector<NodeId> fanins;
        Cover cover;
      };
      std::vector<Patch> patches;
      bool ok = true;
      std::vector<NodeId> readers = n.fanouts;
      std::sort(readers.begin(), readers.end());
      readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
      int value = -n.cover.num_literals();
      for (NodeId r : readers) {
        Patch p;
        p.reader = r;
        if (!collapse_fanin(net, net.node(r), id, p.fanins, p.cover)) {
          ok = false;
          break;
        }
        value += p.cover.num_literals() -
                 net.node(r).cover.num_literals();
        patches.push_back(std::move(p));
      }
      if (!ok || value > value_threshold) continue;

      for (Patch& p : patches) {
        // Rebuild the reader in place.
        Node& r = net.node(p.reader);
        // Detach old fanins.
        std::vector<NodeId> old = r.fanins;
        for (NodeId f : old) {
          auto& fo = net.node(f).fanouts;
          fo.erase(std::find(fo.begin(), fo.end(), p.reader));
        }
        r.fanins = p.fanins;
        r.cover = std::move(p.cover);
        for (NodeId f : r.fanins) net.node(f).fanouts.push_back(p.reader);
      }
      if (net.fanout_count(id) == 0) net.remove_node(id);
      ++eliminated;
      changed = true;
    }
  }
  net.sweep();
  return eliminated;
}

int extract_cube_divisors(Network& net, int max_rounds) {
  int created = 0;
  for (int round = 0; round < max_rounds; ++round) {
    // Count occurrences of every 2-literal global cube across all cubes.
    std::map<std::pair<GlobalLit, GlobalLit>, int> count;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& n = net.node(id);
      if (!n.is_internal()) continue;
      for (const Cube& c : n.cover.cubes()) {
        std::vector<GlobalLit> lits;
        for (std::size_t v = 0; v < n.fanins.size(); ++v) {
          if (c.has_pos(static_cast<int>(v))) lits.emplace_back(n.fanins[v], true);
          if (c.has_neg(static_cast<int>(v))) lits.emplace_back(n.fanins[v], false);
        }
        std::sort(lits.begin(), lits.end());
        for (std::size_t i = 0; i < lits.size(); ++i)
          for (std::size_t j = i + 1; j < lits.size(); ++j)
            ++count[{lits[i], lits[j]}];
      }
    }
    auto best = count.end();
    for (auto it = count.begin(); it != count.end(); ++it)
      if (best == count.end() || it->second > best->second) best = it;
    if (best == count.end() || best->second < 3) return created;

    const auto [la, lb] = best->first;
    // New divisor node d = la · lb.
    Cube cube = Cube::literal(0, la.second) & Cube::literal(1, lb.second);
    const NodeId d = net.add_node({la.first, lb.first}, Cover{{cube}},
                                  net.fresh_name("fx"));
    // Rewrite every cube containing both literals.
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      Node& n = net.node(id);
      if (!n.is_internal() || id == d) continue;
      const auto ia = std::find(n.fanins.begin(), n.fanins.end(), la.first);
      const auto ib = std::find(n.fanins.begin(), n.fanins.end(), lb.first);
      if (ia == n.fanins.end() || ib == n.fanins.end()) continue;
      const int va = static_cast<int>(ia - n.fanins.begin());
      const int vb = static_cast<int>(ib - n.fanins.begin());
      auto has = [&](const Cube& c, int v, bool pos) {
        return pos ? c.has_pos(v) : c.has_neg(v);
      };
      bool any = false;
      for (const Cube& c : n.cover.cubes())
        if (has(c, va, la.second) && has(c, vb, lb.second)) any = true;
      if (!any) continue;
      if (n.fanins.size() + 1 > kMaxCubeVars) continue;

      // Add d as a fanin and rewrite.
      std::vector<NodeId> old_fanins = n.fanins;
      n.fanins.push_back(d);
      net.node(d).fanouts.push_back(id);
      const int vd = static_cast<int>(n.fanins.size()) - 1;
      Cover rewritten;
      for (Cube c : n.cover.cubes()) {
        if (has(c, va, la.second) && has(c, vb, lb.second)) {
          c = c.drop(va).drop(vb) & Cube::literal(vd, true);
        }
        rewritten.add(c);
      }
      rewritten.normalize();
      // Detach fanins the rewritten cover no longer mentions.
      n.cover = rewritten;
    }
    ++created;
  }
  net.sweep();
  return created;
}

namespace {

/// Global signature of a cover over a node's fanins: cube list of sorted
/// global literals; used to match kernels across nodes.
using GlobalCover = std::vector<std::vector<GlobalLit>>;

GlobalCover global_signature(const Cover& cover,
                             const std::vector<NodeId>& fanins) {
  GlobalCover sig;
  for (const Cube& c : cover.cubes()) {
    std::vector<GlobalLit> lits;
    for (std::size_t v = 0; v < fanins.size(); ++v) {
      if (c.has_pos(static_cast<int>(v))) lits.emplace_back(fanins[v], true);
      if (c.has_neg(static_cast<int>(v))) lits.emplace_back(fanins[v], false);
    }
    std::sort(lits.begin(), lits.end());
    sig.push_back(std::move(lits));
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

}  // namespace

int extract_kernel_divisors(Network& net, int max_rounds) {
  int created = 0;
  for (int round = 0; round < max_rounds; ++round) {
    // Gather kernels of every node, keyed by global signature.
    std::map<GlobalCover, std::vector<NodeId>> by_sig;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& n = net.node(id);
      if (!n.is_internal() || n.cover.num_cubes() < 2) continue;
      for (const Kernel& k : kernels(n.cover, 64)) {
        if (k.kernel.num_cubes() < 2) continue;
        by_sig[global_signature(k.kernel, n.fanins)].push_back(id);
      }
    }
    // Best kernel by (occurrences−1)·(literals−1) − literals gain proxy.
    const GlobalCover* best = nullptr;
    int best_gain = 0;
    for (const auto& [sig, ids] : by_sig) {
      std::vector<NodeId> uniq = ids;
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      int lits = 0;
      for (const auto& cube : sig) lits += static_cast<int>(cube.size());
      const int m = static_cast<int>(uniq.size());
      // Extracting a kernel with `lits` literals shared by m nodes replaces
      // its expansion in m−1 of them; the divisor node itself costs `lits`.
      const int gain = (m - 1) * lits - 1;
      if (m >= 2 && gain > best_gain) {
        best_gain = gain;
        best = &sig;
      }
    }
    if (best == nullptr) return created;

    // Materialize the kernel as a node.
    std::vector<NodeId> k_fanins;
    for (const auto& cube : *best)
      for (const auto& [nid, phase] : cube) {
        (void)phase;
        if (std::find(k_fanins.begin(), k_fanins.end(), nid) == k_fanins.end())
          k_fanins.push_back(nid);
      }
    if (k_fanins.size() > kMaxCubeVars) return created;
    Cover k_cover;
    for (const auto& cube : *best) {
      Cube c;
      for (const auto& [nid, phase] : cube) {
        const int v = static_cast<int>(
            std::find(k_fanins.begin(), k_fanins.end(), nid) -
            k_fanins.begin());
        c = c & Cube::literal(v, phase);
      }
      k_cover.add(c);
    }
    k_cover.normalize();
    const GlobalCover want = *best;  // copy before the map dies below
    const NodeId knode =
        net.add_node(k_fanins, k_cover, net.fresh_name("kx"));

    // Divide every node by the kernel and rewrite on success.
    int rewrites = 0;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      Node& n = net.node(id);
      if (!n.is_internal() || id == knode) continue;
      // Kernel must be expressible over n's fanins.
      std::vector<int> to_local(k_fanins.size(), -1);
      bool ok = true;
      for (std::size_t i = 0; i < k_fanins.size() && ok; ++i) {
        const auto it =
            std::find(n.fanins.begin(), n.fanins.end(), k_fanins[i]);
        if (it == n.fanins.end()) ok = false;
        else to_local[i] = static_cast<int>(it - n.fanins.begin());
      }
      if (!ok) continue;
      const auto opt_local = remap_onto(
          k_cover, k_fanins, n.fanins);
      if (!opt_local) continue;
      const DivisionResult div = algebraic_divide(n.cover, *opt_local);
      if (div.quotient.empty()) continue;
      if (n.fanins.size() + 1 > kMaxCubeVars) continue;

      std::vector<NodeId> fanins = n.fanins;
      fanins.push_back(knode);
      const int vk = static_cast<int>(fanins.size()) - 1;
      Cover rewritten = Cover::conjunction(
          div.quotient, Cover::literal(vk, true));
      rewritten = Cover::disjunction(rewritten, div.remainder);
      // Only accept when it actually shrinks the node.
      if (rewritten.num_literals() >= n.cover.num_literals()) continue;
      for (NodeId f : n.fanins) {
        auto& fo = net.node(f).fanouts;
        fo.erase(std::find(fo.begin(), fo.end(), id));
      }
      n.fanins = fanins;
      n.cover = rewritten;
      for (NodeId f : n.fanins) net.node(f).fanouts.push_back(id);
      ++rewrites;
    }
    if (rewrites < 2) {
      // Not actually shared; undo by sweeping the orphan (or collapse back).
      if (net.fanout_count(knode) == 0) {
        net.remove_node(knode);
        return created;
      }
    }
    ++created;
  }
  net.sweep();
  return created;
}

int quick_decompose(Network& net, int max_cubes) {
  int split = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (!net.node(id).is_internal()) continue;
      if (static_cast<int>(net.node(id).cover.num_cubes()) <= max_cubes)
        continue;
      // Copy before add_node: growing the node table invalidates references.
      const std::vector<NodeId> fanins = net.node(id).fanins;
      const std::vector<Cube>& cubes = net.node(id).cover.cubes();
      // OR-split: first half of the cubes into a fresh node.
      const std::size_t half = cubes.size() / 2;
      Cover first(std::vector<Cube>(
          cubes.begin(), cubes.begin() + static_cast<std::ptrdiff_t>(half)));
      Cover second(std::vector<Cube>(
          cubes.begin() + static_cast<std::ptrdiff_t>(half), cubes.end()));
      const NodeId a = net.add_node(fanins, first, net.fresh_name("qd"));
      const NodeId b = net.add_node(fanins, second, net.fresh_name("qd"));
      // n becomes a + b.
      Node& n2 = net.node(id);  // re-fetch: add_node may reallocate
      for (NodeId f : std::vector<NodeId>(n2.fanins)) {
        auto& fo = net.node(f).fanouts;
        fo.erase(std::find(fo.begin(), fo.end(), id));
      }
      n2.fanins = {a, b};
      n2.cover = or2_cover();
      net.node(a).fanouts.push_back(id);
      net.node(b).fanouts.push_back(id);
      ++split;
      changed = true;
    }
  }
  net.sweep();
  return split;
}

int extract_cube_divisors_power(Network& net,
                                const PowerOptOptions& options) {
  int created = 0;
  for (int round = 0; round < options.max_rounds; ++round) {
    // Exact probabilities of the current network (they change as divisors
    // are introduced, so recompute per round).
    const std::vector<double> prob =
        signal_probabilities(net, options.pi_prob1);

    // Count occurrences of every 2-literal global cube and compute its
    // output probability from the (independent-fanin) product.
    std::map<std::pair<GlobalLit, GlobalLit>, int> count;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& n = net.node(id);
      if (!n.is_internal()) continue;
      for (const Cube& c : n.cover.cubes()) {
        std::vector<GlobalLit> lits;
        for (std::size_t v = 0; v < n.fanins.size(); ++v) {
          if (c.has_pos(static_cast<int>(v))) lits.emplace_back(n.fanins[v], true);
          if (c.has_neg(static_cast<int>(v))) lits.emplace_back(n.fanins[v], false);
        }
        std::sort(lits.begin(), lits.end());
        for (std::size_t i = 0; i < lits.size(); ++i)
          for (std::size_t j = i + 1; j < lits.size(); ++j)
            ++count[{lits[i], lits[j]}];
      }
    }

    auto lit_prob = [&](const GlobalLit& l) {
      const double p = prob[static_cast<std::size_t>(l.first)];
      return l.second ? p : 1.0 - p;
    };
    const std::pair<GlobalLit, GlobalLit>* best = nullptr;
    double best_score = 0.0;
    for (const auto& [pair, m] : count) {
      if (m < 3) continue;
      const double pd = lit_prob(pair.first) * lit_prob(pair.second);
      const double score = static_cast<double>(m - 2) -
                           options.beta * switching_activity(pd, options.style);
      if (best == nullptr || score > best_score) {
        best = &pair;
        best_score = score;
      }
    }
    if (best == nullptr || best_score <= 0.0) return created;

    const auto [la, lb] = *best;
    const Cube cube = Cube::literal(0, la.second) & Cube::literal(1, lb.second);
    const NodeId d = net.add_node({la.first, lb.first}, Cover{{cube}},
                                  net.fresh_name("px"));
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      Node& n = net.node(id);
      if (!n.is_internal() || id == d) continue;
      const auto ia = std::find(n.fanins.begin(), n.fanins.end(), la.first);
      const auto ib = std::find(n.fanins.begin(), n.fanins.end(), lb.first);
      if (ia == n.fanins.end() || ib == n.fanins.end()) continue;
      const int va = static_cast<int>(ia - n.fanins.begin());
      const int vb = static_cast<int>(ib - n.fanins.begin());
      auto has = [&](const Cube& c, int v, bool pos) {
        return pos ? c.has_pos(v) : c.has_neg(v);
      };
      bool any = false;
      for (const Cube& c : n.cover.cubes())
        if (has(c, va, la.second) && has(c, vb, lb.second)) any = true;
      if (!any) continue;
      if (n.fanins.size() + 1 > kMaxCubeVars) continue;
      n.fanins.push_back(d);
      net.node(d).fanouts.push_back(id);
      const int vd = static_cast<int>(n.fanins.size()) - 1;
      Cover rewritten;
      for (Cube c : n.cover.cubes()) {
        if (has(c, va, la.second) && has(c, vb, lb.second))
          c = c.drop(va).drop(vb) & Cube::literal(vd, true);
        rewritten.add(c);
      }
      rewritten.normalize();
      n.cover = rewritten;
    }
    ++created;
  }
  net.sweep();
  return created;
}

int simplify_nodes(Network& net) {
  int improved = 0;
  BddManager mgr;
  std::vector<BddRef> vars;  // cover variable i → BDD variable i; reused
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    Node& n = net.node(id);
    if (!n.is_internal()) continue;
    if (n.cover.num_cubes() < 2) continue;  // nothing to gain
    // Local BDD over the node's own variables.
    vars.clear();
    for (std::size_t v = 0; v < n.fanins.size(); ++v)
      vars.push_back(mgr.var(static_cast<int>(v)));
    Cover simplified = isop(mgr, compose_cover(mgr, n.cover, vars));
    simplified.normalize();
    if (simplified.num_literals() < n.cover.num_literals()) {
      n.cover = std::move(simplified);
      ++improved;
    }
  }
  net.sweep();  // the simplified cover may have dropped fanins
  return improved;
}

OptStats rugged_lite_power(Network& net, const PowerOptOptions& options) {
  OptStats stats;
  stats.swept += net.sweep();
  stats.eliminated += eliminate(net, 0);
  stats.cube_divisors += extract_cube_divisors_power(net, options);
  stats.kernel_divisors += extract_kernel_divisors(net);
  stats.eliminated += eliminate(net, 0);
  stats.simplified += simplify_nodes(net);
  stats.split_nodes += quick_decompose(net);
  stats.swept += net.sweep();
  net.check();
  return stats;
}

OptStats rugged_lite(Network& net) {
  OptStats stats;
  stats.swept += net.sweep();
  // Threshold 6 over SOP literals approximates SIS's eliminate over factored
  // literals (a factored form is smaller than its SOP, so the SOP delta of a
  // worthwhile collapse is positive).
  stats.eliminated += eliminate(net, 6);
  stats.cube_divisors += extract_cube_divisors(net);
  stats.kernel_divisors += extract_kernel_divisors(net);
  stats.eliminated += eliminate(net, 6);
  stats.simplified += simplify_nodes(net);
  stats.split_nodes += quick_decompose(net);
  stats.swept += net.sweep();
  net.check();
  return stats;
}

}  // namespace minpower
