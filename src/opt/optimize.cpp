#include "opt/optimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "bdd/isop.hpp"
#include "prob/probability.hpp"
#include "sop/algebra.hpp"
#include "trace/trace.hpp"

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

/// Complements of node covers, by cover content. A candidate's complement
/// serves all of its readers and its later re-evaluations, and many
/// candidates share a cover (the XOR steps of a parity chain, an inverter).
class ComplementMemo {
 public:
  const Cover& of(const Cover& f) {
    auto it = memo_.find(f);
    if (it == memo_.end()) it = memo_.emplace(f, f.complement()).first;
    return it->second;
  }

 private:
  struct Hash {
    std::size_t operator()(const Cover& f) const {
      std::size_t h = f.num_cubes();
      for (const Cube& c : f.cubes()) h = h * 31 + CubeHash{}(c);
      return h;
    }
  };
  std::unordered_map<Cover, Cover, Hash> memo_;
};

/// Substitute node `sub` (a fanin of `host`) by its function, producing the
/// collapsed cover and fanin list. Returns false when limits would be hit.
/// sub's complement is looked up only when a host cube reads sub's negative
/// literal.
bool collapse_fanin(const Network& net, const Node& host, NodeId sub,
                    ComplementMemo& complements,
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
  // sub's function in the merged space; its complement only when needed.
  std::vector<int> sub_map(kMaxCubeVars, -1);
  for (std::size_t i = 0; i < s.fanins.size(); ++i)
    sub_map[i] = v_of(s.fanins[i]);
  const Cover sub_pos = s.cover.remap(sub_map);

  // `sub` may occupy several fanin slots (sweep's buffer collapse aliases
  // slots); every occurrence must be substituted.
  std::uint64_t sub_slots = 0;
  std::vector<int> host_map(kMaxCubeVars, -1);
  for (std::size_t i = 0; i < host.fanins.size(); ++i) {
    if (host.fanins[i] == sub)
      sub_slots |= std::uint64_t{1} << i;
    else
      host_map[i] = v_of(host.fanins[i]);
  }
  Cover sub_neg;
  for (const Cube& c : host.cover.cubes())
    if (c.neg() & sub_slots) {
      sub_neg = complements.of(s.cover).remap(sub_map);
      break;
    }

  // Every host cube becomes (rest of the cube)·sub and/or ·!sub. The pieces
  // are normalized once, together: normalize keeps the maximal cubes in
  // sorted order, so this equals OR-ing them in one by one.
  static const Cover kOne = Cover::one();
  std::vector<Cube> cubes;
  for (const Cube& c : host.cover.cubes()) {
    // The rest of the cube in the merged space; a rest that the remap makes
    // contradictory stays so through the ANDs, and normalize drops it.
    std::uint64_t rest_pos = 0;
    std::uint64_t rest_neg = 0;
    for (std::uint64_t m = c.support() & ~sub_slots; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const std::uint64_t bit = std::uint64_t{1}
                                << host_map[static_cast<std::size_t>(v)];
      if (c.has_pos(v)) rest_pos |= bit;
      if (c.has_neg(v)) rest_neg |= bit;
    }
    const Cube rest{rest_pos, rest_neg};
    const Cover& pos = (c.pos() & sub_slots) ? sub_pos : kOne;
    const Cover& neg = (c.neg() & sub_slots) ? sub_neg : kOne;
    for (const Cube& p : pos.cubes())
      for (const Cube& q : neg.cubes()) cubes.push_back(rest & p & q);
  }
  new_cover = Cover(std::move(cubes));
  new_cover.normalize();
  if (new_cover.num_cubes() > 256) return false;  // keep nodes simple
  return true;
}

}  // namespace

int eliminate(Network& net, int value_threshold) {
  int eliminated = 0;
  // A node's verdict depends only on its own cover, fanins and readers, and
  // on those readers' covers and fanins. A node is evaluated while dirty;
  // a rejected node turns clean until an elimination touches one of those
  // inputs, so re-evaluating it could only reject it again.
  std::vector<char> dirty(net.capacity(), 1);
  struct Patch {
    NodeId reader;
    std::vector<NodeId> fanins;
    Cover cover;
  };
  std::vector<Patch> patches;
  ComplementMemo complements;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (!dirty[static_cast<std::size_t>(id)]) continue;
      dirty[static_cast<std::size_t>(id)] = 0;
      const Node& n = net.node(id);
      if (!n.is_internal()) continue;
      if (net.po_refs(id) > 0) continue;  // keep PO drivers
      if (n.fanouts.empty()) continue;    // sweep's job
      if (std::popcount(n.cover.support()) > 20) continue;  // complement cap

      // Compute the actual substitutions, then decide by the realized
      // value: literals added at the readers minus the literals the node
      // itself retires (the SIS eliminate criterion with exact costs — the
      // (fanouts−1)(lits−1)−1 formula over-collapses when substitution
      // makes covers blow up).
      patches.clear();
      bool ok = true;
      std::vector<NodeId> readers = n.fanouts;
      std::sort(readers.begin(), readers.end());
      readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
      int value = -n.cover.num_literals();
      for (NodeId r : readers) {
        Patch p;
        p.reader = r;
        if (!collapse_fanin(net, net.node(r), id, complements, p.fanins,
                            p.cover)) {
          ok = false;
          break;
        }
        value += p.cover.num_literals() -
                 net.node(r).cover.num_literals();
        patches.push_back(std::move(p));
      }
      if (!ok || value > value_threshold) continue;

      for (NodeId f : n.fanins) dirty[static_cast<std::size_t>(f)] = 1;
      for (Patch& p : patches) {
        // Rebuild the reader in place.
        Node& r = net.node(p.reader);
        dirty[static_cast<std::size_t>(p.reader)] = 1;
        // Detach old fanins.
        for (NodeId f : r.fanins) {
          auto& fo = net.node(f).fanouts;
          fo.erase(std::find(fo.begin(), fo.end(), p.reader));
          dirty[static_cast<std::size_t>(f)] = 1;
        }
        r.fanins = std::move(p.fanins);
        r.cover = std::move(p.cover);
        for (NodeId f : r.fanins) {
          net.node(f).fanouts.push_back(p.reader);
          dirty[static_cast<std::size_t>(f)] = 1;
        }
      }
      if (net.fanout_count(id) == 0) net.remove_node(id);
      ++eliminated;
      changed = true;
    }
  }
  net.sweep();
  return eliminated;
}

namespace {

/// Two global literals a < b packed into one key. A literal packs as
/// 2·driver + phase, so key order is (GlobalLit, GlobalLit) order.
using PairKey = std::uint64_t;

std::uint32_t lit_code(NodeId driver, bool positive) {
  return (static_cast<std::uint32_t>(driver) << 1) | (positive ? 1u : 0u);
}

GlobalLit lit_of(std::uint32_t code) {
  return {static_cast<NodeId>(code >> 1), (code & 1) != 0};
}

/// Append the key of every 2-literal sub-cube of every cube of `n`.
void append_pairs(const Node& n, std::vector<PairKey>& out) {
  std::vector<std::uint32_t> lits;
  for (const Cube& c : n.cover.cubes()) {
    lits.clear();
    for (std::uint64_t m = c.support(); m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const NodeId driver = n.fanins[static_cast<std::size_t>(v)];
      if (c.has_pos(v)) lits.push_back(lit_code(driver, true));
      if (c.has_neg(v)) lits.push_back(lit_code(driver, false));
    }
    std::sort(lits.begin(), lits.end());
    for (std::size_t i = 0; i < lits.size(); ++i)
      for (std::size_t j = i + 1; j < lits.size(); ++j)
        out.push_back(PairKey{lits[i]} << 32 | lits[j]);
  }
}

/// Fewest occurrences that make a 2-literal cube worth extracting.
constexpr int kMinShares = 3;

/// Occurrence count of every 2-literal cube across the network's cubes,
/// kept up to date node by node. Pairs met at least kMinShares times are
/// also ranked by count; a rarer pair is never extracted.
class PairCounts {
 public:
  /// Add (`sign` = +1) or retire (−1) the pairs of node `n`'s cubes.
  void update(const Node& n, int sign) {
    keys_.clear();
    append_pairs(n, keys_);
    std::sort(keys_.begin(), keys_.end());
    for (std::size_t i = 0; i < keys_.size();) {
      std::size_t j = i;
      while (j < keys_.size() && keys_[j] == keys_[i]) ++j;
      bump(keys_[i], sign * static_cast<int>(j - i));
      i = j;
    }
  }

  /// The most frequent ranked pair, ties to the smallest; nullopt when no
  /// pair occurs kMinShares times.
  std::optional<PairKey> best() const {
    if (ranked_.empty()) return std::nullopt;
    return ranked_.begin()->second;
  }

 private:
  void bump(PairKey key, int delta) {
    int& c = count_[key];
    if (c >= kMinShares) ranked_.erase({-c, key});
    c += delta;
    if (c >= kMinShares)
      ranked_.insert({-c, key});
    else if (c == 0)
      count_.erase(key);
  }

  std::unordered_map<PairKey, int> count_;
  std::set<std::pair<int, PairKey>> ranked_;  // (−count, pair)
  std::vector<PairKey> keys_;
};

/// Add divisor d = la·lb and rewrite every other internal node that has a
/// cube containing both literals to read d, in ascending id order. Each
/// such node is passed to `touch` with −1 just before its rewrite and with
/// +1 just after it. Returns d.
template <class Touch>
NodeId substitute_cube_divisor(Network& net, PairKey pair, const char* prefix,
                               Touch&& touch) {
  const GlobalLit la = lit_of(static_cast<std::uint32_t>(pair >> 32));
  const GlobalLit lb = lit_of(static_cast<std::uint32_t>(pair));
  const Cube cube = Cube::literal(0, la.second) & Cube::literal(1, lb.second);
  const NodeId d = net.add_node({la.first, lb.first}, Cover{{cube}},
                                net.fresh_name(prefix));
  // Only readers of la's driver can hold the pair.
  std::vector<NodeId> readers = net.node(la.first).fanouts;
  std::sort(readers.begin(), readers.end());
  readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
  for (NodeId id : readers) {
    Node& n = net.node(id);
    if (id == d) continue;
    const auto ib = std::find(n.fanins.begin(), n.fanins.end(), lb.first);
    if (ib == n.fanins.end()) continue;
    const int va = static_cast<int>(
        std::find(n.fanins.begin(), n.fanins.end(), la.first) -
        n.fanins.begin());
    const int vb = static_cast<int>(ib - n.fanins.begin());
    const Cube both =
        Cube::literal(va, la.second) & Cube::literal(vb, lb.second);
    bool any = false;
    for (const Cube& c : n.cover.cubes())
      if (c.implies(both)) any = true;
    if (!any) continue;
    if (n.fanins.size() + 1 > kMaxCubeVars) continue;

    // Add d as a fanin and rewrite. Fanins the rewritten cover no longer
    // mentions stay until a later sweep drops them.
    touch(n, -1);
    n.fanins.push_back(d);
    net.node(d).fanouts.push_back(id);
    const Cube lit_d =
        Cube::literal(static_cast<int>(n.fanins.size()) - 1, true);
    Cover rewritten;
    for (const Cube& c : n.cover.cubes())
      rewritten.add(c.implies(both) ? c.drop(va).drop(vb) & lit_d : c);
    rewritten.normalize();
    n.cover = std::move(rewritten);
    touch(n, +1);
  }
  return d;
}

}  // namespace

int extract_cube_divisors(Network& net, int max_rounds) {
  int created = 0;
  // Pair counts are built once, then kept current: a rewritten node's pairs
  // are retired before its rewrite and counted again after it, and each new
  // divisor adds its own pair.
  PairCounts counts;
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
    if (net.node(id).is_internal()) counts.update(net.node(id), +1);
  for (int round = 0; round < max_rounds; ++round) {
    const std::optional<PairKey> pair = counts.best();
    if (!pair) return created;
    const NodeId d =
        substitute_cube_divisor(net, *pair, "fx", [&](const Node& n, int sign) {
          counts.update(n, sign);
        });
    counts.update(net.node(d), +1);
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

/// Global signatures of a node's multi-cube kernels, in kernel order.
std::vector<GlobalCover> kernel_signatures(const Node& n) {
  std::vector<GlobalCover> out;
  if (n.cover.num_cubes() < 2) return out;
  for (const Kernel& k : kernels(n.cover, 64))
    if (k.kernel.num_cubes() >= 2)
      out.push_back(global_signature(k.kernel, n.fanins));
  return out;
}

struct DerefLess {
  bool operator()(const GlobalCover* a, const GlobalCover* b) const {
    return *a < *b;
  }
};

}  // namespace

int extract_kernel_divisors(Network& net, int max_rounds) {
  int created = 0;
  // Each node's kernel signatures, computed when the node is first seen and
  // again only after a rewrite changes its cover and fanins.
  std::vector<std::optional<std::vector<GlobalCover>>> sigs;
  for (int round = 0; round < max_rounds; ++round) {
    // Gather kernels of every node, keyed by global signature. The keys
    // point into `sigs`, which changes only after the round's divisor is
    // built from `best`.
    sigs.resize(net.capacity());
    std::map<const GlobalCover*, std::vector<NodeId>, DerefLess> by_sig;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      const Node& n = net.node(id);
      if (!n.is_internal()) continue;
      auto& cached = sigs[static_cast<std::size_t>(id)];
      if (!cached) cached = kernel_signatures(n);
      for (const GlobalCover& sig : *cached) by_sig[&sig].push_back(id);
    }
    // Best kernel by (occurrences−1)·(literals−1) − literals gain proxy.
    const GlobalCover* best = nullptr;
    int best_gain = 0;
    for (const auto& [sig, ids] : by_sig) {
      std::vector<NodeId> uniq = ids;
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      int lits = 0;
      for (const auto& cube : *sig) lits += static_cast<int>(cube.size());
      const int m = static_cast<int>(uniq.size());
      // Extracting a kernel with `lits` literals shared by m nodes replaces
      // its expansion in m−1 of them; the divisor node itself costs `lits`.
      const int gain = (m - 1) * lits - 1;
      if (m >= 2 && gain > best_gain) {
        best_gain = gain;
        best = sig;
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
    const NodeId knode =
        net.add_node(k_fanins, k_cover, net.fresh_name("kx"));

    // Divide every node by the kernel and rewrite on success. Only readers
    // of the kernel's first fanin can hold all of its fanins.
    int rewrites = 0;
    std::vector<NodeId> readers = net.node(k_fanins.front()).fanouts;
    std::sort(readers.begin(), readers.end());
    readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
    for (NodeId id : readers) {
      Node& n = net.node(id);
      if (id == knode) continue;
      // Kernel must be expressible over n's fanins.
      const auto opt_local = remap_onto(k_cover, k_fanins, n.fanins);
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
      sigs[static_cast<std::size_t>(id)].reset();
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
    std::vector<PairKey> keys;
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
      if (net.node(id).is_internal()) append_pairs(net.node(id), keys);
    std::map<PairKey, int> count;
    for (PairKey key : keys) ++count[key];

    auto lit_prob = [&](std::uint32_t code) {
      const GlobalLit l = lit_of(code);
      const double p = prob[static_cast<std::size_t>(l.first)];
      return l.second ? p : 1.0 - p;
    };
    std::optional<PairKey> best;
    double best_score = 0.0;
    for (const auto& [pair, m] : count) {
      if (m < kMinShares) continue;
      const double pd = lit_prob(static_cast<std::uint32_t>(pair >> 32)) *
                        lit_prob(static_cast<std::uint32_t>(pair));
      const double score = static_cast<double>(m - 2) -
                           options.beta * switching_activity(pd, options.style);
      if (!best || score > best_score) {
        best = pair;
        best_score = score;
      }
    }
    if (!best || best_score <= 0.0) return created;

    substitute_cube_divisor(net, *best, "px", [](const Node&, int) {});
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
  trace::Span span("rugged", "opt");
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
  trace::Span span("rugged", "opt");
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
