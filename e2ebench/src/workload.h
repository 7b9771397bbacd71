// Inputs of the end-to-end benchmark: the graph, the regex shapes and
// their textual variants, the key sets of each workload, and the write
// batches. The graph is one fixed generated dataset (kGraphSeed), so
// runs with different seeds serve the same data; the run's seed drives
// everything the clients do — key and spelling draws, page-versus-resume
// choices and the write batches.

#ifndef DSW_E2EBENCH_WORKLOAD_H_
#define DSW_E2EBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "workload/generators.h"

namespace e2e {

using dsw::Database;
using dsw::Instance;

// A multi-labelled layered graph inside a noise region. The layered
// core carries base labels l0, l1 on every edge and a parallel twin
// with an extra label (l2 or l3) on half of them; the noise graph hangs
// off the source, is labelled over l0..l5 and never reaches a target,
// so annotation wades through the part of it each query's labels can
// follow. About 25K vertices and 113K edges.
struct GraphShape {
  static constexpr uint32_t kLayers = 8;
  static constexpr uint32_t kWidth = 64;
  static constexpr uint32_t kNoiseLabels = 6;
  static constexpr uint32_t kNoiseVertices = 24000;
  static constexpr uint32_t kNoiseEdges = 110000;
  // LayeredGraph's vertex numbering: source, then the layers, then the
  // target; EmbedInNoise appends the noise vertices after those.
  static constexpr uint32_t kSource = 0;
  static constexpr uint32_t kTarget = 1 + kLayers * kWidth;
  static constexpr uint32_t kFirstNoise = kTarget + 1;
  static uint32_t Vertex(uint32_t layer, uint32_t i) {
    return 1 + layer * kWidth + i;
  }
};

constexpr uint64_t kGraphSeed = 20240611;

inline Instance BuildGraph() {
  const uint64_t seed = kGraphSeed;
  dsw::LayeredGraphParams p;
  p.layers = GraphShape::kLayers;
  p.width = GraphShape::kWidth;
  p.edges_per_vertex = 4;
  p.num_labels = 2;
  p.extra_labels = 2;
  p.multi_label_p = 0.5;
  p.seed = seed;
  Instance core = dsw::LayeredGraph(p);
  // EmbedInNoise labels noise edges uniformly over the dictionary.
  for (uint32_t l = 4; l < GraphShape::kNoiseLabels; ++l)
    core.db.mutable_dict()->Intern("l" + std::to_string(l));
  return dsw::EmbedInNoise(core, GraphShape::kNoiseVertices,
                           GraphShape::kNoiseEdges,
                           seed * 0x9e3779b97f4a7c15ull + 1);
}

// One regex shape: textual variants that canonicalize to one automaton,
// so the plan cache must merge them. variants[0] is the oracle's text.
struct Shape {
  std::string name;
  std::vector<std::string> variants;
};

// Words made of allowed label triples, then up to two base labels: all
// eight base-label triples (so every layered path qualifies) and fifteen
// with an extra label. 69 atoms: the automaton has more than 64 states
// whichever front-end builds it. The second spelling lists the triples
// in reverse.
inline Shape TriplesShape() {
  std::vector<std::string> triples;
  for (int i = 0; i < 8; ++i)
    triples.push_back("l" + std::to_string(i >> 2 & 1) + " l" +
                      std::to_string(i >> 1 & 1) + " l" +
                      std::to_string(i & 1));
  for (const char* t : {"l0 l2 l1", "l1 l2 l0", "l2 l0 l0", "l2 l1 l1",
                        "l0 l0 l3", "l1 l3 l1", "l3 l0 l1", "l3 l3 l0",
                        "l2 l3 l1", "l0 l2 l2", "l1 l1 l2", "l3 l1 l0",
                        "l2 l0 l3", "l0 l3 l2", "l3 l2 l1"})
    triples.push_back(t);
  auto spell = [&triples](bool reverse) {
    std::string re = "(";
    for (size_t i = 0; i < triples.size(); ++i) {
      if (i > 0) re += "|";
      re += triples[reverse ? triples.size() - 1 - i : i];
    }
    return re + ")* (l0|l1)? (l0|l1)?";
  };
  return Shape{"triples", {spell(false), spell(true)}};
}

// The six shapes of the hot set. pairs has 34 atoms: its Thompson
// automaton needs two words of states and its Glushkov one, so the
// front-end picks Glushkov for it and Thompson for the rest.
inline std::vector<Shape> HotShapes() {
  return {
      {"any_base", {"(l0|l1)*", "(l1|l0)*", "((l0|l1)*)*", "(l0|l1|l0)*"}},
      {"one_l2",
       {"(l0|l1)* l2 (l0|l1)*", "(l1|l0)* l2 ((l0|l1)*)*",
        "(l1|l0|l1)* l2 (l1|l0)*"}},
      {"alt_base_extra",
       {"((l0|l1) (l2|l3))* (l0|l1)?", "((l1|l0) (l3|l2))* ((l1|l0)?)?"}},
      {"l03_l12",
       {"(l0|l3)* (l1|l2) (l0|l1)*", "(l3|l0)* (l2|l1) (l1|l0)*"}},
      {"pairs",
       {"(l0 l1|l1 l0|l0 l0|l1 l1|l0 l2|l2 l0|l1 l2|l2 l1|l1 l3|l3 l1|"
        "l0 l3|l3 l0|l2 l3|l3 l2|l2 l2|l3 l3)* (l0|l1)?",
        "(l3 l3|l2 l2|l3 l2|l2 l3|l3 l0|l0 l3|l3 l1|l1 l3|l2 l1|l1 l2|"
        "l2 l0|l0 l2|l1 l1|l0 l0|l1 l0|l0 l1)* ((l1|l0)?)?"}},
      {"two_l3",
       {"(l0|l1|l2)* l3 (l0|l1|l2)* l3 (l0|l1|l2|l3)*",
        "(l2|l1|l0)* l3 (l2|l0|l1)* l3 (l3|l2|l1|l0)*"}},
  };
}

// prepare-cold's shapes: the hot ones plus one whose automaton has more
// than 64 states, so the general multi-word tier runs beside the
// single-word one.
inline std::vector<Shape> ColdShapes() {
  std::vector<Shape> shapes = HotShapes();
  shapes.push_back(TriplesShape());
  return shapes;
}

struct Key {
  uint32_t shape = 0;
  uint32_t source = 0;
  uint32_t target = 0;
};

// serve-warm's hot set: every shape times 8 (source, target) pairs —
// the graph's target and seven last-layer vertices spread evenly over
// the layer. About 45 MB of plans, inside the engine's default 64 MB
// plan cache. The pairs are fixed rather than drawn from the seed: the
// plans of some last-layer targets grow much more under mutate-mix's
// writes than others, and drawing them moved mutate-mix's peak RSS
// between about 300 and 630 MB from seed to seed. Zipf rank r is shape
// r mod |shapes| on target r / |shapes|, so every run spreads the same
// traffic over the same keys; the seed drives the draws.
inline std::vector<Key> HotKeys(uint32_t num_shapes) {
  std::vector<uint32_t> targets = {GraphShape::kTarget};
  for (uint32_t i = 0; i < 7; ++i)
    targets.push_back(
        GraphShape::Vertex(GraphShape::kLayers - 1,
                           (2 * i + 1) * GraphShape::kWidth / 14));
  std::vector<Key> keys;
  for (uint32_t t : targets)
    for (uint32_t s = 0; s < num_shapes; ++s)
      keys.push_back(Key{s, GraphShape::kSource, t});
  return keys;
}

// prepare-cold's key space: every shape times every vertex of the last
// three layers and the target, about 1.4K keys (the cache holds about
// 80 plans). Laid out shape-major; within a shape, one group of keys
// per layer, the target joining the last layer's group.
constexpr uint32_t kColdLayers = 3;

inline std::vector<Key> ColdKeys(uint32_t num_shapes) {
  std::vector<Key> keys;
  for (uint32_t s = 0; s < num_shapes; ++s) {
    for (uint32_t layer = GraphShape::kLayers - kColdLayers;
         layer < GraphShape::kLayers; ++layer)
      for (uint32_t i = 0; i < GraphShape::kWidth; ++i)
        keys.push_back(Key{s, GraphShape::kSource,
                           GraphShape::Vertex(layer, i)});
    keys.push_back(Key{s, GraphShape::kSource, GraphShape::kTarget});
  }
  return keys;
}

// The i-th cold draw, stratified so that every run sees the same mix:
// shape i mod |shapes|, then the layer group in turn, then a uniformly
// drawn key of that group.
inline uint32_t ColdKeyIndex(uint64_t i, uint32_t num_shapes,
                             std::mt19937_64& rng) {
  const uint32_t per_shape = kColdLayers * GraphShape::kWidth + 1;
  const uint32_t shape = static_cast<uint32_t>(i % num_shapes);
  const uint32_t group = static_cast<uint32_t>(i / num_shapes % kColdLayers);
  const uint32_t size =
      GraphShape::kWidth + (group + 1 == kColdLayers ? 1 : 0);
  return shape * per_shape + group * GraphShape::kWidth +
         static_cast<uint32_t>(rng() % size);
}

// Keys with small answer sets for the naive-baseline check at setup:
// from a vertex three layers before the target.
inline std::vector<Key> SmallKeys(std::mt19937_64& rng) {
  std::vector<Key> keys;
  for (uint32_t s = 0; s < 3; ++s)
    keys.push_back(Key{s,
                       GraphShape::Vertex(GraphShape::kLayers - 3,
                                          rng() % GraphShape::kWidth),
                       GraphShape::kTarget});
  return keys;
}

// One write: about 0.1% of |E| random edges. Most keep every shortest
// walk length (forward edges between adjacent layers add answers,
// backward and noise edges change only the annotated region); every
// kSkipEvery-th write also carries one edge that skips a layer and so
// shortens lambda for the keys whose walks can use it. A fixed schedule
// rather than a coin, so every run's graph drifts alike.
struct WriteBatch {
  struct E {
    uint32_t src, label, dst;
  };
  std::vector<E> edges;
};

inline WriteBatch MakeWriteBatch(const Database& db, uint64_t index,
                                 std::mt19937_64& rng) {
  constexpr uint64_t kSkipEvery = 16;
  const uint32_t n = static_cast<uint32_t>(db.num_edges() / 1000);
  const uint32_t num_vertices = db.num_vertices();
  auto layer_vertex = [&](uint32_t layer) {
    return GraphShape::Vertex(layer, rng() % GraphShape::kWidth);
  };
  WriteBatch b;
  b.edges.reserve(n + 1);
  while (b.edges.size() < n) {
    const uint32_t src = static_cast<uint32_t>(rng() % num_vertices);
    if (src >= GraphShape::kFirstNoise) {
      const uint32_t label =
          static_cast<uint32_t>(rng() % GraphShape::kNoiseLabels);
      uint32_t dst = GraphShape::kFirstNoise +
                     static_cast<uint32_t>(
                         rng() % (num_vertices - GraphShape::kFirstNoise));
      b.edges.push_back({src, label, dst});
    } else if (src != GraphShape::kSource && src != GraphShape::kTarget) {
      const uint32_t label = static_cast<uint32_t>(rng() % 4);
      uint32_t layer = (src - 1) / GraphShape::kWidth;
      uint32_t dst;
      if (rng() % 2 == 0)  // forward: new walks of the same length
        dst = layer + 1 < GraphShape::kLayers ? layer_vertex(layer + 1)
                                              : GraphShape::kTarget;
      else  // same layer or backward: never a shorter walk
        dst = layer_vertex(static_cast<uint32_t>(rng() % (layer + 1)));
      b.edges.push_back({src, label, dst});
    }
  }
  if (index % kSkipEvery == kSkipEvery / 2) {
    uint32_t layer = static_cast<uint32_t>(rng() % (GraphShape::kLayers - 2));
    b.edges.push_back({layer_vertex(layer), static_cast<uint32_t>(rng() % 4),
                       layer_vertex(layer + 2)});
  }
  return b;
}

// Zipf(s) over ranks 0..n-1 via inverse-CDF lookup.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t operator()(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    return std::min(
        cdf_.size() - 1,
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e

#endif  // DSW_E2EBENCH_WORKLOAD_H_
