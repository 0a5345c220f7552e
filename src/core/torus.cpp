#include "arbiterq/core/torus.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "arbiterq/math/dft.hpp"
#include "arbiterq/math/mds.hpp"
#include "arbiterq/telemetry/metrics.hpp"
#include "arbiterq/telemetry/trace.hpp"

namespace arbiterq::core {

std::size_t TorusPartition::torus_of(int q) const {
  for (std::size_t t = 0; t < tori.size(); ++t) {
    if (std::find(tori[t].begin(), tori[t].end(), q) != tori[t].end()) {
      return t;
    }
  }
  throw std::out_of_range("TorusPartition::torus_of: unknown QPU");
}

int default_torus_count(std::size_t num_qpus) {
  return std::max(1, static_cast<int>(num_qpus / 3));
}

TorusPartition torus_from_coords(std::vector<double> behavioral_coords,
                                 std::vector<double> model_coords,
                                 int num_tori) {
  const std::size_t n = behavioral_coords.size();
  if (n == 0 || model_coords.size() != n) {
    throw std::invalid_argument("torus_from_coords: input mismatch");
  }
  if (num_tori <= 0) num_tori = default_torus_count(n);
  if (static_cast<std::size_t>(num_tori) > n) {
    throw std::invalid_argument("torus_from_coords: more tori than QPUs");
  }
  TorusPartition out;
  out.behavioral_coords = std::move(behavioral_coords);
  out.model_coords = std::move(model_coords);

  // Degenerate fleets (n < 3, or a flat behavioral axis) skip the DFT and
  // fall back to a single-period torus.
  const auto [lo_it, hi_it] = std::minmax_element(
      out.behavioral_coords.begin(), out.behavioral_coords.end());
  const double lo = *lo_it;
  const double span = *hi_it - lo;
  if (n >= 3 && span > 1e-15) {
    const auto cycle = math::dominant_cycle(out.behavioral_coords,
                                            out.model_coords, n);
    out.cycle_period = cycle.period;
    out.dominant_frequency = cycle.frequency_index;
  } else {
    out.cycle_period = span > 0.0 ? span : 1.0;
    out.dominant_frequency = 1;
  }

  // Wrap onto the torus circle: phase = frac(k (b - lo) / span). The
  // ratio is formed first so the top of the axis (offset exactly k T)
  // lands at phase 0 with the bottom, whatever the rounding of T.
  const double k = static_cast<double>(out.dominant_frequency);
  out.phase.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        span > 0.0 ? k * ((out.behavioral_coords[i] - lo) / span) : 0.0;
    out.phase[i] = x - std::floor(x);
  }

  // Equidistant partition: sort by phase, cut into near-equal chunks
  // (larger chunks first, matching Table IV's {4,3,3} style splits).
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double pa = out.phase[static_cast<std::size_t>(a)];
    const double pb = out.phase[static_cast<std::size_t>(b)];
    return pa != pb ? pa < pb : a < b;
  });
  out.tori.resize(static_cast<std::size_t>(num_tori));
  std::size_t cursor = 0;
  for (int t = 0; t < num_tori; ++t) {
    const std::size_t remaining_tori = static_cast<std::size_t>(num_tori - t);
    const std::size_t chunk =
        (n - cursor + remaining_tori - 1) / remaining_tori;
    for (std::size_t c = 0; c < chunk; ++c) {
      out.tori[static_cast<std::size_t>(t)].push_back(order[cursor++]);
    }
  }
  return out;
}

TorusPartition build_torus_partition(
    const std::vector<BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& model_vectors, int num_tori) {
  if (behavioral.empty() || model_vectors.size() != behavioral.size()) {
    throw std::invalid_argument("build_torus_partition: input mismatch");
  }
  AQ_TRACE_SPAN("core.torus.partition");
  AQ_COUNTER_ADD("core.torus.builds", 1);

  std::vector<std::vector<double>> b_points;
  b_points.reserve(behavioral.size());
  for (const auto& bv : behavioral) b_points.push_back(bv.concatenated());
  // One NaN would poison every |F[k]| and silently degrade the wrap to
  // contiguous chunking, so non-finite inputs are rejected outright.
  const auto finite = [](const std::vector<double>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
  };
  if (!std::all_of(b_points.begin(), b_points.end(), finite) ||
      !std::all_of(model_vectors.begin(), model_vectors.end(), finite)) {
    throw std::invalid_argument(
        "build_torus_partition: non-finite behavioral or model component");
  }
  TorusPartition out =
      torus_from_coords(math::mds_embed_1d(b_points),
                        math::mds_embed_1d(model_vectors), num_tori);
  AQ_GAUGE_SET("core.torus.count", static_cast<double>(out.tori.size()));
  return out;
}

TorusPartition repartition_alive(
    const std::vector<BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& model_vectors,
    const std::vector<int>& alive, int num_tori) {
  if (alive.empty()) {
    throw std::invalid_argument("repartition_alive: no survivors");
  }
  if (behavioral.size() != model_vectors.size()) {
    throw std::invalid_argument("repartition_alive: input mismatch");
  }
  std::vector<BehavioralVector> sub_b;
  std::vector<std::vector<double>> sub_m;
  sub_b.reserve(alive.size());
  sub_m.reserve(alive.size());
  for (int q : alive) {
    if (q < 0 || static_cast<std::size_t>(q) >= behavioral.size()) {
      throw std::invalid_argument("repartition_alive: unknown QPU");
    }
    sub_b.push_back(behavioral[static_cast<std::size_t>(q)]);
    sub_m.push_back(model_vectors[static_cast<std::size_t>(q)]);
  }
  if (num_tori <= 0) num_tori = default_torus_count(alive.size());
  num_tori = std::min<int>(num_tori, static_cast<int>(alive.size()));
  AQ_COUNTER_ADD("core.torus.repartitions", 1);
  TorusPartition out = build_torus_partition(sub_b, sub_m, num_tori);
  // Map the subset indices back to global QPU ids.
  for (auto& torus : out.tori) {
    for (int& q : torus) q = alive[static_cast<std::size_t>(q)];
  }
  return out;
}

TorusPartition repartition_torus(const TorusPartition& prev, int dead_qpu) {
  const std::size_t victim_torus = prev.torus_of(dead_qpu);  // throws if
                                                             // unknown
  TorusPartition out = prev;
  std::vector<int>& members = out.tori[victim_torus];
  members.erase(std::remove(members.begin(), members.end(), dead_qpu),
                members.end());
  if (members.empty()) {
    // The torus died with its last member: drop it (indices of later
    // tori shift down, which routing epochs absorb deterministically).
    out.tori.erase(out.tori.begin() +
                   static_cast<std::ptrdiff_t>(victim_torus));
  }
  if (out.tori.empty()) {
    throw std::invalid_argument("repartition_torus: no survivors");
  }
  AQ_COUNTER_ADD("core.torus.scoped_repartitions", 1);
  return out;
}

}  // namespace arbiterq::core
