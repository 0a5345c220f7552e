#pragma once
// QPU torus construction (paper §IV-A). Goal: partition the fleet into
// sub-tori whose members are mutually *dissimilar*, so their noise
// biases compensate when a task's shots are split across a torus.
//
// Pipeline:
//  1. MDS reduces the behavioral-vector space and the model-vector
//     (weight) space to 1-D sequences {b_j} and {m_t} that preserve the
//     pairwise distances (Saeed et al.). Both spaces are Euclidean, so
//     this is PCA of the points (math::mds_embed_1d(points)): a
//     min(n, d)-sized eigensolve, no n x n distance matrix.
//  2. A non-uniform DFT of the model sequence sampled at the behavioral
//     positions (Eq. 2) finds the dominant frequency k; the cycle period
//     is T = span({b_j}) / k (Eq. 3).
//  3. The behavioral sequence is wrapped onto a circle of circumference
//     T: phase = frac(k (b - min b) / span). QPUs whose b-coordinates
//     differ by a multiple of T land at the same phase — and those are
//     exactly the "distant but model-similar" nodes MDS alone cannot
//     separate.
//  4. Equidistant partition along the circle: sort by phase, cut into
//     near-equal contiguous chunks. Each chunk strings together QPUs from
//     different periods, i.e. with low behavioral similarity.
// Steps 2-4 are torus_from_coords; build_torus_partition is step 1 plus
// that call. The test oracle (tests/torus_oracle.hpp) feeds the same
// function coordinates from the distance-matrix MDS route.

#include <vector>

#include "arbiterq/core/behavioral_vector.hpp"

namespace arbiterq::core {

struct TorusPartition {
  /// Cycle period T of Eq. 3.
  double cycle_period = 0.0;
  /// argmax frequency index of the NUDFT (>= 1).
  std::size_t dominant_frequency = 0;
  /// 1-D MDS coordinates, indexed by QPU.
  std::vector<double> behavioral_coords;
  std::vector<double> model_coords;
  /// Phase in [0, 1) on the torus circle, indexed by QPU.
  std::vector<double> phase;
  /// QPU indices per sub-torus (each sorted by phase).
  std::vector<std::vector<int>> tori;

  /// Torus containing QPU q; throws if q is unknown.
  std::size_t torus_of(int q) const;
};

/// Default torus count used by the Table IV experiments: one torus per
/// ~3 QPUs ({1,2,3}->1, {6}->2, {8}->2, {10}->3).
int default_torus_count(std::size_t num_qpus);

/// Steps 2-4 of the pipeline: the partition of n QPUs given their 1-D
/// behavioral and model coordinates (index = QPU). num_tori <= 0 selects
/// default_torus_count. Throws on empty or mismatched inputs and on more
/// tori than QPUs.
TorusPartition torus_from_coords(std::vector<double> behavioral_coords,
                                 std::vector<double> model_coords,
                                 int num_tori = 0);

/// Build the partition from per-QPU behavioral vectors and model vectors
/// (deployed weights). num_tori <= 0 selects default_torus_count. Throws
/// std::invalid_argument on mismatched inputs, too many tori, or any
/// non-finite behavioral or model component.
TorusPartition build_torus_partition(
    const std::vector<BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& model_vectors, int num_tori = 0);

/// Degradation-time rebuild: partition only the surviving fleet subset
/// (`alive` holds global QPU indices into `behavioral`/`model_vectors`,
/// ascending). The returned partition's `tori` contain *global* QPU
/// indices again, so schedulers keep addressing the full fleet; the
/// coordinate/phase fields are indexed by position in `alive`.
/// num_tori <= 0 selects default_torus_count(alive.size()); an explicit
/// request is clamped to the survivor count. Throws when `alive` is
/// empty or names an unknown QPU.
TorusPartition repartition_alive(
    const std::vector<BehavioralVector>& behavioral,
    const std::vector<std::vector<double>>& model_vectors,
    const std::vector<int>& alive, int num_tori = 0);

/// Scoped degradation-time rebuild: remove `dead_qpu` from the one torus
/// that contains it, leaving every other torus byte-identical to `prev`.
/// Survivors keep their phase order (they were phase-sorted when the
/// partition was built, and removing a member preserves that order), so
/// the rebuild is O(|torus|), deterministic, and — unlike
/// repartition_alive — contained: a dropout in one torus never reshuffles
/// the rest of the fleet, which is what lets a sharded serving runtime
/// repartition one shard while its siblings keep draining. A torus that
/// loses its last member is dropped. Throws when `dead_qpu` is not a
/// member, or when removing it would leave no tori at all.
TorusPartition repartition_torus(const TorusPartition& prev, int dead_qpu);

}  // namespace arbiterq::core
