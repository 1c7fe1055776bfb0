#include "path/receiver_path.h"

namespace msts::path {

ReceiverPath::ReceiverPath(const PathConfig& config)
    : PathGraph(config) {}

ReceiverPath ReceiverPath::sampled(const PathConfig& config, stats::Rng& rng) {
  return ReceiverPath(PathGraph::sampled(config, rng));
}

}  // namespace msts::path
