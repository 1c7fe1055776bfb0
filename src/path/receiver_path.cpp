#include "path/receiver_path.h"

namespace msts::path {

ReceiverPath::ReceiverPath(const PathConfig& config)
    : PathGraph(graph_from_config(config)) {}

ReceiverPath ReceiverPath::sampled(const PathConfig& config, stats::Rng& rng) {
  return ReceiverPath(PathGraph::sampled(graph_from_config(config), rng));
}

}  // namespace msts::path
