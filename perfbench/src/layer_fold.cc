#include "layer_fold.h"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

using sqm::obs::TraceEvent;

constexpr int32_t kFirstForeignTrack = 100;  // TCP reader threads and up.

bool Is(const char* name, const char* literal) {
  return std::strcmp(name, literal) == 0;
}

bool StartsWith(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

/// The layer a span's self time belongs to. `in_probe` / `in_protocol`:
/// the span is (inside) sqm.noise_probe, or bgw.evaluate / bgw.open.
std::string LayerOf(const char* name, bool in_probe, bool in_protocol) {
  if (in_probe) return "core.noise_probe_s";
  if (Is(name, "bench.create") || Is(name, "bench.bind")) {
    return "net.mesh_up_s";
  }
  if (Is(name, "bench.shutdown")) return "net.teardown_s";
  const bool protocol_span = StartsWith(name, "bgw.") ||
                             StartsWith(name, "net.") ||
                             Is(name, "bench.send") || Is(name, "bench.recv");
  if (protocol_span && !in_protocol) {
    // Protocol traffic outside evaluate/open: the per-party noise probe,
    // which re-shares noise on a scratch BgwProtocol under sqm.bgw.
    return "core.noise_probe_s";
  }
  if (in_protocol) {
    if (Is(name, "bgw.evaluate")) return "mpc.eval_local_s";
    if (Is(name, "bgw.share")) return "mpc.share_s";
    if (Is(name, "bgw.mul")) return "mpc.mul_s";
    if (Is(name, "bgw.mul.deal")) return "mpc.mul_deal_s";
    if (Is(name, "bgw.mul.recombine")) return "mpc.mul_recombine_s";
    if (Is(name, "bgw.open") || Is(name, "bgw.open.broadcast")) {
      return "mpc.open_s";
    }
    if (Is(name, "net.send") || Is(name, "bench.send")) return "net.send_s";
    if (Is(name, "bench.recv")) return "net.recv_wait_s";
    return "";
  }
  if (Is(name, "sqm.quantize")) return "core.quantize_s";
  if (Is(name, "sqm.noise_sample")) return "sampling.skellam_s";
  if (Is(name, "sqm.bgw") || Is(name, "sqm.mpc_compute")) {
    return "core.bgw_outside_eval_s";
  }
  if (Is(name, "bench.release") || Is(name, "bench.party") ||
      Is(name, "sqm.evaluate") || Is(name, "sqm.party_evaluate")) {
    return "core.unattributed_s";
  }
  return "";
}

struct Node {
  const TraceEvent* event;
  size_t index;  // Position in Collect order (a parent is emitted last).
  uint64_t end;
  uint64_t child_micros = 0;
  bool in_probe = false;
  bool in_protocol = false;
};

/// Folds one thread's events by self time into `layers` (seconds), and
/// returns the summed duration of its top-level spans.
double FoldThread(const std::vector<std::pair<size_t, const TraceEvent*>>& run,
                  std::map<std::string, double>* layers,
                  std::map<std::pair<int32_t, int64_t>, double>* recv_wait,
                  int32_t owner, ReleaseLayers* out) {
  std::vector<Node> nodes;
  for (const auto& [index, event] : run) {
    if (event->type != TraceEvent::Type::kComplete) continue;
    nodes.push_back(Node{event, index, event->ts_micros + event->dur_micros});
  }
  // Parents before children: earlier start, then later end, then later
  // emission (RAII spans are emitted innermost first).
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    if (a.event->ts_micros != b.event->ts_micros) {
      return a.event->ts_micros < b.event->ts_micros;
    }
    if (a.end != b.end) return a.end > b.end;
    return a.index > b.index;
  });
  std::vector<size_t> stack;
  uint64_t top_level_micros = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    Node& node = nodes[i];
    while (!stack.empty()) {
      const Node& top = nodes[stack.back()];
      if (node.event->ts_micros >= top.event->ts_micros && node.end <= top.end) {
        break;
      }
      if (node.event->ts_micros < top.end) ++out->misnested;
      stack.pop_back();
    }
    if (stack.empty()) {
      top_level_micros += node.event->dur_micros;
    } else {
      Node& parent = nodes[stack.back()];
      parent.child_micros += node.event->dur_micros;
      node.in_probe = parent.in_probe;
      node.in_protocol = parent.in_protocol;
    }
    const char* name = node.event->name;
    node.in_probe = node.in_probe || Is(name, "sqm.noise_probe");
    node.in_protocol =
        node.in_protocol || Is(name, "bgw.evaluate") || Is(name, "bgw.open");
    stack.push_back(i);
  }
  for (const Node& node : nodes) {
    const double self_s =
        (static_cast<double>(node.event->dur_micros) -
         static_cast<double>(node.child_micros)) * 1e-6;
    std::string layer = LayerOf(node.event->name, node.in_probe,
                                node.in_protocol);
    if (layer.empty()) {
      out->unknown_spans.insert(node.event->name);
      layer = "core.unattributed_s";
    }
    (*layers)[layer] += self_s;
    if (layer == "net.recv_wait_s") {
      int64_t peer = -1;
      for (uint8_t a = 0; a < node.event->num_args; ++a) {
        if (Is(node.event->args[a].key, "peer")) {
          peer = node.event->args[a].value;
        }
      }
      (*recv_wait)[{owner, peer}] += self_s;
    }
  }
  return static_cast<double>(top_level_micros) * 1e-6;
}

/// Sets layer `target` to the timing-defined `value`, taking the difference
/// from `donor` so the split still sums to the same total.
void MoveToTiming(std::map<std::string, double>* layers, const char* target,
                  const char* donor, double value) {
  (*layers)[donor] -= value - (*layers)[target];
  (*layers)[target] = value;
}

}  // namespace

const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> names = {
      "core.quantize_s",     "sampling.skellam_s", "core.bgw_outside_eval_s",
      "core.noise_probe_s",  "core.unattributed_s", "mpc.share_s",
      "mpc.mul_deal_s",      "mpc.mul_recombine_s", "mpc.mul_s",
      "mpc.open_s",          "mpc.eval_local_s",   "net.send_s",
      "net.recv_wait_s",     "net.mesh_up_s",      "net.teardown_s"};
  return names;
}

ReleaseLayers FoldRelease(const std::vector<TraceEvent>& events,
                          int32_t critical, const ReportTiming& timing,
                          double wall_s) {
  ReleaseLayers out;
  // Split Collect order into per-thread runs, each opened by a marker.
  std::map<int32_t, std::vector<std::pair<size_t, const TraceEvent*>>> runs;
  int32_t current = -1;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (event.type == TraceEvent::Type::kInstant &&
        Is(event.name, kBeginMarker)) {
      current = event.track;
      continue;
    }
    if (event.track >= kFirstForeignTrack) current = -1;
    if (current >= 0) runs[current].emplace_back(i, &event);
  }

  double covered_s = 0.0;
  for (auto& [track, run] : runs) {
    std::map<std::string, double> layers;
    const double top_s =
        FoldThread(run, &layers, &out.recv_wait, track, &out);
    if (track == critical) {
      MoveToTiming(&layers, "core.quantize_s", "core.unattributed_s",
                   timing.quantize_s);
      MoveToTiming(&layers, "sampling.skellam_s", "core.unattributed_s",
                   timing.sampling_s);
      MoveToTiming(&layers, "core.noise_probe_s", "core.bgw_outside_eval_s",
                   timing.probe_s);
      covered_s += top_s;
    } else if (track == kMainTrack) {
      // session_tcp's main thread: its root span is the release
      // window itself, so only its children (serial work such as binding
      // listeners) lie on the critical path.
      layers.erase("core.unattributed_s");
      for (const auto& [layer, s] : layers) covered_s += s;
    } else {
      continue;  // Another party: off the critical path.
    }
    for (const auto& [layer, s] : layers) out.seconds[layer] += s;
  }
  double attributed_s = 0.0;
  for (const std::string& layer : LayerNames()) {
    out.seconds.emplace(layer, 0.0);
    if (layer != "core.unattributed_s") attributed_s += out.seconds[layer];
  }
  out.seconds["core.unattributed_s"] = wall_s - attributed_s;
  out.covered_frac = wall_s > 0.0 ? covered_s / wall_s : 0.0;
  return out;
}

}  // namespace perfbench
