#include "ir/passes.hpp"

#include "ir/map_graph.hpp"

namespace htvm {

Graph RebuildGraph(const Graph& graph, const std::vector<bool>& keep,
                   std::vector<NodeId>* old_to_new) {
  HTVM_CHECK(static_cast<i64>(keep.size()) == graph.NumNodes());
  return ir::MapGraph(
      graph,
      [&](ir::GraphMapper& m, const Node& n) -> NodeId {
        return keep[static_cast<size_t>(n.id)] ? m.Clone(n) : kInvalidNode;
      },
      old_to_new);
}

Graph DeadCodeElimination(const Graph& graph) {
  std::vector<bool> live(static_cast<size_t>(graph.NumNodes()), false);
  // Reverse sweep: node order is topological, so one backward pass settles
  // liveness.
  for (NodeId id : graph.outputs()) live[static_cast<size_t>(id)] = true;
  for (NodeId id = static_cast<NodeId>(graph.NumNodes()) - 1; id >= 0; --id) {
    if (!live[static_cast<size_t>(id)]) continue;
    for (NodeId in : graph.node(id).inputs) live[static_cast<size_t>(in)] = true;
  }
  // Graph inputs survive even when unused: they are the artifact's calling
  // convention.
  for (NodeId id : graph.inputs()) live[static_cast<size_t>(id)] = true;
  return RebuildGraph(graph, live, nullptr);
}

Graph AbsorbPadding(const Graph& graph, i64* rewrites) {
  const std::vector<i32> uses = graph.UseCounts();
  i64 absorbed = 0;
  Graph out = ir::MapGraph(graph, [&](ir::GraphMapper& m,
                                      const Node& n) -> NodeId {
    if (n.Is(OpId::kConv2d)) {
      const Node& producer = graph.node(n.inputs[0]);
      if (producer.Is(OpId::kPad) &&
          uses[static_cast<size_t>(producer.id)] == 1) {
        ++absorbed;
        // Merge the explicit pad into the conv's padding attribute.
        const auto pw = producer.attrs.GetIntVec("pad_width", {0, 0, 0, 0});
        // The conv passed type inference when it was added, so its padding
        // normalizes.
        const auto pad = NormalizePadding(n.attrs, "conv2d").value();
        AttrMap attrs = n.attrs;
        attrs.Set("padding", std::vector<i64>{pad[0] + pw[0], pad[1] + pw[1],
                                              pad[2] + pw[2], pad[3] + pw[3]});
        std::vector<NodeId> ins = m.MappedInputs(n);
        ins[0] = m.Mapped(producer.inputs[0]);
        return m.out().AddOp(n.op, std::move(ins), std::move(attrs), n.name);
      }
    }
    return m.Clone(n);
  });
  if (rewrites != nullptr) *rewrites = absorbed;
  return DeadCodeElimination(out);
}

}  // namespace htvm
