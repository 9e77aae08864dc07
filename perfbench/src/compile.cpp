// `compile`: one client in a closed loop over seeded sweeps of the cell
// grid 5 models x 4 configs x 6 registered SoCs x {heuristic, graph-beam}.
// A cell is HtvmCompiler::Compile (no cache hook) + vm::SerializeHab +
// vm::LoadedArtifact::FromBuffer of the bytes. Its canonical HAB (pass
// wall_ns zeroed) must match digests/compile.txt, and the parsed artifact
// must serialize back to the same bytes.
#include "hw/soc.hpp"
#include "models/registry.hpp"
#include "support/string_utils.hpp"
#include "vm/loaded_artifact.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Cell {
  std::string key;  // model.config.soc.search
  std::string model;
  const Graph* graph;
  compiler::CompileOptions options;
};

struct CellTimes {
  double compile_ms = 0;
  double serialize_ms = 0;
  double load_ms = 0;
};

// Runs one cell; the artifact is returned for the sweep's exact metrics.
std::optional<compiler::Artifact> RunCell(const Cell& cell, DigestBook* book,
                                          CellTimes* t, LayerReport* layers,
                                          Outcome* out) {
  out->Attempt();
  Span compile("compiler", "Compile " + cell.key);
  auto art = compiler::HtvmCompiler{cell.options}.Compile(*cell.graph);
  t->compile_ms = compile.Stop();
  if (!art.ok()) {
    out->Fail("compile " + cell.key + ": " + art.status().ToString());
    return std::nullopt;
  }
  const vm::HabMeta meta{cell.model, "perfbench"};
  Span serialize("vm", "SerializeHab");
  const std::string bytes = vm::SerializeHab(*art, meta);
  t->serialize_ms = serialize.Stop();
  Span load("vm", "FromBuffer");
  auto loaded = vm::LoadedArtifact::FromBuffer(std::span<const u8>(
      reinterpret_cast<const u8*>(bytes.data()), bytes.size()));
  t->load_ms = load.Stop();

  layers->passes.Add(*art, t->compile_ms);
  layers->serialize_ms.push_back(t->serialize_ms);
  layers->load_ms.push_back(t->load_ms);
  layers->hab_kb.push_back(static_cast<double>(bytes.size()) / 1024.0);

  if (!loaded.ok()) {
    out->Fail("load " + cell.key + ": " + loaded.status().ToString());
    return std::nullopt;
  }
  if (vm::SerializeHab(loaded->artifact(), loaded->meta()) != bytes) {
    out->Fail("compile " + cell.key + ": HAB does not round-trip");
  }
  for (compiler::PassStat& p : art->pass_timeline) p.wall_ns = 0;
  book->Check(cell.key, DigestBytes(vm::SerializeHab(*art, meta)), out);
  return std::move(*art);
}

// The cell grid and everything its set-up produces.
struct Grid {
  // One graph per (model, precision policy); configs share policies.
  std::map<std::pair<std::string, models::PrecisionPolicy>, Graph> graphs;
  std::vector<Cell> cells;
  std::vector<double> sim_latency_us;
  double sim_cycles = 0;
  double binary_kb = 0;
};

// Builds the graphs and the cells, then warms up with one full sweep in
// grid order, which also gives the exact per-sweep figures: simulated
// cycles, binary size and search effort.
bool SetUp(const Settings& s, Grid* grid, DigestBook* book,
           LayerReport* layers, Outcome* out) {
  *grid = Grid{};
  for (const DeployConfig& config : DeployConfigs()) {
    for (const models::RegisteredModel& m : models::Registry()) {
      const auto key = std::make_pair(std::string(m.name), config.policy);
      if (grid->graphs.count(key) != 0) continue;
      out->Attempt();
      Span span("models", std::string("BuildByName ") + m.name);
      auto graph = models::BuildByName(m.name, config.policy);
      layers->build_ms.push_back(span.Stop());
      if (!graph.ok()) {
        out->Fail(std::string("build ") + m.name + ": " +
                  graph.status().ToString());
        return false;
      }
      grid->graphs.emplace(key, std::move(*graph));
    }
  }
  const dory::ScheduleSearchKind kSearches[] = {
      dory::ScheduleSearchKind::kHeuristic,
      dory::ScheduleSearchKind::kGraphBeam};
  for (const models::RegisteredModel& m : models::Registry()) {
    for (const DeployConfig& config : DeployConfigs()) {
      for (const std::string& soc : hw::SocRegistry::Global().Names()) {
        for (dory::ScheduleSearchKind search : kSearches) {
          grid->cells.push_back(Cell{
              StrFormat("%s.%s.%s.%s", m.name, config.name, soc.c_str(),
                        dory::ScheduleSearchKindName(search)),
              m.name, &grid->graphs.at({m.name, config.policy}),
              PinnedOptions(s, config, soc, search)});
        }
      }
    }
  }

  const dory::ScheduleSearchStats& search = dory::ScheduleSearchStats::Global();
  const i64 cost_before = search.cost_model_evals();
  const i64 sim_before = search.simulator_evals();
  CellTimes t;
  LayerReport warmup;
  for (const Cell& cell : grid->cells) {
    auto art = RunCell(cell, book, &t, &warmup, out);
    if (!art.has_value()) continue;
    grid->sim_cycles += static_cast<double>(art->TotalFullCycles());
    grid->binary_kb += static_cast<double>(art->size.Total()) / 1024.0;
    grid->sim_latency_us.push_back(art->LatencyMs() * 1000.0);
  }
  layers->cost_evals = search.cost_model_evals() - cost_before;
  layers->sim_evals = search.simulator_evals() - sim_before;
  return out->failed() == 0;
}

}  // namespace

void RunCompile(const Settings& s, EndToEnd* e2e, LayerReport* layers,
                Outcome* out) {
  Grid grid;
  DigestBook book(s, "compile");
  e2e->setup_s =
      TimeSetups([&] { return SetUp(s, &grid, &book, layers, out); });
  if (Status st = book.Finish(); !st.ok()) out->Fail(st.ToString());
  if (out->failed() > 0) return;
  e2e->sim_cycles = grid.sim_cycles;
  e2e->binary_kb = grid.binary_kb;
  e2e->sim_p99_us = Percentile(grid.sim_latency_us, 99);

  const std::vector<Cell>& cells = grid.cells;
  CellTimes t;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.seconds));
  std::vector<size_t> order(cells.size());
  for (u64 sweep = 0; Clock::now() < deadline; ++sweep) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(&order, MixSeed(s.seed, sweep));
    for (size_t i = 0; i < order.size() && Clock::now() < deadline; ++i) {
      RunCell(cells[order[i]], &book, &t, layers, out);
      const double op = t.compile_ms + t.serialize_ms + t.load_ms;
      e2e->op_ms.push_back(op);
      e2e->items += 1;
      e2e->items_wall_s += op / 1000.0;
    }
  }
}

}  // namespace perfbench
