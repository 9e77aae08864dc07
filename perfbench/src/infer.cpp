// `infer`: one client in a closed loop over suite passes. A pass runs each
// of the five registry models (mixed config, compiled for diana, shipped as
// HAB bytes and loaded through vm::LoadedArtifact) once on the interpreter
// executor and once on the tile executor, on the same fresh inputs, and
// checks the two agree bit for bit.
#include <memory>

#include "models/registry.hpp"
#include "runtime/executor.hpp"
#include "support/string_utils.hpp"
#include "vm/loaded_artifact.hpp"
#include "vm/vm_executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Warm-up passes draw their inputs from this fixed seed, whatever --seed
// is, so every run checks the outputs against digests/infer.txt.
constexpr u64 kGoldenSeed = 1;
constexpr int kWarmupPasses = 2;

struct Deployed {
  std::string name;
  vm::LoadedArtifact loaded;
  std::unique_ptr<runtime::Executor> interp;
  std::unique_ptr<runtime::Executor> tiles;

  const compiler::Artifact& art() const { return loaded.artifact(); }
};

using Outputs = std::vector<std::vector<Tensor>>;

Outputs PassInputs(const std::vector<Deployed>& deployed, u64 seed,
                   u64 pass) {
  Outputs inputs;
  for (size_t m = 0; m < deployed.size(); ++m) {
    inputs.push_back(
        vm::SyntheticInputs(deployed[m].art(), MixSeed(seed, pass, m)));
  }
  return inputs;
}

// One half of a suite pass: every model on one executor. Returns the
// half's wall time; per-model times go to `per_model` when given.
double RunHalf(const std::vector<Deployed>& deployed, const Outputs& inputs,
               bool tiles, Outputs* outputs,
               std::map<std::string, std::vector<double>>* per_model,
               Outcome* out) {
  outputs->assign(deployed.size(), {});
  Span half("runtime", tiles ? "suite.tiles" : "suite.interp");
  for (size_t m = 0; m < deployed.size(); ++m) {
    const Deployed& d = deployed[m];
    out->Attempt();
    Span run("runtime", "Executor::Run " + d.name);
    auto result = (tiles ? d.tiles : d.interp)->Run(inputs[m]);
    const double ms = run.Stop();
    if (!result.ok()) {
      out->Fail("infer: " + d.name + ": " + result.status().ToString());
      continue;
    }
    (*outputs)[m] = std::move(result->outputs);
    if (per_model != nullptr) (*per_model)[d.name].push_back(ms);
  }
  return half.Stop();
}

void CompareHalves(const std::vector<Deployed>& deployed, const Outputs& a,
                   const Outputs& b, u64 pass, Outcome* out) {
  for (size_t m = 0; m < deployed.size(); ++m) {
    if (!SameTensors(a[m], b[m])) {
      out->Fail(StrFormat("infer: pass %llu %s: interpreter and tile "
                          "outputs differ",
                          static_cast<unsigned long long>(pass),
                          deployed[m].name.c_str()));
    }
  }
}

// The traced run's replay of one half; checks it against the real outputs.
ReplayTotals ReplayHalf(const std::vector<Deployed>& deployed,
                        const Outputs& inputs, const Outputs& expected,
                        bool tiles, Outcome* out) {
  ReplayTotals totals;
  for (size_t m = 0; m < deployed.size(); ++m) {
    out->Attempt();
    auto replayed = ReplayRun(deployed[m].art(), inputs[m], tiles, &totals);
    if (!replayed.ok()) {
      out->Fail("infer: replay of " + deployed[m].name + ": " +
                replayed.status().ToString());
    } else if (!SameTensors(*replayed, expected[m])) {
      out->Fail("infer: replay of " + deployed[m].name +
                " differs from Executor::Run");
    }
  }
  return totals;
}

}  // namespace

std::vector<BuiltModel> BuildModels(models::PrecisionPolicy policy,
                                    LayerReport* layers, Outcome* out) {
  std::vector<BuiltModel> built;
  for (const models::RegisteredModel& m : models::Registry()) {
    out->Attempt();
    Span span("models", std::string("BuildByName ") + m.name);
    auto graph = models::BuildByName(m.name, policy);
    layers->build_ms.push_back(span.Stop());
    if (!graph.ok()) {
      out->Fail(std::string("build ") + m.name + ": " +
                graph.status().ToString());
      continue;
    }
    built.push_back({m.name, std::move(*graph)});
  }
  return built;
}

namespace {

// Build, compile, serialize, load, and construct both executors.
std::vector<Deployed> Deploy(const Settings& s, LayerReport* layers,
                             Outcome* out) {
  std::vector<Deployed> deployed;
  for (BuiltModel& model : BuildModels(models::PrecisionPolicy::kMixed,
                                       layers, out)) {
    out->Attempt();
    const compiler::CompileOptions options =
        PinnedOptions(s, ConfigByName("mixed"), "diana",
                      dory::ScheduleSearchKind::kHeuristic);
    Span compile("compiler", "Compile " + model.name);
    auto art = compiler::HtvmCompiler{options}.Compile(model.graph);
    const double compile_ms = compile.Stop();
    if (!art.ok()) {
      out->Fail("infer: compile " + model.name + ": " +
                art.status().ToString());
      continue;
    }
    layers->passes.Add(*art, compile_ms);
    Span serialize("vm", "SerializeHab " + model.name);
    const std::string bytes =
        vm::SerializeHab(*art, {model.name, "perfbench"});
    layers->serialize_ms.push_back(serialize.Stop());
    layers->hab_kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
    Span load("vm", "FromBuffer " + model.name);
    auto loaded = vm::LoadedArtifact::FromBuffer(std::span<const u8>(
        reinterpret_cast<const u8*>(bytes.data()), bytes.size()));
    layers->load_ms.push_back(load.Stop());
    if (!loaded.ok()) {
      out->Fail("infer: load " + model.name + ": " +
                loaded.status().ToString());
      continue;
    }
    Deployed d{model.name, std::move(*loaded), nullptr, nullptr};
    d.interp = std::make_unique<runtime::Executor>(d.loaded.artifact_ptr());
    d.tiles = std::make_unique<runtime::Executor>(
        d.loaded.artifact_ptr(),
        runtime::ExecutorOptions{.simulate_tiles = true});
    deployed.push_back(std::move(d));
  }
  return deployed;
}

// Warm-up passes on the golden inputs, checked against the digests.
void WarmUp(const Settings& s, const std::vector<Deployed>& deployed,
            Outcome* out) {
  DigestBook book(s, "infer");
  Outputs interp_out, tiles_out;
  for (u64 pass = 0; pass < kWarmupPasses; ++pass) {
    const Outputs inputs = PassInputs(deployed, kGoldenSeed, pass);
    RunHalf(deployed, inputs, false, &interp_out, nullptr, out);
    RunHalf(deployed, inputs, true, &tiles_out, nullptr, out);
    CompareHalves(deployed, interp_out, tiles_out, pass, out);
    for (size_t m = 0; m < deployed.size(); ++m) {
      out->Attempt();
      book.Check(StrFormat("pass%llu.%s",
                           static_cast<unsigned long long>(pass),
                           deployed[m].name.c_str()),
                 DigestTensors(interp_out[m]), out);
    }
  }
  if (Status st = book.Finish(); !st.ok()) out->Fail(st.ToString());
}

}  // namespace

void RunInfer(const Settings& s, EndToEnd* e2e, LayerReport* layers,
              Outcome* out) {
  std::vector<Deployed> deployed;
  e2e->setup_s = TimeSetups([&] {
    deployed = Deploy(s, layers, out);
    if (out->failed() == 0) WarmUp(s, deployed, out);
    return out->failed() == 0;
  });
  if (out->failed() > 0) return;
  std::vector<double> sim_latency_us;
  for (const Deployed& d : deployed) {
    e2e->sim_cycles += static_cast<double>(d.art().TotalFullCycles());
    e2e->binary_kb += static_cast<double>(d.art().size.Total()) / 1024.0;
    sim_latency_us.push_back(d.art().LatencyMs() * 1000.0);
  }
  e2e->sim_p99_us = Percentile(sim_latency_us, 99);

  Outputs interp_out, tiles_out;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.seconds));
  for (u64 pass = 0; Clock::now() < deadline; ++pass) {
    const Outputs inputs = PassInputs(deployed, s.seed, pass);
    auto* interp_ms = s.trace ? &layers->interp_ms : nullptr;
    auto* tiles_ms = s.trace ? &layers->tiles_ms : nullptr;
    const double interp = RunHalf(deployed, inputs, false, &interp_out,
                                  interp_ms, out);
    if (s.trace) {
      // Each replay runs right after the half it mirrors, on the same
      // inputs, so the two see the same cache state.
      const ReplayTotals ri =
          ReplayHalf(deployed, inputs, interp_out, false, out);
      layers->real_interp_pass_ms.push_back(interp);
      layers->replay_interp_pass_ms.push_back(ri.total_ms);
      layers->interp_passes.push_back(ri);
    }
    const double tiles =
        RunHalf(deployed, inputs, true, &tiles_out, tiles_ms, out);
    CompareHalves(deployed, interp_out, tiles_out, pass, out);
    e2e->op_ms.push_back(interp + tiles);
    e2e->items += static_cast<double>(2 * deployed.size());
    e2e->items_wall_s += (interp + tiles) / 1000.0;
    if (s.trace) {
      layers->tile_passes.push_back(
          ReplayHalf(deployed, inputs, tiles_out, true, out));
    }
  }
}

}  // namespace perfbench
