// Property tests for model-aware fleet placement over SoC families.
//
// Two invariants, swept over 50 random seeds:
//
//   1. Placement optimality — on a heterogeneous fleet with per-(model,
//      SoC-kind) predicted timings, every dispatched batch lands on exactly
//      the SoC minimizing predicted completion (max(free, arrival) +
//      predicted service), ties broken by earlier free time then lower
//      fleet index. The expected argmin is recomputed independently from
//      FleetScheduler::PredictedServiceUs and a mirrored free-time vector.
//
//   2. Cache isolation — compiling the same random network for different
//      SoC kinds produces pairwise-distinct cache keys, and entries never
//      cross-hit: recompiling per (network, SoC) hits its own entry while a
//      different SoC's compile misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "compiler/pipeline.hpp"
#include "hw/soc.hpp"
#include "ir/builder.hpp"
#include "serve/scheduler.hpp"
#include "support/rng.hpp"

namespace htvm {
namespace {

using serve::FleetScheduler;
using serve::InferRequest;
using serve::ScheduledBatch;
using serve::SchedulerOptions;

// Same generator as property_test.cpp: small random conv/dw/add/pool
// networks, always ending in GAP + dense.
Graph RandomNetwork(Rng& rng, Shape* in_shape) {
  GraphBuilder b(rng.NextU64());
  i64 c = 1 + static_cast<i64>(rng.UniformInt(1, 3)) * 4;
  i64 hw = static_cast<i64>(rng.UniformInt(6, 14));
  *in_shape = Shape{1, c, hw, hw};
  NodeId x = b.Input("x", *in_shape);
  const i64 stages = rng.UniformInt(2, 5);
  NodeId residual = kInvalidNode;
  for (i64 s = 0; s < stages; ++s) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        ConvSpec spec;
        spec.out_channels = static_cast<i64>(rng.UniformInt(1, 3)) * 8;
        spec.kernel_h = spec.kernel_w = rng.UniformInt(0, 1) ? 3 : 1;
        spec.relu = rng.UniformInt(0, 1) == 1;
        spec.shift = rng.UniformInt(4, 8);
        spec = WithSamePadding(spec, hw, hw);
        residual = x;
        x = b.ConvBlock(x, spec, "conv" + std::to_string(s));
        c = spec.out_channels;
        break;
      }
      case 1: {
        ConvSpec spec;
        spec.depthwise = true;
        spec.relu = true;
        spec = WithSamePadding(spec, hw, hw);
        x = b.ConvBlock(x, spec, "dw" + std::to_string(s));
        break;
      }
      case 2: {
        if (residual != kInvalidNode &&
            b.graph().node(residual).type == b.graph().node(x).type) {
          x = b.AddBlock(residual, x, /*relu=*/true, /*shift=*/1);
        } else {
          x = b.graph().AddOp("nn.relu", {x});
        }
        break;
      }
      default: {
        if (hw >= 4) {
          x = b.MaxPool(x, 2, 2);
          hw /= 2;
        }
        break;
      }
    }
  }
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.DenseBlock(x, 4, /*relu=*/false, 6);
  return b.Finish(x);
}

const char* kKindPool[] = {"diana", "diana-pe32", "diana-l1half",
                           "diana-scalar"};

TEST(PlacementProperty, EveryDispatchIsTheArgminOfPredictedCompletion) {
  for (u64 seed = 0; seed < 50; ++seed) {
    Rng rng(0x50C5 + seed * 7919);

    // Random heterogeneous fleet of 2..6 instances.
    const int fleet_size = static_cast<int>(rng.UniformInt(2, 6));
    std::vector<std::string> kinds;
    for (int s = 0; s < fleet_size; ++s) {
      kinds.push_back(kKindPool[rng.UniformInt(0, 3)]);
    }
    std::set<std::string> distinct(kinds.begin(), kinds.end());

    SchedulerOptions options;
    options.fleet_size = fleet_size;
    options.queue_capacity = 4096;  // no rejections in this property
    options.max_batch = 1;          // isolate placement from coalescing
    options.soc_kinds = kinds;
    FleetScheduler sched(options);

    // Random per-(model, kind) timing; each model misses some kinds (the
    // scheduler must never place it there) but runs on at least one.
    const int num_models = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < num_models; ++m) {
      bool any = false;
      for (const std::string& kind : distinct) {
        const bool last = kind == *distinct.rbegin();
        if (!any && last) {
          // Force availability on the final kind if every coin said no.
        } else if (rng.UniformInt(0, 3) == 0) {
          continue;  // model unavailable on this kind
        }
        any = true;
        sched.SetModelTiming(m, kind,
                             /*service_us=*/100.0 + rng.UniformInt(0, 1900),
                             /*batch_saving_us=*/rng.UniformInt(0, 50));
      }
      ASSERT_TRUE(sched.HasModelTiming(m));
    }

    // Offer a random arrival sequence and collect every dispatched batch.
    std::vector<ScheduledBatch> batches;
    double arrival = 0;
    for (u64 r = 0; r < 40; ++r) {
      arrival += rng.UniformInt(0, 600);
      const InferRequest request{r, static_cast<int>(
                                        rng.UniformInt(0, num_models - 1)),
                                 arrival};
      ASSERT_TRUE(sched.Offer(request, &batches));
    }
    for (ScheduledBatch& b : sched.Flush()) batches.push_back(std::move(b));

    // Replay: mirror the per-SoC free times and recompute the argmin the
    // scheduler should have picked for each batch, independently.
    std::vector<double> free_us(static_cast<size_t>(fleet_size), 0.0);
    for (const ScheduledBatch& batch : batches) {
      ASSERT_EQ(batch.requests.size(), 1u);
      const double ready = batch.requests[0].arrival_us;
      int best = -1;
      double best_done = 0;
      for (int s = 0; s < fleet_size; ++s) {
        const double service = sched.PredictedServiceUs(batch.model, s);
        if (service < 0) continue;  // model unavailable on this kind
        const double done = std::max(free_us[static_cast<size_t>(s)], ready)
                            + service;
        const bool better =
            best < 0 || done < best_done ||
            (done == best_done &&
             free_us[static_cast<size_t>(s)] <
                 free_us[static_cast<size_t>(best)]);
        if (better) {
          best = s;
          best_done = done;
        }
      }
      ASSERT_GE(best, 0) << "seed " << seed;
      EXPECT_EQ(batch.soc, best)
          << "seed " << seed << ": request " << batch.requests[0].id
          << " (model " << batch.model << ") placed on SoC " << batch.soc
          << " (" << sched.soc_kinds()[static_cast<size_t>(batch.soc)]
          << ") but the predicted-latency argmin is SoC " << best << " ("
          << sched.soc_kinds()[static_cast<size_t>(best)] << ")";
      EXPECT_NEAR(batch.done_us, best_done, 1e-6) << "seed " << seed;
      free_us[static_cast<size_t>(batch.soc)] = batch.done_us;
    }
    // Everything placed; nothing lost or left behind.
    EXPECT_EQ(static_cast<i64>(batches.size()), sched.admitted());
    EXPECT_EQ(sched.lost(), 0);
  }
}

TEST(PlacementProperty, CacheEntriesNeverCrossHitAcrossSocs) {
  const char* kKinds[] = {"diana", "diana-pe32", "diana-scalar"};
  cache::ArtifactCache cache;
  Rng rng(0xCACE);
  for (u64 seed = 0; seed < 50; ++seed) {
    Shape in_shape;
    const Graph net = RandomNetwork(rng, &in_shape);

    // Distinct keys per SoC for the identical graph, every seed.
    std::set<std::string> keys;
    for (const char* kind : kKinds) {
      compiler::CompileOptions options;
      options.soc = *hw::FindSoc(kind);
      keys.insert(cache.Key(net, options));
    }
    EXPECT_EQ(keys.size(), 3u) << "seed " << seed
                               << ": two SoCs share a cache key";

    // Every 5th network actually compiles through one shared cache: first
    // compile per (network, SoC) misses, the recompile hits its own entry —
    // 3 distinct entries, never a cross-SoC hit.
    if (seed % 5 != 0) continue;
    const cache::CacheStats before = cache.stats();
    for (int round = 0; round < 2; ++round) {
      for (const char* kind : kKinds) {
        compiler::CompileOptions options;
        options.soc = *hw::FindSoc(kind);
        options.cache = &cache;
        auto artifact = compiler::HtvmCompiler{options}.Compile(net);
        ASSERT_TRUE(artifact.ok()) << "seed " << seed << " on " << kind;
        EXPECT_EQ(artifact->soc_name, kind);
      }
    }
    const cache::CacheStats after = cache.stats();
    EXPECT_EQ(after.compiles - before.compiles, 3)
        << "seed " << seed << ": a SoC hit another SoC's entry";
    EXPECT_EQ(after.misses - before.misses, 3) << "seed " << seed;
    EXPECT_EQ(after.hits - before.hits, 3) << "seed " << seed;
  }
}

}  // namespace
}  // namespace htvm
