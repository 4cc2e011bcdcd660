// SolveServer: admission control, request lifecycle, coalescing and shared
// cache behavior, stats reconciliation, obs counters, and shutdown
// guarantees.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/resilient.hpp"
#include "faultsim/injector.hpp"
#include "gpu/resilient_gpu.hpp"
#include "gpusim/device.hpp"
#include "gpusim/topology.hpp"
#include "obs/session.hpp"
#include "workload/generators.hpp"

namespace pcmax::serve {
namespace {

// Few jobs per machine with times above T/k, so the PTAS rounds to real
// long-job DP problems and the probe cache sees traffic.
SolveRequest make_request(std::uint64_t seed, double epsilon = 0.5) {
  SolveRequest request;
  request.instance = workload::uniform_instance(8, 4, 30, 60, seed);
  request.options.epsilon = epsilon;
  request.options.num_threads = 1;
  return request;
}

TEST(ServeServer, RejectsMalformedInstances) {
  ServeOptions options;
  options.workers = 1;
  SolveServer server(options);

  SolveRequest no_jobs;
  no_jobs.instance.machines = 2;
  auto rejected = server.submit(std::move(no_jobs));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidInput);

  SolveRequest bad_machine = make_request(1);
  bad_machine.instance.machines = 0;
  rejected = server.submit(std::move(bad_machine));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidInput);

  SolveRequest bad_time = make_request(1);
  bad_time.instance.times[0] = 0;
  rejected = server.submit(std::move(bad_time));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidInput);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.admitted, 0u);
}

TEST(ServeServer, ServedResultMatchesDirectResilientSolve) {
  const SolveRequest request = make_request(7);
  // The server leads with the GPU engine; the direct reference must too.
  gpusim::Device device(gpusim::DeviceSpec::k40());
  ResilientResult direct = solve_resilient(
      request.instance, gpu::make_gpu_chain(device), request.options);

  ServeOptions options;
  options.workers = 1;
  SolveServer server(options);
  auto admitted = server.submit(make_request(7));
  ASSERT_TRUE(admitted.has_value());
  const SolveResponse response = admitted->get();

  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.coalesced);
  EXPECT_EQ(response.worker, 0);
  EXPECT_EQ(response.result.schedule.assignment,
            direct.schedule.assignment);
  EXPECT_EQ(response.result.achieved_makespan, direct.achieved_makespan);
  EXPECT_EQ(response.result.engine, direct.engine);
  EXPECT_EQ(response.result.k, direct.k);
  EXPECT_EQ(response.result.bound_num, direct.bound_num);
  EXPECT_EQ(response.result.bound_den, direct.bound_den);
}

TEST(ServeServer, WorkerDevicesKeepNoKernelLogBetweenRequests) {
  ServeOptions options;
  options.workers = 2;
  options.coalesce = false;
  options.share_probe_cache = false;  // every request launches kernels
  SolveServer server(options);
  const gpusim::Topology* topology = server.topology();
  ASSERT_NE(topology, nullptr);

  constexpr int kBatches = 10;
  constexpr int kBatchSize = 30;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<std::future<SolveResponse>> futures;
    for (int i = 0; i < kBatchSize; ++i) {
      auto admitted = server.submit(
          make_request(static_cast<std::uint64_t>(batch * kBatchSize + i)));
      ASSERT_TRUE(admitted.has_value());
      futures.push_back(std::move(*admitted));
    }
    for (auto& future : futures) ASSERT_TRUE(future.get().ok());
    // Every admitted request is answered, so the workers are idle.
    for (int w = 0; w < options.workers; ++w)
      EXPECT_TRUE(topology->device(w).log().empty())
          << "worker " << w << " after batch " << batch;
  }
  std::uint64_t kernels = 0;
  for (int w = 0; w < options.workers; ++w)
    kernels += topology->device(w).stats().kernels;
  EXPECT_GT(kernels, static_cast<std::uint64_t>(kBatches * kBatchSize));
}

TEST(ServeServer, AdmissionControlRejectsOverflowWithTypedStatus) {
  ServeOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.start_paused = true;  // park the worker so the queue actually fills
  SolveServer server(options);

  std::vector<std::future<SolveResponse>> admitted;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto result = server.submit(make_request(seed));
    if (result.has_value()) {
      admitted.push_back(std::move(*result));
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(rejected, 3u);

  server.resume();
  for (auto& future : admitted) EXPECT_TRUE(future.get().ok());

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeServer, CoalescesQueuedDuplicates) {
  ServeOptions options;
  options.workers = 2;
  options.start_paused = true;
  SolveServer server(options);

  // Same request four times plus one distinct: queued together, the three
  // later duplicates ride the leader's solve.
  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    auto admitted = server.submit(make_request(11));
    ASSERT_TRUE(admitted.has_value());
    futures.push_back(std::move(*admitted));
  }
  auto distinct = server.submit(make_request(12));
  ASSERT_TRUE(distinct.has_value());
  futures.push_back(std::move(*distinct));
  server.resume();

  std::vector<SolveResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());

  // completed counts performed solves (two: the leader and the distinct
  // request); the three followers count only as coalesced.
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.completed + stats.failed + stats.coalesced, 5u);

  // Followers carry their own ids but the leader's exact result.
  std::size_t coalesced_seen = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(responses[i].result.schedule.assignment,
              responses[0].result.schedule.assignment);
    EXPECT_EQ(responses[i].result.achieved_makespan,
              responses[0].result.achieved_makespan);
    if (responses[i].coalesced) ++coalesced_seen;
  }
  EXPECT_EQ(coalesced_seen, 3u);
  EXPECT_FALSE(responses[4].coalesced);

  // Ids are distinct even among coalesced responses.
  EXPECT_NE(responses[1].request_id, responses[0].request_id);
  EXPECT_NE(responses[2].request_id, responses[1].request_id);
}

TEST(ServeServer, CoalescingOffSolvesEveryDuplicate) {
  ServeOptions options;
  options.workers = 1;
  options.coalesce = false;
  options.start_paused = true;
  SolveServer server(options);

  std::vector<std::future<SolveResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    auto admitted = server.submit(make_request(21));
    ASSERT_TRUE(admitted.has_value());
    futures.push_back(std::move(*admitted));
  }
  server.resume();
  for (auto& future : futures) {
    const SolveResponse response = future.get();
    EXPECT_TRUE(response.ok());
    EXPECT_FALSE(response.coalesced);
  }
  EXPECT_EQ(server.stats().coalesced, 0u);
}

TEST(ServeServer, SharedCacheCrossesRequests) {
  ServeOptions options;
  options.workers = 1;
  SolveServer server(options);

  // Two identical requests served strictly one after the other (never
  // queued together, so coalescing cannot merge them): the second request's
  // probes hit entries the first inserted — cross-request hits.
  auto first = server.submit(make_request(31));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->get().ok());
  const ProbeCacheStats after_first = server.probe_cache()->stats();

  auto second = server.submit(make_request(31));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->get().ok());
  const ProbeCacheStats after_second = server.probe_cache()->stats();

  EXPECT_GT(after_second.cross_hits, after_first.cross_hits);
  EXPECT_GT(after_second.hits, after_first.hits);
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.cache.cross_hits, after_second.cross_hits);
}

TEST(ServeServer, CacheSharingOffLeavesNoSharedCache) {
  ServeOptions options;
  options.workers = 1;
  options.share_probe_cache = false;
  SolveServer server(options);
  EXPECT_EQ(server.probe_cache(), nullptr);
  auto admitted = server.submit(make_request(41));
  ASSERT_TRUE(admitted.has_value());
  EXPECT_TRUE(admitted->get().ok());
  EXPECT_EQ(server.stats().cache.lookups, 0u);
}

TEST(ServeServer, ShutdownAnswersEveryAdmittedRequest) {
  ServeOptions options;
  options.workers = 2;
  options.start_paused = true;
  SolveServer server(options);

  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto admitted = server.submit(make_request(seed));
    ASSERT_TRUE(admitted.has_value());
    futures.push_back(std::move(*admitted));
  }
  // shutdown() with the workers still parked: it must release them, drain
  // the queue, and only then return.
  server.shutdown();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);

  // Submissions after shutdown are rejected, not lost.
  auto late = server.submit(make_request(99));
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(ServeServer, EmitsServeCountersAndRequestTaggedTrace) {
  obs::ObsSession session;
  {
    ServeOptions options;
    options.workers = 1;
    options.start_paused = true;
    SolveServer server(options);
    std::vector<std::future<SolveResponse>> futures;
    for (int i = 0; i < 2; ++i) {
      auto admitted = server.submit(make_request(51));
      ASSERT_TRUE(admitted.has_value());
      futures.push_back(std::move(*admitted));
    }
    server.resume();
    for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  }
  EXPECT_EQ(session.metrics().counter("serve.admitted"), 2u);
  EXPECT_EQ(session.metrics().counter("serve.coalesced"), 1u);
  EXPECT_EQ(session.metrics().counter("serve.completed"), 1u);
  EXPECT_GT(session.metrics().counter("probe_cache.lookups"), 0u);

  // The worker recorded on its own track, and its events carry the leader's
  // request id as the automatic "req" arg.
  bool saw_enqueue = false;
  bool saw_coalesce = false;
  bool saw_worker_req_tag = false;
  for (const obs::TraceEvent& event : session.trace().snapshot()) {
    const std::string_view name(event.name);
    if (name == "serve/enqueue") saw_enqueue = true;
    if (name == "serve/coalesce") saw_coalesce = true;
    if (name == "serve/solve" && event.tid >= obs::kWorkerTidBase) {
      for (const obs::TraceArg& a : event.args)
        if (a.used() && std::string_view(a.key) == "req")
          saw_worker_req_tag = true;
    }
  }
  EXPECT_TRUE(saw_enqueue);
  EXPECT_TRUE(saw_coalesce);
  EXPECT_TRUE(saw_worker_req_tag);
}

TEST(ServeServer, QuarantinesWorkerAfterDeviceLossAndReadmitsAfterReset) {
  obs::ObsSession session;
  ServeOptions options;
  options.workers = 1;  // deterministic: one worker owns the one device
  SolveServer server(options);

  // Phase 1: a loss storm kills the worker's device mid-solve. The request
  // must still complete (degraded through the resilient chain, or recovered)
  // and the worker must enter quarantine.
  {
    faultsim::ScopedFaultInjector scoped(
        *faultsim::parse_fault_plan("seed=5;device-lost:permille=1000"));
    auto admitted = server.submit(make_request(21));
    ASSERT_TRUE(admitted.has_value());
    const SolveResponse response = admitted->get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    EXPECT_TRUE(response.result.degraded);
    bool saw_lost = false;
    for (const AttemptRecord& attempt : response.result.attempts)
      saw_lost = saw_lost ||
                 attempt.status.code() == StatusCode::kDeviceLost;
    EXPECT_TRUE(saw_lost) << "the loss must be typed on the attempt record";
  }
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.quarantine_entered, 1u);
  EXPECT_EQ(stats.quarantine_readmitted, 0u);
  EXPECT_EQ(session.metrics().counter("serve.quarantine.entered"), 1u);

  // Phase 2: quarantined, the worker serves on the CPU-only chain — no GPU
  // attempt (which would fail instantly on the dead device), still correct.
  {
    auto admitted = server.submit(make_request(22));
    ASSERT_TRUE(admitted.has_value());
    const SolveResponse response = admitted->get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    EXPECT_NE(response.result.engine, "gpu-ptas");
    for (const AttemptRecord& attempt : response.result.attempts)
      EXPECT_NE(attempt.status.code(), StatusCode::kDeviceLost)
          << "a quarantined worker must not re-touch its dead device";
  }
  EXPECT_EQ(server.stats().quarantined, 1u);

  // Phase 3: reset_and_readmit on the quiesced server resurrects the
  // device; the worker is back on its GPU chain.
  EXPECT_EQ(server.reset_and_readmit(), 1);
  stats = server.stats();
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.quarantine_readmitted, 1u);
  EXPECT_EQ(session.metrics().counter("serve.quarantine.readmitted"), 1u);
  {
    auto admitted = server.submit(make_request(23));
    ASSERT_TRUE(admitted.has_value());
    const SolveResponse response = admitted->get();
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    EXPECT_EQ(response.result.engine, "gpu-ptas");
    EXPECT_FALSE(response.result.degraded);
  }
  // Idempotent: nothing left to re-admit.
  EXPECT_EQ(server.reset_and_readmit(), 0);
}

}  // namespace
}  // namespace pcmax::serve
