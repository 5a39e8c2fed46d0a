/**
 * @file
 * hit_storm and mixed_fleet: the deployed TCP stack (one shard, two
 * reactors, two service workers) under open-loop exact-hit traffic.
 *
 * Set-up calibrates, starts the service and server, and primes the 16
 * zoo requests (4 models x 4 loss targets) through the server from two
 * clients.  The AlexNet/ResNet50 keys are the small hit class (<= 600
 * operators, <= 73 KB frames) and the BERT keys the large one (1946
 * operators, 250 KB frames); GPT3 is primed but never hit.
 *
 * hit_storm climbs a fixed ladder of offered rates past saturation.
 * mixed_fleet holds the reference rate while a third client sends new
 * keys that the worker pool must search for.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/fingerprint.h"
#include "workloads.h"

namespace perfbench {

using namespace opdvfs;

namespace {

/**
 * A generator later than this at p99 invalidates an open-loop
 * measurement.  A sleeping generator thread on a shared 4-vCPU machine
 * wakes up to ~5 ms late at p99, which the latency (timed from the
 * schedule) then includes.
 */
constexpr double kLateBoundMs = 10.0;

constexpr std::size_t kReactors = 2;
constexpr std::size_t kHitClients = 2;
/**
 * hit_storm's reference rate: about a third of hit-only saturation
 * (1000-1400/s on a shared 4-vCPU machine), where latency is
 * per-request cost rather than queueing.  It runs first, for
 * kReferenceShare of the run: 2400 samples at 20 s.
 */
constexpr double kReferenceRate = 400;
constexpr double kReferenceShare = 0.3;
/** The ladder that follows, ~10% apart up to past saturation, in
 *  requests per second over both clients; 1.75 s a rung at 20 s, so
 *  every rung's p99 has at least 1000 samples. */
const std::vector<double> kLadder = {700,  800,  900,  1000,
                                     1100, 1200, 1350, 1500};
/** mixed_fleet's hit rate: below hit-only saturation with room for the
 *  searches beside it. */
constexpr double kMixedRate = 600;
/** New keys mixed_fleet sends per second: below the pool's rate for
 *  them (~0.3-0.6 s each), so they rarely queue behind each other. */
constexpr double kMissesPerSecond = 1.2;
/** Length of the traced hit segment. */
constexpr double kTracedSeconds = 2.0;

/** One open-loop interval of constant offered rate. */
struct Rung
{
    double start = 0.0; // seconds after the phase starts
    double duration = 0.0;
    double rate = 0.0;
};

/** One hit as the generator saw it; times in seconds after phase start. */
struct HitSample
{
    double scheduled = 0.0;
    double sent = 0.0;
    /** Generator lateness: send minus max(schedule, previous answer). */
    double late = 0.0;
    double done = 0.0;
    std::uint32_t key = 0;
    std::uint16_t rung = 0;
    bool ok = false;
};

/** The 12 hit keys: requests and their reference exact-hit bytes. */
struct HitKeys
{
    std::vector<net::WireRequest> requests;
    std::vector<std::string> reference;
    std::size_t small = 0;
};

/** Client, server and service; destroyed in that order. */
struct NetStack
{
    std::unique_ptr<serve::StrategyService> service;
    std::unique_ptr<net::StrategyServer> server;
    std::vector<std::unique_ptr<net::StrategyClient>> clients;
};

net::WireRequest
wireRequest(const ColdRequest &request, bool allow_warm_start)
{
    net::WireRequest wire;
    wire.workload = request.workload;
    wire.chip = bench::standardChip();
    wire.perf_loss_target = request.target;
    wire.seed = request.seed;
    wire.allow_warm_start = allow_warm_start;
    return wire;
}

/** The exact-hit answer's bytes, with the service time every fast-path
 *  hit pins to zero also zeroed for worker-path hits. */
std::string
hitBytes(net::WireResponse response)
{
    response.service_seconds = 0.0;
    return net::encodeResponse(response);
}

struct Prime
{
    ColdAnswer answer;
    bool ok = false;
};

/**
 * Prime every request from one client, closed loop, in zoo order: the
 * same pass cold_zoo times in-process, here through the server.
 */
std::vector<Prime>
primeAll(NetStack &stack, const std::vector<ColdRequest> &requests,
         Result &result)
{
    std::vector<Prime> primes(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ++result.attempted;
        net::WireRequest wire = wireRequest(requests[i], false);
        Clock::time_point sent = Clock::now();
        try {
            net::WireResponse response = stack.clients[0]->call(wire);
            primes[i].answer = ColdAnswer{
                requests[i], response.strategy.mhz_per_stage,
                response.best_score, response.strategy.plan,
                response.strategy.stages.size(), secondsSince(sent)};
            primes[i].ok = response.status == net::Status::Ok
                && response.provenance == serve::Provenance::Cold;
        } catch (const std::exception &) {
            primes[i].ok = false;
        }
        if (!primes[i].ok) {
            ++result.failed;
            result.fail("priming request did not come back cold");
        }
    }
    return primes;
}

/**
 * Ask each hit key (hitKeyOrder) twice, from hit clients 0 and 1; both
 * answers must be byte-equal exact hits.  This also connects the two hit
 * clients in order, so the server's round-robin accept puts them on
 * different reactors in every run.
 */
HitKeys
referenceHits(NetStack &stack, const std::vector<ColdRequest> &requests,
              const std::vector<Prime> &primes, std::uint64_t seed,
              Result &result)
{
    HitKeys keys;
    for (std::size_t i : hitKeyOrder(requests, seed, keys.small)) {
        net::WireRequest wire = wireRequest(requests[i], false);
        std::string first;
        for (int ask = 0; ask < 2; ++ask) {
            ++result.attempted;
            net::WireResponse hit = stack.clients[ask]->call(wire);
            if (hit.status != net::Status::Ok
                || hit.provenance != serve::Provenance::ExactHit
                || !(hit.strategy.mhz_per_stage
                     == primes[i].answer.best_mhz))
                result.fail("reference hit is not the primed answer");
            std::string bytes = hitBytes(hit);
            if (ask == 0)
                first = bytes;
            else if (bytes != first)
                result.fail("two exact hits of one key differ");
        }
        keys.requests.push_back(wire);
        keys.reference.push_back(first);
    }
    return keys;
}

/** Everything set-up produced that the timed phase and checks need. */
struct SetUp
{
    NetStack stack;
    dvfs::PipelineOptions base;
    std::vector<ColdRequest> requests;
    std::vector<Prime> primes;
    HitKeys keys;
    double setup_s = 0.0;
    double calibrate_s = 0.0;
};

/** Calibrate, start the service and server, prime, fetch reference
 *  hits.  One set-up per run: priming is most of it (~9 s). */
void
setUp(const Args &args, std::size_t clients, SpanRecorder *recorder,
      SetUp &out, Result &result)
{
    out.requests = zooPass(zooInputs(), args.seed, 0);
    bench::calibratedConstants(); // standardPipeline's one-off, untimed
    Clock::time_point started = Clock::now();
    power::CalibratedConstants constants = calibrate(recorder);
    out.calibrate_s = secondsSince(started);
    out.base = servicePipeline(constants);
    serve::ServiceOptions service_options;
    service_options.pipeline = out.base;
    service_options.workers = kServiceWorkers;
    out.stack.service =
        std::make_unique<serve::StrategyService>(service_options);
    net::ServerOptions server_options;
    server_options.reactor_threads = kReactors;
    out.stack.server = std::make_unique<net::StrategyServer>(
        *out.stack.service, server_options);
    out.stack.server->start();
    for (std::size_t c = 0; c < clients; ++c) {
        out.stack.clients.push_back(std::make_unique<net::StrategyClient>(
            "127.0.0.1", out.stack.server->port()));
    }
    out.primes = primeAll(out.stack, out.requests, result);
    out.keys = referenceHits(out.stack, out.requests, out.primes, args.seed,
                             result);
    out.setup_s = secondsSince(started);
}

/** Sleep until @p at seconds after @p epoch. */
void
sleepUntil(Clock::time_point epoch, double at)
{
    std::this_thread::sleep_until(
        epoch
        + std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(at)));
}

/** Per-request spans of the traced hit segment, per thread. */
struct HitTrace
{
    SpanRecorder *recorder = nullptr;
    std::uint64_t next_id = 0;
};

/**
 * One open-loop client: sends hits on its share of each rung's
 * schedule and records when each was due, sent and answered.
 */
void
hitLoop(net::StrategyClient &client, const HitKeys &keys,
        const std::vector<Rung> &rungs, std::size_t thread,
        std::uint64_t seed, Clock::time_point epoch,
        std::vector<HitSample> &out, std::atomic<std::uint64_t> &mismatches,
        HitTrace *traced)
{
    KeyMix mix(keys.small, keys.requests.size() - keys.small, kSmallShare,
               kZipfExponent, seed);
    double previous_done = 0.0;
    for (std::size_t r = 0; r < rungs.size(); ++r) {
        double interval = static_cast<double>(kHitClients) / rungs[r].rate;
        double first = rungs[r].start
            + interval * static_cast<double>(thread) / kHitClients;
        auto count = static_cast<std::size_t>(rungs[r].duration / interval);
        for (std::size_t i = 0; i < count; ++i) {
            HitSample sample;
            sample.scheduled = first + static_cast<double>(i) * interval;
            sample.rung = static_cast<std::uint16_t>(r);
            sample.key = static_cast<std::uint32_t>(mix.next());
            sleepUntil(epoch, sample.scheduled);
            sample.sent = seconds(epoch, Clock::now());
            sample.late = sample.sent
                - std::max(sample.scheduled, previous_done);
            const net::WireRequest &request = keys.requests[sample.key];
            long parent = -1;
            std::uint64_t id = 0;
            if (traced) {
                id = traced->next_id++;
                parent = traced->recorder->open("hit", -1, id);
                Clock::time_point t0 = Clock::now();
                std::string payload = net::encodeRequest(request);
                Clock::time_point t1 = Clock::now();
                net::WireRequest decoded = net::decodeRequest(payload);
                Clock::time_point t2 = Clock::now();
                serve::fingerprintRequest(decoded.workload, decoded.chip,
                                          decoded.perf_loss_target,
                                          decoded.seed);
                Clock::time_point t3 = Clock::now();
                bool small = keys.small > sample.key;
                traced->recorder->add("net.client_encode", t0, t1, parent, id);
                traced->recorder->add(small ? "net.decode.small"
                                            : "net.decode.bert",
                                      t1, t2, parent, id);
                traced->recorder->add(small ? "serve.fingerprint.small"
                                            : "serve.fingerprint.bert",
                                      t2, t3, parent, id);
            }
            try {
                Clock::time_point call_start = Clock::now();
                net::WireResponse response = client.call(request);
                Clock::time_point call_end = Clock::now();
                sample.done = seconds(epoch, call_end);
                sample.ok = response.status == net::Status::Ok;
                std::string bytes = hitBytes(response);
                if (response.provenance != serve::Provenance::ExactHit
                    || bytes != keys.reference[sample.key])
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                if (traced) {
                    traced->recorder->add("net.call", call_start, call_end,
                                          parent, id);
                    Clock::time_point d0 = Clock::now();
                    net::decodeResponse(bytes);
                    traced->recorder->add("net.client_decode", d0,
                                          Clock::now(), parent, id);
                }
            } catch (const std::exception &) {
                sample.done = seconds(epoch, Clock::now());
                sample.ok = false;
            }
            if (traced)
                traced->recorder->close(parent);
            previous_done = sample.done;
            out.push_back(sample);
        }
    }
}

/** Run the hit clients over @p rungs; returns every sample. */
std::vector<HitSample>
runHits(NetStack &stack, const HitKeys &keys, const std::vector<Rung> &rungs,
        std::uint64_t seed, Clock::time_point epoch, Result &result,
        SpanRecorder *recorder)
{
    std::vector<std::vector<HitSample>> per_thread(kHitClients);
    std::vector<SpanRecorder> thread_spans(kHitClients, SpanRecorder(epoch));
    std::vector<HitTrace> traces(kHitClients);
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kHitClients; ++c) {
        traces[c].recorder = &thread_spans[c];
        traces[c].next_id = (c + 1) << 32;
        threads.emplace_back([&, c] {
            hitLoop(*stack.clients[c], keys, rungs, c,
                    deriveSeed(seed, 0x200 + c), epoch, per_thread[c],
                    mismatches, recorder ? &traces[c] : nullptr);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    if (recorder) {
        for (const SpanRecorder &spans : thread_spans)
            recorder->merge(spans);
    }
    if (mismatches.load() > 0)
        result.fail(std::to_string(mismatches.load())
                    + " hits were not byte-equal exact hits");
    std::vector<HitSample> samples;
    for (const auto &thread_samples : per_thread)
        samples.insert(samples.end(), thread_samples.begin(),
                       thread_samples.end());
    for (const HitSample &sample : samples) {
        ++result.attempted;
        if (!sample.ok)
            ++result.failed;
    }
    return samples;
}

struct RungStats
{
    double offered = 0.0;
    double achieved = 0.0;
    Percentiles latency;
    double late_p99_ms = 0.0;
    std::size_t sent = 0;
    std::size_t failed = 0;
    bool valid = false;
    bool meets = false;
};

RungStats
rungStats(const std::vector<HitSample> &samples, const Rung &rung,
          std::size_t index)
{
    RungStats stats;
    stats.offered = rung.rate;
    std::vector<double> latency;
    std::vector<double> late;
    double last_done = rung.start + rung.duration;
    std::size_t ok = 0;
    for (const HitSample &sample : samples) {
        if (sample.rung != index)
            continue;
        ++stats.sent;
        late.push_back(sample.late);
        if (sample.ok) {
            ++ok;
            latency.push_back(sample.done - sample.scheduled);
            last_done = std::max(last_done, sample.done);
        } else {
            ++stats.failed;
            latency.push_back(kFailedLatency);
        }
    }
    stats.latency = percentiles(latency, 0.99);
    std::sort(late.begin(), late.end());
    stats.late_p99_ms = quantileSorted(late, 0.99) * 1e3;
    stats.achieved = static_cast<double>(ok) / (last_done - rung.start);
    stats.valid = stats.late_p99_ms <= kLateBoundMs;
    stats.meets = stats.valid && stats.failed == 0
        && stats.latency.tail * 1e3 <= kHitLimitMs
        && stats.achieved >= 0.95 * stats.offered;
    return stats;
}

void
printRung(const RungStats &rung)
{
    std::cout << "  offered " << rung.offered << " rps: achieved "
              << rung.achieved << " rps, p50 " << rung.latency.p50 * 1e3
              << " ms, p" << rung.latency.tail_percentile << " "
              << rung.latency.tail * 1e3 << " ms, generator late p99 "
              << rung.late_p99_ms << " ms, " << rung.failed << "/"
              << rung.sent << " failed"
              << (rung.valid ? "" : " [INVALID: generator late]")
              << (rung.meets ? " [meets limit]" : "") << "\n";
}

struct ServerDelta
{
    double fast_path_ratio = 0.0;
    double reactor_imbalance = 0.0;
    double busy = 0.0;
};

ServerDelta
serverDelta(const net::ServerStats &before, const net::ServerStats &after)
{
    ServerDelta delta;
    double frames = static_cast<double>(after.frames_in - before.frames_in);
    if (frames > 0.0) {
        delta.fast_path_ratio =
            static_cast<double>(after.fast_path_hits - before.fast_path_hits)
            / frames;
        double busiest = 0.0;
        for (std::size_t r = 0; r < after.reactors.size(); ++r) {
            busiest = std::max(
                busiest, static_cast<double>(after.reactors[r].frames_in
                                             - before.reactors[r].frames_in));
        }
        delta.reactor_imbalance = busiest * static_cast<double>(
                                      after.reactors.size())
            / frames;
    }
    delta.busy =
        static_cast<double>(after.responses_busy - before.responses_busy);
    return delta;
}

/** The cold metrics every net workload takes from its priming. */
void
primingEndToEnd(const SetUp &setup, EndToEnd &e2e)
{
    double total = 0.0;
    for (const Prime &prime : setup.primes)
        total += prime.answer.latency_s;
    if (total > 0.0)
        e2e.cold_strategies_per_s =
            static_cast<double>(setup.primes.size()) / total;
    e2e.setup_s = {setup.setup_s};
}

/** Median priming latency of GPT3, seconds. */
double
primingGpt3Median(const SetUp &setup)
{
    std::vector<double> gpt3_s;
    for (const Prime &prime : setup.primes) {
        if (prime.answer.request.model == "GPT3")
            gpt3_s.push_back(prime.answer.latency_s);
    }
    return median(gpt3_s);
}

/**
 * Hit latencies of an open-loop rung, or NaN (printed as null) when its
 * generator ran late: such a run measures the generator, not the
 * program, and is reported as invalid rather than as numbers.
 */
Percentiles
validLatency(const RungStats &stats, const std::string &what)
{
    if (stats.valid)
        return stats.latency;
    std::cout << "INVALID: generator ran late at " << what << " (p99 "
              << stats.late_p99_ms << " ms > " << kLateBoundMs
              << " ms); its hit latencies are reported as null\n";
    Percentiles invalid = stats.latency;
    invalid.p50 = std::numeric_limits<double>::quiet_NaN();
    invalid.tail = invalid.p50;
    return invalid;
}

/**
 * Quality, then (traced runs only) the cold-answer checks against the
 * rebuilt pipeline and the per-layer metrics, including a traced hit
 * segment at @p hit_rate whose p50 is compared with @p untraced_p50_s.
 * A traced run's @p layers come with the hit and miss timings set.
 */
void
finish(const Args &args, SetUp &setup, const std::vector<ColdAnswer> &extra,
       const std::vector<HitSample> &main_samples, double hit_rate,
       double untraced_p50_s, const net::ServerStats &before,
       const net::ServerStats &after, EndToEnd &e2e, Layers &layers,
       Result &result, SpanRecorder &spans)
{
    std::vector<ColdAnswer> cold;
    for (const Prime &prime : setup.primes)
        cold.push_back(prime.answer);
    ZooQuality quality = measureQuality(cold, setup.base);
    e2e.aicore_saving_pct = quality.aicore_saving_pct;
    e2e.soc_saving_pct = quality.soc_saving_pct;
    e2e.loss_overshoot_pct = quality.loss_overshoot_pct;
    if (!args.trace) {
        publish(e2e, nullptr, result);
        return;
    }

    serve::ServiceStats service_stats = setup.stack.service->stats();
    cold.insert(cold.end(), extra.begin(), extra.end());
    RebuildTotals totals;
    std::vector<double> rebuilt_s;
    verifyColdAnswers(cold, setup.base, &spans, result, totals, rebuilt_s);

    coldPathLayers(spans.spans(), totals, layers);
    layers.power_calibrate_s = setup.calibrate_s;
    serviceLayers(service_stats, layers);

    // The traced hit segment: same keys and rate, spans per request.
    Clock::time_point epoch = Clock::now();
    std::vector<Rung> traced_rung = {Rung{0.05, kTracedSeconds, hit_rate}};
    std::vector<HitSample> traced = runHits(setup.stack, setup.keys,
                                            traced_rung,
                                            deriveSeed(args.seed, 0x300),
                                            epoch, result, &spans);
    RungStats traced_stats = rungStats(traced, traced_rung[0], 0);
    if (untraced_p50_s > 0.0)
        layers.trace_overhead_pct =
            (traced_stats.latency.p50 - untraced_p50_s) / untraced_p50_s
            * 100.0;
    const std::vector<Span> &all = spans.spans();
    layers.net_client_encode_us = medianSpanMicros(all, "net.client_encode");
    layers.net_decode_us_small = medianSpanMicros(all, "net.decode.small");
    layers.net_decode_us_bert = medianSpanMicros(all, "net.decode.bert");
    layers.serve_fingerprint_us_small =
        medianSpanMicros(all, "serve.fingerprint.small");
    layers.serve_fingerprint_us_bert =
        medianSpanMicros(all, "serve.fingerprint.bert");
    std::vector<double> server_ms;
    std::map<std::uint64_t, double> per_hit; // call minus client codec
    for (const Span &span : all) {
        if (span.name == "net.call")
            per_hit[span.request] += span.duration();
        else if (span.name == "net.client_encode"
                 || span.name == "net.client_decode")
            per_hit[span.request] -= span.duration();
    }
    for (const auto &[id, seconds_left] : per_hit)
        server_ms.push_back(seconds_left * 1e3);
    layers.net_server_ms = median(server_ms);

    ServerDelta delta = serverDelta(before, after);
    layers.net_fast_path_ratio = delta.fast_path_ratio;
    layers.net_reactor_imbalance = delta.reactor_imbalance;
    layers.net_busy = delta.busy;
    std::vector<double> late;
    for (const HitSample &sample : main_samples)
        late.push_back(sample.late);
    std::sort(late.begin(), late.end());
    layers.gen_late_p99_ms = quantileSorted(late, 0.99) * 1e3;
    publish(e2e, &layers, result);
}

/**
 * mixed_fleet's new keys.  Slot i's family, model and loss target are
 * fixed (families in turn, models and targets cycling), so every seed
 * sends the same mix of warm and cold work; the seed sets the request
 * seeds and the generated operators' parameters.
 */
std::vector<ColdRequest>
missKeys(const std::vector<ColdRequest> &primed, std::uint64_t seed,
         std::size_t count)
{
    npu::MemorySystem memory(bench::standardChip().memory);
    const std::vector<std::string> seen = {"AlexNet", "ResNet50", "BERT"};
    const std::vector<std::string> unseen = {"VGG19",      "Vit_base",
                                             "Deit_small", "Softmax-op",
                                             "Tanh-op",    "ResNet152"};
    std::uint64_t state = deriveSeed(seed, 0x400);
    std::vector<ColdRequest> keys;
    for (std::size_t i = 0; i < count; ++i) {
        ColdRequest key;
        std::size_t turn = i / 3;
        key.target = zooTargets()[i % zooTargets().size()];
        key.seed = splitmix64(state) % 4294967295u + 1;
        switch (i % 3) {
        case 0: { // a primed workload under a new seed: warm at 1.0
            key.model = seen[turn % seen.size()];
            for (const ColdRequest &request : primed) {
                if (request.model == key.model)
                    key.workload = request.workload;
            }
            break;
        }
        case 1: { // a BERT-like shape near the primed BERT
            models::TransformerConfig config;
            config.name = "BERT-like";
            config.layers = 24;
            config.hidden = 1024;
            config.heads = 16;
            config.seq = 384 + 64 * static_cast<int>(turn % 5);
            config.batch = 24 + 8 * static_cast<int>(turn % 3);
            config.micro_batches = 2;
            key.model = config.name;
            key.workload = models::buildTransformerTraining(
                memory, config, splitmix64(state) % 65536);
            break;
        }
        default: { // a model no request has used yet: cold
            key.model = unseen[turn % unseen.size()];
            key.workload = models::buildWorkload(key.model, memory,
                                                 splitmix64(state) % 65536);
            break;
        }
        }
        keys.push_back(std::move(key));
    }
    return keys;
}

} // namespace

void
runHitStorm(const Args &args, Result &result, SpanRecorder &spans)
{
    SetUp setup;
    setUp(args, kHitClients, args.trace ? &spans : nullptr, setup, result);

    double reference = args.seconds * kReferenceShare;
    std::vector<Rung> rungs = {Rung{0.01, reference, kReferenceRate}};
    double step = (args.seconds - reference)
        / static_cast<double>(kLadder.size());
    for (double rate : kLadder)
        rungs.push_back(Rung{rungs.back().start + rungs.back().duration,
                             step, rate});
    net::ServerStats before = setup.stack.server->stats();
    std::vector<HitSample> samples =
        runHits(setup.stack, setup.keys, rungs, args.seed, Clock::now(),
                result, nullptr);
    net::ServerStats after = setup.stack.server->stats();

    EndToEnd e2e;
    Layers layers;
    primingEndToEnd(setup, e2e);
    std::cout << "hit_storm (limit p99 <= " << kHitLimitMs << " ms):\n";
    std::vector<RungStats> stats;
    for (std::size_t r = 0; r < rungs.size(); ++r) {
        stats.push_back(rungStats(samples, rungs[r], r));
        printRung(stats.back());
    }
    Percentiles reference_latency =
        validLatency(stats[0], "the reference rate");
    e2e.hit_p50_ms = reference_latency.p50 * 1e3;
    if (args.trace) {
        layers.hit_p99_ms = reference_latency.tail * 1e3;
        for (const RungStats &rung : stats) {
            if (rung.meets)
                layers.hit_slo_rps = rung.achieved;
        }
        layers.cold_gpt3_p50_s = primingGpt3Median(setup);
        std::vector<double> prime_s;
        for (const Prime &prime : setup.primes)
            prime_s.push_back(prime.answer.latency_s);
        layers.miss_p50_s = median(prime_s);
    }
    finish(args, setup, {}, samples, kReferenceRate, reference_latency.p50,
           before, after, e2e, layers, result, spans);
}

void
runMixedFleet(const Args &args, Result &result, SpanRecorder &spans)
{
    SetUp setup;
    setUp(args, kHitClients + 1, args.trace ? &spans : nullptr, setup,
          result);
    auto miss_count = static_cast<std::size_t>(
        std::max(3.0, std::floor(args.seconds * kMissesPerSecond)));
    std::vector<ColdRequest> misses =
        missKeys(setup.requests, args.seed, miss_count);

    std::vector<Rung> rungs = {Rung{0.05, args.seconds, kMixedRate}};
    net::ServerStats before = setup.stack.server->stats();
    Clock::time_point epoch = Clock::now();

    std::vector<double> miss_s(misses.size(), kFailedLatency);
    std::vector<net::WireResponse> miss_answers(misses.size());
    std::vector<bool> miss_ok(misses.size(), false);
    std::thread miss_thread([&] {
        net::StrategyClient &client = *setup.stack.clients[kHitClients];
        double interval = args.seconds / static_cast<double>(misses.size());
        for (std::size_t i = 0; i < misses.size(); ++i) {
            double scheduled = 0.05 + interval * static_cast<double>(i);
            sleepUntil(epoch, scheduled);
            try {
                miss_answers[i] = client.call(wireRequest(misses[i], true));
                miss_s[i] = seconds(epoch, Clock::now()) - scheduled;
                miss_ok[i] = miss_answers[i].status == net::Status::Ok;
            } catch (const std::exception &) {
                miss_ok[i] = false;
            }
        }
    });
    std::vector<HitSample> samples = runHits(
        setup.stack, setup.keys, rungs, args.seed, epoch, result, nullptr);
    miss_thread.join();
    net::ServerStats after = setup.stack.server->stats();

    std::vector<ColdAnswer> cold_misses;
    std::size_t warm = 0;
    for (std::size_t i = 0; i < misses.size(); ++i) {
        ++result.attempted;
        const net::WireResponse &answer = miss_answers[i];
        if (!miss_ok[i]) {
            ++result.failed;
            continue;
        }
        if (answer.strategy.mhz_per_stage.size()
            != answer.strategy.stages.size())
            result.fail("miss answer has one frequency per stage missing");
        if (answer.provenance == serve::Provenance::Cold) {
            cold_misses.push_back(ColdAnswer{
                misses[i], answer.strategy.mhz_per_stage, answer.best_score,
                answer.strategy.plan, answer.strategy.stages.size(),
                miss_s[i]});
        } else if (answer.provenance == serve::Provenance::WarmStart) {
            ++warm;
        } else {
            result.fail(std::string("new key answered as ")
                        + serve::provenanceToken(answer.provenance));
        }
    }

    EndToEnd e2e;
    Layers layers;
    primingEndToEnd(setup, e2e);
    RungStats stats = rungStats(samples, rungs[0], 0);
    std::cout << "mixed_fleet: " << misses.size() << " new keys ("
              << warm << " warm, " << cold_misses.size()
              << " cold), hits at a fixed rate:\n";
    printRung(stats);
    Percentiles latency = validLatency(stats, "the hit rate");
    e2e.hit_p50_ms = latency.p50 * 1e3;
    if (args.trace) {
        layers.hit_p99_ms = latency.tail * 1e3;
        if (stats.meets)
            layers.hit_slo_rps = stats.achieved;
        layers.cold_gpt3_p50_s = primingGpt3Median(setup);
        layers.miss_p50_s = median(miss_s);
    }
    finish(args, setup, cold_misses, samples, kMixedRate, latency.p50,
           before, after, e2e, layers, result, spans);
}

} // namespace perfbench
