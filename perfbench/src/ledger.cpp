// The layer ledger: per-operation wall time of the §4.1 BasicDict and the
// Theorem 7 DynamicDict, end to end and split by layer.
//
//   ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --workdir <dir> [--smoke]
//   ledger --self-check --workdir <dir>
//
// One client thread drives a dictionary in a closed loop through its public
// API: the next op is sent only after the previous one returned. Every op is
// checked against the op stream's shadow set (found flag and value), and,
// where no cache is on, against the paper's per-op worst cases. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics, every time in them rescaled to a
// nominal host speed by interleaved HostProbe bursts. --trace 1 alternates
// untraced segments with traced ones and reports the per-layer metrics. Spans
// are recorded only here, around calls into each layer's public functions,
// plus the TimingBackend decorator below the array. See perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/basic_dict.hpp"
#include "core/dynamic_dict.hpp"
#include "host_probe.hpp"
#include "latency.hpp"
#include "obs/cost_conformance.hpp"
#include "obs/op_attribution.hpp"
#include "obs/span.hpp"
#include "op_stream.hpp"
#include "pdm/allocator.hpp"
#include "pdm/disk_array.hpp"
#include "pdm/file_backend.hpp"
#include "timing_backend.hpp"
#include "workload/workload.hpp"

namespace pddict::perfbench {
namespace {

namespace fs = std::filesystem;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 40;
constexpr std::size_t kValueBytes = 16;
constexpr std::uint32_t kBlockItems = 64;  // 64 items x 16 B = 1 KiB blocks
constexpr std::uint32_t kItemBytes = 16;
constexpr int kSetupReps = 5;
// A traced run cuts its time into slices and rotates the segment kinds
// (plain, plain without observers, traced) slice by slice.
constexpr int kSlices = 21;

// ------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  bool dynamic = false;  // DynamicDict (Thm 7), else BasicDict (§4.1)
  std::uint32_t disks = 16;
  std::uint32_t degree = 16;
  std::uint64_t capacity = 0;
  std::uint64_t prefill = 0;
  std::uint64_t spare = 0;  // absent keys the stream's inserts draw from
  bool file_backend = false;
  std::size_t io_threads = 0;
  std::size_t cache_frames = 0;
  bool observers = false;
  OpMix mix;
  std::uint64_t warmup_ops = 5000;
  // parallel_ios_per_op is taken over this many ops after the warm-up, so
  // it depends on the seed only and repeats exactly.
  std::uint64_t count_ops = 20000;
};

std::vector<Spec> all_specs(bool smoke) {
  const std::uint64_t basic_n = smoke ? 1u << 11 : 1u << 17;
  const std::uint64_t dyn_n = smoke ? 1u << 9 : 1u << 15;
  std::vector<Spec> v;

  Spec lookup;
  lookup.name = "basic-lookup-mem";
  lookup.capacity = lookup.prefill = basic_n;
  lookup.mix = {1, 0, 0, 0.5, 0.0};
  v.push_back(lookup);

  Spec churn;
  churn.name = "basic-churn-file";
  churn.capacity = basic_n;
  churn.prefill = basic_n / 2;
  churn.spare = smoke ? 256 : 4096;
  churn.file_backend = true;
  churn.io_threads = 3;  // three workers plus the client fill four cores
  churn.mix = {1, 1, 1, 0.5, 0.0};
  v.push_back(churn);

  Spec dyn;
  dyn.name = "dynamic-zipf-cached";
  dyn.dynamic = true;
  // ε = 0.5 needs d > 6(1 + 1/ε) = 18. d = 20 rather than 40: at d = 40 a
  // record's ⌈2d/3⌉ chosen stripes can lie more than 8 apart, and that
  // unary pointer overflows the 10-bit field DynamicDict sizes for 16-byte
  // values, silently corrupting the record (BitWriter::write_unary only
  // asserts). At d = 20 fields are 15 bits and gaps are at most 7.
  dyn.disks = 40;
  dyn.degree = 20;
  dyn.capacity = dyn_n;
  dyn.prefill = dyn_n * 3 / 4;
  dyn.spare = smoke ? 256 : 2048;
  dyn.cache_frames = smoke ? 64 : 4096;
  dyn.observers = true;
  dyn.mix = {18, 1, 1, 0.9, 0.99};
  v.push_back(dyn);

  if (smoke)
    for (Spec& s : v) {
      s.warmup_ops = 200;
      s.count_ops = 1000;
    }
  return v;
}

struct Inputs {
  std::vector<core::Key> prefill;
  std::vector<core::Key> spare;
  std::vector<std::byte> values;  // prefill values, kValueBytes each
};

Inputs make_inputs(const Spec& s, std::uint64_t seed) {
  Inputs in;
  std::vector<core::Key> keys = workload::generate_keys(
      workload::KeyPattern::kSparseRandom, s.prefill + s.spare, kUniverse,
      seed);
  in.prefill.assign(keys.begin(),
                    keys.begin() + static_cast<std::ptrdiff_t>(s.prefill));
  in.spare.assign(keys.begin() + static_cast<std::ptrdiff_t>(s.prefill),
                  keys.end());
  in.values.reserve(in.prefill.size() * kValueBytes);
  for (core::Key k : in.prefill) {
    std::vector<std::byte> v = core::value_for_key(k, kValueBytes);
    in.values.insert(in.values.end(), v.begin(), v.end());
  }
  return in;
}

OpStream make_stream(const Spec& s, const Inputs& in, std::uint64_t seed) {
  return OpStream(s.mix, in.prefill, in.spare, kUniverse, seed);
}

// -------------------------------------------------------------- instance

/// A directory removed with everything in it when the owner goes away.
class ScratchDir {
 public:
  ScratchDir() = default;
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    if (path_.empty()) return;
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  void create(fs::path path) {
    path_ = std::move(path);
    fs::create_directories(path_);
  }

 private:
  fs::path path_;
};

/// One set-up dictionary. Members are destroyed bottom-up: observers and
/// the dictionary before the array, the array before its files.
struct Instance {
  ScratchDir dir;
  TimingBackend* timing = nullptr;  // owned by `disks`; null when unwrapped
  std::unique_ptr<pdm::DiskArray> disks;
  std::unique_ptr<core::BasicDict> basic;
  std::unique_ptr<core::DynamicDict> dynamic;
  std::shared_ptr<obs::Sink> sinks;
  std::shared_ptr<obs::CostConformance> conformance;

  core::Dictionary& dict() {
    if (basic) return *basic;
    return *dynamic;
  }
  void attach_observers(bool on) {
    disks->set_sink(on ? sinks : nullptr);
    disks->set_cost_conformance(on ? conformance : nullptr);
  }
};

/// Array construction plus prefill: what setup_s times.
std::unique_ptr<Instance> build(const Spec& s, const Inputs& in,
                                const fs::path& dir, bool wrap,
                                bool timing_on) {
  auto inst = std::make_unique<Instance>();
  pdm::Geometry g{s.disks, kBlockItems, kItemBytes, 0};
  std::unique_ptr<pdm::BlockBackend> backend;
  if (s.file_backend) {
    inst->dir.create(dir);
    backend = std::make_unique<pdm::FileBackend>(g, dir.string());
  } else {
    backend = std::make_unique<pdm::MemoryBackend>(g);
  }
  if (wrap) {
    auto t = std::make_unique<TimingBackend>(std::move(backend), s.disks);
    t->set_enabled(timing_on);
    inst->timing = t.get();
    backend = std::move(t);
  }
  inst->disks = std::make_unique<pdm::DiskArray>(
      g, pdm::Model::kParallelDisks, std::move(backend));
  inst->disks->set_io_threads(s.io_threads);
  if (s.cache_frames) inst->disks->enable_cache(s.cache_frames);

  if (s.dynamic) {
    core::DynamicDictParams p;
    p.universe_size = kUniverse;
    p.capacity = s.capacity;
    p.value_bytes = kValueBytes;
    p.epsilon_op = 0.5;
    p.degree = s.degree;
    pdm::DiskAllocator alloc;
    inst->dynamic =
        std::make_unique<core::DynamicDict>(*inst->disks, 0, alloc, p);
  } else {
    core::BasicDictParams p;
    p.universe_size = kUniverse;
    p.capacity = s.capacity;
    p.value_bytes = kValueBytes;
    p.degree = s.degree;
    inst->basic = std::make_unique<core::BasicDict>(*inst->disks, 0, 0, p);
  }
  if (s.observers) {
    inst->sinks = std::make_shared<obs::MultiSink>(
        std::vector<std::shared_ptr<obs::Sink>>{
            std::make_shared<obs::SpanAggregator>(),
            std::make_shared<obs::OpAttributor>()});
    inst->conformance = std::make_shared<obs::CostConformance>();
    inst->attach_observers(true);
  }

  core::Dictionary& d = inst->dict();
  for (std::size_t i = 0; i < in.prefill.size(); ++i) {
    std::span<const std::byte> value(in.values.data() + i * kValueBytes,
                                     kValueBytes);
    if (!d.insert(in.prefill[i], value))
      throw std::runtime_error("prefill insert rejected a fresh key");
  }
  if (inst->basic) inst->basic->join_pending();
  return inst;
}

// ---------------------------------------------------------------- client

/// Traced-segment accumulators. The spans of one op tile it: every layer
/// time below is a span's wall time minus the backend time inside it, and
/// backend_ns collects the rest, so the layers sum to span_ns.
struct Ledger {
  std::uint64_t ops = 0;
  std::array<std::uint64_t, kNumOpKinds> kind_ops{};
  std::uint64_t op_ns = 0;    // traced op wall time, outer clock
  std::uint64_t span_ns = 0;  // Σ span wall time, inner clocks
  std::uint64_t expander_ns = 0;
  std::array<std::uint64_t, kNumOpKinds> core_ns{};  // inspect/plan_*
  std::uint64_t read_self_ns = 0;  // one read per op
  std::uint64_t write_self_ns = 0;
  std::uint64_t writes = 0;
  std::uint64_t join_ns = 0;  // client blocked on async batches
  std::uint64_t async_batches = 0;
  std::uint64_t backend_ns = 0;  // backend time on the client thread
  std::array<std::uint64_t, kNumOpKinds> dyn_self_ns{};
};

class Client {
 public:
  Client(const Spec& s, Instance& inst)
      : inst_(inst),
        async_(s.io_threads > 0 && s.cache_frames == 0),
        check_rounds_(s.cache_frames == 0) {}

  /// One op through the dictionary's public API; returns its latency.
  std::uint64_t run(const Op& op) { return run_public(op, nullptr); }

  /// The same op, traced. BasicDict ops are replayed through the
  /// composable API (probe_addrs → submit_read_batch → inspect/plan_* →
  /// submit_write_batch) with BasicDict's one-outstanding write-behind;
  /// DynamicDict ops go through the public API with the backend time split
  /// out. Returns the op's wall time.
  std::uint64_t run_traced(const Op& op, Ledger& led);

  /// Joins whichever write-behind is outstanding (public or replayed).
  void settle() {
    if (inst_.basic) inst_.basic->join_pending();
    if (pending_.valid()) {
      pdm::BatchFuture w = std::move(pending_);
      w.wait();
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  /// `led` non-null records the op as one traced span.
  std::uint64_t run_public(const Op& op, Ledger* led);
  std::uint64_t run_traced_basic(const Op& op, Ledger& led);

  /// The paper's per-op worst case, where it is exact (Figure 1, Thm 7).
  std::optional<std::uint64_t> expected_rounds(const Op& op,
                                               bool returned) const {
    if (inst_.basic) return op.kind == OpKind::kLookup ? 1 : 2;
    if (op.kind == OpKind::kLookup && !returned) return 1;
    return std::nullopt;
  }

  void verify(const Op& op, bool returned,
              const std::vector<std::byte>& value, std::uint64_t ios_before) {
    ++attempted;
    bool ok = op.kind == OpKind::kLookup ? returned == op.expect_found
                                         : returned;
    if (ok && op.kind == OpKind::kLookup && returned)
      ok = value == core::value_for_key(op.key, kValueBytes);
    if (!ok) {
      report("op on key " + std::to_string(op.key) +
             " disagrees with the shadow set");
    } else if (check_rounds_) {
      auto want = expected_rounds(op, returned);
      std::uint64_t got = inst_.disks->stats().parallel_ios - ios_before;
      if (want && got != *want) {
        ok = false;
        report("op cost " + std::to_string(got) + " rounds, paper bound " +
               std::to_string(*want));
      }
    }
    if (!ok) ++failed;
  }

  void fail(const std::exception& e) {
    ++attempted;
    ++failed;
    report(e.what());
  }

  void report(const std::string& what) {
    if (reports_++ < 5) std::fprintf(stderr, "ledger: %s\n", what.c_str());
  }

  Instance& inst_;
  const bool async_;         // batches execute on the executor's workers
  const bool check_rounds_;  // no cache, so per-op rounds are exact
  pdm::BatchFuture pending_;  // replayed write-behind
  std::uint64_t reports_ = 0;
};

std::uint64_t Client::run_public(const Op& op, Ledger* led) {
  core::Dictionary& d = inst_.dict();
  const std::uint64_t ios_before = inst_.disks->stats().parallel_ios;
  std::vector<std::byte> value;
  if (op.kind == OpKind::kInsert)
    value = core::value_for_key(op.key, kValueBytes);
  core::LookupResult found;
  bool returned = false;
  const std::uint64_t b = TimingBackend::thread_ns();
  const std::uint64_t t0 = now_ns();
  try {
    switch (op.kind) {
      case OpKind::kLookup:
        found = d.lookup(op.key);
        returned = found.found;
        break;
      case OpKind::kInsert:
        returned = d.insert(op.key, value);
        break;
      case OpKind::kErase:
        returned = d.erase(op.key);
        break;
    }
  } catch (const std::exception& e) {
    const std::uint64_t t1 = now_ns();
    fail(e);
    return t1 - t0;
  }
  const std::uint64_t t1 = now_ns();
  if (led) {
    // One span covers the whole op: its self time is everything above the
    // backend, array and cache included.
    const std::uint64_t back = TimingBackend::thread_ns() - b;
    const auto k = static_cast<std::size_t>(op.kind);
    led->dyn_self_ns[k] += (t1 - t0) - back;
    ++led->kind_ops[k];
    led->backend_ns += back;
    led->span_ns += t1 - t0;
    led->op_ns += t1 - t0;
    ++led->ops;
  }
  verify(op, returned, found.value, ios_before);
  return t1 - t0;
}

std::uint64_t Client::run_traced(const Op& op, Ledger& led) {
  return inst_.basic ? run_traced_basic(op, led) : run_public(op, &led);
}

std::uint64_t Client::run_traced_basic(const Op& op, Ledger& led) {
  core::BasicDict& d = *inst_.basic;
  pdm::DiskArray& a = *inst_.disks;
  const std::uint64_t ios_before = a.stats().parallel_ios;
  std::vector<std::byte> value;
  if (op.kind == OpKind::kInsert)
    value = core::value_for_key(op.key, kValueBytes);

  // One span: its wall time goes to `self` minus the backend time spent
  // inside it on this thread, which goes to backend_ns.
  auto span = [&led](std::uint64_t& self, auto&& call) {
    const std::uint64_t b = TimingBackend::thread_ns();
    const std::uint64_t s = now_ns();
    call();
    const std::uint64_t e = now_ns();
    const std::uint64_t back = TimingBackend::thread_ns() - b;
    led.span_ns += e - s;
    led.backend_ns += back;
    self += (e - s) - back;
  };
  // Serial batches resolve at submit, so joining them is array work; an
  // async join is the client waiting on the executor's workers.
  std::uint64_t& join_self = async_ ? led.join_ns : led.read_self_ns;

  bool returned = false;
  core::BasicDict::Probe probe;
  const std::uint64_t op0 = now_ns();
  try {
    std::vector<pdm::BlockAddr> addrs;
    std::vector<pdm::Block> blocks;
    std::optional<std::vector<std::pair<pdm::BlockAddr, pdm::Block>>> writes;
    pdm::BatchFuture read;
    span(led.expander_ns, [&] { addrs = d.probe_addrs(op.key); });
    span(led.read_self_ns, [&] { read = a.submit_read_batch(addrs); });
    if (async_) ++led.async_batches;
    if (pending_.valid())
      span(join_self, [&] {
        pdm::BatchFuture w = std::move(pending_);
        w.wait();
      });
    span(join_self, [&] { read.get(blocks); });
    const auto k = static_cast<std::size_t>(op.kind);
    switch (op.kind) {
      case OpKind::kLookup:
        span(led.core_ns[k], [&] { probe = d.inspect(op.key, blocks); });
        returned = probe.found;
        break;
      case OpKind::kInsert:
        span(led.core_ns[k],
             [&] { writes = d.plan_insert(op.key, value, blocks); });
        returned = writes.has_value();
        break;
      case OpKind::kErase:
        span(led.core_ns[k], [&] { writes = d.plan_erase(op.key, blocks); });
        returned = writes.has_value();
        break;
    }
    ++led.kind_ops[k];
    if (writes) {
      span(led.write_self_ns,
           [&] { pending_ = a.submit_write_batch(*writes); });
      ++led.writes;
      if (async_) ++led.async_batches;
    }
    // Freeing the probe and write blocks is the array's allocation cost.
    span(led.read_self_ns, [&] {
      writes.reset();
      blocks = {};
      addrs = {};
    });
  } catch (const std::exception& e) {
    fail(e);
    return now_ns() - op0;
  }
  const std::uint64_t op1 = now_ns();
  ++led.ops;
  led.op_ns += op1 - op0;
  verify(op, returned, probe.value, ios_before);
  return op1 - op0;
}

// ------------------------------------------------------------- counters

enum Field {
  kIos,
  kReadRounds,
  kBlocksRead,
  kExecBatches,
  kExecJobs,
  kExecQueueNs,
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kCacheFlushed,
  kLoadNs,
  kStoreNs,
  kLoadBlocks,
  kStoreBlocks,
  kBackendCalls,
  kBackendErrors,
  kNumFields
};
using Tally = std::array<std::uint64_t, kNumFields>;

Tally tally(const Instance& inst) {
  Tally t{};
  const pdm::IoStats io = inst.disks->stats_snapshot();
  t[kIos] = io.parallel_ios;
  t[kReadRounds] = io.read_rounds;
  t[kBlocksRead] = io.blocks_read;
  const pdm::IoExecutor::Stats ex = inst.disks->exec_stats();
  t[kExecBatches] = ex.batches;
  t[kExecJobs] = ex.jobs;
  t[kExecQueueNs] = ex.queue_wait_ns;
  const pdm::CacheStats c = inst.disks->cache_stats();
  t[kCacheHits] = c.hits;
  t[kCacheMisses] = c.misses;
  t[kCacheEvictions] = c.evictions;
  t[kCacheFlushed] = c.flushed_blocks;
  if (inst.timing) {
    const TimingBackend::Totals b = inst.timing->totals();
    t[kLoadNs] = b.load_ns;
    t[kStoreNs] = b.store_ns;
    t[kLoadBlocks] = b.load_blocks;
    t[kStoreBlocks] = b.store_blocks;
    t[kBackendCalls] = b.calls;
    t[kBackendErrors] = b.errors;
  }
  return t;
}

void add_delta(Tally& acc, const Tally& before, const Tally& after) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += after[i] - before[i];
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ runs

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_check = false;
  fs::path workdir = ".bench_build/tmp";
};

fs::path instance_dir(const Options& o, const std::string& name, int rep) {
  return o.workdir / (name + "-" + std::to_string(getpid()) + "-" +
                      std::to_string(rep));
}

void warm_up(const Spec& s, Client& client, OpStream& stream) {
  for (std::uint64_t i = 0; i < s.warmup_ops; ++i) client.run(stream.next());
}

int run_end_to_end(const Spec& s, const Options& o) {
  const Inputs in = make_inputs(s, o.seed);
  HostProbe probe;
  // Each set-up is rescaled by probe windows right before and after it.
  std::vector<double> setups, raw_setups;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();  // the previous rep's array and files go first
    const double before = probe.measure();
    const std::uint64_t t0 = now_ns();
    inst = build(s, in, instance_dir(o, s.name, rep), false, false);
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    const double after = probe.measure();
    raw_setups.push_back(secs);
    setups.push_back(secs * 0.5 * (before + after));
  }

  OpStream stream = make_stream(s, in, o.seed);
  Client client(s, *inst);
  warm_up(s, client, stream);

  // Medians and rates come from samples rescaled by the probe's median,
  // tails from samples rescaled by its p99.
  std::array<ChunkStats, kNumOpKinds> per_kind, per_kind_tail;
  ChunkStats all_ops, raw_ops;
  const std::uint64_t ios0 = inst->disks->stats().parallel_ios;
  std::uint64_t counted_ios = 0;
  std::uint64_t measured = 0;
  probe.restart();
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(o.seconds * 1e9);
  while (measured == 0 || now_ns() < deadline) {
    const Op op = stream.next();
    const std::uint64_t raw = client.run(op);
    const std::uint64_t ns = HostProbe::scale(raw, probe.p50_factor());
    const auto k = static_cast<std::size_t>(op.kind);
    per_kind[k].add(ns);
    per_kind_tail[k].add(HostProbe::scale(raw, probe.p99_factor()));
    all_ops.add(ns);
    raw_ops.add(raw);
    probe.tick();
    if (++measured == s.count_ops)
      counted_ios = inst->disks->stats().parallel_ios - ios0;
  }
  client.settle();
  if (measured < s.count_ops) {
    std::fprintf(stderr,
                 "ledger: only %llu ops measured; parallel_ios_per_op is "
                 "taken over all of them\n",
                 static_cast<unsigned long long>(measured));
    counted_ios = inst->disks->stats().parallel_ios - ios0;
  }
  const std::uint64_t count_window = std::min(measured, s.count_ops);

  inst->disks->flush_cache();  // dirty frames count as stored bytes
  const double stored = static_cast<double>(inst->disks->blocks_in_use()) *
                        static_cast<double>(kBlockItems * kItemBytes);
  const double user = static_cast<double>(stream.live_count()) *
                      static_cast<double>(sizeof(core::Key) + kValueBytes);

  std::vector<Metric> m;
  m.push_back({"throughput_ops_s", all_ops.rate_per_s(), "ops/s"});
  static constexpr const char* kKindName[kNumOpKinds] = {"lookup", "insert",
                                                         "erase"};
  for (int k = 0; k < kNumOpKinds; ++k) {
    ChunkStats& c = per_kind[static_cast<std::size_t>(k)];
    if (c.count() == 0) continue;  // the workload has no such op
    const std::string kind = kKindName[k];
    m.push_back({kind + "_p50_us", c.p50_ns() * 1e-3, "us"});
    m.push_back({kind + "_p99_us",
                 per_kind_tail[static_cast<std::size_t>(k)].p99_ns() * 1e-3,
                 "us"});
    m.push_back({kind + "_ops", static_cast<double>(c.count()), "count"});
  }
  m.push_back({"setup_s", median(setups), "s"});
  // Unnormalised figures and the probe itself, printed for reference.
  m.push_back({"throughput_raw_ops_s", raw_ops.rate_per_s(), "ops/s"});
  m.push_back({"setup_raw_s", median(raw_setups), "s"});
  m.push_back({"host_probe_op_us", probe.median_op_ns() * 1e-3, "us"});
  m.push_back({"parallel_ios_per_op",
               ratio(static_cast<double>(counted_ios),
                     static_cast<double>(count_window)),
               "ios/op"});
  m.push_back({"failed_op_frac",
               ratio(static_cast<double>(client.failed),
                     static_cast<double>(client.attempted)),
               "fraction"});
  m.push_back({"peak_rss_mb",
               peak_rss_mb() - static_cast<double>(HostProbe::kPoolBytes) /
                                   (1024.0 * 1024.0),
               "MB"});
  m.push_back({"stored_bytes_per_user_byte", ratio(stored, user), "ratio"});
  emit(client.failed == 0, client.attempted, client.failed, m);
  return client.failed == 0 ? 0 : 1;
}

/// Segment kinds of a traced run, rotated slice by slice.
enum class Segment { kPlain, kPlainNoObs, kTraced };

int run_traced(const Spec& s, const Options& o) {
  const Inputs in = make_inputs(s, o.seed);
  std::unique_ptr<Instance> inst =
      build(s, in, instance_dir(o, s.name, 0), true, false);
  OpStream stream = make_stream(s, in, o.seed);
  Client client(s, *inst);
  warm_up(s, client, stream);

  // BasicDict runs alternate plain and traced slices; DynamicDict also
  // detaches its observers for one slice in three, which prices them.
  std::vector<Segment> cycle = {Segment::kPlain, Segment::kTraced};
  if (s.observers) cycle.insert(cycle.begin() + 1, Segment::kPlainNoObs);

  Ledger led;
  Tally traced{};
  std::array<std::uint64_t, 2> plain_ops{}, plain_ns{};  // [obs on, off]
  const std::uint64_t start = now_ns();
  const auto slice_ns = static_cast<std::uint64_t>(o.seconds * 1e9 / kSlices);
  for (int slice = 1; slice <= kSlices; ++slice) {
    const Segment seg =
        cycle[static_cast<std::size_t>(slice - 1) % cycle.size()];
    const std::uint64_t deadline = start + slice * slice_ns;
    if (seg == Segment::kTraced) {
      client.settle();
      inst->timing->set_enabled(true);
      const Tally before = tally(*inst);
      std::uint64_t n = 0;
      while (n++ == 0 || now_ns() < deadline)
        client.run_traced(stream.next(), led);
      client.settle();  // the last write-behind belongs to this segment
      add_delta(traced, before, tally(*inst));
      inst->timing->set_enabled(false);
      continue;
    }
    const std::size_t obs = seg == Segment::kPlainNoObs ? 1 : 0;
    if (s.observers) inst->attach_observers(obs == 0);
    std::uint64_t n = 0;
    while (n++ == 0 || now_ns() < deadline) {
      plain_ns[obs] += client.run(stream.next());
      ++plain_ops[obs];
    }
    if (s.observers) inst->attach_observers(true);
  }
  client.settle();

  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double ops = static_cast<double>(led.ops);
  const double plain_mean = per(plain_ns[0], plain_ops[0]);
  const double noobs_mean = per(plain_ns[1], plain_ops[1]);
  const double traced_mean = per(led.op_ns, led.ops);
  const double lanes = static_cast<double>(std::max<std::size_t>(
      1, inst->disks->io_threads()));
  const std::uint64_t busy = traced[kLoadNs] + traced[kStoreNs];
  const auto kL = static_cast<std::size_t>(OpKind::kLookup);
  const auto kI = static_cast<std::size_t>(OpKind::kInsert);
  const auto kE = static_cast<std::size_t>(OpKind::kErase);
  const std::uint64_t cache_touches =
      traced[kCacheHits] + traced[kCacheMisses];
  const bool has_obs = s.observers && plain_ops[1] > 0;

  std::vector<Metric> m = {
      {"expander.probe_addrs_ns", per(led.expander_ns, led.ops), "ns"},
      {"core.inspect_ns", per(led.core_ns[kL], led.kind_ops[kL]), "ns"},
      {"core.plan_insert_ns", per(led.core_ns[kI], led.kind_ops[kI]), "ns"},
      {"core.plan_erase_ns", per(led.core_ns[kE], led.kind_ops[kE]), "ns"},
      {"core.dynamic.lookup_self_ns",
       per(led.dyn_self_ns[kL], led.kind_ops[kL]), "ns"},
      {"core.dynamic.insert_self_ns",
       per(led.dyn_self_ns[kI], led.kind_ops[kI]), "ns"},
      {"core.dynamic.erase_self_ns",
       per(led.dyn_self_ns[kE], led.kind_ops[kE]), "ns"},
      {"pdm.array.read_self_ns", per(led.read_self_ns, led.ops), "ns"},
      {"pdm.array.write_self_ns", per(led.write_self_ns, led.writes), "ns"},
      {"pdm.array.rounds_per_op", ratio(traced[kIos], ops), "rounds/op"},
      {"pdm.array.blocks_per_read",
       per(traced[kBlocksRead], traced[kReadRounds]), "blocks/round"},
      {"pdm.exec.queue_wait_ns_per_batch",
       per(traced[kExecQueueNs], traced[kExecBatches]), "ns"},
      {"pdm.exec.join_wait_ns_per_batch", per(led.join_ns, led.async_batches),
       "ns"},
      {"pdm.exec.jobs_per_batch",
       per(traced[kExecJobs], traced[kExecBatches]), "jobs/batch"},
      {"pdm.backend.load_ns_per_block",
       per(traced[kLoadNs], traced[kLoadBlocks]), "ns"},
      {"pdm.backend.store_ns_per_block",
       per(traced[kStoreNs], traced[kStoreBlocks]), "ns"},
      {"pdm.backend.calls_per_op", ratio(traced[kBackendCalls], ops),
       "calls/op"},
      {"pdm.backend.busy_frac",
       ratio(static_cast<double>(busy),
             static_cast<double>(led.op_ns) * lanes),
       "fraction"},
      {"pdm.backend.errors", static_cast<double>(traced[kBackendErrors]),
       "count"},
      {"pdm.cache.hit_rate", per(traced[kCacheHits], cache_touches),
       "fraction"},
      {"pdm.cache.evictions_per_op", ratio(traced[kCacheEvictions], ops),
       "blocks/op"},
      {"pdm.cache.flushed_blocks_per_op", ratio(traced[kCacheFlushed], ops),
       "blocks/op"},
      {"obs.overhead_ns_per_op", has_obs ? plain_mean - noobs_mean : 0.0,
       "ns"},
      {"obs.overhead_ratio", has_obs ? ratio(plain_mean, noobs_mean) : 1.0,
       "ratio"},
      {"trace.overhead_frac", ratio(traced_mean, plain_mean) - 1.0,
       "fraction"},
      {"trace.layer_sum_frac", per(led.span_ns, led.op_ns), "fraction"},
  };
  emit(client.failed == 0, client.attempted, client.failed, m);
  return client.failed == 0 ? 0 : 1;
}

bool same_counters(pdm::DiskArray& a, pdm::DiskArray& b) {
  const auto da = a.disk_counters();
  const auto db = b.disk_counters();
  if (!(a.stats() == b.stats()) || da.size() != db.size()) return false;
  for (std::size_t i = 0; i < da.size(); ++i)
    if (da[i].blocks_read != db[i].blocks_read ||
        da[i].blocks_written != db[i].blocks_written ||
        da[i].rounds_active != db[i].rounds_active ||
        da[i].idle_slots != db[i].idle_slots)
      return false;
  const pdm::CacheStats ca = a.cache_stats();
  const pdm::CacheStats cb = b.cache_stats();
  return a.round_utilization() == b.round_utilization() &&
         ca.hits == cb.hits && ca.misses == cb.misses &&
         ca.evictions == cb.evictions &&
         ca.dirty_evictions == cb.dirty_evictions &&
         ca.flushed_blocks == cb.flushed_blocks &&
         ca.flush_rounds == cb.flush_rounds &&
         a.blocks_in_use() == b.blocks_in_use();
}

/// The decorator must be invisible to the array: the same op stream with
/// and without it leaves every counter identical, and the decorator's own
/// per-disk block counts match the array's.
int self_check(const Options& o) {
  bool all_ok = true;
  std::uint64_t attempted = 0;
  for (const Spec& s : all_specs(true)) {
    const Inputs in = make_inputs(s, o.seed);
    auto raw = build(s, in, instance_dir(o, s.name, 0), false, false);
    auto wrapped = build(s, in, instance_dir(o, s.name, 1), true, true);
    bool ok = true;
    for (Instance* inst : {raw.get(), wrapped.get()}) {
      OpStream stream = make_stream(s, in, o.seed);
      Client client(s, *inst);
      for (std::uint64_t i = 0; i < 4 * s.count_ops; ++i)
        client.run(stream.next());
      client.settle();
      attempted += client.attempted;
      ok = ok && client.failed == 0;
    }
    ok = ok && same_counters(*raw->disks, *wrapped->disks);
    const auto dc = wrapped->disks->disk_counters();
    const auto loads = wrapped->timing->disk_load_blocks();
    const auto stores = wrapped->timing->disk_store_blocks();
    for (std::size_t d = 0; d < dc.size(); ++d)
      ok = ok && loads[d] == dc[d].blocks_read &&
           stores[d] == dc[d].blocks_written;
    std::fprintf(stderr, "self-check %s: %s\n", s.name.c_str(),
                 ok ? "ok" : "MISMATCH");
    all_ok = all_ok && ok;
  }
  emit(all_ok, attempted, all_ok ? 0 : 1, {});
  return all_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: ledger --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>] [--smoke]\n"
               "       ledger --self-check [--workdir <dir>]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--self-check") {
      o.self_check = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      o.workload = argv[++i];
    } else if (arg == "--seed") {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--workdir") {
      o.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.self_check) return self_check(o);
  if (!(o.seconds > 0)) return usage();
  for (const Spec& s : all_specs(o.smoke))
    if (s.name == o.workload)
      return o.trace ? run_traced(s, o) : run_end_to_end(s, o);
  std::fprintf(stderr, "ledger: unknown workload '%s'\n", o.workload.c_str());
  return usage();
}

}  // namespace
}  // namespace pddict::perfbench

int main(int argc, char** argv) {
  try {
    return pddict::perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
}
