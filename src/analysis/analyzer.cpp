#include "analysis/analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "analysis/rta_context.h"
#include "util/thread_annotations.h"

namespace rtpool::analysis {

namespace {

using util::Time;

/// Fill Report::limiting_task / limiting_ratio from the per-task verdicts:
/// the lowest-index failing task when unschedulable, otherwise the task
/// with the largest R/D ratio among finite responses.
void finalize_limits(Report& rep, const model::TaskSet& ts) {
  rep.limiting_task.reset();
  rep.limiting_ratio = 0.0;
  if (rep.per_task.empty()) return;
  if (!rep.schedulable) {
    for (std::size_t i = 0; i < rep.per_task.size(); ++i) {
      if (!rep.per_task[i].schedulable) {
        rep.limiting_task = i;
        rep.limiting_ratio = rep.per_task[i].response_time / ts.task(i).deadline();
        return;
      }
    }
    return;
  }
  double best = -1.0;
  for (std::size_t i = 0; i < rep.per_task.size(); ++i) {
    const Time r = rep.per_task[i].response_time;
    if (!std::isfinite(r)) continue;
    const double ratio = r / ts.task(i).deadline();
    if (ratio > best) {
      best = ratio;
      rep.limiting_task = i;
      rep.limiting_ratio = ratio;
    }
  }
}

std::string miss_message(const model::TaskSet& ts, std::size_t i, Time response) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "response time %.6g exceeds deadline %.6g",
                response, ts.task(i).deadline());
  return buf;
}

/// Wrap a family payload into the Report's certificate envelope.
template <typename FamilyCert>
std::shared_ptr<const cert::Certificate> seal_certificate(
    cert::Family family, const std::string& analyzer, double wcet_scale,
    bool schedulable, FamilyCert&& payload) {
  auto c = std::make_shared<cert::Certificate>();
  c->family = family;
  c->analyzer = analyzer;
  c->wcet_scale = wcet_scale;
  c->schedulable = schedulable;
  if constexpr (std::is_same_v<std::decay_t<FamilyCert>, cert::GlobalCert>)
    c->global = std::forward<FamilyCert>(payload);
  else if constexpr (std::is_same_v<std::decay_t<FamilyCert>, cert::PartitionedCert>)
    c->partitioned = std::forward<FamilyCert>(payload);
  else
    c->federated = std::forward<FamilyCert>(payload);
  return c;
}

// ---- global family ----

class GlobalAnalyzer final : public Analyzer {
 public:
  GlobalAnalyzer(std::string name, std::string description,
                 const GlobalRtaOptions& base)
      : name_(std::move(name)), description_(std::move(description)), base_(base) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }
  AnalyzerCapabilities capabilities() const override {
    return {.uses_partition = false,
            .reports_response_times = true,
            .supports_warm_start = true};
  }

  Report analyze(const model::TaskSet& ts, RtaContext& ctx,
                 const AnalyzerOptions& options) const override {
    GlobalRtaOptions opts = base_;
    opts.wcet_scale = options.wcet_scale;
    opts.max_iterations = options.max_iterations;
    cert::GlobalCert gcert;
    const GlobalRtaResult r =
        analyze_global(ts, opts, &ctx, options.diagnostics ? &gcert : nullptr);

    Report rep;
    rep.analyzer = name_;
    rep.schedulable = r.schedulable;
    rep.per_task.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      TaskVerdict& tv = rep.per_task[i];
      tv.response_time = r.per_task[i].response_time;
      tv.schedulable = r.per_task[i].schedulable;
      tv.concurrency_bound = r.per_task[i].concurrency_bound;
    }
    finalize_limits(rep, ts);
    if (options.diagnostics) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const TaskVerdict& tv = rep.per_task[i];
        if (tv.schedulable) continue;
        if (base_.limited_concurrency && tv.concurrency_bound <= 0) {
          rep.notes.push_back(
              {"lbar-zero", ts.task(i).name(),
               "Lemma 1: available concurrency bound l̄ <= 0 — the pool "
               "can lose every thread to suspended forks (deadlock risk)"});
        } else {
          rep.notes.push_back({"deadline-miss", ts.task(i).name(),
                               miss_message(ts, i, tv.response_time)});
        }
      }
      rep.certificate =
          seal_certificate(cert::Family::kGlobal, name_, options.wcet_scale,
                           rep.schedulable, std::move(gcert));
    }
    return rep;
  }

 private:
  std::string name_;
  std::string description_;
  GlobalRtaOptions base_;
};

// ---- partitioned family ----

class PartitionedAnalyzer final : public Analyzer {
 public:
  PartitionedAnalyzer(std::string name, std::string description,
                      bool algorithm1, const PartitionedRtaOptions& base)
      : name_(std::move(name)),
        description_(std::move(description)),
        algorithm1_(algorithm1),
        base_(base) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }
  AnalyzerCapabilities capabilities() const override {
    return {.uses_partition = true,
            .reports_response_times = true,
            .supports_warm_start = true};
  }

  PartitionResult make_partition(const model::TaskSet& ts) const override {
    return algorithm1_ ? partition_algorithm1(ts) : partition_worst_fit(ts);
  }

  Report analyze(const model::TaskSet& ts, RtaContext& ctx,
                 const AnalyzerOptions& options) const override {
    Report rep;
    rep.analyzer = name_;

    const TaskSetPartition* part = options.partition;
    PartitionResult computed;
    if (part == nullptr) {
      computed = make_partition(ts);
      if (!computed.success()) {
        // Set-level failure: no partition to analyze under. Every task is
        // reported unschedulable; the note carries the partitioner witness.
        rep.schedulable = false;
        rep.per_task.assign(ts.size(), TaskVerdict{});
        if (options.diagnostics) {
          rep.notes.push_back({"partition-failure", "", computed.failure});
          cert::PartitionedCert pcert;
          pcert.split = base_.bound == PartitionedBound::kSplitPerSegment;
          pcert.require_deadlock_free = base_.require_deadlock_free;
          pcert.max_iterations = options.max_iterations;
          pcert.partition_failure =
              computed.failure.empty() ? "partitioner failed" : computed.failure;
          cert::PartitionedTaskCert failed;
          failed.claim = cert::TaskClaim::kPartitionFailure;
          pcert.per_task.assign(ts.size(), failed);
          rep.certificate =
              seal_certificate(cert::Family::kPartitioned, name_,
                               options.wcet_scale, false, std::move(pcert));
        }
        return rep;
      }
      part = &*computed.partition;
    }

    PartitionedRtaOptions opts = base_;
    opts.wcet_scale = options.wcet_scale;
    opts.max_iterations = options.max_iterations;
    cert::PartitionedCert pcert;
    const PartitionedRtaResult r = analyze_partitioned(
        ts, *part, opts, &ctx, options.diagnostics ? &pcert : nullptr);

    rep.schedulable = r.schedulable;
    rep.per_task.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      TaskVerdict& tv = rep.per_task[i];
      tv.response_time = r.per_task[i].response_time;
      tv.schedulable = r.per_task[i].schedulable;
      tv.deadlock_free = r.per_task[i].deadlock_free;
    }
    finalize_limits(rep, ts);
    if (options.diagnostics) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const TaskVerdict& tv = rep.per_task[i];
        if (!tv.deadlock_free) {
          rep.notes.push_back(
              {"eq3-violation", ts.task(i).name(),
               "Lemma 3 / Eq. (3): partition admits a reduced-concurrency "
               "delay (node queued behind a suspended thread)"});
        }
        if (!tv.schedulable && tv.deadlock_free) {
          rep.notes.push_back({"deadline-miss", ts.task(i).name(),
                               miss_message(ts, i, tv.response_time)});
        }
      }
      rep.certificate =
          seal_certificate(cert::Family::kPartitioned, name_,
                           options.wcet_scale, rep.schedulable, std::move(pcert));
    }
    return rep;
  }

 private:
  std::string name_;
  std::string description_;
  bool algorithm1_;
  PartitionedRtaOptions base_;
};

// ---- federated family ----

class FederatedAnalyzer final : public Analyzer {
 public:
  FederatedAnalyzer(std::string name, std::string description,
                    const FederatedOptions& base)
      : name_(std::move(name)), description_(std::move(description)), base_(base) {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }
  AnalyzerCapabilities capabilities() const override {
    return {.uses_partition = false,
            .reports_response_times = false,
            .supports_warm_start = false};
  }

  Report analyze(const model::TaskSet& ts, RtaContext& ctx,
                 const AnalyzerOptions& options) const override {
    FederatedOptions opts = base_;
    opts.wcet_scale = options.wcet_scale;
    cert::FederatedCert fcert;
    const FederatedResult r =
        analyze_federated(ts, opts, &ctx, options.diagnostics ? &fcert : nullptr);

    Report rep;
    rep.analyzer = name_;
    rep.schedulable = r.schedulable;
    rep.dedicated_cores = r.dedicated_cores;
    rep.per_task.resize(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      TaskVerdict& tv = rep.per_task[i];
      tv.schedulable = r.per_task[i].schedulable;
      tv.dedicated = r.per_task[i].dedicated;
      tv.dedicated_cores = r.per_task[i].cores;
    }
    finalize_limits(rep, ts);
    if (options.diagnostics) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const TaskVerdict& tv = rep.per_task[i];
        if (tv.schedulable) continue;
        rep.notes.push_back(
            {tv.dedicated ? "federated-allocation" : "uniprocessor-rta",
             ts.task(i).name(),
             tv.dedicated
                 ? "dedicated-core demand cannot be met (critical path "
                   "exceeds the deadline or too few cores remain)"
                 : "serialized task fails the uniprocessor RTA on its core"});
      }
      rep.certificate =
          seal_certificate(cert::Family::kFederated, name_, options.wcet_scale,
                           rep.schedulable, std::move(fcert));
    }
    return rep;
  }

 private:
  std::string name_;
  std::string description_;
  FederatedOptions base_;
};

// ---- registry ----

struct Registry {
  util::Mutex mutex;
  std::vector<std::unique_ptr<Analyzer>> analyzers
      RTPOOL_GUARDED_BY(mutex);
};

GlobalRtaOptions global_options(bool limited, ConcurrencyBound concurrency,
                                InterferenceBound bound) {
  GlobalRtaOptions o;
  o.limited_concurrency = limited;
  o.concurrency = concurrency;
  o.bound = bound;
  return o;
}

PartitionedRtaOptions partitioned_options(bool require_deadlock_free,
                                          PartitionedBound bound) {
  PartitionedRtaOptions o;
  o.require_deadlock_free = require_deadlock_free;
  o.bound = bound;
  return o;
}

FederatedOptions federated_options(bool limited) {
  FederatedOptions o;
  o.limited_concurrency = limited;
  return o;
}

void register_builtins(std::vector<std::unique_ptr<Analyzer>>& out) {
  using CB = ConcurrencyBound;
  using IB = InterferenceBound;
  using PB = PartitionedBound;

  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-baseline",
      "global RTA, Melani et al. [14] baseline (ceil interference bound)",
      global_options(false, CB::kMaxAffectingForks, IB::kPaperCeil)));
  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-baseline-carryin",
      "global RTA baseline with the refined Melani carry-in bound",
      global_options(false, CB::kMaxAffectingForks, IB::kMelaniCarryIn)));
  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-limited",
      "global RTA with the paper's limited-concurrency bound l̄ = m - b̄ (Sec. 4.1)",
      global_options(true, CB::kMaxAffectingForks, IB::kPaperCeil)));
  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-limited-carryin",
      "limited-concurrency global RTA with the Melani carry-in bound",
      global_options(true, CB::kMaxAffectingForks, IB::kMelaniCarryIn)));
  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-limited-antichain",
      "limited-concurrency global RTA with the antichain refinement of b̄",
      global_options(true, CB::kMaxAntichain, IB::kPaperCeil)));
  out.push_back(std::make_unique<GlobalAnalyzer>(
      "global-limited-antichain-carryin",
      "antichain-refined limited-concurrency RTA with the carry-in bound",
      global_options(true, CB::kMaxAntichain, IB::kMelaniCarryIn)));

  out.push_back(std::make_unique<PartitionedAnalyzer>(
      "partitioned-baseline",
      "worst-fit partitioning + [10]-style segment RTA, blocking-oblivious",
      /*algorithm1=*/false, partitioned_options(false, PB::kSplitPerSegment)));
  out.push_back(std::make_unique<PartitionedAnalyzer>(
      "partitioned-baseline-holistic",
      "blocking-oblivious worst-fit partitioning with holistic interference",
      /*algorithm1=*/false, partitioned_options(false, PB::kHolisticPath)));
  out.push_back(std::make_unique<PartitionedAnalyzer>(
      "partitioned-proposed",
      "Algorithm 1 partitioning + segment RTA + Lemma 3 deadlock freedom",
      /*algorithm1=*/true, partitioned_options(true, PB::kSplitPerSegment)));
  out.push_back(std::make_unique<PartitionedAnalyzer>(
      "partitioned-proposed-holistic",
      "Algorithm 1 + Lemma 3 with holistic interference charging",
      /*algorithm1=*/true, partitioned_options(true, PB::kHolisticPath)));

  out.push_back(std::make_unique<FederatedAnalyzer>(
      "federated", "classic federated scheduling of Li et al. [13]",
      federated_options(false)));
  out.push_back(std::make_unique<FederatedAnalyzer>(
      "federated-limited",
      "federated scheduling with b̄ extra dedicated threads per pool",
      federated_options(true)));
}

Registry& registry() {
  // Leaked singleton: analyzers stay valid for the whole process (consumers
  // hold raw pointers across experiment runs), and no shutdown-order issues.
  static Registry* r = [] {
    auto* reg = new Registry;
    register_builtins(reg->analyzers);
    return reg;
  }();
  return *r;
}

}  // namespace

PartitionResult Analyzer::make_partition(const model::TaskSet&) const {
  PartitionResult result;
  result.failure = std::string(name()) + ": not a partition-based analyzer";
  return result;
}

Report Analyzer::analyze(const model::TaskSet& ts,
                         const AnalyzerOptions& options) const {
  RtaContext ctx(ts);
  return analyze(ts, ctx, options);
}

const Analyzer* find_analyzer(std::string_view name) {
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  for (const auto& a : reg.analyzers)
    if (a->name() == name) return a.get();
  return nullptr;
}

const Analyzer& get_analyzer(std::string_view name) {
  if (const Analyzer* a = find_analyzer(name)) return *a;
  std::string message = "unknown analyzer '" + std::string(name) +
                        "'; registered analyzers:";
  for (const Analyzer* a : registered_analyzers())
    message += " " + std::string(a->name());
  throw std::invalid_argument(message);
}

std::vector<const Analyzer*> registered_analyzers() {
  Registry& reg = registry();
  std::vector<const Analyzer*> out;
  {
    util::MutexLock lock(reg.mutex);
    out.reserve(reg.analyzers.size());
    for (const auto& a : reg.analyzers) out.push_back(a.get());
  }
  std::sort(out.begin(), out.end(), [](const Analyzer* a, const Analyzer* b) {
    return a->name() < b->name();
  });
  return out;
}

void register_analyzer(std::unique_ptr<Analyzer> analyzer) {
  if (analyzer == nullptr || analyzer->name().empty())
    throw std::invalid_argument("register_analyzer: empty analyzer/name");
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  for (const auto& a : reg.analyzers)
    if (a->name() == analyzer->name())
      throw std::invalid_argument("register_analyzer: duplicate name '" +
                                  std::string(analyzer->name()) + "'");
  reg.analyzers.push_back(std::move(analyzer));
}

}  // namespace rtpool::analysis
