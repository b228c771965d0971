#include "exp/schedulability.h"

#include <algorithm>
#include <optional>

#include "analysis/analyzer.h"
#include "analysis/cert_check.h"
#include "analysis/rta_context.h"

namespace rtpool::exp {

namespace {

/// Outcome of one speculative generation attempt (computed on a worker).
struct AttemptOutcome {
  bool generated = false;  ///< false → gen::GenerationError.
  SetVerdict verdict;
  bool certified = false;       ///< Attempt was sampled for certification.
  std::size_t cert_failures = 0;///< Certificates the checker rejected (0–2).
};

/// Salt for the certify-sampling stream: decorrelates the sample decision
/// from every draw the generator makes without advancing the attempt RNG.
constexpr std::uint64_t kCertifySalt = 0x9e3779b97f4a7c15ULL;

/// Run one analyzer with certificate emission on and count a failure when
/// the certificate is missing or the independent checker rejects it.
std::size_t certify_one(const analysis::Analyzer& analyzer,
                        const model::TaskSet& ts, analysis::RtaContext& ctx) {
  analysis::AnalyzerOptions opts;
  opts.diagnostics = true;
  const analysis::Report rep = analyzer.analyze(ts, ctx, opts);
  if (rep.certificate == nullptr) return 1;
  return analysis::cert::check_certificate(ts, *rep.certificate).ok() ? 0 : 1;
}

}  // namespace

PointResult ExperimentEngine::evaluate_point(const AnalyzerPair& pair,
                                             const PointConfig& config,
                                             const util::Rng& rng) {
  PointResult result;
  if (config.trials <= 0) return result;

  const AttemptLoopStats stats = runner_.run_attempts(
      static_cast<std::size_t>(config.trials),
      static_cast<std::size_t>(std::max(config.max_attempts, 0)), rng,
      [&](std::size_t /*attempt*/, util::Rng& arng) {
        AttemptOutcome outcome;
        try {
          const model::TaskSet ts = gen::generate_task_set(config.gen, arng);
          outcome.generated = true;
          // One context per trial, one *allocation* per thread: reset()
          // rebinds the thread's context to this attempt's task set while
          // keeping every internal buffer's capacity. Nothing is shared
          // across attempts/threads, so the attempt-order determinism
          // guarantee is untouched.
          thread_local std::optional<analysis::RtaContext> tls_ctx;
          if (!tls_ctx.has_value())
            tls_ctx.emplace(ts);
          else
            tls_ctx->reset(ts);
          analysis::RtaContext& ctx = *tls_ctx;
          outcome.verdict.baseline = pair.baseline->analyze(ts, ctx).schedulable;
          // With the baseline filter on, a failing attempt is discarded by
          // the commit step without ever reading the proposed verdict (or
          // the certification counters) — skip that work here. Lazily
          // evaluated or not, every recorded value is identical, and the
          // skip is a pure function of the attempt's own data, so the
          // thread-count invariance is untouched.
          const bool discarded =
              config.filter_baseline && !outcome.verdict.baseline;
          if (!discarded)
            outcome.verdict.proposed = pair.proposed->analyze(ts, ctx).schedulable;
          if (!discarded && config.certify_sample > 0) {
            // Sample decision from a salted fork of the attempt stream:
            // independent of the generator's draws, so the sampled subset is
            // a pure function of (root seed, attempt index) — identical for
            // every thread count.
            const double p =
                std::min(1.0, static_cast<double>(config.certify_sample) /
                                  static_cast<double>(config.trials));
            util::Rng crng = arng.fork_with(kCertifySalt);
            if (crng.bernoulli(p)) {
              outcome.certified = true;
              outcome.cert_failures = certify_one(*pair.baseline, ts, ctx) +
                                      certify_one(*pair.proposed, ts, ctx);
            }
          }
        } catch (const gen::GenerationError&) {
          outcome.generated = false;
        }
        return outcome;
      },
      [&](std::size_t /*attempt*/, AttemptOutcome& outcome) {
        if (!outcome.generated) {
          ++result.generation_errors;
          return false;
        }
        if (config.filter_baseline && !outcome.verdict.baseline) {
          ++result.discarded;
          return false;
        }
        ++result.accepted;
        if (outcome.verdict.baseline) ++result.baseline_schedulable;
        if (outcome.verdict.proposed) ++result.proposed_schedulable;
        if (outcome.certified) {
          ++result.certified;
          result.cert_failures += outcome.cert_failures;
        }
        result.verdicts.push_back(outcome.verdict);
        return true;
      });
  result.attempts_exhausted = stats.exhausted;
  return result;
}

}  // namespace rtpool::exp
