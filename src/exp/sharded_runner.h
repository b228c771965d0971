// Deterministic parallel attempt runner + checkpointable sharded sweeps.
//
// ShardedRunner is the one parallel driver: a worker pool (the library's
// own exec::ThreadPool — the harness dogfoods the runtime it analyzes), a
// speculative attempt-ordered commit loop (`run_attempts`), and a
// deterministic parallel map (`map_trials`). ExperimentEngine's Figure-2
// points, the figure sweeps (bench/sweep.cpp) and the corpus runner
// (src/corpus) all run on it.
//
// On top of those, `run_range` adds the corpus-scale primitive: a sweep
// over an *absolute* seed range [begin, end) split into contiguous
// shards. Every seed s is evaluated with `root.fork_with(s)` — keyed by
// the absolute seed, never by its position inside a shard — and folded
// strictly in seed order on the calling thread. Results are therefore
// bit-identical for any thread count AND any shard count; shards only
// set the checkpoint granularity. After each shard the caller's
// accumulated state is snapshotted into a JSON checkpoint file, so a
// killed run resumes at the last shard boundary and finishes with
// exactly the numbers of a straight-through run (property-tested in
// tests/test_corpus.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace rtpool::exec {
class ThreadPool;
}

namespace rtpool::exp {

/// Bookkeeping of one deterministic attempt loop.
struct AttemptLoopStats {
  std::size_t attempts = 0;  ///< Attempts consumed (committed, in order).
  bool exhausted = false;    ///< Budget ran out before `needed` commits.
};

/// Half-open absolute seed range [begin, end).
struct SeedRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t size() const { return end > begin ? end - begin : 0; }

  friend bool operator==(const SeedRange&, const SeedRange&) = default;
};

/// Configuration of a checkpointable `run_range` sweep.
struct RangeOptions {
  SeedRange range;
  /// Contiguous sub-ranges processed strictly in order (parallelism lives
  /// *within* a shard); also the checkpoint granularity. Clamped to the
  /// range size. Shard boundaries never change any number.
  std::size_t shards = 1;
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path`. The file must exist and match
  /// `fingerprint` + range + shards exactly (std::runtime_error otherwise:
  /// silently restarting a mismatched job would corrupt the statistics).
  bool resume = false;
  /// Caller-chosen identity string for the job (config digest). Stored
  /// verbatim in the checkpoint and validated on resume.
  std::string fingerprint;
  /// Stop (at the next shard boundary) once at least this many seeds have
  /// been evaluated by THIS invocation; 0 = no budget. The checkpoint is
  /// written before stopping, so a later `resume` run continues. Used by
  /// the CI kill/resume proof and by incremental background jobs.
  std::uint64_t budget_seeds = 0;
};

/// Outcome of a `run_range` invocation.
struct RangeStats {
  std::size_t shards_total = 0;
  std::size_t shards_run = 0;       ///< Shards evaluated by this invocation.
  std::size_t shards_restored = 0;  ///< Shards skipped via the checkpoint.
  std::uint64_t seeds_evaluated = 0;///< Seeds evaluated by this invocation.
  bool complete = false;            ///< Whole range covered (restored + run).

  friend bool operator==(const RangeStats&, const RangeStats&) = default;
};

/// Deterministic parallel runner with sharded checkpoint/resume.
class ShardedRunner {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency(); 1 runs
  /// everything inline on the calling thread (no pool). The worker count
  /// is additionally clamped to the hardware (unless `clamp_to_hardware`
  /// is false): results are thread-count invariant by construction, so
  /// oversubscription could only add jitter. `threads()` reports the
  /// requested value; `workers()` the effective one.
  explicit ShardedRunner(int threads = 1, bool clamp_to_hardware = true);
  ~ShardedRunner();

  ShardedRunner(const ShardedRunner&) = delete;
  ShardedRunner& operator=(const ShardedRunner&) = delete;

  int threads() const { return threads_; }
  int workers() const { return workers_; }

  /// Generic deterministic speculative attempt loop: conceptually
  ///
  ///   while committed < needed and attempts < max_attempts:
  ///       k = attempts++
  ///       r = eval(k, rng.fork_with(k))     // parallelized, speculative
  ///       if commit(k, r): committed++      // strictly in attempt order
  ///
  /// `eval` must be pure w.r.t. everything except its own Rng (it runs on
  /// pool workers, possibly out of order and speculatively past the final
  /// commit); `commit` runs on the calling thread, in attempt order, and
  /// returns whether the attempt filled one of the `needed` slots (a
  /// filtered/failed attempt still consumes budget, as in the paper's
  /// discard-and-regenerate setup). An exception from `eval` is rethrown
  /// at its attempt's turn, after every earlier commit.
  template <typename Eval, typename Commit>
  AttemptLoopStats run_attempts(std::size_t needed, std::size_t max_attempts,
                                const util::Rng& rng, Eval&& eval,
                                Commit&& commit) {
    using Result = std::decay_t<std::invoke_result_t<Eval&, std::size_t, util::Rng&>>;
    AttemptLoopStats stats;
    if (needed == 0 || max_attempts == 0) {
      stats.exhausted = needed > 0;
      return stats;
    }

    std::size_t committed = 0;
    if (pool_ == nullptr) {
      // Inline path: one attempt at a time, no speculation.
      while (committed < needed) {
        if (stats.attempts == max_attempts) {
          stats.exhausted = true;
          return stats;
        }
        const std::size_t k = stats.attempts++;
        util::Rng arng = rng.fork_with(k);
        Result r = eval(k, arng);
        if (commit(k, r)) ++committed;
      }
      return stats;
    }

    std::vector<std::optional<Result>> slots;
    std::vector<std::exception_ptr> errors;
    std::vector<std::function<void()>> jobs;
    std::size_t next_attempt = 0;
    while (committed < needed && next_attempt < max_attempts) {
      // Speculative batch: sized from the acceptance rate observed so far
      // so each round roughly finishes the point. Any size produces
      // bit-identical results — commits are strictly attempt-ordered;
      // oversized batches only waste eval work past the final commit.
      const double rate =
          stats.attempts == 0
              ? 1.0
              : std::max(static_cast<double>(committed) /
                             static_cast<double>(stats.attempts),
                         0.02);
      std::size_t batch = static_cast<std::size_t>(
          static_cast<double>(needed - committed) / rate) + 1;
      batch = std::clamp<std::size_t>(batch, static_cast<std::size_t>(workers_),
                                      4096);
      batch = std::min(batch, max_attempts - next_attempt);

      const std::size_t base = next_attempt;
      next_attempt += batch;
      slots.assign(batch, std::nullopt);
      errors.assign(batch, nullptr);
      // One job per worker, pulling attempt indices from a shared cursor:
      // the per-attempt std::function + queue round-trip of the old
      // one-job-per-attempt dispatch dominated small evals, and a shared
      // cursor load-balances long-tailed attempts for free. Slot writes are
      // published to the caller by dispatch()'s completion latch.
      const std::size_t njobs =
          std::min<std::size_t>(static_cast<std::size_t>(workers_), batch);
      std::atomic<std::size_t> cursor{0};
      jobs.clear();
      jobs.reserve(njobs);
      for (std::size_t j = 0; j < njobs; ++j) {
        jobs.push_back([this_eval = &eval, &rng, &slots, &errors, &cursor,
                        base, batch] {
          for (;;) {
            const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= batch) return;
            util::Rng arng = rng.fork_with(base + i);
            try {
              slots[i].emplace((*this_eval)(base + i, arng));
            } catch (...) {
              errors[i] = std::current_exception();
            }
          }
        });
      }
      dispatch(jobs);

      for (std::size_t i = 0; i < batch && committed < needed; ++i) {
        if (errors[i]) std::rethrow_exception(errors[i]);
        ++stats.attempts;
        if (commit(base + i, *slots[i])) ++committed;
      }
    }
    stats.exhausted = committed < needed;
    return stats;
  }

  /// Deterministic parallel map over `count` independent trials: trial i is
  /// evaluated with rng.fork_with(i) (on the pool) and folded with
  /// `fold(i, result)` in trial order on the calling thread.
  template <typename Eval, typename Fold>
  void map_trials(std::size_t count, const util::Rng& rng, Eval&& eval,
                  Fold&& fold) {
    run_attempts(count, count, rng, eval,
                 [&fold](std::size_t i, auto& r) {
                   fold(i, r);
                   return true;
                 });
  }

  /// Checkpointable sharded sweep over the absolute seed range of `opt`.
  ///
  ///   eval(seed, srng)   runs on workers with srng = root.fork_with(seed)
  ///                      (keyed by the ABSOLUTE seed — shard boundaries
  ///                      never reach the stream derivation);
  ///   fold(seed, result) runs strictly in seed order on the calling thread;
  ///   save_state()       serializes the caller's accumulated state (any
  ///                      string, typically JSON) after each shard;
  ///   load_state(blob)   restores it when resuming.
  ///
  /// Throws std::runtime_error on a resume mismatch (missing/garbled
  /// checkpoint, or fingerprint/range/shards differing from the file).
  template <typename Eval, typename Fold>
  RangeStats run_range(const RangeOptions& opt, const util::Rng& root,
                       Eval&& eval, Fold&& fold,
                       const std::function<std::string()>& save_state,
                       const std::function<void(const std::string&)>& load_state) {
    RangeStats stats;
    const std::uint64_t total = opt.range.size();
    stats.shards_total = plan_shards(opt);
    std::size_t completed = 0;
    if (opt.resume) {
      completed = restore(opt, stats.shards_total, load_state);
      stats.shards_restored = completed;
    }
    for (std::size_t shard = completed; shard < stats.shards_total; ++shard) {
      const SeedRange sub = shard_range(opt.range, stats.shards_total, shard);
      run_attempts(
          static_cast<std::size_t>(sub.size()),
          static_cast<std::size_t>(sub.size()), root,
          [&eval, &root, base = sub.begin](std::size_t k, util::Rng&) {
            // Re-derive the stream from the ABSOLUTE seed: the arng handed
            // in is keyed by the shard-relative index and must not be used.
            const std::uint64_t seed = base + k;
            util::Rng srng = root.fork_with(seed);
            return eval(seed, srng);
          },
          [&fold, base = sub.begin](std::size_t k, auto& r) {
            fold(base + k, r);
            return true;
          });
      ++stats.shards_run;
      stats.seeds_evaluated += sub.size();
      if (!opt.checkpoint_path.empty())
        write_checkpoint(opt, stats.shards_total, shard + 1, save_state());
      if (opt.budget_seeds != 0 && stats.seeds_evaluated >= opt.budget_seeds &&
          shard + 1 < stats.shards_total) {
        return stats;  // Paused at a shard boundary; checkpoint written.
      }
    }
    stats.complete = total == 0 || stats.shards_restored + stats.shards_run ==
                                       stats.shards_total;
    return stats;
  }

  /// The i-th of `shards` contiguous sub-ranges of `range` (sizes differ by
  /// at most one; exposed for tests and progress reporting).
  static SeedRange shard_range(const SeedRange& range, std::size_t shards,
                               std::size_t index);

 private:
  /// Effective shard count: clamped to [1, range size] (every shard
  /// non-empty so "one shard == some progress" holds for the budget logic).
  static std::size_t plan_shards(const RangeOptions& opt);

  /// Validate + load the checkpoint; returns completed_shards and feeds the
  /// state blob to `load_state`. Throws std::runtime_error on mismatch.
  std::size_t restore(const RangeOptions& opt, std::size_t shards_total,
                      const std::function<void(const std::string&)>& load_state);

  /// Atomically (write-to-temp + rename) persist the checkpoint.
  void write_checkpoint(const RangeOptions& opt, std::size_t shards_total,
                        std::size_t completed_shards, const std::string& state);

  /// Run all jobs (on the pool when present, inline otherwise) and wait for
  /// completion. Jobs must not throw (callers capture exceptions).
  void dispatch(std::vector<std::function<void()>>& jobs);

  int threads_ = 1;  ///< Requested parallelism (reporting only).
  int workers_ = 1;  ///< Effective parallelism (clamped to the hardware).
  std::unique_ptr<exec::ThreadPool> pool_;
};

}  // namespace rtpool::exp
