#include "src/san/study.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/core/replicate.h"
#include "src/obs/metrics.h"

namespace ckptsim::san {

const StudyMeasure& StudyResult::reward(const std::string& name) const {
  const auto it = rewards.find(name);
  if (it == rewards.end()) {
    throw std::out_of_range("StudyResult::reward: unknown reward '" + name + "'");
  }
  return it->second;
}

Study::Study(const Model& model, std::vector<RateRewardSpec> rate_rewards,
             std::vector<ImpulseRewardSpec> impulse_rewards)
    : model_(model),
      rate_rewards_(std::move(rate_rewards)),
      impulse_rewards_(std::move(impulse_rewards)) {
  for (const auto& r : rate_rewards_) {
    if (std::find(reward_names_.begin(), reward_names_.end(), r.name) == reward_names_.end()) {
      reward_names_.push_back(r.name);
    }
  }
  for (const auto& r : impulse_rewards_) {
    if (std::find(reward_names_.begin(), reward_names_.end(), r.name) == reward_names_.end()) {
      reward_names_.push_back(r.name);
    }
  }
}

namespace {

/// One replication's time-averaged rewards, one per registered name.
struct RewardMeans {
  std::vector<double> means;
  std::uint64_t firings = 0;
};

std::string nonfinite_reason(const RewardMeans& r) {
  const bool finite =
      std::all_of(r.means.begin(), r.means.end(), [](double m) { return std::isfinite(m); });
  return finite ? std::string() : "a reward time-average is non-finite";
}

}  // namespace

StudyResult Study::run(const RunSpec& spec, const std::string& precision_reward) const {
  spec.validate();
  if (spec.snapshot_every_events > 0) {
    throw std::invalid_argument("Study: snapshot_every_events is not supported");
  }
  // Resolve the reward the stopper watches (default: first registered).
  std::size_t primary = 0;
  if (spec.sequential.enabled()) {
    if (reward_names_.empty()) {
      throw std::invalid_argument("Study: sequential stopping needs at least one reward");
    }
    if (!precision_reward.empty()) {
      const auto it = std::find(reward_names_.begin(), reward_names_.end(), precision_reward);
      if (it == reward_names_.end()) {
        throw std::invalid_argument("Study: precision_reward '" + precision_reward +
                                    "' is not a registered reward");
      }
      primary = static_cast<std::size_t>(it - reward_names_.begin());
    }
  }
  StudyResult result;
  replicate<RewardMeans>(
      spec,
      {.attempt = [&](std::size_t, std::uint64_t seed, obs::ReplicationProbe* probe,
                      const SnapshotSpec*) {
         Executor exec(model_, seed);
         exec.set_event_budget(spec.watchdog.max_events);
         for (const auto& r : rate_rewards_) exec.rewards().add_rate(r);
         for (const auto& r : impulse_rewards_) exec.rewards().add_impulse(r);
         exec.run_until(spec.transient);
         exec.reset_rewards();
         exec.run_until(spec.transient + spec.horizon);
         // A variable may have both rate and impulse components under
         // one name (e.g. useful_work); time_average covers both, so
         // record each name once.
         RewardMeans out;
         out.means.reserve(reward_names_.size());
         for (const auto& name : reward_names_) {
           out.means.push_back(exec.rewards().time_average(name, exec.now()));
         }
         out.firings = exec.total_firings();
         if (probe != nullptr) {
           probe->activity_firings = exec.total_firings();
           probe->activity_aborts = exec.total_aborts();
           probe->queue = exec.queue_stats();
         }
         return out;
       },
       .reward = [primary](const RewardMeans& r) { return r.means[primary]; },
       .finish = [&](std::size_t, const auto& point) {
         for (const RewardMeans& rep : point.successes(&result.failures)) {
           for (std::size_t k = 0; k < reward_names_.size(); ++k) {
             result.rewards[reward_names_[k]].replicate_means.add(rep.means[k]);
           }
           result.total_firings += rep.firings;
           ++result.replications;
         }
         for (auto& [name, measure] : result.rewards) {
           measure.interval =
               stats::mean_confidence(measure.replicate_means, spec.confidence_level);
         }
         result.rounds = point.rounds();
       },
       .progress_label = "san study",
       .cancelled = "san study: cancelled",
       .failure_context = [](std::size_t) { return std::string("san study: "); }});
  return result;
}

}  // namespace ckptsim::san
